"""Locate and import the pontrylie sources of the checkout this benchmark sits in.

Importing this module pins the BLAS thread pools to one thread, so every entry
point imports it before anything that loads NumPy; ``import_cli`` refuses to
run if NumPy was loaded first.  It imports nothing heavy itself, which lets
``setup_probe`` time the package import from a cold interpreter.
"""

import os
import sys
from pathlib import Path

# BLAS reads its thread count once, when NumPy loads it
NUMPY_LOADED_BEFORE_PINNING = "numpy" in sys.modules
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed child process)."""


def import_cli():
    """Import ``pontrylie.cli`` from ``src/`` of this checkout, never from an installed copy."""
    if NUMPY_LOADED_BEFORE_PINNING:
        raise BenchmarkError("NumPy was imported before checkout, so BLAS is not pinned to one thread")
    package = SRC / "pontrylie"
    if not (package / "__init__.py").is_file():
        raise BenchmarkError(f"no pontrylie sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pontrylie import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchmarkError(f"imported pontrylie from {cli.__file__}, expected {package}")
    return cli
