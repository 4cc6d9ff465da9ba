"""One public surface: ``pontrylie`` exports only what a reader outside the tests uses.

A reader is a command (``cli.py``), the README, an acceptance criterion (``test_acceptance.py``) or the benchmark
(``perfbench/*.py``); an export passes when its name appears there as a word.  Error classes are exempt, and so is
each name in ``KEPT``, which an open ROADMAP item is about to use.
"""

import re
import types
from pathlib import Path

import pontrylie
from pontrylie.errors import PontrylieError

ROOT = Path(__file__).resolve().parents[1]
READERS = (ROOT / "src" / "pontrylie" / "cli.py", ROOT / "README.md", ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "perfbench").glob("*.py")))
KEPT = {
    "check_invariance": "ROADMAP item 3: reduce(problem) refuses a problem that fails it",
    "lagrange_pontryagin_action": "ROADMAP item 4: the reduced action is checked against it",
}


def test_every_export_has_a_reader_outside_the_tests():
    words = set(re.findall(r"\w+", "\n".join(path.read_text() for path in READERS)))
    exports = {name for name, value in vars(pontrylie).items()
               if not name.startswith("__") and not isinstance(value, types.ModuleType)
               and not (isinstance(value, type) and issubclass(value, PontrylieError))}
    assert sorted(exports - words - set(KEPT)) == []
    # an allowlisted name is still exported and has no reader yet; once it has one it leaves KEPT
    assert set(KEPT) <= exports and not set(KEPT) & words
