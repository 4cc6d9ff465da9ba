"""Regenerate the rows of the ROADMAP baseline table that the benchmark covers.

    python3 perfbench/baseline.py

Runs the ROADMAP case, Heisenberg with theta = 0 and k = 1 at step 1e-3, as a
traced run: every library call below sits in a span of the benchmark's
``Tracer`` (written to ``.bench_out/trace-baseline.json``), and the table is
read from the span durations.  ``integrate_reduced``, ``integrate_pmp``, both
Dirac scans and ``reconstruct_group`` run over the full horizon T = 2*pi; the
builtin against the problem-file ``solve-pmp`` runs through ``cli.main`` at
T = 1, with its outputs checked as in the untimed pass.  Each figure is a
single measurement, as in the ROADMAP, not a median.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import sys

import checkout

THETA, K = 0.0, 1.0
HORIZON = 2.0 * math.pi
CLI_HORIZON = 1.0


def traced_baseline(tr, work) -> dict:
    """Durations in seconds of the ROADMAP rows, row counts and the CLI outputs' deviation."""
    import numpy as np
    import pontrylie as pl
    from pontrylie import cli
    from pontrylie.heisenberg import heisenberg_problem, heisenberg_reduced_problem

    from tracing import BUILTIN_CONFIG, _xi_rows, duration, reduced_state
    from workloads import STEP, max_dev, mu0_of, read_csv, run_pass, solve_pmp, write_problem_file

    problem, reduced = heisenberg_problem(), heisenberg_reduced_problem()
    mu0 = mu0_of(THETA, K)
    m = {}
    with tr.span("reduction.integrate_reduced") as s:
        red = pl.integrate_reduced(reduced, reduced_state(mu0), HORIZON, BUILTIN_CONFIG)
    m["integrate_reduced"] = duration(s)
    with tr.span("pmp.integrate_pmp") as s:
        full = pl.integrate_pmp(problem, np.zeros(3), mu0, HORIZON, BUILTIN_CONFIG)
    m["integrate_pmp"] = duration(s)
    m["rows"] = len(full)
    with tr.span("pmp.dirac_membership_residuals", rows=len(full)) as s:
        pl.dirac_membership_residuals(problem, full)
    m["dirac_full"] = duration(s)
    with tr.span("reduction.reduced_dirac_residuals", rows=len(red)) as s:
        pl.reduced_dirac_residuals(reduced, red)
    m["dirac_reduced"] = duration(s)
    times = red.times - red.times[0]
    xi = _xi_rows(reduced, red)
    with tr.span("reconstruct.reconstruct_group", steps=len(red) - 1) as s:
        pl.reconstruct_group(reduced.algebra, pl.GroupElement(np.eye(3)), (times, xi), float(times[-1]), STEP)
    m["reconstruct_group"] = duration(s)

    builtin_csv, file_csv = work / "builtin.csv", work / "file.csv"
    commands = [
        solve_pmp("solve-pmp builtin", ["--builtin", "heisenberg"], THETA, K, CLI_HORIZON, builtin_csv),
        solve_pmp("solve-pmp --problem", ["--problem", str(write_problem_file(work))], THETA, K, CLI_HORIZON,
                  file_csv),
    ]
    with tr.span("cli.main solve-pmp builtin vs file"):
        record = run_pass(cli, commands, work, "baseline")
    if record.failed:
        raise checkout.BenchmarkError(f"{record.failed} of the CLI commands failed their checks")
    m["cli_builtin"], m["cli_file"] = record.command_s
    a, b = read_csv(builtin_csv), read_csv(file_csv)
    m["file_deviation"] = max(max_dev(a[name], b[name]) for name in a if name != "t")
    return m


def table(m: dict) -> str:
    def per(seconds, count, unit):
        return f"{seconds:.2f} s (≈{1e6 * seconds / count:,.0f} µs/{unit})"

    steps = m["rows"] - 1
    rows = [
        ("`integrate_reduced`", per(m["integrate_reduced"], steps, "step")),
        ("`integrate_pmp`", per(m["integrate_pmp"], steps, "step")),
        ("`dirac_membership_residuals` / `reduced_dirac_residuals`",
         f"{m['dirac_full']:.2f} s / {m['dirac_reduced']:.2f} s"),
        ("`reconstruct_group`", f"{m['reconstruct_group']:.2f} s"),
        (f"CLI `solve-pmp`, `T={CLI_HORIZON:g}`: builtin vs the same problem as a JSON file",
         f"{m['cli_builtin']:.1f} s vs {m['cli_file']:.1f} s; the JSON file deviates from the builtin by "
         f"{m['file_deviation']:.1e}"),
    ]
    lines = ["| path | measured |", "|---|---|"] + [f"| {path} | {value} |" for path, value in rows]
    return "\n".join(lines)


def main() -> int:
    try:
        checkout.import_cli()
    except (checkout.BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import tracing

    tr = tracing.Tracer("baseline")
    work = checkout.OUT / f"baseline-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        metrics = traced_baseline(tr, work)
    except checkout.BenchmarkError as exc:
        print(f"baseline failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tr.write(checkout.OUT / "trace-baseline.json")
    print(f"Setup: {os.cpu_count()} cores, Python {platform.python_version()}, NumPy {np.__version__}, "
          f"BLAS pinned to 1 thread. Each figure is a single wall-clock run. Case: Heisenberg, "
          f"`theta={THETA:g}, k={K:g}`, step 1e-3, `T=2π`, {metrics['rows']:,} rows, unless stated otherwise.\n")
    print(table(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
