"""Seeded workloads, the timed CLI pass and the output gate of the benchmark.

Every workload is a fixed list of ``pontrylie`` commands run in-process through
``cli.main(argv)``, one after the other (a closed loop with one caller).  The
seed picks the momentum angle theta and the vertical momentum k of each
geodesic; the program sees only the generated argv and the generated problem
file.  k is drawn from [0.5, 2] (plus k = 0 in the grid), so every input is a
regular Heisenberg geodesic on which no command may fail.

Outputs are gated twice: every ``RESULT`` line is parsed as strict JSON (NaN and
Infinity rejected) and its numbers are held to the acceptance tolerances, and
every trajectory file is read back with NumPy and compared with the Heisenberg
closed forms written out below, independently of the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

STEP = 1e-3
MU_TOL = 1e-6  # closed-form body momentum and full state
DRIFT_TOL = 1e-6  # H and h drift
DIRAC_TOL = 1e-6  # membership residual
COMPARE_TOL = 1e-5  # projected full vs reduced
RADIAL_TOL = 1e-5  # reconstructed circle radius and chart

WORKLOADS = ("geodesic-pipeline", "reduced-grid", "problem-file")

# The README's problem-file schema, spelling out the builtin Heisenberg problem.
HEISENBERG_FILE = {
    "n": 3,
    "r": 2,
    "dynamics": ["u1", "u2", "(x1*u2 - x2*u1)/2"],
    "lagrangian": "0.5*(u1^2 + u2^2)",
    "algebra": {"dim": 3, "structure": [[0, 1, 2, 1.0]]},
    "action": [["1", "0", "0.5*x2"], ["0", "1", "-0.5*x1"], ["0", "0", "1"]],
    "reduced": {
        "s": 0,
        "lagrangian": "0.5*(u1^2 + u2^2)",
        "base_dynamics": [],
        "fiber_dynamics": ["u1", "u2", "0"],
    },
}


@dataclass(frozen=True)
class Sizes:
    """Horizons (multiples of STEP) and probe sizes; ``smoke`` shrinks them for tests."""

    geo_T: float
    grid_T: float
    file_T: float
    count_steps: int  # horizon, in steps, of the callback-counting integrations
    probe_repeats: int
    self_test_count: int


FULL = Sizes(geo_T=1.0, grid_T=0.2, file_T=0.3, count_steps=200, probe_repeats=3, self_test_count=200)
SMOKE = Sizes(geo_T=0.02, grid_T=0.01, file_T=0.01, count_steps=5, probe_repeats=1, self_test_count=5)


def write_problem_file(work: Path) -> Path:
    path = work / "heisenberg.json"
    path.write_text(json.dumps(HEISENBERG_FILE, indent=2))
    return path


def steps_of(duration: float) -> int:
    return int(math.floor(duration / STEP + 1e-9))


@dataclass(frozen=True)
class Params:
    """Everything the seed decides."""

    geo: tuple  # (theta, k)
    grid_thetas: tuple
    grid_ks: tuple
    file: tuple  # (theta, k)
    dirac_seed: int  # seed of the check-dirac self-test

    @staticmethod
    def draw(seed: int) -> "Params":
        rng = random.Random(seed)

        def geodesic():
            return (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 2.0))

        geo = geodesic()
        # the acceptance grid theta in {0, pi/4}, k in {0.5, 1, 2}, plus k = 0, jittered
        thetas = (rng.uniform(-0.2, 0.2), math.pi / 4 + rng.uniform(-0.2, 0.2))
        ks = (0.0,) + tuple(k * rng.uniform(0.9, 1.1) for k in (0.5, 1.0, 2.0))
        return Params(geo=geo, grid_thetas=thetas, grid_ks=ks, file=geodesic(), dirac_seed=rng.randrange(2**31))

    @property
    def grid(self) -> List[tuple]:
        return [(theta, k) for theta in self.grid_thetas for k in self.grid_ks]


def mu0_of(theta: float, k: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta), k])


def vector_arg(values) -> str:
    """Comma-separated exact floats; pass as ``--opt=VALUE`` so a leading minus is not read as an option."""
    return ",".join(repr(float(v)) for v in values)


# ---------------------------------------------------------------- closed forms


def mu_closed(theta: float, k: float, t: np.ndarray) -> np.ndarray:
    phase = theta + k * t
    return np.column_stack([np.cos(phase), np.sin(phase), np.full_like(t, k)])


def chart_closed(theta: float, k: float, t: np.ndarray) -> np.ndarray:
    """Geodesic from the origin in chart coordinates (k != 0): a circle of radius 1/k."""
    phase = theta + k * t
    x = (np.sin(phase) - math.sin(theta)) / k
    y = (math.cos(theta) - np.cos(phase)) / k
    z = t / (2.0 * k) - np.sin(k * t) / (2.0 * k * k)
    return np.column_stack([x, y, z])


def costate_closed(theta: float, k: float, t: np.ndarray) -> np.ndarray:
    chart = chart_closed(theta, k, t)
    mu = mu_closed(theta, k, t)
    return np.column_stack(
        [mu[:, 0] + 0.5 * k * chart[:, 1], mu[:, 1] - 0.5 * k * chart[:, 0], np.full_like(t, k)]
    )


# ---------------------------------------------------------------- output gate


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_result(stdout: str) -> dict:
    """The last stdout line must be ``RESULT <strict JSON object>``."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("RESULT "):
        raise ValueError("no RESULT line")
    value = json.loads(lines[-1][len("RESULT "):], parse_constant=_reject_constant)
    if not isinstance(value, dict):
        raise ValueError("RESULT is not a JSON object")
    return value


def within(failures: List[str], what: str, value, tol: float) -> None:
    """Record a failure unless ``value`` is a finite number no larger than ``tol``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value <= tol:
        failures.append(f"{what} = {value!r} exceeds {tol:g}")


def equal(failures: List[str], what: str, value, expected) -> None:
    if value != expected:
        failures.append(f"{what} = {value!r}, expected {expected!r}")


def read_csv(path) -> Dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} values per row for {len(header)} columns")
    return {name: data[:, i] for i, name in enumerate(header)}


def block(table: Dict[str, np.ndarray], prefix: str, count: int) -> np.ndarray:
    return np.column_stack([table[f"{prefix}{i + 1}"] for i in range(count)])


def max_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def check_full_csv(failures, path, theta, k, rows) -> None:
    table = read_csv(path)
    t = table["t"]
    equal(failures, f"{path} rows", len(t), rows)
    mu = mu_closed(theta, k, t)
    within(failures, f"{path} |x - closed form|", max_dev(block(table, "x", 3), chart_closed(theta, k, t)), MU_TOL)
    within(failures, f"{path} |p - closed form|", max_dev(block(table, "p", 3), costate_closed(theta, k, t)), MU_TOL)
    within(failures, f"{path} |u - closed form|", max_dev(block(table, "u", 2), mu[:, :2]), MU_TOL)
    within(failures, f"{path} H drift", max_dev(table["H"], table["H"][0]), DRIFT_TOL)


def check_reduced_csv(failures, path, theta, k, rows) -> None:
    table = read_csv(path)
    t = table["t"]
    equal(failures, f"{path} rows", len(t), rows)
    mu = mu_closed(theta, k, t)
    within(failures, f"{path} |mu - closed form|", max_dev(block(table, "mu", 3), mu), MU_TOL)
    within(failures, f"{path} |u - closed form|", max_dev(block(table, "u", 2), mu[:, :2]), MU_TOL)
    within(failures, f"{path} h drift", max_dev(table["h"], table["h"][0]), DRIFT_TOL)


def check_chart_csv(failures, path, theta, k, rows) -> None:
    table = read_csv(path)
    t = table["t"]
    equal(failures, f"{path} rows", len(t), rows)
    within(failures, f"{path} |chart - closed form|", max_dev(block(table, "x", 3), chart_closed(theta, k, t)), RADIAL_TOL)


# ---------------------------------------------------------------- commands


Argv = Union[List[str], Callable[[Dict[str, dict]], List[str]]]


@dataclass
class Command:
    """One CLI invocation of a pass.

    ``kind`` is "solve" (counts towards solve_steps_per_s), "verify" (towards
    verify_rows_per_s) or "other".  ``work`` is the number of RK4 steps or
    rows it processes.  ``argv`` may depend on the parsed results of earlier
    commands of the pass; ``check`` appends failure messages for a parsed result.
    """

    name: str
    kind: str
    work: int
    argv: Argv
    check: Callable[[dict, List[str]], None]


def _ok(result: dict, failures: List[str]) -> None:
    equal(failures, "status", result.get("status"), "ok")
    equal(failures, "exit_code", result.get("exit_code"), 0)


def solve_pmp(name, source, theta, k, duration, out) -> Command:
    rows = steps_of(duration) + 1

    def check(result, failures):
        _ok(result, failures)
        equal(failures, "rows", result.get("rows"), rows)
        within(failures, "H_drift", result.get("H_drift"), DRIFT_TOL)
        check_full_csv(failures, out, theta, k, rows)

    argv = ["solve-pmp", *source, f"--p0={vector_arg(mu0_of(theta, k))}", "--T", repr(duration),
            "--step", repr(STEP), "--out", str(out)]
    return Command(name, "solve", rows - 1, argv, check)


def solve_reduced(name, source, theta, k, duration, out, analytic) -> Command:
    rows = steps_of(duration) + 1

    def check(result, failures):
        _ok(result, failures)
        runs = result.get("runs") or [{}]
        equal(failures, "runs", len(runs), 1)
        equal(failures, "rows", runs[0].get("rows"), rows)
        within(failures, "h_drift", runs[0].get("h_drift"), DRIFT_TOL)
        if analytic:  # the CLI knows the closed form only for the builtin
            within(failures, "closed_form_max_dev", runs[0].get("closed_form_max_dev"), MU_TOL)
        check_reduced_csv(failures, out, theta, k, rows)

    argv = ["solve-reduced", *source, f"--lambda0={vector_arg(mu0_of(theta, k))}", "--T", repr(duration),
            "--step", repr(STEP), "--out", str(out)]
    return Command(name, "solve", rows - 1, argv, check)


def check_dirac(name, source, traj, rows, mode) -> Command:
    def check(result, failures):
        _ok(result, failures)
        equal(failures, "mode", result.get("mode"), mode)
        equal(failures, "rows", result.get("rows"), rows)
        within(failures, "max_residual", result.get("max_residual"), DIRAC_TOL)

    argv = ["check-dirac", *source, "--traj", str(traj), "--tol", repr(DIRAC_TOL)]
    return Command(name, "verify", rows, argv, check)


def reconstruct(name, traj: Argv, theta, k, rows, out) -> Command:
    def check(result, failures):
        _ok(result, failures)
        equal(failures, "rows", result.get("rows"), rows)
        within(failures, "max_radial_deviation", result.get("max_radial_deviation"), RADIAL_TOL)
        check_chart_csv(failures, out, theta, k, rows)

    def argv(results):
        path = traj(results) if callable(traj) else traj
        return ["reconstruct", "--builtin", "heisenberg", "--traj", str(path), "--out", str(out)]

    return Command(name, "verify", rows, argv, check)


def build(workload: str, params: Params, sizes: Sizes, work: Path) -> List[Command]:
    """The commands of one pass of ``workload``; writes the problem file it needs."""
    work.mkdir(parents=True, exist_ok=True)
    builtin = ["--builtin", "heisenberg"]
    if workload == "geodesic-pipeline":
        theta, k = params.geo
        full, red, chart = work / "full.csv", work / "reduced.csv", work / "chart.csv"
        rows = steps_of(sizes.geo_T) + 1
        count = sizes.self_test_count

        def self_test_check(result, failures):
            _ok(result, failures)
            equal(failures, "passes", result.get("passes"), count)
            equal(failures, "count", result.get("count"), count)

        def compare_check(result, failures):
            _ok(result, failures)
            equal(failures, "rows", result.get("rows"), rows)
            equal(failures, "resampled", result.get("resampled"), False)
            within(failures, "max_deviation", result.get("max_deviation"), COMPARE_TOL)

        return [
            solve_pmp("solve-pmp", builtin, theta, k, sizes.geo_T, full),
            solve_reduced("solve-reduced", builtin, theta, k, sizes.geo_T, red, True),
            reconstruct("reconstruct", red, theta, k, rows, chart),
            check_dirac("check-dirac full", builtin, full, rows, "full"),
            check_dirac("check-dirac reduced", builtin, red, rows, "reduced"),
            Command("compare", "verify", rows,
                    ["compare", *builtin, "--full", str(full), "--reduced", str(red), "--tol", repr(COMPARE_TOL)],
                    compare_check),
            Command("check-dirac self-test", "other", count,
                    ["check-dirac", "--self-test", "--seed", str(params.dirac_seed), "--count", str(count)],
                    self_test_check),
        ]
    if workload == "reduced-grid":
        grid = params.grid
        rows = steps_of(sizes.grid_T) + 1
        out = work / "grid.csv"
        # reconstruct one k != 0 member, so the verify path is measured here too
        pick = (params.grid_thetas[0], params.grid_ks[1])

        def find(runs, theta, k):
            target = mu0_of(theta, k)
            return next((r for r in runs if np.allclose(r.get("mu0", []), target, rtol=0, atol=1e-12)), None)

        def grid_check(result, failures):
            _ok(result, failures)
            runs = result.get("runs") or []
            equal(failures, "runs", len(runs), len(grid))
            for theta, k in grid:
                run = find(runs, theta, k)
                if run is None:
                    failures.append(f"no run for theta={theta!r} k={k!r}")
                    continue
                equal(failures, "rows", run.get("rows"), rows)
                within(failures, "h_drift", run.get("h_drift"), DRIFT_TOL)
                within(failures, "closed_form_max_dev", run.get("closed_form_max_dev"), MU_TOL)
                check_reduced_csv(failures, run["out"], theta, k, rows)

        def picked_out(results):
            run = find((results.get("solve-reduced grid") or {}).get("runs") or [], *pick)
            if run is None:
                raise ValueError("the grid RESULT has no run to reconstruct")
            return run["out"]

        argv = ["solve-reduced", *builtin, f"--theta={vector_arg(params.grid_thetas)}",
                f"--k={vector_arg(params.grid_ks)}", "--T", repr(sizes.grid_T), "--step", repr(STEP),
                "--out", str(out)]
        return [
            Command("solve-reduced grid", "solve", len(grid) * (rows - 1), argv, grid_check),
            reconstruct("reconstruct", picked_out, *pick, rows, work / "grid_chart.csv"),
        ]
    if workload == "problem-file":
        theta, k = params.file
        source = ["--problem", str(write_problem_file(work))]
        full, red = work / "file_full.csv", work / "file_reduced.csv"
        rows = steps_of(sizes.file_T) + 1
        return [
            solve_pmp("solve-pmp --problem", source, theta, k, sizes.file_T, full),
            solve_reduced("solve-reduced --problem", source, theta, k, sizes.file_T, red, False),
            check_dirac("check-dirac --problem", source, full, rows, "full"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- one pass


@dataclass
class PassRecord:
    wall_s: float = 0.0  # sum of the commands' wall times
    cpu_s: float = 0.0
    solve_s: float = 0.0
    solve_steps: int = 0
    verify_s: float = 0.0
    verify_rows: int = 0
    attempted: int = 0
    failed: int = 0
    command_s: List[float] = field(default_factory=list)
    command_cpu_s: List[float] = field(default_factory=list)
    kernel_s: List[tuple] = field(default_factory=list)  # calibration kernel (wall, CPU) before each command


def run_pass(cli, commands: List[Command], work: Path, label: str,
             kernel: Optional[Callable[[], tuple]] = None) -> PassRecord:
    """Run every command once, timing each; then gate all outputs.

    ``kernel``, when given, is timed before each command and kept out of the
    command times.  Trajectory files left in ``work`` by the previous pass are
    deleted first, so every check reads what this pass wrote.  A command fails
    when it raises, exits non-zero, prints no strict-JSON RESULT, or any check
    on its outputs fails.  Failures are printed to stderr.
    """
    for stale in work.glob("*.csv"):
        stale.unlink()
    record = PassRecord()
    outcomes = []
    results: Dict[str, dict] = {}
    for cmd in commands:
        if kernel is not None:
            record.kernel_s.append(kernel())
        buf = io.StringIO()
        error: Optional[str] = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            argv = cmd.argv(results) if callable(cmd.argv) else cmd.argv
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:  # the harness keeps running and reports the failure
            code, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        record.command_cpu_s.append(time.process_time() - cpu_start)
        record.cpu_s += record.command_cpu_s[-1]
        record.wall_s += elapsed
        record.command_s.append(elapsed)
        try:
            results[cmd.name] = parse_result(buf.getvalue())
        except ValueError as exc:
            error = error or f"unparsable RESULT: {exc}"
        outcomes.append((cmd, code, elapsed, error))

    for cmd, code, elapsed, error in outcomes:
        record.attempted += 1
        failures: List[str] = []
        if error is not None:
            failures.append(error.strip())
        else:
            equal(failures, "exit code", code, 0)
            try:
                cmd.check(results[cmd.name], failures)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                failures.append(f"output unreadable: {exc!r}")
        record.failed += bool(failures)
        for message in failures:
            print(f"FAIL {label} {cmd.name}: {message}", file=sys.stderr)
        if cmd.kind == "solve":
            record.solve_s += elapsed
            record.solve_steps += cmd.work
        elif cmd.kind == "verify":
            record.verify_s += elapsed
            record.verify_rows += cmd.work
    return record
