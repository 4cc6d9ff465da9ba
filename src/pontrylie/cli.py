"""Batch command-line front end.

Subcommands: solve-pmp, solve-reduced, reconstruct, check-dirac, compare.
Every command prints a machine-readable JSON summary prefixed ``RESULT `` as
its last stdout line; diagnostics go to stderr.  Exit codes: 0 success,
1 input/validation error, 2 numerical/solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import dirac, expr, heisenberg, pmp, reconstruct, reduction
from .errors import EvaluationError, NonNilpotentError, PontrylieError, SolverError
from .lie import exp_nilpotent
from .ocp import ControlProblem
from .pmp import PmpSolverConfig, Trajectory

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2

_SOLVER_ERRORS = (SolverError, EvaluationError, NonNilpotentError, expr.ExprEvaluationError)


@dataclass(frozen=True)
class LoadedProblem:
    name: str
    problem: ControlProblem
    reduced: Optional[reduction.ReducedProblem]


def _builtin(name: str) -> LoadedProblem:
    if name != "heisenberg":
        raise PontrylieError(f"unknown builtin problem '{name}'")
    return LoadedProblem(
        name="heisenberg",
        problem=heisenberg.heisenberg_problem(),
        reduced=heisenberg.heisenberg_reduced_problem(),
    )


def load_problem_file(path) -> LoadedProblem:
    """Build a problem from the JSON schema (see README and ``expr.load_problem``)."""
    with open(path) as fh:
        data = json.load(fh)
    name = Path(path).stem
    return LoadedProblem(name, *expr.load_problem(data, name, f"problem file {path}"))


def _load(args) -> LoadedProblem:
    if getattr(args, "builtin", None):
        return _builtin(args.builtin)
    if getattr(args, "problem", None):
        return load_problem_file(args.problem)
    raise PontrylieError("give either --builtin NAME or --problem FILE")


def _option_values(text: str, option: str) -> List[float]:
    """The comma-separated floats given to ``--{option}``, each checked to be a finite number (an empty entry is
    not one)."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise PontrylieError(f"--{option} '{text}' has an entry that is not a number ({exc})") from exc
    if not all(np.isfinite(values)):
        raise PontrylieError(f"--{option} '{text}' has a non-finite entry")
    return values


def _check_tolerance(tol: float) -> None:
    if not (np.isfinite(tol) and tol >= 0):
        raise PontrylieError(f"--tol must be finite and nonnegative, got {tol}")


def _output_path(args, default: str) -> str:
    """``--out``, or ``default``, once its directory is known to exist: checked before any work."""
    out = args.out or default
    if not Path(out).parent.is_dir():
        raise PontrylieError(f"--out directory '{Path(out).parent}' does not exist")
    return out


def _write(trajectory: Trajectory, out: str, fmt: str) -> str:
    if fmt == "json":
        trajectory.to_json(out)
    else:
        trajectory.to_csv(out)
    return out


def _drift(values: np.ndarray) -> float:
    return float(np.max(np.abs(values - values[0]))) if values.size else 0.0


def _solver_stats(trajectory: Trajectory) -> dict:
    """The most Newton updates of any solve and the worst stationarity residual of a stored row."""
    return {
        "newton_iters_max": int(np.max(trajectory.channel("newton_iters"))),
        "stationarity_max": float(np.max(trajectory.channel("stationarity"))),
    }


def cmd_solve_pmp(args) -> Tuple[int, dict]:
    loaded = _load(args)
    out = _output_path(args, f"pmp_{loaded.name}.{args.format}")
    problem = loaded.problem
    x0 = _option_values(args.x0, "x0") if args.x0 else np.zeros(problem.n)
    if args.p0 is None:
        raise PontrylieError("--p0 is required")
    p0 = _option_values(args.p0, "p0")
    trajectory = pmp.integrate_pmp(problem, x0, p0, args.T, PmpSolverConfig(rk_step=args.step))
    _write(trajectory, out, args.format)
    summary = {
        "command": "solve-pmp",
        "problem": loaded.name,
        "rows": len(trajectory),
        "out": out,
        "H_drift": _drift(trajectory.channel("H")),
        **_solver_stats(trajectory),
    }
    momentum = {k: _drift(v) for k, v in trajectory.channels.items() if k.startswith("J")}
    if momentum:
        summary["momentum_drift"] = momentum
    print(f"integrated {len(trajectory)} rows over T={args.T:g} (step {args.step:g})")
    print(f"H drift: {summary['H_drift']:.3e}")
    for k, v in sorted(momentum.items()):
        print(f"{k} drift: {v:.3e}")
    return EXIT_OK, summary


def _reduced_summary(loaded: LoadedProblem, trajectory: Trajectory, mu0, out: str, args) -> dict:
    problem = loaded.reduced
    summary = {
        "mu0": [float(v) for v in mu0],
        "rows": len(trajectory),
        "out": out,
        "h_drift": _drift(trajectory.channel("h")),
        **_solver_stats(trajectory),
    }
    for name in problem.casimirs:
        summary[f"{name}_drift"] = _drift(trajectory.channel(name))
    if args.builtin == "heisenberg":
        exact = heisenberg.lambda_rotation_closed_form(mu0, trajectory.times)
        summary["closed_form_max_dev"] = float(np.max(np.abs(trajectory.block("mu") - exact)))
    return summary


def cmd_solve_reduced(args) -> Tuple[int, dict]:
    loaded = _load(args)
    if loaded.reduced is None:
        raise PontrylieError(f"problem '{loaded.name}' declares no reduced form")
    problem = loaded.reduced
    stem = _output_path(args, f"reduced_{loaded.name}.{args.format}")

    mu0_list: List[Tuple[np.ndarray, str]] = []  # (mu0, output path)
    if args.lambda0 is not None and (args.theta is not None or args.k is not None):
        raise PontrylieError("give either --lambda0 or --theta/--k, not both")
    if args.lambda0:
        mu0_list.append((np.array(_option_values(args.lambda0, "lambda0")), stem))
    elif args.theta is not None and args.k is not None:
        if problem.algebra.dim != 3:
            raise PontrylieError("--theta/--k build lambda0 = (cos theta, sin theta, k) and need an algebra "
                                 f"of dimension 3, got {problem.algebra.dim}")
        thetas, ks = _option_values(args.theta, "theta"), _option_values(args.k, "k")
        grid, path, points = len(thetas) * len(ks) > 1, Path(stem), {}
        for theta in thetas:
            for k in ks:
                out = str(path.with_name(f"{path.stem}_theta{theta:g}_k{k:g}{path.suffix}")) if grid else stem
                if out in points:
                    raise PontrylieError(f"grid points (theta, k) = {points[out]} and ({theta!r}, {k!r}) would both "
                                         f"write '{out}'")
                points[out] = f"({theta!r}, {k!r})"
                mu0_list.append((heisenberg.unit_cylinder_costate(theta, k), out))
    else:
        raise PontrylieError("give --lambda0 or both --theta and --k")
    for mu0, _ in mu0_list:
        if mu0.shape != (problem.algebra.dim,):
            raise PontrylieError(f"lambda0 must have length {problem.algebra.dim}")

    s = problem.base_dim
    z0 = _option_values(args.z0, "z0") if args.z0 else np.zeros(s)
    pz0 = _option_values(args.pz0, "pz0") if args.pz0 else np.zeros(s)
    states = [reduction.ReducedState(z0, pz0, mu0, np.zeros(problem.control_dim)) for mu0, _ in mu0_list]
    # the whole grid in one batch: up to pmp._FLOAT_MEMBERS members swept one by one on floats, more in one NumPy sweep
    trajectories = reduction.integrate_reduced(problem, states, args.T, PmpSolverConfig(rk_step=args.step))
    runs = [_reduced_summary(loaded, trajectory, mu0, _write(trajectory, out, args.format), args)
            for (mu0, out), trajectory in zip(mu0_list, trajectories)]
    for summary in runs:
        line = f"mu0={summary['mu0']} rows={summary['rows']} h_drift={summary['h_drift']:.3e}"
        if "closed_form_max_dev" in summary:
            line += f" closed_form_max_dev={summary['closed_form_max_dev']:.3e}"
        print(line)
    result = {"command": "solve-reduced", "problem": loaded.name, "runs": runs}
    return EXIT_OK, result


def cmd_reconstruct(args) -> Tuple[int, dict]:
    loaded = _load(args)
    if loaded.reduced is None:
        raise PontrylieError(f"problem '{loaded.name}' declares no reduced form")
    algebra = loaded.reduced.algebra
    out = _output_path(args, f"reconstructed_{loaded.name}.{args.format}")
    if args.step is not None and not (np.isfinite(args.step) and args.step > 0):
        raise PontrylieError(f"--step must be positive and finite, got {args.step}")
    g0 = exp_nilpotent(algebra, _option_values(args.g0, "g0") if args.g0 else np.zeros(algebra.dim))
    trajectory = _read_trajectory(args.traj)
    times, values = reconstruct.xi_curve_from_reduced(loaded.reduced, trajectory)
    step = args.step if args.step is not None else float(np.median(np.diff(times))) if len(times) > 1 else 1.0
    duration = float(times[-1] - times[0])
    path = reconstruct.reconstruct_group(algebra, g0, (times - times[0], values), duration, step)
    chart = reconstruct.chart_trajectory(path)
    _write(chart, out, args.format)
    summary = {"command": "reconstruct", "rows": len(chart), "out": out}
    mu = trajectory.block("mu")
    if args.builtin == "heisenberg" and mu.shape[1] == 3:
        k = float(mu[0, 2])
        summary["k"] = k
        if abs(k) > 1e-12:
            theta = float(np.arctan2(mu[0, 1], mu[0, 0]))
            center = np.array([-np.sin(theta) / k, np.cos(theta) / k])
            start = chart.states[0, :2]
            radii = np.hypot(
                chart.states[:, 0] - start[0] - center[0], chart.states[:, 1] - start[1] - center[1]
            )
            summary["circle_radius"] = 1.0 / abs(k)
            summary["max_radial_deviation"] = float(np.max(np.abs(radii - 1.0 / abs(k))))
            print(
                f"planar projection: circle radius {summary['circle_radius']:g}, "
                f"max radial deviation {summary['max_radial_deviation']:.3e}"
            )
        else:
            print("k = 0: straight-line family")
    return EXIT_OK, summary


def _read_trajectory(path: str) -> Trajectory:
    if str(path).endswith(".json"):
        return Trajectory.from_json(path)
    return Trajectory.from_csv(path)


def cmd_check_dirac(args) -> Tuple[int, dict]:
    if args.self_test:
        for option, value in (("count", args.count), ("max-dim", args.max_dim)):
            if value < 1:
                raise PontrylieError(f"--{option} must be at least 1, got {value}")
        rng = np.random.default_rng(args.seed)
        passes = 0
        for _ in range(args.count):
            d = int(rng.integers(1, args.max_dim + 1))
            raw = rng.normal(size=(d, d))
            structure = dirac.graph_of_two_form(dirac.TwoForm(raw - raw.T))
            if dirac.is_dirac(structure):
                passes += 1
        print(f"{passes}/{args.count} Dirac-property passes")
        ok = passes == args.count
        return (EXIT_OK if ok else EXIT_SOLVER), {
            "command": "check-dirac",
            "mode": "self-test",
            "passes": passes,
            "count": args.count,
        }

    if not args.traj:
        raise PontrylieError("give --traj FILE or --self-test")
    _check_tolerance(args.tol)
    loaded = _load(args)
    trajectory = _read_trajectory(args.traj)
    if "mu1" in trajectory.columns:
        if loaded.reduced is None:
            raise PontrylieError("reduced trajectory given but problem has no reduced form")
        residuals = reduction.reduced_dirac_residuals(loaded.reduced, trajectory)
        kind = "reduced"
    else:
        residuals = pmp.dirac_membership_residuals(loaded.problem, trajectory)
        kind = "full"
    worst = float(np.max(residuals))
    print(f"{kind} trajectory: {len(residuals)} rows, max membership residual {worst:.3e} (tol {args.tol:g})")
    ok = worst <= args.tol
    return (EXIT_OK if ok else EXIT_SOLVER), {
        "command": "check-dirac",
        "mode": kind,
        "rows": int(len(residuals)),
        "max_residual": worst,
        "tol": args.tol,
    }


def cmd_compare(args) -> Tuple[int, dict]:
    _check_tolerance(args.tol)
    loaded = _load(args)
    sym = loaded.problem.symmetry
    if sym is None or sym.body_frame is None:
        raise PontrylieError("compare needs a problem with a body frame (builtin heisenberg)")
    full = _read_trajectory(args.full)
    red = _read_trajectory(args.reduced)
    x, p = full.blocks(x=loaded.problem.n, p=loaded.problem.n)
    (mu_red,) = red.blocks(mu=sym.algebra.dim)
    lo = max(full.times[0], red.times[0])
    hi = min(full.times[-1], red.times[-1])
    if lo > hi:
        raise PontrylieError("trajectories cover disjoint time ranges")
    same_grid = len(full.times) == len(red.times) and np.allclose(full.times, red.times)
    mask = (full.times >= lo - 1e-12) & (full.times <= hi + 1e-12)
    times = full.times[mask]
    if not same_grid:
        print("warning: time grids differ; resampling the reduced trajectory by linear interpolation",
              file=sys.stderr)
    mu_interp = np.column_stack([np.interp(times, red.times, column) for column in mu_red.T])
    deviation = float(np.max(np.abs(reduction._body_momentum(loaded.problem, x[mask], p[mask]) - mu_interp)))
    print(f"max |projected full - reduced| over {len(times)} rows: {deviation:.3e} (tol {args.tol:g})")
    ok = deviation <= args.tol
    return (EXIT_OK if ok else EXIT_SOLVER), {
        "command": "compare",
        "rows": int(len(times)),
        "max_deviation": deviation,
        "tol": args.tol,
        "resampled": not same_grid,
    }


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(prog="pontrylie", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p):
        p.add_argument("--builtin", help="builtin problem name (heisenberg)")
        p.add_argument("--problem", help="JSON problem file")

    def add_io_args(p):
        p.add_argument("--out", help="output trajectory path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("solve-pmp", help="integrate the full state-costate system")
    add_problem_args(p)
    p.add_argument("--x0", help="initial state, comma separated (default zeros)")
    p.add_argument("--p0", help="initial costate, comma separated")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    add_io_args(p)
    p.set_defaults(fn=cmd_solve_pmp)

    p = sub.add_parser("solve-reduced", help="integrate the reduced system")
    add_problem_args(p)
    p.add_argument("--lambda0", help="initial coalgebra point, comma separated")
    p.add_argument("--theta", help="momentum angle shortcut (comma list allowed)")
    p.add_argument("--k", help="vertical momentum shortcut (comma list allowed)")
    p.add_argument("--z0", help="initial base point (when the base has dimension > 0)")
    p.add_argument("--pz0", help="initial base costate")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    add_io_args(p)
    p.set_defaults(fn=cmd_solve_reduced)

    p = sub.add_parser("reconstruct", help="rebuild the group trajectory from a reduced one")
    add_problem_args(p)
    p.add_argument("--traj", required=True, help="reduced trajectory file")
    p.add_argument("--g0", help="initial group element in exponential coordinates, comma separated (default identity)")
    p.add_argument("--step", type=float, help="reconstruction step (default: trajectory step)")
    add_io_args(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("check-dirac", help="membership and property checks")
    add_problem_args(p)
    p.add_argument("--traj", help="trajectory file to check")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--self-test", action="store_true", help="random two-form property suite")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--max-dim", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check_dirac)

    p = sub.add_parser("compare", help="full-vs-reduced trajectory comparison")
    add_problem_args(p)
    p.add_argument("--full", required=True)
    p.add_argument("--reduced", required=True)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed its usage message to stderr
            if exc.code in (0, None):
                return EXIT_OK
            raise PontrylieError("invalid command line (the usage message is on stderr)") from None
        code, result = args.fn(args)
        result.setdefault("status", "ok" if code == EXIT_OK else "check-failed")
        result["exit_code"] = code
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code, result = EXIT_SOLVER, {"status": "error", "error": str(exc), "exit_code": EXIT_SOLVER}
        # an evaluation error is located in time and batch only inside an integration
        if isinstance(exc, SolverError) or isinstance(exc, EvaluationError) and np.isfinite(exc.t):
            located = {"t": exc.t}
            if exc.member is not None:
                located["member"] = exc.member
            if isinstance(exc, SolverError):
                located["residual"] = exc.residual
                if exc.state is not None:
                    located["state"] = [float(v) for v in exc.state]
            result.update({key: value for key, value in located.items() if np.all(np.isfinite(value))})
        if isinstance(exc, EvaluationError) and exc.point is not None:
            point = [[float(v) for v in np.ravel(part)] for part in exc.point]
            if all(np.all(np.isfinite(part)) for part in point):
                result["point"] = point
    except (PontrylieError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code, result = EXIT_INPUT, {"status": "error", "error": str(exc), "exit_code": EXIT_INPUT}
    try:
        line = json.dumps(result, sort_keys=True, allow_nan=False)
    except ValueError:
        # the lenient dump spells the value NaN or Infinity right after its key
        key = re.search(r'"([^"]+)": [^"]*?(NaN|Infinity)', json.dumps(result, sort_keys=True)).group(1)
        message = f"RESULT field '{key}' is not finite"
        print(f"solver failure: {message}", file=sys.stderr)
        code = EXIT_SOLVER
        line = json.dumps({"status": "error", "error": message, "exit_code": code}, sort_keys=True)
    print("RESULT " + line)
    return code


if __name__ == "__main__":
    sys.exit(main())
