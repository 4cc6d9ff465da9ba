"""Batch command-line front end.

Subcommands: solve-pmp, solve-reduced, reconstruct, check-dirac, compare.
Every command prints a machine-readable JSON summary prefixed ``RESULT `` as
its last stdout line; diagnostics go to stderr.  Exit codes: 0 success,
1 input/validation error, 2 numerical/solver failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import dirac, expr, heisenberg, pmp, reconstruct, reduction
from .errors import EvaluationError, NonNilpotentError, PontrylieError, SolverError
from .lie import algebra_from_dict, exp_nilpotent
from .ocp import ControlProblem, ProblemJacobians, SymmetryHandle
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


_FILE_KEYS = ("n", "r", "dynamics", "lagrangian", "algebra", "action", "reduced")
_ALGEBRA_KEYS = ("dim", "structure", "matrix_basis", "labels")
_REDUCED_KEYS = ("s", "lagrangian", "base_dynamics", "fiber_dynamics")


def _builtin(name: str) -> LoadedProblem:
    if name != "heisenberg":
        raise PontrylieError(f"unknown builtin problem '{name}'")
    return LoadedProblem(
        name="heisenberg",
        problem=heisenberg.heisenberg_problem(),
        reduced=heisenberg.heisenberg_reduced_problem(),
    )


def _known_keys(block, allowed: Tuple[str, ...], where: str) -> dict:
    """``block`` itself, once it is checked to be an object with no key outside ``allowed``."""
    if not isinstance(block, dict):
        raise PontrylieError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise PontrylieError(f"unknown key '{unknown[0]}' in {where}; allowed keys: {', '.join(allowed)}")
    return block


def _table(sources, variables: List[str]) -> np.ndarray:
    """Parse an expression string, or a (nested) list of them, into an object array of trees."""
    table = np.array(sources, dtype=object)
    for index, src in np.ndenumerate(table):
        table[index] = expr.parse(str(src), variables).ast
    return table


def _with_derivatives(table: np.ndarray, state: List[str], control: List[str]) -> List[np.ndarray]:
    """[g, dg/dstate, dg/dcontrol, d2g/dcontrol2] for a table of trees g."""
    g_control = expr.derivative_table(table, control)
    return [
        table,
        expr.derivative_table(table, state),
        g_control,
        expr.derivative_table(g_control, control),
    ]


def load_problem_file(path) -> LoadedProblem:
    """Build a problem from the JSON schema (see README for the field list).

    Every expression is parsed, differentiated symbolically (first
    derivatives in states and controls, second derivatives in controls) and
    compiled once here, so the solvers take their analytic-derivative paths.
    """
    with open(path) as fh:
        data = _known_keys(json.load(fh), _FILE_KEYS, f"problem file {path}")
    try:
        n, r = int(data["n"]), int(data["r"])
        dyn_src = list(data["dynamics"])
        lag_src = str(data["lagrangian"])
    except (KeyError, TypeError) as exc:
        raise PontrylieError(f"problem file {path} is missing required field: {exc}") from exc
    if len(dyn_src) != n:
        raise PontrylieError(f"expected {n} dynamics expressions, got {len(dyn_src)}")
    algebra = None
    if "algebra" in data:
        algebra = algebra_from_dict(_known_keys(data["algebra"], _ALGEBRA_KEYS, "the algebra block"))
    x_vars = [f"x{i+1}" for i in range(n)]
    u_vars = [f"u{a+1}" for a in range(r)]
    dynamics, df_dx, df_du, d2f_du2, lagrangian, dL_dx, dL_du, d2L_du2 = expr.compile_tables(
        _with_derivatives(_table(dyn_src, x_vars + u_vars), x_vars, u_vars)
        + _with_derivatives(_table(lag_src, x_vars + u_vars), x_vars, u_vars),
        [x_vars, u_vars],
    )

    symmetry = None
    if "action" in data:
        if algebra is None:
            raise PontrylieError("an action table requires an algebra block")
        rows = data["action"]
        if len(rows) != algebra.dim or any(len(row) != n for row in rows):
            raise PontrylieError("action must be a dim x n table of expressions")
        (generators,) = expr.compile_tables([_table(rows, x_vars)], [x_vars])

        def action(xi, x):
            return np.asarray(xi, dtype=float) @ generators(x)

        symmetry = SymmetryHandle(algebra=algebra, infinitesimal_action=action)

    problem = ControlProblem(
        n=n,
        r=r,
        dynamics=dynamics,
        lagrangian=lagrangian,
        jacobians=ProblemJacobians(
            df_dx=df_dx, df_du=df_du, dL_dx=dL_dx, dL_du=dL_du, d2f_du2=d2f_du2, d2L_du2=d2L_du2
        ),
        symmetry=symmetry,
        name=Path(path).stem,
    )

    reduced = None
    if "reduced" in data:
        if algebra is None:
            raise PontrylieError("a reduced block requires an algebra block")
        block = _known_keys(data["reduced"], _REDUCED_KEYS, "the reduced block")
        s = int(block.get("s", 0))
        z_vars = [f"z{i+1}" for i in range(s)]
        base_src = list(block.get("base_dynamics", []))
        fiber_src = list(block["fiber_dynamics"])
        if len(base_src) != s or len(fiber_src) != algebra.dim:
            raise PontrylieError("reduced dynamics expression counts do not match s/dim")
        zu_vars = z_vars + u_vars
        (
            base, dbase_dz, dbase_du, d2base_du2,
            fiber, dfiber_dz, dfiber_du, d2fiber_du2,
            lagrangian_z, dl_dz, dl_du, d2l_du2,
        ) = expr.compile_tables(
            _with_derivatives(_table(base_src, zu_vars), z_vars, u_vars)
            + _with_derivatives(_table(fiber_src, zu_vars), z_vars, u_vars)
            + _with_derivatives(_table(str(block["lagrangian"]), zu_vars), z_vars, u_vars),
            [z_vars, u_vars],
        )
        reduced = reduction.ReducedProblem(
            base_dim=s,
            algebra=algebra,
            control_dim=r,
            lagrangian=lagrangian_z,
            base_dynamics=base,
            fiber_dynamics=fiber,
            jacobians=reduction.ReducedJacobians(
                dl_dz=dl_dz, dl_du=dl_du,
                dbase_dz=dbase_dz, dbase_du=dbase_du,
                dfiber_dz=dfiber_dz, dfiber_du=dfiber_du,
                d2l_du2=d2l_du2, d2base_du2=d2base_du2, d2fiber_du2=d2fiber_du2,
            ),
            name=Path(path).stem,
        )
    return LoadedProblem(name=Path(path).stem, problem=problem, reduced=reduced)


def _load(args) -> LoadedProblem:
    if getattr(args, "builtin", None):
        return _builtin(args.builtin)
    if getattr(args, "problem", None):
        return load_problem_file(args.problem)
    raise PontrylieError("give either --builtin NAME or --problem FILE")


def _parse_vector(text: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError as exc:
        raise PontrylieError(f"cannot parse vector '{text}': {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise PontrylieError(f"vector '{text}' has a non-finite entry")
    return values


def _write(trajectory: Trajectory, out: str, fmt: str) -> str:
    if fmt == "json":
        trajectory.to_json(out)
    else:
        trajectory.to_csv(out)
    return out


def _drift(values: np.ndarray) -> float:
    return float(np.max(np.abs(values - values[0]))) if values.size else 0.0


def cmd_solve_pmp(args) -> Tuple[int, dict]:
    loaded = _load(args)
    problem = loaded.problem
    x0 = _parse_vector(args.x0) if args.x0 else np.zeros(problem.n)
    if args.p0 is None:
        raise PontrylieError("--p0 is required")
    p0 = _parse_vector(args.p0)
    trajectory = pmp.integrate_pmp(problem, x0, p0, args.T, PmpSolverConfig(rk_step=args.step))
    out = args.out or f"pmp_{loaded.name}.{args.format}"
    _write(trajectory, out, args.format)
    summary = {
        "command": "solve-pmp",
        "problem": loaded.name,
        "rows": len(trajectory),
        "out": out,
        "H_drift": _drift(trajectory.channel("H")),
    }
    momentum = {k: _drift(v) for k, v in trajectory.channels.items() if k.startswith("J")}
    if momentum:
        summary["momentum_drift"] = momentum
    print(f"integrated {len(trajectory)} rows over T={args.T:g} (step {args.step:g})")
    print(f"H drift: {summary['H_drift']:.3e}")
    for k, v in sorted(momentum.items()):
        print(f"{k} drift: {v:.3e}")
    return EXIT_OK, summary


def _solve_reduced_single(loaded: LoadedProblem, mu0, args, suffix=""):
    problem = loaded.reduced
    s = problem.base_dim
    z0 = _parse_vector(args.z0) if args.z0 else np.zeros(s)
    pz0 = _parse_vector(args.pz0) if args.pz0 else np.zeros(s)
    state0 = reduction.ReducedState(z0, pz0, mu0, np.zeros(problem.control_dim))
    trajectory = reduction.integrate_reduced(problem, state0, args.T, PmpSolverConfig(rk_step=args.step))
    stem = args.out or f"reduced_{loaded.name}.{args.format}"
    if suffix:
        p = Path(stem)
        stem = str(p.with_name(p.stem + suffix + p.suffix))
    _write(trajectory, stem, args.format)
    summary = {
        "mu0": [float(v) for v in mu0],
        "rows": len(trajectory),
        "out": stem,
        "h_drift": _drift(trajectory.channel("h")),
    }
    for name in problem.casimirs:
        summary[f"{name}_drift"] = _drift(trajectory.channel(name))
    if args.builtin == "heisenberg":
        exact = heisenberg.lambda_rotation_closed_form(mu0, trajectory.times)
        summary["closed_form_max_dev"] = float(np.max(np.abs(trajectory.block("mu") - exact)))
    return trajectory, summary


def cmd_solve_reduced(args) -> Tuple[int, dict]:
    loaded = _load(args)
    if loaded.reduced is None:
        raise PontrylieError(f"problem '{loaded.name}' declares no reduced form")
    problem = loaded.reduced

    mu0_list: List[Tuple[np.ndarray, str]] = []
    if args.lambda0:
        mu0_list.append((_parse_vector(args.lambda0), ""))
    elif args.theta is not None and args.k is not None:
        thetas = [float(v) for v in str(args.theta).split(",")]
        ks = [float(v) for v in str(args.k).split(",")]
        grid = len(thetas) * len(ks) > 1
        for theta in thetas:
            for k in ks:
                suffix = f"_theta{theta:g}_k{k:g}" if grid else ""
                mu0_list.append((heisenberg.unit_cylinder_costate(theta, k), suffix))
    else:
        raise PontrylieError("give --lambda0 or both --theta and --k")
    for mu0, _ in mu0_list:
        if mu0.shape != (problem.algebra.dim,):
            raise PontrylieError(f"lambda0 must have length {problem.algebra.dim}")

    runs = [_solve_reduced_single(loaded, mu0, args, suffix)[1] for mu0, suffix in mu0_list]
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
    g0 = exp_nilpotent(algebra, _parse_vector(args.g0) if args.g0 else np.zeros(algebra.dim))
    trajectory = _read_trajectory(args.traj)
    times, values = reconstruct.xi_curve_from_reduced(loaded.reduced, trajectory)
    step = args.step if args.step else float(np.median(np.diff(times))) if len(times) > 1 else 1.0
    duration = float(times[-1] - times[0])
    path = reconstruct.reconstruct_group(algebra, g0, (times - times[0], values), duration, step)
    chart = reconstruct.chart_trajectory(path)
    out = args.out or f"reconstructed_{loaded.name}.{args.format}"
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
    frames = np.asarray(sym.body_frame(x[mask]), dtype=float)
    frame_rows = (np.swapaxes(frames, -1, -2) @ p[mask][..., None])[..., 0]
    deviation = float(np.max(np.abs(frame_rows - mu_interp)))
    print(f"max |projected full - reduced| over {len(times)} rows: {deviation:.3e} (tol {args.tol:g})")
    ok = deviation <= args.tol
    return (EXIT_OK if ok else EXIT_SOLVER), {
        "command": "compare",
        "rows": int(len(times)),
        "max_deviation": deviation,
        "tol": args.tol,
        "resampled": not same_grid,
    }


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_INPUT
    try:
        code, result = args.fn(args)
        result.setdefault("status", "ok" if code == EXIT_OK else "check-failed")
        result["exit_code"] = code
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        code, result = EXIT_SOLVER, {"status": "error", "error": str(exc), "exit_code": EXIT_SOLVER}
        if isinstance(exc, SolverError):
            located = {"residual": exc.residual, "t": exc.t}
            if exc.state is not None:
                located["state"] = [float(v) for v in exc.state]
            result.update({key: value for key, value in located.items() if np.all(np.isfinite(value))})
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
