"""Maximum-principle solver on the state-costate-control bundle.

The first-order conditions form a DAE: Hamilton equations in (x, p) coupled
with the stationarity constraint dH/du = 0.  For regular problems (invertible
control Hessian W) the constraint defines the optimal feedback u*(x, p) via
the implicit function theorem, so the DAE is index-reduced by a Newton solve
for u at every Runge-Kutta stage.  Newton restarts from the previous stage's
control, which keeps iteration counts at 1-2; the root returned is the one
reached from the caller's initial guess (no global root search, so a branch
can never be switched silently - failure to converge raises instead).
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from . import dirac
from .errors import DimensionMismatchError, PontrylieError, SolverError, TrajectoryFormatError
from .lie import CoalgebraElement
from .ocp import ControlProblem, PontryaginPoint, _eval_dynamics, _eval_lagrangian, hamiltonian_partials
from .ocp import _full_view, _hamiltonian_value, _is_regular, _newton, _partials, _row_partials


@dataclass(frozen=True)
class PmpSolverConfig:
    """Numerical knobs for the feedback solver and integrators."""

    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    rk_step: float = 1e-3

    def __post_init__(self):
        if min(self.newton_tol, self.rk_step) <= 0:
            raise DimensionMismatchError("all solver tolerances and steps must be positive")
        if self.newton_max_iter < 1:
            raise DimensionMismatchError("newton_max_iter must be at least 1")


_STATE_COLUMN_RE = re.compile(r"^(x|p|u|z|pz|mu)\d+$")


@dataclass(frozen=True)
class Trajectory:
    """A time-stamped sequence of flat state rows plus named scalar channels.

    ``columns`` names the state entries (e.g. x1..xn, p1..pn, u1..ur, or the
    reduced z/pz/mu/u blocks); channels hold per-time diagnostics such as the
    Hamiltonian.  Serializes to CSV (columns: t, states in declaration order,
    channels alphabetically) and JSON.
    """

    times: np.ndarray
    columns: Tuple[str, ...]
    states: np.ndarray
    channels: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        s = np.atleast_2d(np.asarray(self.states, dtype=float))
        if t.ndim != 1 or s.shape[0] != t.shape[0]:
            raise TrajectoryFormatError(f"times {t.shape} and states {s.shape} are inconsistent")
        if s.shape[1] != len(self.columns):
            raise TrajectoryFormatError(
                f"{len(self.columns)} column names for state width {s.shape[1]}"
            )
        if t.shape[0] > 1 and np.min(np.diff(t)) <= 0:
            raise TrajectoryFormatError("times must be strictly increasing")
        ch = {k: np.atleast_1d(np.asarray(v, dtype=float)) for k, v in self.channels.items()}
        for k, v in ch.items():
            if v.shape != t.shape:
                raise TrajectoryFormatError(f"channel '{k}' has length {v.shape[0]}, expected {t.shape[0]}")
            if k in self.columns:
                raise TrajectoryFormatError(f"channel '{k}' collides with a state column")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "channels", ch)

    def __len__(self) -> int:
        return self.times.shape[0]

    def block(self, prefix: str) -> np.ndarray:
        """State columns named '<prefix>1', '<prefix>2', ... in index order."""
        pattern = re.compile(rf"^{re.escape(prefix)}(\d+)$")
        found = sorted((int(m.group(1)), i) for i, c in enumerate(self.columns) if (m := pattern.match(c)))
        return self.states[:, [i for _, i in found]]

    def blocks(self, **sizes: int) -> Tuple[np.ndarray, ...]:
        """``block(prefix)`` for every ``prefix=width`` in order, each checked to be <prefix>1..<prefix><width>."""
        found = tuple(self.block(prefix) for prefix in sizes)
        for (prefix, width), block in zip(sizes.items(), found):
            if block.shape[1] != width or any(f"{prefix}{i + 1}" not in self.columns for i in range(width)):
                raise TrajectoryFormatError(
                    f"trajectory has {block.shape[1]} '{prefix}' columns, the problem needs {width}, numbered from 1"
                )
        return found

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            raise TrajectoryFormatError(f"trajectory has no channel '{name}'")
        return self.channels[name]

    def to_csv(self, path) -> None:
        names = sorted(self.channels)
        table = np.column_stack([self.times, self.states, *(self.channels[k] for k in names)])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["t", *self.columns, *names])
            np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n")

    def to_json(self, path) -> None:
        payload = {
            "times": self.times.tolist(),
            "columns": list(self.columns),
            "states": self.states.tolist(),
            "channels": {k: v.tolist() for k, v in self.channels.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @staticmethod
    def from_json(path) -> "Trajectory":
        try:
            with open(path) as fh:
                payload = json.load(fh)
            trajectory = Trajectory(
                times=np.asarray(payload["times"], dtype=float),
                columns=tuple(payload["columns"]),
                states=np.asarray(payload["states"], dtype=float),
                channels={k: np.asarray(v, dtype=float) for k, v in payload["channels"].items()},
            )
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise TrajectoryFormatError(f"malformed trajectory JSON {path}: {exc}") from exc
        return _require_finite(trajectory, path)

    @staticmethod
    def from_csv(path) -> "Trajectory":
        """Read a trajectory CSV; columns matching the state-name pattern
        (x/p/u/z/pz/mu + index) are states, the rest are channels."""
        try:
            with open(path) as fh:
                lines = fh.read().splitlines()
        except (OSError, ValueError) as exc:
            raise TrajectoryFormatError(f"malformed trajectory CSV {path}: {exc}") from exc
        header = next(csv.reader(lines[:1]), [])
        if header[:1] != ["t"]:
            raise TrajectoryFormatError(f"malformed trajectory CSV {path}: missing 't' column")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a blank body is reported below
                data = np.loadtxt(lines[1:], delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError as exc:
            raise _csv_body_error(path, lines, len(header), exc) from exc
        if not len(data):
            raise TrajectoryFormatError(f"malformed trajectory CSV {path}: no data rows")
        if data.shape[1] != len(header):
            raise _csv_body_error(path, lines, len(header), None)
        state_idx = [i for i, c in enumerate(header[1:], start=1) if _STATE_COLUMN_RE.match(c)]
        chan_idx = [i for i in range(1, len(header)) if i not in state_idx]
        trajectory = Trajectory(
            times=data[:, 0],
            columns=tuple(header[i] for i in state_idx),
            states=data[:, state_idx] if state_idx else np.zeros((data.shape[0], 0)),
            channels={header[i]: data[:, i] for i in chan_idx},
        )
        return _require_finite(trajectory, path)


def _csv_body_error(path, lines, width: int, exc) -> TrajectoryFormatError:
    """Name the first line of a CSV body whose cell count differs from the header's ``width``."""
    for number, row in enumerate(csv.reader(lines[1:]), start=2):
        if row and len(row) != width:
            return TrajectoryFormatError(
                f"malformed trajectory CSV {path}: line {number} has {len(row)} cells, the header {width}"
            )
    return TrajectoryFormatError(f"malformed trajectory CSV {path}: {exc}")


def _require_finite(trajectory: Trajectory, path) -> Trajectory:
    """Reject a loaded trajectory holding NaN or Inf, naming the first such column."""
    named = {"t": trajectory.times, **dict(zip(trajectory.columns, trajectory.states.T)), **trajectory.channels}
    bad = [name for name, values in named.items() if not np.all(np.isfinite(values))]
    if bad:
        raise TrajectoryFormatError(f"trajectory file {path} has a non-finite value in column '{bad[0]}'")
    return trajectory


def consistency_residual(problem: ControlProblem, point: PontryaginPoint) -> np.ndarray:
    """The stationarity residual phi_a = dH/du_a at a bundle point."""
    return hamiltonian_partials(problem, point).dH_du


def regularity_check(problem: ControlProblem, point: PontryaginPoint) -> bool:
    """True iff the control Hessian W has smallest singular value above ``ocp.RANK_TOL``.

    Problems without controls are vacuously regular.
    """
    return problem.r == 0 or _is_regular(hamiltonian_partials(problem, point).d2H_du2)


def optimal_feedback(
    problem: ControlProblem,
    x,
    p,
    u_guess,
    config: PmpSolverConfig = PmpSolverConfig(),
) -> np.ndarray:
    """The control solving dH/du = 0, tracked by Newton from ``u_guess``."""
    return _newton(lambda u: hamiltonian_partials(problem, PontryaginPoint(x, p, u)), u_guess, config)[0]


def momentum_map(problem: ControlProblem, x, p) -> CoalgebraElement:
    """Momentum map components J_i = <p, (e_i)_P(x)> of the declared symmetry, from one stacked call."""
    sym = problem.symmetry
    if sym is None:
        raise PontrylieError("problem declares no symmetry")
    dim = sym.algebra.dim
    generators = np.asarray(sym.infinitesimal_action(np.eye(dim), np.asarray(x, dtype=float)), dtype=float)
    if generators.shape != (dim, problem.n):
        raise DimensionMismatchError(f"generators of the basis have shape {generators.shape}, expected (dim, n)")
    return CoalgebraElement(generators @ np.asarray(p, dtype=float))


def time_grid(duration: float, step: float) -> np.ndarray:
    """Uniform grid 0, h, 2h, ..., closed with a partial final step when needed."""
    if duration < 0 or step <= 0:
        raise DimensionMismatchError(f"inconsistent duration {duration} / step {step}")
    if duration == 0:
        return np.zeros(1)
    n = int(np.floor(duration / step + 1e-9))
    ts = step * np.arange(n + 1)
    if duration - ts[-1] > max(1e-12, 1e-9 * duration):
        ts = np.append(ts, duration)
    else:
        ts[-1] = duration
    return ts


def _rk4_dae(ham, blocks, y0, u0, duration, config, vector_field, hamiltonian_channel, channels) -> Trajectory:
    """Fixed-step RK4 on y = (q, lam) with the control eliminated at every stage.

    At every stage Newton solves dH/du = 0 warm started from the previous
    stage's control, and ``vector_field(y, partials)`` gives y_dot.  Every
    grid node records the row (y, u*) with columns <prefix>1.. for each
    (prefix, size) of ``blocks`` (q first), then u1..; H under
    ``hamiltonian_channel``; and the dict ``channels(y)``.  Solver errors are
    re-raised with the grid time (of the node, or of the start of the step
    whose stage failed) and the (q, lam) row Newton was solving at.
    """
    nq = blocks[0][1]
    times = time_grid(duration, config.rk_step)

    def solve(y, u_warm, where, t):
        q, lam = y[:nq], y[nq:]
        try:
            return _newton(lambda u: _partials(ham, q, lam, u), u_warm, config)
        except SolverError as exc:
            raise type(exc)(f"{exc} ({where} t={t:.6g})", residual=exc.residual, t=t, state=y) from exc

    def stage(y, u_warm, t):
        u_star, _, _, parts = solve(y, u_warm, "while stepping from", t)
        return vector_field(y, parts), u_star

    rows, hams, extras = [], [], []

    def node(t, y, u_warm):
        u_star = solve(y, u_warm, "at", t)[0]
        rows.append(np.concatenate([y, u_star]))
        hams.append(_hamiltonian_value(ham, y[:nq], y[nq:], u_star))
        extras.append(channels(y))
        return u_star

    y = y0.copy()
    u_warm = node(times[0], y, u0)
    for k in range(len(times) - 1):
        t, h = times[k], times[k + 1] - times[k]
        k1, u1 = stage(y, u_warm, t)
        k2, u2 = stage(y + 0.5 * h * k1, u1, t)
        k3, u3 = stage(y + 0.5 * h * k2, u2, t)
        k4, u4 = stage(y + h * k3, u3, t)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u_warm = node(times[k + 1], y, u4)

    columns = [f"{prefix}{i+1}" for prefix, size in (*blocks, ("u", len(u0))) for i in range(size)]
    out = {hamiltonian_channel: np.asarray(hams)}
    out.update({name: np.asarray([extra[name] for extra in extras]) for name in extras[0]})
    return Trajectory(times=times, columns=columns, states=np.asarray(rows), channels=out)


def integrate_pmp(
    problem: ControlProblem,
    x0,
    p0,
    duration: float,
    config: PmpSolverConfig = PmpSolverConfig(),
    u_guess=None,
) -> Trajectory:
    """Integrate the Hamilton equations with per-stage control elimination.

    Classical RK4 on the 2n-dimensional (x, p) system; at every stage the
    control is re-solved by Newton, warm started from the previous stage.
    The trajectory records columns x1..xn, p1..pn, u1..ur, the Hamiltonian
    channel "H", and momentum-map channels "J1".."Jd" when the problem
    declares a symmetry.
    """
    n, r = problem.n, problem.r
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if x0.shape != (n,) or p0.shape != (n,):
        raise DimensionMismatchError(f"x0/p0 shapes {x0.shape}/{p0.shape} do not match n={n}")
    u_start = np.zeros(r) if u_guess is None else np.atleast_1d(np.asarray(u_guess, dtype=float))
    if u_start.shape != (r,):
        raise DimensionMismatchError(f"u_guess shape {u_start.shape} does not match r={r}")

    def momenta(y):
        if problem.symmetry is None:
            return {}
        return {f"J{i+1}": c for i, c in enumerate(momentum_map(problem, y[:n], y[n:]).coeffs)}

    return _rk4_dae(
        _full_view(problem), (("x", n), ("p", n)), np.concatenate([x0, p0]), u_start, duration, config,
        lambda y, parts: np.concatenate([parts.dH_dp, -parts.dH_dx]), "H", momenta,
    )


def lagrange_pontryagin_action(problem: ControlProblem, trajectory: Trajectory) -> float:
    """The functional  integral of [ L(x, u) + <p, x_dot - f(x, u)> ]  along a stored curve.

    x_dot is taken as the second-order finite-difference derivative of the
    stored samples (so the pairing term genuinely measures how far the curve
    is from solving the control equation), and the integral is a composite
    trapezoid rule.
    """
    if len(trajectory) < 2:
        raise TrajectoryFormatError("action needs at least two samples")
    x, p, u = trajectory.blocks(x=problem.n, p=problem.n, u=problem.r)
    xdot = np.gradient(x, trajectory.times, axis=0, edge_order=2)
    integrand = np.empty(len(trajectory))
    for k in range(len(trajectory)):
        f = _eval_dynamics(problem, x[k], u[k])
        integrand[k] = _eval_lagrangian(problem, x[k], u[k]) + float(p[k] @ (xdot[k] - f))
    return float(np.trapezoid(integrand, trajectory.times))


def dirac_membership_residuals(problem: ControlProblem, trajectory: Trajectory) -> np.ndarray:
    """Per-row normalized residual of ((x_dot, p_dot, 0), dH) against the presymplectic Dirac fiber.

    The fiber is the graph of the reduced fiber's form [[B, I, 0], [-I, 0, 0],
    [0, 0, 0]] with B = 0, all rows scored at once by ``dirac.graph_residuals``.
    The velocity is the DAE right-hand side at the stored point, so for an
    ``integrate_pmp`` trajectory the residual is bounded by the Newton
    tolerance, and a corrupted row shows through dH/du.
    """
    n = problem.n
    x, p, u = trajectory.blocks(x=n, p=n, u=problem.r)
    parts = _row_partials(_full_view(problem), x, p, u)
    velocity = np.hstack([parts.dH_dp, -parts.dH_dx, np.zeros_like(u)])
    covector = np.hstack([parts.dH_dx, parts.dH_dp, parts.dH_du])
    return dirac.graph_residuals(dirac._pontryagin_matrix(np.zeros((n, n))), velocity, covector)
