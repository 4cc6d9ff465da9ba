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
import dataclasses
import json
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from . import dirac
from .errors import DimensionMismatchError, EvaluationError, ExprEvaluationError, PontrylieError, SolverError
from .errors import TrajectoryFormatError
from .ocp import ControlProblem, PontryaginPoint, _eval_dynamics, _eval_lagrangian
from .ocp import _gradient, _hamilton_field, _hamiltonian_value, _newton
from .ocp import _require_finite, _sized_gradient, _split


@dataclass(frozen=True)
class PmpSolverConfig:
    """Numerical knobs for the feedback solver and integrators."""

    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    rk_step: float = 1e-3

    def __post_init__(self):
        for name, value in (("newton_tol", self.newton_tol), ("rk_step", self.rk_step)):
            if not (np.isfinite(value) and value > 0):
                raise DimensionMismatchError(f"{name} must be positive and finite, got {value}")
        if self.newton_max_iter < 1:
            raise DimensionMismatchError("newton_max_iter must be at least 1")


_STATE_COLUMN_RE = re.compile(r"^(x|p|u|z|pz|mu)\d+$")
# rows of a trajectory CSV formatted by one % (``Trajectory.to_csv``)
_CSV_BLOCK = 1024


def _csv_rows(block: np.ndarray) -> str:
    """The rows of ``block`` in ``%.17g``, comma-separated and ended by CRLF, each repeated value formatted once.

    Cells are equal when their bits are (so -0.0 is not 0.0).  A column of one value goes into the line as that
    value's string (``%.17g`` never writes a ``%``); a column where at least 1/4 of adjacent rows are equal formats
    each distinct value once and gathers the strings; a column equal to an earlier one reuses its strings; any
    other column stays ``%.17g`` in the line.  Every string is the ``%.17g`` of its double, so the bytes are those
    of a line of ``%.17g`` fields per row."""
    n, bits = len(block), block.view(np.int64)
    equal = bits[1:] == bits[:-1]
    # no column has a quarter of its adjacent rows equal when all columns together have not
    same = np.count_nonzero(equal, axis=0).tolist() if 4 * np.count_nonzero(equal) >= n - 1 else [0] * len(bits.T)
    # a column can equal another only if their first cells do; any other column is keyed by its index
    heads = bits[0].tolist()
    keys = [bits[:, j].tobytes() if heads.count(head) > 1 else j for j, head in enumerate(heads)]
    fields, columns, strings = [], [], {}
    for j, key in enumerate(keys):
        if same[j] == n - 1:
            fields.append("%.17g" % block[0, j])
            continue
        first = keys.index(key)  # compares bytes, which a dict would hash whole
        if first == j and 4 * same[j] >= n - 1:
            values, inverse = np.unique(bits[:, j], return_inverse=True)
            formatted = np.array(["%.17g" % v for v in values.view(float).tolist()], dtype=object)
            strings[j] = formatted[inverse].tolist()
        elif first == j and keys.count(key) > 1:
            strings[j] = ["%.17g" % v for v in block[:, j].tolist()]
        fields.append("%s" if first in strings else "%.17g")
        columns.append(strings.get(first, j))
    line = ",".join(fields) + "\r\n"
    if len(columns) == len(keys) and not strings:
        return line * n % tuple(block.ravel().tolist())
    cells = (block[:, c].tolist() if isinstance(c, int) else c for c in columns)
    return line * n % tuple(chain.from_iterable(zip(*cells)))


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
        """Header, then every row as ``np.savetxt(fmt="%.17g", delimiter=",", newline="\\r\\n")`` writes it: a block
        of ``_CSV_BLOCK`` rows per ``%``, which bounds the transient strings, each repeated value of a block formatted
        once (``_csv_rows``)."""
        names = sorted(self.channels)
        table = np.column_stack([self.times, self.states, *(self.channels[k] for k in names)])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["t", *self.columns, *names])
            for start in range(0, len(table), _CSV_BLOCK):
                fh.write(_csv_rows(table[start : start + _CSV_BLOCK]))

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
        return _finite_trajectory(trajectory, path)

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
        return _finite_trajectory(trajectory, path)


def _csv_body_error(path, lines, width: int, exc) -> TrajectoryFormatError:
    """Name the first line of a CSV body whose cell count differs from the header's ``width``."""
    for number, row in enumerate(csv.reader(lines[1:]), start=2):
        if row and len(row) != width:
            return TrajectoryFormatError(
                f"malformed trajectory CSV {path}: line {number} has {len(row)} cells, the header {width}"
            )
    return TrajectoryFormatError(f"malformed trajectory CSV {path}: {exc}")


def _finite_trajectory(trajectory: Trajectory, path) -> Trajectory:
    """Reject a loaded trajectory holding NaN or Inf, naming the first such column."""
    named = {"t": trajectory.times, **dict(zip(trajectory.columns, trajectory.states.T)), **trajectory.channels}
    bad = [name for name, values in named.items() if not np.all(np.isfinite(values))]
    if bad:
        raise TrajectoryFormatError(f"trajectory file {path} has a non-finite value in column '{bad[0]}'")
    return trajectory


def optimal_feedback(
    problem: ControlProblem,
    x,
    p,
    u_guess,
    config: PmpSolverConfig = PmpSolverConfig(),
) -> np.ndarray:
    """The control solving dH/du = 0, tracked by Newton from ``u_guess``."""
    point = PontryaginPoint(x, p, u_guess).conform(problem)
    return _newton(problem.view, point.x, point.p, point.u, config)[0]


def momentum_map(problem: ControlProblem, x, p) -> np.ndarray:
    """Momentum map components J_i = <p, (e_i)_P(x)> of the declared symmetry at every member of the stacks x, p
    (..., n), as (..., dim): one call of the handle's ``generators`` on the whole stack x, then one matmul.

    Generators of any shape but (..., dim, n), and an IndexError, ValueError or TypeError of the handle's own
    (a handle written for one point, on a stack), are a DimensionMismatchError naming ``generators``.
    """
    sym = problem.symmetry
    if sym is None:
        raise PontrylieError("problem declares no symmetry")
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    try:
        generators = np.asarray(sym.generators(x), dtype=float)
    except (IndexError, ValueError, TypeError) as exc:
        if isinstance(exc, PontrylieError):
            raise
        raise DimensionMismatchError(f"generators failed on points of shape {x.shape}: {exc}") from exc
    expected = x.shape[:-1] + (sym.algebra.dim, problem.n)
    if generators.shape != expected:
        raise DimensionMismatchError(f"generators returned shape {generators.shape}, expected {expected}")
    return (generators @ p[..., None])[..., 0]


def time_grid(duration: float, step: float) -> np.ndarray:
    """Uniform grid 0, h, 2h, ..., closed with a partial final step when needed."""
    for name, value in (("duration", duration), ("step", step)):
        if not np.isfinite(value):
            raise DimensionMismatchError(f"{name} must be finite, got {value}")
    if duration < 0 or step <= 0:
        raise DimensionMismatchError(f"inconsistent duration {duration} / step {step}")
    if duration == 0:
        return np.zeros(1)
    steps = np.floor(duration / step + 1e-9)
    if not steps + 2 <= np.iinfo(np.intp).max:
        raise DimensionMismatchError(f"duration {duration} / step {step} needs {steps + 1:.3g} grid nodes, "
                                     "beyond NumPy's index range")
    n = int(steps)
    ts = step * np.arange(n + 1)
    if duration - ts[-1] > max(1e-12, 1e-9 * duration):
        ts = np.append(ts, duration)
    else:
        ts[-1] = duration
    return ts


# The largest batch swept member by member on floats: per member-step the generated sweep, every solve written out,
# is cheaper than a NumPy stack at 24 members and dearer at 32 (BENCH_fused_sweep.json, BENCH_distinct_csv.json)
_FLOAT_MEMBERS = 24


def _rk4_dae(ham, blocks, y0, u0, duration, config, hamiltonian_channel) -> List[Trajectory]:
    """Fixed-step RK4 on a stack of states y = (q, lam), one row per member, controls eliminated per stage.

    On the NumPy sweep all members advance together: every stage makes one ``ocp._newton`` solve on the whole
    stack, and a member's trajectory is bit for bit the one it has alone.  At stages 2-4 Newton solves dH/du = 0
    warm started from the previous stage's control; stage 1 reuses the node's converged solve, taken at the same
    (y, u*).  A solve reads only the view's gradient ``dH`` = (dH/du, dH/dq, F), once per iterate, so the last
    iterate, the root's, also gives y_dot (``ocp._hamilton_field`` of ``ham``'s form; not at the last node, whose
    y_dot no step reads) and H.  Up to ``_FLOAT_MEMBERS`` members whose view has a generated sweep (``ham.stage()``;
    its ``dH`` of the sweep's ``widths``) run that one function instead, member by member: RK4 on Python floats with
    every solve of a step written out in it, which repeats the stack's float operations, so the bits are the same; a
    member's lists become its rows here, H from one stacked pairing of its F rows.  If a member of 2 or more fails
    there, the NumPy sweep runs the batch and raises its own error, so user callbacks (a Lagrangian, say) may run
    twice up to it.  Either sweep runs under one ``np.errstate`` that silences overflow and invalid-value warnings:
    a non-finite value still raises EvaluationError at its point, and guarded compiled tables still raise inside it.
    Every grid node records, per member, the row (y, u*) with columns <prefix>1.. for each (prefix, size) of
    ``blocks`` (q first), then u1..; H under ``hamiltonian_channel``; and the channels "newton_iters" (most Newton
    updates of any solve of the step ending at the node) and "stationarity" (the node's residual max |dH/du|), each
    in one (members, nodes) array.  Solver and evaluation errors are re-raised with the failing member's index and
    the grid time (of the node, or of the start of the step whose stage failed); a solver error also with the
    (q, lam) row Newton was solving at.  A compiled table's ExprEvaluationError keeps its type, message and offset
    and gains the time; its member is the one the table's tree walker names (``expr.compile_tables``), 0 when there
    is one member.  After the sweep a non-finite recorded row, which no evaluation may have read, raises
    EvaluationError at the first one (earliest node, then lowest member).
    Returns one Trajectory per member.
    """
    nq = blocks[0][1]
    times = time_grid(duration, config.rk_step)
    (members, width), r = y0.shape, u0.shape[1]
    states = np.empty((members, len(times), width + r))
    hamiltonian, newton_iters, stationarity = (np.empty((members, len(times))) for _ in range(3))
    # node 0 reads the checked gradient: its width and its F entries
    sized = _sized_gradient(ham, nq, width - nq, r)
    sweep = members <= _FLOAT_MEMBERS and getattr(ham.dH, "widths", None) == (nq, width - nq, r) and ham.stage()

    def located(exc, where, t, y):
        """``exc`` again, its message and fields naming the failing member (if known) and the grid time."""
        i = 0 if members == 1 and isinstance(exc, ExprEvaluationError) else exc.member
        message = f"{exc} ({'' if i is None else f'member {i} '}{where} t={t:.6g})"
        if isinstance(exc, SolverError):
            return type(exc)(message, residual=exc.residual, t=t, state=np.atleast_2d(y)[i], member=i)
        if isinstance(exc, ExprEvaluationError):  # its message already ends with the offset
            error = type(exc)("", exc.pos)
            error.args, error.t, error.member = (message,), t, i
            return error
        return EvaluationError(message, point=exc.point, t=t, member=i)

    def solve(y, u_warm, view, field):
        q, lam = y[:, :nq], y[:, nq:]
        u_star, iterations, residual, grad = _newton(view, q, lam, u_warm, config)
        grad = _require_finite(grad, "non-finite Hamiltonian partial", q, lam, u_star)
        if not field:  # the last node: no step reads its vector field
            return None, u_star, iterations, residual, grad
        q_dot, lam_dot = _hamilton_field(ham, q, lam, grad)
        y_dot = np.concatenate([q_dot, lam_dot], axis=-1) if nq else lam_dot  # lam_dot is a new array
        return y_dot, u_star, iterations, residual, grad

    def stage(y, u_warm, t):
        try:
            y_dot, u_star, iterations, _, _ = solve(y, u_warm, ham, True)
        except (SolverError, EvaluationError, ExprEvaluationError) as exc:
            raise located(exc, "while stepping from", t, y) from exc
        return y_dot, u_star, iterations

    def node(k, y, u_warm, stage_iterations, view=ham):
        try:
            y_dot, u_star, iterations, residual, grad = solve(y, u_warm, view, k < len(grid) - 1)
            q, lam = y[:, :nq], y[:, nq:]
            hamiltonian[:, k] = _hamiltonian_value(q, lam, u_star, _split(grad, nq, r)[2], ham.L(q, u_star))
        except (SolverError, EvaluationError, ExprEvaluationError) as exc:
            raise located(exc, "at", grid[k], y) from exc
        states[:, k, :width], states[:, k, width:] = y, u_star
        newton_iters[:, k], stationarity[:, k] = np.maximum.reduce((*stage_iterations, iterations)), residual
        return u_star, y_dot

    grid = times.tolist()  # Python floats, as the generated sweep's arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        if sweep:  # the view's generated sweep, on Python floats, member by member
            try:
                for i, (y, u) in enumerate(zip(y0.tolist(), u0.tolist())):
                    rows, f_rows, lagrangians, most, residuals = sweep(
                        grid, y, u, sized.dH, located, config.newton_tol, config.newton_max_iter)
                    states[i] = np.fromiter(rows, float).reshape(len(grid), width + r)
                    f_rows = np.fromiter(f_rows, float).reshape(len(grid), width - nq)
                    # H = <lam, F> - L, from one stacked pairing of the F rows, as on a stack
                    hamiltonian[i] = (states[i, :, None, nq:width] @ f_rows[:, :, None])[:, 0, 0] - lagrangians
                    newton_iters[i], stationarity[i] = most, residuals
            except PontrylieError:
                if members == 1:
                    raise
                sweep = None  # the NumPy sweep raises the batch's own error
        if not sweep:
            y = y0
            u_warm, k1 = node(0, y, u0, (), sized)
            for k in range(len(grid) - 1):
                t, h = grid[k], grid[k + 1] - grid[k]
                k2, u2, i2 = stage(y + 0.5 * h * k1, u_warm, t)
                k3, u3, i3 = stage(y + 0.5 * h * k2, u2, t)
                k4, u4, i4 = stage(y + h * k3, u3, t)
                y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                u_warm, k1 = node(k + 1, y, u4, (i2, i3, i4))

    finite = np.isfinite(states).all(axis=-1)  # (members, nodes)
    if not finite.all():
        k = int(np.argmin(finite.all(axis=0)))
        i = int(np.argmin(finite[:, k]))
        row = states[i, k].copy()
        raise located(EvaluationError("non-finite state", point=(row[:nq], row[nq:width], row[width:]), member=i),
                      "at", times[k], None)
    columns = [f"{prefix}{i+1}" for prefix, size in (*blocks, ("u", r)) for i in range(size)]
    channels = {hamiltonian_channel: hamiltonian, "newton_iters": newton_iters, "stationarity": stationarity}
    return [
        Trajectory(times=times, columns=columns, states=states[i], channels={k: v[i] for k, v in channels.items()})
        for i in range(members)
    ]


def _with_channels(trajectories: List[Trajectory], channels: Callable) -> List[Trajectory]:
    """Each trajectory with the channels ``channels(states)`` added, from the (members, nodes, width) stack of its rows.

    ``channels`` returns a dict of (members, nodes) values.
    """
    if not trajectories:
        return trajectories
    values = channels(np.stack([trajectory.states for trajectory in trajectories]))
    return [
        dataclasses.replace(trajectory, channels={**trajectory.channels, **{k: v[i] for k, v in values.items()}})
        for i, trajectory in enumerate(trajectories)
    ]


def _initial_stacks(**blocks) -> Tuple[bool, List[np.ndarray]]:
    """Initial-condition blocks ``name=(value, width)`` as (N, width) stacks, and whether any came as a stack.

    Each value is one row (width,) or a stack (N, width); a single row is shared by every member.
    """
    rows = [np.atleast_1d(np.asarray(value, dtype=float)) for value, _ in blocks.values()]
    for (name, (_, width)), row in zip(blocks.items(), rows):
        if row.ndim > 2 or row.shape[-1] != width:
            raise DimensionMismatchError(f"{name} has shape {row.shape}, expected ({width},) or (members, {width})")
    counts = sorted({len(row) for row in rows if row.ndim == 2})
    if len(counts) > 1:
        raise DimensionMismatchError(f"initial conditions stack different member counts {counts}")
    members = counts[0] if counts else 1
    return bool(counts), [np.broadcast_to(row, (members, row.shape[-1])) for row in rows]


def integrate_pmp(
    problem: ControlProblem,
    x0,
    p0,
    duration: float,
    config: PmpSolverConfig = PmpSolverConfig(),
    u_guess=None,
) -> Union[Trajectory, List[Trajectory]]:
    """Integrate the Hamilton equations with per-stage control elimination.

    Classical RK4 on the 2n-dimensional (x, p) system; at every stage the
    control is re-solved by Newton, warm started from the previous stage.
    The trajectory records columns x1..xn, p1..pn, u1..ur, the Hamiltonian
    channel "H", the solver channels "newton_iters" and "stationarity", and
    momentum-map channels "J1".."Jd" when the problem declares a symmetry.

    ``x0``, ``p0`` and ``u_guess`` are each one row, (n,) or (r,), or a
    stack of N rows; single rows are shared by every member.  When any is a
    stack, all N members are integrated in one batch and one Trajectory per
    member is returned, each bit for bit the one that member gives alone;
    otherwise the one Trajectory.
    """
    n, r = problem.n, problem.r
    batch, (x0, p0, u0) = _initial_stacks(
        x0=(x0, n), p0=(p0, n), u_guess=(np.zeros(r) if u_guess is None else u_guess, r)
    )

    trajectories = _rk4_dae(
        problem.view, (("x", n), ("p", n)), np.concatenate([x0, p0], axis=1), u0, duration, config, "H"
    )
    if problem.symmetry is not None:

        def momenta(states):
            values = momentum_map(problem, states[..., :n], states[..., n : 2 * n])
            return {f"J{i+1}": values[..., i] for i in range(values.shape[-1])}

        trajectories = _with_channels(trajectories, momenta)
    return trajectories if batch else trajectories[0]


def lagrange_pontryagin_action(problem: ControlProblem, trajectory: Trajectory) -> float:
    """The functional  integral of [ L(x, u) + <p, x_dot - f(x, u)> ]  along a stored curve.

    x_dot is taken as the second-order finite-difference derivative of the
    stored samples (so the pairing term genuinely measures how far the curve
    is from solving the control equation), and the integral is a composite
    trapezoid rule.
    """
    if len(trajectory) < 3:
        raise TrajectoryFormatError("action needs at least three samples")
    x, p, u = trajectory.blocks(x=problem.n, p=problem.n, u=problem.r)
    xdot = np.gradient(x, trajectory.times, axis=0, edge_order=2)
    f = _eval_dynamics(problem, x, u)
    integrand = _eval_lagrangian(problem, x, u) + (p[:, None, :] @ (xdot - f)[:, :, None])[:, 0, 0]
    return float(np.trapezoid(integrand, trajectory.times))


def dirac_membership_residuals(problem: ControlProblem, trajectory: Trajectory) -> np.ndarray:
    """Per-row normalized residual of ((x_dot, p_dot, 0), dH) against the presymplectic fiber: ``_scan_rows``, B = 0."""
    x, p, u = trajectory.blocks(x=problem.n, p=problem.n, u=problem.r)
    return _scan_rows(problem.view, x, p, u)


def _scan_rows(ham, q, lam, u) -> np.ndarray:
    """Residuals of rows (q, lam, u) against the graph of [[B, I, 0], [-I, 0, 0], [0, 0, 0]], B = ``ham``'s form.

    A row tests velocity (dH/dlam, lam_dot, 0) and covector ((dH/dq, 0), dH/dlam, dH/du), lam_dot from
    ``ocp._hamilton_field``, all from one ``dH`` call, the one the solver reads: for an integrated
    trajectory the residual is bounded by the Newton tolerance, and a corrupted row shows through dH/du.
    The width of ``dH`` is checked (``ocp._sized_gradient``).
    ``dirac.graph_residuals`` scores all rows at once; the scan runs under one ``np.errstate`` as the
    solver's sweep does (see ``_rk4_dae``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _gradient(_sized_gradient(ham, q.shape[-1], lam.shape[-1], u.shape[-1]), q, lam, u)
        dH_du, dH_dq, f = _split(grad, q.shape[-1], u.shape[-1])
        k = lam.shape[-1]
        pad = np.zeros(lam.shape[:-1] + (k - q.shape[-1],))  # (dH/dq, 0) has the length of lam
        velocity = np.concatenate([f, _hamilton_field(ham, q, lam, grad)[1], np.zeros_like(u)], axis=-1)
        covector = np.concatenate([dH_dq, pad, f, dH_du], axis=-1)
        form = np.zeros((k, k)) if ham.form is None else ham.form(q, lam)
        return dirac.graph_residuals(dirac._pontryagin_matrix(form), velocity, covector)
