"""Rebuild group-valued trajectories from reduced solutions.

The reconstruction equation is g_dot = g * xi(t) (left translation of a
coalgebra-driven algebra curve), integrated with exponential midpoint
updates

    g_{k+1} = g_k * exp(h * xi(t_k + h/2)),

so every iterate stays exactly on the group (for unitriangular realizations
the diagonal ones and subdiagonal zeros are preserved bit-for-bit).  The
scheme is second order.

Group paths are read out in exponential coordinates of the first kind
(``lie.log_nilpotent``).  Also here: the numerical Heisenberg geodesic
oracle (the ground truth used by the tests), and an audit comparing candidate closed-form
geodesic expressions against that oracle.  The candidate y and z formulas are
suspected misprints; the audit reports which components agree instead of
assuming any of them do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Tuple, Union

import numpy as np

from .errors import DimensionMismatchError, EvaluationError
from .heisenberg import lambda_closed_form
from .lie import GroupElement, LieAlgebraSpec, _coeffs, _exp_series, log_nilpotent
from .pmp import Trajectory, time_grid
from .reduction import ReducedProblem

XiCurve = Union[Callable, Tuple[np.ndarray, np.ndarray]]


class GroupPath(NamedTuple):
    times: np.ndarray
    matrices: np.ndarray  # shape (len(times), m, m)
    algebra: LieAlgebraSpec


def _as_xi_function(xi: XiCurve, dim: int) -> Callable:
    """Accept either a callable t -> coefficients or a sampled (times, values) curve.

    The result maps an array of times to rows of coefficients.  Sampled
    curves are interpolated linearly, which is consistent with the
    second-order integrator.
    """
    if callable(xi):
        return lambda times: np.array([_coeffs(xi(t), dim) for t in times]).reshape(len(times), dim)
    ts, values = xi
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape != (ts.shape[0], dim):
        raise DimensionMismatchError(
            f"sampled curve has shape {values.shape}, expected ({ts.shape[0]}, {dim})"
        )
    return lambda t: np.column_stack([np.interp(t, ts, values[:, i]) for i in range(dim)])


def reconstruct_group(
    alg: LieAlgebraSpec,
    g0: GroupElement,
    xi: XiCurve,
    duration: float,
    step: float,
) -> GroupPath:
    """Integrate g_dot = g * xi(t) from g0 by exponential midpoint updates (one stacked exponential)."""
    times = time_grid(duration, step)
    h = np.diff(times)
    mids = _as_xi_function(xi, alg.dim)(times[:-1] + 0.5 * h)
    finite = np.all(np.isfinite(mids), axis=1)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise EvaluationError(f"non-finite algebra velocity xi at t = {times[k] + 0.5 * h[k]:g}", point=mids[k])
    updates = _exp_series(alg, h[:, None] * mids)
    mats = np.empty((len(times),) + g0.matrix.shape)
    mats[0] = g0.matrix
    for k in range(len(times) - 1):
        mats[k + 1] = mats[k] @ updates[k]
    return GroupPath(times=times, matrices=mats, algebra=alg)


def chart_trajectory(path: GroupPath) -> Trajectory:
    """The path in exponential coordinates, as a trajectory with columns x1..x_dim."""
    columns = tuple(f"x{i + 1}" for i in range(path.algebra.dim))
    return Trajectory(times=path.times, columns=columns, states=log_nilpotent(path.algebra, path.matrices))


def _rk4(times: np.ndarray, y0: np.ndarray, rhs: Callable) -> np.ndarray:
    out = np.empty((len(times), y0.shape[0]))
    out[0] = y0
    y = y0.copy()
    for k in range(len(times) - 1):
        t, h = times[k], times[k + 1] - times[k]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = y
    return out


def heisenberg_geodesic_oracle(theta: float, k: float, duration: float, step: float) -> Trajectory:
    """Ground-truth geodesic in chart coordinates, from the origin.

    Integrates the chart control equation driven by the closed-form body
    momentum (the controls are mu1, mu2), which sidesteps every suspect
    printed formula; k = 0 produces exactly the straight-line family.
    """
    times = time_grid(duration, step)

    def rhs(t, q):
        lam = lambda_closed_form(theta, k, t)
        return np.array([lam[0], lam[1], 0.5 * (q[0] * lam[1] - q[1] * lam[0])])

    states = _rk4(times, np.zeros(3), rhs)
    return Trajectory(times=times, columns=("x1", "x2", "x3"), states=states)


def claimed_geodesic_forms(theta: float, k: float) -> Dict[str, Callable]:
    """Candidate closed-form geodesic components, to be audited against the oracle.

    These are the commonly quoted expressions for the geodesic through the
    origin; the y and z entries are suspected typos, which is exactly what
    ``audit_geodesic_forms`` exists to decide.  Requires k != 0.
    """
    if k == 0.0:
        raise DimensionMismatchError("the candidate closed forms are written for k != 0")
    return {
        "x": lambda t: (np.sin(k * t + theta) - np.sin(theta)) / k,
        "y": lambda t: (np.cos(k * t + theta) + np.cos(theta)) / k,
        "z": lambda t: np.sin(k * t) / k**2 + t / k,
    }


@dataclass(frozen=True)
class GeodesicFormAudit:
    """Outcome of comparing the candidate closed forms with the numerical oracle."""

    theta: float
    k: float
    duration: float
    step: float
    tol: float
    max_deviation: Dict[str, float]
    matches: Dict[str, bool]

    def summary(self) -> str:
        parts = [
            f"{name}: max|claimed - oracle| = {self.max_deviation[name]:.3e} -> "
            f"{'MATCH' if self.matches[name] else 'MISMATCH'} (tol {self.tol:g})"
            for name in sorted(self.max_deviation)
        ]
        return "; ".join(parts)


def audit_geodesic_forms(
    theta: float, k: float, duration: float, step: float, tol: float = 1e-5
) -> GeodesicFormAudit:
    """Compare each candidate closed-form component against the oracle trajectory.

    A component "matches" iff its maximal pointwise deviation from the oracle
    stays within ``tol``.  The audit never patches a mismatching formula; it
    only reports.
    """
    oracle = heisenberg_geodesic_oracle(theta, k, duration, step)
    forms = claimed_geodesic_forms(theta, k)
    deviations = {}
    matches = {}
    for index, name in enumerate(("x", "y", "z")):
        claimed = np.asarray(forms[name](oracle.times), dtype=float)
        dev = float(np.max(np.abs(claimed - oracle.states[:, index])))
        deviations[name] = dev
        matches[name] = dev <= tol
    return GeodesicFormAudit(
        theta=theta,
        k=k,
        duration=duration,
        step=step,
        tol=tol,
        max_deviation=deviations,
        matches=matches,
    )


def xi_curve_from_reduced(problem: ReducedProblem, trajectory: Trajectory) -> Tuple[np.ndarray, np.ndarray]:
    """Sampled algebra curve xi(t) = fiber_dynamics(z, u) along a reduced trajectory: one call of the view's F."""
    z_rows, u_rows = trajectory.blocks(z=problem.base_dim, u=problem.control_dim)
    return trajectory.times, problem.view.F(z_rows, u_rows)[..., problem.base_dim :]
