"""Geometric optimal control problems on a single global chart.

A problem is the data (state dimension n, control dimension r, dynamics
f(x, u), running cost L(x, u)) with optional analytic derivatives and an
optional symmetry handle.  States and controls are flat real vectors; all
computations happen in chart coordinates.

The central object is the Pontryagin Hamiltonian

    H(x, p, u) = <p, f(x, u)> - L(x, u)

whose first and second partials drive the maximum-principle solver.  One
kernel computes them for H(q, lam, u) = <lam, F(q, u)> - L(q, u) with lam of
any length, so the reduced problem (lam = (p_z, mu), F = (base, fiber)) shares
it, and one Newton loop eliminates the controls of both.  Partials fall back
to central finite differences (step scaled by 1 + |coordinate|) wherever
analytic derivatives are not supplied; dH/dlam = F(q, u) is always exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._fd import fd_gradient, fd_hessian_direct, fd_hessian_from_gradient, fd_jacobian
from .errors import ConvergenceError, DimensionMismatchError, EvaluationError, PontrylieError, RegularityError
from .lie import GroupElement, LieAlgebraSpec, exp_nilpotent


@dataclass(frozen=True)
class ProblemJacobians:
    """Optional analytic derivatives of the dynamics and Lagrangian.

    First derivatives: df_dx, df_du of shape (n, n) / (n, r) and dL_dx, dL_du
    of shape (n,) / (r,).  The control Hessians d2f_du2 (n, r, r) and d2L_du2
    (r, r) are optional on top of that; when present the control Hessian of H
    is exact, which some callers need at tighter-than-finite-difference
    accuracy.
    """

    df_dx: Optional[Callable] = None
    df_du: Optional[Callable] = None
    dL_dx: Optional[Callable] = None
    dL_du: Optional[Callable] = None
    d2f_du2: Optional[Callable] = None
    d2L_du2: Optional[Callable] = None


@dataclass(frozen=True)
class SymmetryHandle:
    """Group-action data attached to a problem.

    ``infinitesimal_action(xi, x)`` returns the generator vector field
    xi_P(x) and is the only mandatory field (it feeds the momentum map).
    The remaining callables enable invariance checking and, for problems
    whose state space is the group itself, reduction:

    - ``act_on_state(g, x)``: the action of a GroupElement on a chart point.
    - ``act_on_control(g, x, u)``: fiber part of the action; identity if None.
    - ``act_on_costate(g, x, p)``: cotangent-lifted action.  The library
      never calls it and has no fallback for it; it is carried for callers
      that transport costates themselves.
    - ``state_jacobian(g, x)``: Jacobian of act_on_state in x; finite
      differences if None.
    - ``body_frame(x)``: n-by-dim matrix whose columns are the left-invariant
      basis vector fields at x; required by reduction (state space = group).
    """

    algebra: LieAlgebraSpec
    infinitesimal_action: Callable
    act_on_state: Optional[Callable] = None
    act_on_control: Optional[Callable] = None
    act_on_costate: Optional[Callable] = None
    state_jacobian: Optional[Callable] = None
    body_frame: Optional[Callable] = None


@dataclass(frozen=True)
class ControlProblem:
    n: int
    r: int
    dynamics: Callable
    lagrangian: Callable
    jacobians: Optional[ProblemJacobians] = None
    symmetry: Optional[SymmetryHandle] = None
    name: str = ""

    def __post_init__(self):
        if self.n < 1 or self.r < 0:
            raise DimensionMismatchError("need n >= 1 and r >= 0")


@dataclass(frozen=True)
class PontryaginPoint:
    """A point (x, p, u) of the state-costate-control bundle."""

    x: np.ndarray
    p: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        for name in ("x", "p", "u"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))

    def conform(self, problem: ControlProblem) -> "PontryaginPoint":
        if self.x.shape != (problem.n,) or self.p.shape != (problem.n,) or self.u.shape != (problem.r,):
            raise DimensionMismatchError(
                f"point shapes {self.x.shape}/{self.p.shape}/{self.u.shape} do not match "
                f"n={problem.n}, r={problem.r}"
            )
        return self


def _eval_dynamics(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    f = np.asarray(problem.dynamics(x, u), dtype=float)
    if f.shape != (problem.n,):
        raise DimensionMismatchError(f"dynamics returned shape {f.shape}, expected ({problem.n},)")
    if not np.all(np.isfinite(f)):
        raise EvaluationError("dynamics produced a non-finite value", point=(x.copy(), u.copy()))
    return f


def _eval_lagrangian(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> float:
    val = float(problem.lagrangian(x, u))
    if not np.isfinite(val):
        raise EvaluationError("Lagrangian produced a non-finite value", point=(x.copy(), u.copy()))
    return val


# Central-difference step of every derivative fallback, scaled by 1 + |coordinate|.
FD_STEP = 1e-6
# A control Hessian whose smallest singular value is at or below this is singular.
RANK_TOL = 1e-9


class HamiltonianPartials(NamedTuple):
    dH_dx: np.ndarray
    dH_dp: np.ndarray
    dH_du: np.ndarray
    d2H_du2: np.ndarray


class ControlledHamiltonian(NamedTuple):
    """H(q, lam, u) = <lam, F(q, u)> - L(q, u); ``jac`` holds dF/dq as df_dx, and so on."""

    F: Callable
    L: Callable
    jac: ProblemJacobians


def _full_view(problem: ControlProblem) -> ControlledHamiltonian:
    return ControlledHamiltonian(
        F=lambda x, u: _eval_dynamics(problem, x, u),
        L=lambda x, u: _eval_lagrangian(problem, x, u),
        jac=problem.jacobians or ProblemJacobians(),
    )


def _hamiltonian_value(ham: ControlledHamiltonian, q, lam, u) -> float:
    value = float(lam @ ham.F(q, u)) - ham.L(q, u)
    if not np.isfinite(value):
        raise EvaluationError("non-finite Hamiltonian", point=(q, lam, u))
    return value


def _partials(ham: ControlledHamiltonian, q, lam, u) -> HamiltonianPartials:
    """(dH/dq, dH/dlam = F, dH/du, W = d2H/du2) at (q, lam, u).

    The one place that picks a derivative source, in order of preference:
    analytic blocks, central differences of an analytic dH/du, plain second
    differences of H (step sqrt(FD_STEP) to keep roundoff noise down).  A
    block is analytic only when both its F and its L field are given; a
    zero-length block is never evaluated.
    """
    F, L, jac = ham
    dH_dlam = F(q, u)

    def h_at(q_, u_):
        return float(lam @ F(q_, u_)) - L(q_, u_)

    if not q.size:
        dH_dq = np.zeros(0)
    elif jac.df_dx is not None and jac.dL_dx is not None:
        dH_dq = np.asarray(jac.df_dx(q, u), dtype=float).T @ lam - np.asarray(jac.dL_dx(q, u), dtype=float)
    else:
        dH_dq = fd_gradient(lambda q_: h_at(q_, u), q, FD_STEP)

    have_first_du = jac.df_du is not None and jac.dL_du is not None

    def dH_du_at(u_):
        if have_first_du:
            return np.asarray(jac.df_du(q, u_), dtype=float).T @ lam - np.asarray(jac.dL_du(q, u_), dtype=float)
        return fd_gradient(lambda v: h_at(q, v), u_, FD_STEP)

    if not u.size:
        dH_du, w = np.zeros(0), np.zeros((0, 0))
    else:
        dH_du = dH_du_at(u)
        if jac.d2f_du2 is not None and jac.d2L_du2 is not None:
            d2F = np.asarray(jac.d2f_du2(q, u), dtype=float)
            w = np.tensordot(lam, d2F, axes=1) - np.asarray(jac.d2L_du2(q, u), dtype=float)
        elif have_first_du:
            w = fd_hessian_from_gradient(dH_du_at, u, FD_STEP)
        else:
            w = fd_hessian_direct(lambda v: h_at(q, v), u, FD_STEP)
        w = 0.5 * (w + w.T)

    parts = HamiltonianPartials(np.asarray(dH_dq, dtype=float), dH_dlam, np.asarray(dH_du, dtype=float), w)
    for arr in parts:
        if not np.all(np.isfinite(arr)):
            raise EvaluationError("non-finite Hamiltonian partial", point=(q, lam, u))
    return parts


def _row_partials(ham: ControlledHamiltonian, q, lam, u) -> HamiltonianPartials:
    """``_partials`` at every row of the stacked (q, lam, u), each field stacked row by row."""
    rows = [_partials(ham, *row) for row in zip(q, lam, u)]
    if not rows:  # no rows: empty blocks of the right widths
        return HamiltonianPartials(q, lam, u, np.zeros((0, u.shape[1], u.shape[1])))
    return HamiltonianPartials(*(np.array(field) for field in zip(*rows)))


def _is_regular(w: np.ndarray) -> bool:
    return float(np.linalg.svd(w, compute_uv=False)[-1]) > RANK_TOL


def _newton(partials_at: Callable, u_guess, config):
    """Newton solve of dH/du = 0 from ``u_guess``, with ``config.newton_tol`` and ``newton_max_iter``.

    Returns (u*, iterations, residual, ``partials_at(u*)``); callers reuse
    the partials, so each RK stage evaluates them once per iteration.
    """
    u = np.atleast_1d(np.asarray(u_guess, dtype=float)).copy()
    for iteration in range(config.newton_max_iter + 1):
        parts = partials_at(u)
        if not u.size:
            return u, 0, 0.0, parts
        residual = float(np.max(np.abs(parts.dH_du)))
        if residual <= config.newton_tol:
            return u, iteration, residual, parts
        if iteration == config.newton_max_iter:
            raise ConvergenceError(f"control Newton exhausted {config.newton_max_iter} iterations", residual=residual)
        if not _is_regular(parts.d2H_du2):
            raise RegularityError("control Hessian is singular along the Newton iteration", residual=residual)
        u = u - np.linalg.solve(parts.d2H_du2, parts.dH_du)


def hamiltonian_partials(problem: ControlProblem, point: PontryaginPoint) -> HamiltonianPartials:
    """First partials of H plus the control Hessian W = d2H/du2 (see ``_partials``)."""
    point.conform(problem)
    return _partials(_full_view(problem), point.x, point.p, point.u)


def pontryagin_hamiltonian(problem: ControlProblem, point: PontryaginPoint) -> float:
    """H(x, p, u) = <p, f(x, u)> - L(x, u)."""
    point.conform(problem)
    return _hamiltonian_value(_full_view(problem), point.x, point.p, point.u)


def _fd_pushforward(action: Callable, g: GroupElement, x: np.ndarray, v: np.ndarray, step: float = 1e-5) -> np.ndarray:
    h = step * (1.0 + float(np.linalg.norm(x)))
    return (np.asarray(action(g, x + h * v), dtype=float) - np.asarray(action(g, x - h * v), dtype=float)) / (
        2.0 * h
    )


class InvarianceReport(NamedTuple):
    max_lagrangian_deviation: float
    max_dynamics_deviation: float
    samples: int
    invariant: bool


def invariance_deviation(problem: ControlProblem, g: GroupElement, x: np.ndarray, u: np.ndarray):
    """Deviations of the two invariance identities at a single (g, x, u).

    Returns (|L(g.(x,u)) - L(x,u)|, max-norm of T(g.)f(x,u) - f(g.(x,u))).
    """
    sym = problem.symmetry
    if sym is None or sym.act_on_state is None:
        raise PontrylieError("problem has no symmetry group action to check")
    gx = np.asarray(sym.act_on_state(g, x), dtype=float)
    gu = np.asarray(sym.act_on_control(g, x, u), dtype=float) if sym.act_on_control else u
    l_dev = abs(_eval_lagrangian(problem, gx, gu) - _eval_lagrangian(problem, x, u))
    f = _eval_dynamics(problem, x, u)
    if sym.state_jacobian is not None:
        pushed = np.asarray(sym.state_jacobian(g, x), dtype=float) @ f
    else:
        pushed = _fd_pushforward(sym.act_on_state, g, x, f)
    dyn_dev = float(np.max(np.abs(pushed - _eval_dynamics(problem, gx, gu)), initial=0.0))
    return l_dev, dyn_dev


def check_invariance(problem: ControlProblem, samples: int = 20, seed: int = 0) -> InvarianceReport:
    """Sample the invariance identities over random group elements and points.

    Group elements are drawn as exponentials of random algebra elements.  The
    problem is reported invariant iff both deviations stay at or below 1e-8.
    """
    sym = problem.symmetry
    if sym is None:
        raise PontrylieError("problem declares no symmetry")
    rng = np.random.default_rng(seed)
    worst_l = 0.0
    worst_dyn = 0.0
    for _ in range(samples):
        g = exp_nilpotent(sym.algebra, rng.normal(scale=0.7, size=sym.algebra.dim))
        x = rng.normal(size=problem.n)
        u = rng.normal(size=problem.r)
        l_dev, dyn_dev = invariance_deviation(problem, g, x, u)
        worst_l = max(worst_l, l_dev)
        worst_dyn = max(worst_dyn, dyn_dev)
    return InvarianceReport(
        max_lagrangian_deviation=worst_l,
        max_dynamics_deviation=worst_dyn,
        samples=samples,
        invariant=(worst_l <= 1e-8 and worst_dyn <= 1e-8),
    )


def validate_jacobians(
    problem: ControlProblem,
    probes: int = 20,
    seed: int = 0,
    fd_step: float = FD_STEP,
    rtol: float = 1e-5,
) -> float:
    """Cross-check analytic first derivatives against central differences.

    Returns the worst relative deviation over random probe points; raises
    EvaluationError if it exceeds ``rtol``.
    """
    jac = problem.jacobians
    if jac is None:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0

    def rel(a, b):
        return float(np.max(np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b))), initial=0.0))

    for _ in range(probes):
        x = rng.normal(size=problem.n)
        u = rng.normal(size=problem.r)
        _eval_dynamics(problem, x, u)  # also enforces the output-length invariant
        if jac.df_dx is not None:
            fd = fd_jacobian(lambda xi: _eval_dynamics(problem, xi, u), x, fd_step)
            worst = max(worst, rel(np.asarray(jac.df_dx(x, u), dtype=float), fd))
        if jac.df_du is not None and problem.r:
            fd = fd_jacobian(lambda ui: _eval_dynamics(problem, x, ui), u, fd_step)
            worst = max(worst, rel(np.asarray(jac.df_du(x, u), dtype=float), fd))
        if jac.dL_dx is not None:
            fd = fd_gradient(lambda xi: _eval_lagrangian(problem, xi, u), x, fd_step)
            worst = max(worst, rel(np.asarray(jac.dL_dx(x, u), dtype=float), fd))
        if jac.dL_du is not None and problem.r:
            fd = fd_gradient(lambda ui: _eval_lagrangian(problem, x, ui), u, fd_step)
            worst = max(worst, rel(np.asarray(jac.dL_du(x, u), dtype=float), fd))
    if worst > rtol:
        raise EvaluationError(f"analytic jacobians deviate from finite differences by {worst:.3e}")
    return worst
