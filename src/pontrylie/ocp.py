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

The kernel works on stacks: every argument may carry leading member axes (a
batch of initial conditions, or all rows of a trajectory), and one point is
the stack without them.  Problem callables marked ``stacked`` take the whole
stack at once; any other callable is called once per member.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._fd import fd_gradient, fd_hessian_direct, fd_hessian_from_gradient, fd_jacobian
from .errors import ConvergenceError, DimensionMismatchError, EvaluationError, NonNilpotentError, PontrylieError
from .errors import RegularityError
from .lie import GroupElement, LieAlgebraSpec, _exp_series, _is_nilpotent, exp_nilpotent, left_invariant_frame
from .lie import log_nilpotent


@dataclass(frozen=True)
class ProblemJacobians:
    """Optional analytic derivatives of the dynamics and Lagrangian.

    First derivatives: df_dx, df_du of shape (n, n) / (n, r) and dL_dx, dL_du
    of shape (n,) / (r,), per member (see ``stacked``).  The control Hessians
    d2f_du2 (n, r, r) and d2L_du2 (r, r) are optional on top of that; when
    present the control Hessian of H is exact, which some callers need at
    tighter-than-finite-difference accuracy.
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
    xi_P(x) and is the only mandatory field (it feeds the momentum map).  It
    is linear in xi and takes a stack of algebra elements: xi of shape
    (..., dim) gives (..., n), so one call gives all generators
    (``pmp.momentum_map`` passes the identity and the basis sum, and
    refuses a handle written for one vector).  Marked ``stacked``, it also
    takes a stack of points: xi (k, dim) and x (..., n) give (..., k, n), and
    the J channels of a whole integration come from one call; unmarked, it
    is called once per point.  The remaining callables enable invariance
    checking and, for problems whose state space is the group itself,
    reduction:

    - ``act_on_state(g, x)``: the action of a GroupElement on a chart point.
    - ``act_on_control(g, x, u)``: fiber part of the action; identity if None.
    - ``state_jacobian(g, x)``: Jacobian of act_on_state in x; finite
      differences if None.
    - ``body_frame(x)``: for x of shape (..., n), the (..., n, dim) matrices
      whose columns are the left-invariant basis vector fields at x;
      required by reduction (state space = group).

    ``left_translations`` derives all of them for a nilpotent matrix algebra.
    """

    algebra: LieAlgebraSpec
    infinitesimal_action: Callable
    act_on_state: Optional[Callable] = None
    act_on_control: Optional[Callable] = None
    state_jacobian: Optional[Callable] = None
    body_frame: Optional[Callable] = None


def left_translations(alg: LieAlgebraSpec) -> SymmetryHandle:
    """Left multiplication of the group of a nilpotent matrix algebra on itself, x <-> exp(x).

    The generators are the right-invariant fields R(x) = L(-x), the body frame is the left-invariant
    L(x) (``lie.left_invariant_frame``), g acts by x -> log(g exp(x)), and its Jacobian is
    L(g.x) L(x)^-1 because left translation carries left-invariant fields to themselves.
    """
    if not _is_nilpotent(alg):
        raise NonNilpotentError("left translations need a nilpotent algebra (lower central series reaching 0)")
    alg.matrix_size  # the action needs the matrix realization

    def act_on_state(g: GroupElement, x):
        return log_nilpotent(alg, g.matrix @ _exp_series(alg, np.asarray(x, dtype=float)))

    def state_jacobian(g: GroupElement, x):
        return left_invariant_frame(alg, act_on_state(g, x)) @ np.linalg.inv(left_invariant_frame(alg, x))

    return SymmetryHandle(
        algebra=alg,
        infinitesimal_action=stacked(
            lambda xi, x: np.asarray(xi) @ left_invariant_frame(alg, np.negative(x)).swapaxes(-1, -2)
        ),
        act_on_state=act_on_state,
        state_jacobian=state_jacobian,
        body_frame=lambda x: left_invariant_frame(alg, x),
    )


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


def stacked(fn: Callable) -> Callable:
    """Mark ``fn`` as a stacked problem callable and return it.

    A stacked callable takes arguments with leading member axes, x of shape
    (..., n) and u of shape (..., r), indexes them as ``x[..., i]`` and returns
    one value per member, (..., *shape).  The solvers call it once on a whole
    batch; an unmarked callable is called once per member instead.
    """
    fn.stacked = True
    return fn


def constant(value) -> Callable:
    """The stacked callable giving every member the array ``value``, which it carries as ``.value``.

    Called, it returns a new array (*lead, *value.shape), lead the leading member axes of its first
    argument.  The kernel reads ``.value`` instead of calling it (see ``_read``).
    """
    value = np.asarray(value, dtype=float)

    def tiled(*args):
        out = np.empty(np.shape(args[0])[:-1] + value.shape)
        out[...] = value
        return out

    tiled.value = value
    return stacked(tiled)


def _read(fn: Callable, q, u):
    """``fn(q, u)``, or the value a ``constant`` carries; that value broadcasts against the per-member ones."""
    value = getattr(fn, "value", None)
    return fn(q, u) if value is None else value


def _per_member(fn: Optional[Callable], name: str, shape: tuple) -> Optional[Callable]:
    """``fn`` as a stacked callable: itself when marked ``stacked``, else a loop calling it on each member.

    Each member's value must have the trailing ``shape``; a scalar (``shape == ()``) is read by float().
    """
    if fn is None or getattr(fn, "stacked", False):
        return fn

    def each(*args):
        lead = np.shape(args[0])[:-1]
        count = math.prod(lead)
        values = []
        for row in zip(*(np.reshape(a, (count, np.shape(a)[-1])) for a in args)):
            value = float(fn(*row)) if not shape else np.asarray(fn(*row), dtype=float)
            if np.shape(value) != shape:
                raise DimensionMismatchError(
                    f"{name} returned shape {np.shape(value)} for one member, expected {shape}"
                )
            values.append(value)
        return np.array(values, dtype=float).reshape(lead + shape)

    return each


def _sized(fn: Callable, name: str, size: int) -> Callable:
    """The stacked vector callable ``fn``, its values checked to hold ``size`` entries per member."""

    def checked(q, u):
        value = np.asarray(fn(q, u), dtype=float)
        if value.shape != q.shape[:-1] + (size,):
            raise DimensionMismatchError(f"{name} returned shape {value.shape}, expected {q.shape[:-1] + (size,)}")
        return value

    return checked


def _require_finite(values: np.ndarray, message: str, *rows: np.ndarray) -> np.ndarray:
    """``values`` (leading member axes as ``rows[0]``) once all finite; else EvaluationError at the first bad member.

    The error's point holds that member's entries of ``rows``.
    """
    finite = np.isfinite(values)
    if finite.all():
        return values
    count = math.prod(rows[0].shape[:-1])
    i = int(np.argmin(finite.reshape(count, -1).all(axis=1)))
    raise EvaluationError(message, point=tuple(np.reshape(v, (count, v.shape[-1]))[i].copy() for v in rows))


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
    """H(q, lam, u) = <lam, F(q, u)> - L(q, u); ``jac`` holds dF/dq as df_dx, and so on.

    ``form(q, lam)`` is the antisymmetric (..., k, k) matrix B, k = len(lam), of the Poisson bracket's
    non-canonical part (see ``_hamilton_field``); None means B = 0, and then len(lam) = len(q).
    ``hessian`` holds W when it is the same at every point (see ``_ConstantHessian``).
    Every callable is stacked (see ``stacked``).
    """

    F: Callable
    L: Callable
    jac: ProblemJacobians
    form: Optional[Callable] = None
    hessian: Optional["_ConstantHessian"] = None


class _ConstantHessian:
    """W of a view when it is the same at every point, worked out once per view, at first use.

    ``w`` is -d2L/du2, symmetrized, when d2f/du2 is a ``constant`` zero and d2L/du2 a finite (r, r)
    ``constant``, else None (W varies, and Newton evaluates it); ``regular`` is its one SVD.
    """

    def __init__(self, jac: ProblemJacobians, r: int):
        self.blocks = getattr(jac.d2f_du2, "value", None), getattr(jac.d2L_du2, "value", None), r

    @functools.cached_property
    def w(self) -> Optional[np.ndarray]:
        d2f, d2L, r = self.blocks
        if d2f is None or d2L is None or d2f.any() or d2L.shape != (r, r) or not np.isfinite(d2L).all():
            return None
        w = 0.0 - d2L  # what the general path's <lam, 0> - d2L/du2 gives
        return 0.5 * (w + w.T)

    @functools.cached_property
    def regular(self) -> bool:
        return bool(_is_regular(self.w))


def _full_view(problem: ControlProblem) -> ControlledHamiltonian:
    n, r = problem.n, problem.r
    jac = problem.jacobians or ProblemJacobians()
    shapes = {"df_dx": (n, n), "df_du": (n, r), "dL_dx": (n,), "dL_du": (r,), "d2f_du2": (n, r, r), "d2L_du2": (r, r)}
    jac = ProblemJacobians(**{name: _per_member(getattr(jac, name), name, shape) for name, shape in shapes.items()})
    return ControlledHamiltonian(
        F=_sized(_per_member(problem.dynamics, "dynamics", (n,)), "dynamics", n),
        L=_per_member(problem.lagrangian, "Lagrangian", ()),
        jac=jac,
        hessian=_ConstantHessian(jac, r),
    )


def _eval_dynamics(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _require_finite(_full_view(problem).F(x, u), "dynamics produced a non-finite value", x, u)


def _eval_lagrangian(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _require_finite(_full_view(problem).L(x, u), "Lagrangian produced a non-finite value", x, u)


def _hamiltonian_value(ham: ControlledHamiltonian, q, lam, u, f=None) -> np.ndarray:
    """H per member; ``f`` is F(q, u) when the caller holds it already."""
    f = ham.F(q, u) if f is None else f
    value = (lam[..., None, :] @ f[..., None])[..., 0, 0] - ham.L(q, u)
    return _require_finite(value, "non-finite Hamiltonian", q, lam, u)


def _h(ham: ControlledHamiltonian, q, row, u) -> np.ndarray:
    """H per member; ``row`` is lam[..., None, :]."""
    return (row @ ham.F(q, u)[..., None])[..., 0, 0] - ham.L(q, u)


def _state_partials(ham: ControlledHamiltonian, q, row, u):
    """(dH/dq, dH/dlam = F): analytic when both df_dx and dL_dx are given, else central differences of H."""
    jac = ham.jac
    if not q.shape[-1]:
        dH_dq = np.zeros(q.shape)
    elif jac.df_dx is not None and jac.dL_dx is not None:
        dH_dq = (row @ _read(jac.df_dx, q, u))[..., 0, :] - _read(jac.dL_dx, q, u)
    else:
        dH_dq = fd_gradient(lambda q_: _h(ham, q_, row, u), q, FD_STEP)
    return dH_dq, ham.F(q, u)


def _control_gradient(ham: ControlledHamiltonian, q, row, u) -> np.ndarray:
    """dH/du: analytic when both df_du and dL_du are given, else central differences of H."""
    jac = ham.jac
    if not u.shape[-1]:
        return np.zeros(u.shape)
    if jac.df_du is not None and jac.dL_du is not None:
        return (row @ _read(jac.df_du, q, u))[..., 0, :] - _read(jac.dL_du, q, u)
    return fd_gradient(lambda v: _h(ham, q, row, v), u, FD_STEP)


def _control_hessian(ham: ControlledHamiltonian, q, row, u) -> np.ndarray:
    """W = d2H/du2, symmetrized, for r > 0: analytic blocks, central differences of an analytic dH/du, or plain
    second differences of H (step sqrt(FD_STEP) to keep roundoff noise down)."""
    jac, r = ham.jac, u.shape[-1]
    if jac.d2f_du2 is not None and jac.d2L_du2 is not None:
        d2F = _read(jac.d2f_du2, q, u)
        w = (row @ d2F.reshape(d2F.shape[:-2] + (r * r,))).reshape(u.shape[:-1] + (r, r)) - _read(jac.d2L_du2, q, u)
    elif jac.df_du is not None and jac.dL_du is not None:
        w = fd_hessian_from_gradient(lambda v: _control_gradient(ham, q, row, v), u, FD_STEP)
    else:
        w = fd_hessian_direct(lambda v: _h(ham, q, row, v), u, FD_STEP)
    return 0.5 * (w + np.swapaxes(w, -1, -2))


def _partials(ham: ControlledHamiltonian, q, lam, u) -> HamiltonianPartials:
    """(dH/dq, dH/dlam = F, dH/du, W = d2H/du2) at every member of the stacks (q, lam, u).

    These helpers are the one place that picks a derivative source, in order
    of preference: analytic blocks (a ``constant`` is read, not called),
    central differences of an analytic dH/du, plain second differences of H.
    A block is analytic only when both its F and its L field are given; a
    zero-length block is never evaluated.  Pairings with lam are matrix
    products per member, so a member's partials do not depend on the batch.
    One finiteness check covers all four.
    """
    row = lam[..., None, :]
    lead, r = u.shape[:-1], u.shape[-1]
    dH_dq, dH_dlam = _state_partials(ham, q, row, u)
    dH_du = _control_gradient(ham, q, row, u)
    w = _control_hessian(ham, q, row, u) if r else np.zeros(u.shape + (0,))
    _require_finite(np.concatenate([dH_dq, dH_dlam, dH_du, w.reshape(lead + (r * r,))], axis=-1),
                    "non-finite Hamiltonian partial", q, lam, u)
    return HamiltonianPartials(dH_dq, dH_dlam, dH_du, w)


def _hamilton_field(ham: ControlledHamiltonian, q, lam, parts: HamiltonianPartials):
    """Hamilton's equations of the form B: (dH/dlam[..., :nq], -(dH/dq, 0) - B dH/dlam) from the partials at u*."""
    if ham.form is None:
        return parts.dH_dp, -parts.dH_dx
    lam_dot = -(ham.form(q, lam) @ parts.dH_dp[..., None])[..., 0]
    lam_dot[..., : q.shape[-1]] -= parts.dH_dx
    return parts.dH_dp[..., : q.shape[-1]], lam_dot


def _is_regular(w: np.ndarray) -> np.ndarray:
    """Per member of a stack of control Hessians (..., r, r): smallest singular value above ``RANK_TOL``."""
    return np.linalg.svd(w, compute_uv=False)[..., -1] > RANK_TOL


def _root_partials(ham: ControlledHamiltonian, q, lam, u) -> HamiltonianPartials:
    """dH/dq and F = dH/dlam at the stacks (q, lam, u), checked finite; dH/du and W are not evaluated (None)."""
    dH_dq, dH_dlam = _state_partials(ham, q, lam[..., None, :], u)
    _require_finite(np.concatenate([dH_dq, dH_dlam], axis=-1), "non-finite Hamiltonian partial", q, lam, u)
    return HamiltonianPartials(dH_dq, dH_dlam, None, None)


def _newton(ham: ControlledHamiltonian, q, lam, u_guess, config):
    """Newton solve of dH/du = 0 at the stacks (q, lam) from ``u_guess``, with ``config.newton_tol`` and ``newton_max_iter``.

    ``u_guess`` is one control (r,) or a stack (..., r).  Each member keeps its
    own convergence: once its residual is within tolerance it is not updated
    again, and every iteration checks the regularity of the other members
    with one stacked SVD and updates them with one stacked solve, so a member
    takes the same steps in any batch.  An iterate evaluates only what it
    reads: dH/du at every iterate and W at the members that take a step (the
    view's constant ``hessian``, whose regularity is decided once, when it
    has one); the caller that needs dH/dq and F at the root asks
    ``_root_partials``.  Returns (u*, iterations, residual), iterations and
    residual per member.  A failure names the flat index of the first
    failing member; a non-finite partial raises EvaluationError at its point.
    """
    u = np.array(u_guess, dtype=float, ndmin=1)
    row = lam[..., None, :]
    iterations = np.zeros(u.shape[:-1], dtype=int)
    for iteration in range(config.newton_max_iter + 1):
        g = _control_gradient(ham, q, row, u)
        # max |dH/du| is NaN or infinite exactly when dH/du is not finite
        residual = _require_finite(np.abs(g).max(axis=-1, initial=0.0), "non-finite Hamiltonian partial", q, lam, u)
        active = ~(residual <= config.newton_tol)
        if not active.any():
            return u, iterations, residual
        everyone = active.all()
        if iteration == config.newton_max_iter:
            i = int(np.flatnonzero(active)[0])
            raise ConvergenceError(f"control Newton exhausted {config.newton_max_iter} iterations",
                                   residual=float(residual.flat[i]), member=i)
        qa, la, ua, ga = (q, lam, u, g) if everyone else (q[active], lam[active], u[active], g[active])
        if ham.hessian is not None and ham.hessian.w is not None:
            w, regular = ham.hessian.w, np.array(ham.hessian.regular)
        else:
            w = _control_hessian(ham, qa, la[..., None, :], ua)
            _require_finite(w.reshape(ua.shape[:-1] + (-1,)), "non-finite Hamiltonian partial", qa, la, ua)
            regular = _is_regular(w)
        if not regular.all():
            i = int(np.flatnonzero(active)[np.argmin(regular)])
            raise RegularityError("control Hessian is singular along the Newton iteration",
                                  residual=float(residual.flat[i]), member=i)
        step = np.linalg.solve(w, ga[..., None])[..., 0]
        if everyone:
            u, iterations = u - step, iterations + 1
        else:
            u[active] = ua - step
            iterations[active] += 1


def hamiltonian_partials(problem: ControlProblem, point: PontryaginPoint) -> HamiltonianPartials:
    """First partials of H plus the control Hessian W = d2H/du2 (see ``_partials``)."""
    point.conform(problem)
    return _partials(_full_view(problem), point.x, point.p, point.u)


def pontryagin_hamiltonian(problem: ControlProblem, point: PontryaginPoint) -> float:
    """H(x, p, u) = <p, f(x, u)> - L(x, u)."""
    point.conform(problem)
    return float(_hamiltonian_value(_full_view(problem), point.x, point.p, point.u))


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
    l_dev = abs(float(_eval_lagrangian(problem, gx, gu) - _eval_lagrangian(problem, x, u)))
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
    if problem.jacobians is None:
        return 0.0
    rng = np.random.default_rng(seed)
    draws = [(rng.normal(size=problem.n), rng.normal(size=problem.r)) for _ in range(probes)]
    x = np.array([d[0] for d in draws]).reshape(probes, problem.n)
    u = np.array([d[1] for d in draws]).reshape(probes, problem.r)

    def rel(a, b):
        return float(np.max(np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b))), initial=0.0))

    _eval_dynamics(problem, x, u)  # also enforces the output-length invariant
    jac = _full_view(problem).jac
    worst = 0.0
    for analytic, differences, fun, wrt in (
        (jac.df_dx, fd_jacobian, lambda v: _eval_dynamics(problem, v, u), x),
        (jac.df_du, fd_jacobian, lambda v: _eval_dynamics(problem, x, v), u),
        (jac.dL_dx, fd_gradient, lambda v: _eval_lagrangian(problem, v, u), x),
        (jac.dL_du, fd_gradient, lambda v: _eval_lagrangian(problem, x, v), u),
    ):
        if analytic is not None and wrt.shape[-1]:
            worst = max(worst, rel(analytic(x, u), differences(fun, wrt, fd_step)))
    if worst > rtol:
        raise EvaluationError(f"analytic jacobians deviate from finite differences by {worst:.3e}")
    return worst
