"""Geometric optimal control problems on a single global chart.

A problem is the data (state dimension n, control dimension r, dynamics
f(x, u), running cost L(x, u)) with optional analytic derivatives and an
optional symmetry handle.  States and controls are flat real vectors; all
computations happen in chart coordinates.

The central object is the Pontryagin Hamiltonian

    H(x, p, u) = <p, f(x, u)> - L(x, u)

whose first and second partials drive the maximum-principle solver; they are
the only analytic derivatives a problem gives (``ProblemJacobians``).  One
kernel computes them for H(q, lam, u) = <lam, F(q, u)> - L(q, u) with lam of
any length, so the reduced problem (lam = (p_z, mu), F = (base, fiber)) shares
it, and one Newton loop eliminates the controls of both.  Each problem holds
one view of H (``ControlProblem.view``, built by ``_controlled``), which picks
its derivative sources and decides a constant W once: the given derivatives of
H (every problem file gives both), else central finite differences of H (step
scaled by 1 + |coordinate|).  The solvers read one gradient of it, the stacked
(dH/du, dH/dq, F); dH/dlam = F(q, u) is always exact.

The kernel works on stacks: every argument may carry leading member axes (a
batch of initial conditions, or all rows of a trajectory), and one point is
the stack without them.  Problem callables marked ``stacked`` take the whole
stack at once; any other callable is called once per member.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._fd import fd_gradient, fd_hessian_direct, fd_jacobian
from .errors import ConvergenceError, DimensionMismatchError, EvaluationError, NonNilpotentError, PontrylieError
from .errors import RegularityError
from .lie import GroupElement, LieAlgebraSpec, _exp_series, _is_nilpotent, exp_nilpotent, left_invariant_frame
from .lie import log_nilpotent


@dataclass(frozen=True)
class ProblemJacobians:
    """Optional analytic derivatives of the Pontryagin Hamiltonian H(x, p, u) = <p, f(x, u)> - L(x, u).

    Each is a function of (x, p, u), per member (see ``stacked``): dH of shape (r + 2n,), the
    concatenation (dH/du, dH/dx, f), whose last n entries must be those of the dynamics; d2H_du2 of shape
    (r, r), the control Hessian W.  A missing one comes from the other or from central differences of H
    (see ``_controlled``).  ``expr.load_problem`` compiles both for every problem file.
    """

    dH: Optional[Callable] = None
    d2H_du2: Optional[Callable] = None


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

    @functools.cached_property
    def view(self) -> "ControlledHamiltonian":
        """The view of H (``_controlled``), built at first use and held; a replaced problem builds its own."""
        n, r = self.n, self.r
        return _controlled(F=_sized(_per_member(self.dynamics, "dynamics", (n,)), "dynamics", n),
                           L=_per_member(self.lagrangian, "Lagrangian", ()),
                           jac=_stacked_jacobians(self.jacobians, r, r + 2 * n), nq=n, r=r)


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
    argument.  The kernel reads ``.value`` instead of calling it (see ``ControlledHamiltonian.w``).
    """
    value = np.asarray(value, dtype=float)

    def tiled(*args):
        out = np.empty(np.shape(args[0])[:-1] + value.shape)
        out[...] = value
        return out

    tiled.value = value
    return stacked(tiled)


def _per_member(fn: Optional[Callable], name: str, shape: tuple) -> Optional[Callable]:
    """``fn`` as a stacked callable: itself when marked ``stacked``, else a loop calling it on each member.

    Each member's value must have the trailing ``shape``; a scalar (``shape == ()``) is read by float().  A
    ValueError or ArithmeticError of ``fn`` itself (``math.sqrt`` of a negative number, say) is an
    EvaluationError at that member's arguments.
    """
    if fn is None or getattr(fn, "stacked", False):
        return fn

    def each(*args):
        lead = np.shape(args[0])[:-1]
        count = math.prod(lead)
        values = []
        for member, row in enumerate(zip(*(np.reshape(a, (count, np.shape(a)[-1])) for a in args))):
            try:
                value = fn(*row)
            except (ValueError, ArithmeticError) as exc:
                if isinstance(exc, PontrylieError):
                    raise
                raise EvaluationError(f"{name} failed: {exc}", point=tuple(np.array(a) for a in row),
                                      member=member) from exc
            value = float(value) if not shape else np.asarray(value, dtype=float)
            if np.shape(value) != shape:
                raise DimensionMismatchError(
                    f"{name} returned shape {np.shape(value)} for one member, expected {shape}"
                )
            values.append(value)
        return np.array(values, dtype=float).reshape(lead + shape)

    return each


def _sized(fn: Callable, name: str, size: int) -> Callable:
    """The stacked vector callable ``fn``, its values checked to hold ``size`` entries per member.

    A compiled ``fn`` (``expr.compile_tables``) carries the ``widths`` of its arguments, and arguments of
    other widths are a DimensionMismatchError naming ``name``, before the call.
    """
    widths = getattr(fn, "widths", None)

    def checked(q, *args):
        if widths is not None and tuple(np.shape(a)[-1] for a in (q, *args)) != widths:
            shapes = ", ".join(str(np.shape(a)) for a in (q, *args))
            raise DimensionMismatchError(f"{name} takes arguments of widths {widths}, got shapes {shapes}")
        value = np.asarray(fn(q, *args), dtype=float)
        if value.shape != q.shape[:-1] + (size,):
            raise DimensionMismatchError(f"{name} returned shape {value.shape}, expected {q.shape[:-1] + (size,)}")
        return value

    return checked


def _sized_gradient(ham: "ControlledHamiltonian", nq: int, k: int, r: int) -> "ControlledHamiltonian":
    """``ham`` with ``dH`` checked to give r + nq + k entries per member, and its F entries to be ``ham.F`` at
    the same rows, to 1e-12 (1 + |F|).

    An integration wraps its problem's view for its first node, a scan for its one call: a gradient of the wrong
    width fails here naming ``dH``, where it would otherwise fail in NumPy or be read at the wrong entries, and
    a ``dH`` that belongs to other dynamics fails here, where it would otherwise be read silently.
    """
    sized = _sized(ham.dH, "dH", r + nq + k)

    def dH(q, lam, u):
        grad = sized(q, lam, u)
        f = ham.F(q, u)
        deviation = np.abs(grad[..., r + nq :] - f)
        if np.any(deviation > 1e-12 * (1.0 + np.abs(f))):
            raise PontrylieError(f"dH does not belong to the dynamics: its F entries deviate from the dynamics "
                                 f"by up to {np.nanmax(deviation):.3e}")
        return grad

    return ham._replace(dH=dH)


def _require_finite(values: np.ndarray, message: str, *rows: np.ndarray) -> np.ndarray:
    """``values`` (leading member axes as ``rows[0]``) once all finite; else EvaluationError at the first bad member.

    The error names that member's flat index, and its point holds that member's entries of ``rows``.
    """
    finite = np.isfinite(values)
    if finite.all():
        return values
    count = math.prod(rows[0].shape[:-1])
    i = int(np.argmin(finite.reshape(count, -1).all(axis=1)))
    raise EvaluationError(message, point=tuple(np.reshape(v, (count, v.shape[-1]))[i].copy() for v in rows), member=i)


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
    """H(q, lam, u) = <lam, F(q, u)> - L(q, u) and its derivatives, each source picked once by ``_controlled``.

    ``dH(q, lam, u)`` gives (..., r + nq + k) = (dH/du, dH/dq, F), nq = len(q) and k = len(lam) (see
    ``_split``); ``d2H_du2`` gives W, symmetrized, (..., r, r).  ``form(q, lam)`` is the antisymmetric (..., k, k)
    matrix B of the Poisson bracket's non-canonical part and ``bracket(q, lam, f)`` the product -B f that
    ``_hamilton_field`` reads; None for both means B = 0, and then k = nq.  ``w`` is W when it is the same at
    every point (a ``constant``), else None, and ``w_inverse`` its inverse, None when W is singular.  Every
    callable is stacked (see ``stacked``).
    """

    F: Callable
    L: Callable
    dH: Callable
    d2H_du2: Callable
    w: Optional[np.ndarray]
    w_inverse: Optional[np.ndarray]
    form: Optional[Callable] = None
    bracket: Optional[Callable] = None


def _controlled(F: Callable, L: Callable, jac: ProblemJacobians, nq: int, r: int) -> ControlledHamiltonian:
    """The view of H = <lam, F> - L on stacked F, L and derivatives ``jac``, every derivative source picked here, once.

    dH is ``jac.dH``, else central differences of H in u and in q and F joined.  W is ``jac.d2H_du2``, else
    central differences of the first r entries of an analytic dH, else plain second differences of H (step
    sqrt(FD_STEP) to keep roundoff noise down).  A ``constant`` W of finite (r, r) value is symmetrized,
    rank-checked by one SVD and inverted here.  A zero-length q or u block is never evaluated.
    """

    def h(q, lam, u):
        return (lam[..., None, :] @ F(q, u)[..., None])[..., 0, 0] - L(q, u)

    dH = jac.dH
    if dH is None:
        def dH(q, lam, u):
            dH_du = fd_gradient(lambda v: h(q, lam, v), u, FD_STEP) if r else np.zeros(u.shape)
            dH_dq = fd_gradient(lambda v: h(v, lam, u), q, FD_STEP) if nq else np.zeros(q.shape)
            return np.concatenate([dH_du, dH_dq, F(q, u)], axis=-1)

    if jac.d2H_du2 is not None:
        hessian = jac.d2H_du2
    elif jac.dH is not None:
        def hessian(q, lam, u):
            return fd_jacobian(lambda v: jac.dH(q, lam, v)[..., :r], u, FD_STEP)
    else:
        def hessian(q, lam, u):
            return fd_hessian_direct(lambda v: h(q, lam, v), u, FD_STEP)

    def d2H_du2(q, lam, u):
        w = hessian(q, lam, u)
        return 0.5 * (w + np.swapaxes(w, -1, -2))

    w = getattr(jac.d2H_du2, "value", None)
    w = 0.5 * (w + w.T) if w is not None and w.shape == (r, r) and np.isfinite(w).all() else None
    w_inverse = np.linalg.inv(w) if w is not None and (r == 0 or _is_regular(w)) else None
    return ControlledHamiltonian(F=F, L=L, dH=dH, d2H_du2=d2H_du2, w=w, w_inverse=w_inverse)


def _stacked_jacobians(jac: Optional[ProblemJacobians], r: int, width: int) -> ProblemJacobians:
    """The derivatives ``jac`` of H, each stacked (see ``_per_member``), dH of ``width`` entries; absent ones None."""
    jac = jac or ProblemJacobians()
    shapes = {"dH": (width,), "d2H_du2": (r, r)}
    return ProblemJacobians(**{name: _per_member(getattr(jac, name), name, shape) for name, shape in shapes.items()})


def _eval_dynamics(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _require_finite(problem.view.F(x, u), "dynamics produced a non-finite value", x, u)


def _eval_lagrangian(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _require_finite(problem.view.L(x, u), "Lagrangian produced a non-finite value", x, u)


def _hamiltonian_value(ham: ControlledHamiltonian, q, lam, u, f=None) -> np.ndarray:
    """H per member; ``f`` is F(q, u) when the caller holds it already."""
    f = ham.F(q, u) if f is None else f
    value = (lam[..., None, :] @ f[..., None])[..., 0, 0] - ham.L(q, u)
    return _require_finite(value, "non-finite Hamiltonian", q, lam, u)


def _split(grad: np.ndarray, nq: int, r: int):
    """(dH/du, dH/dq, F) of a ``dH`` value whose q has length nq and u length r."""
    return grad[..., :r], grad[..., r : r + nq], grad[..., r + nq :]


def _gradient(ham: ControlledHamiltonian, q, lam, u) -> np.ndarray:
    """dH = (dH/du, dH/dq, F) at the stacks (q, lam, u), checked finite."""
    return _require_finite(ham.dH(q, lam, u), "non-finite Hamiltonian partial", q, lam, u)


def _partials(ham: ControlledHamiltonian, q, lam, u) -> HamiltonianPartials:
    """(dH/dq, dH/dlam = F, dH/du, W = d2H/du2) at every member of the stacks (q, lam, u), from one ``dH`` call.

    One finiteness check covers all four.
    """
    lead, r = u.shape[:-1], u.shape[-1]
    grad = ham.dH(q, lam, u)
    w = ham.d2H_du2(q, lam, u) if r else np.zeros(u.shape + (0,))
    _require_finite(np.concatenate([grad, w.reshape(lead + (r * r,))], axis=-1),
                    "non-finite Hamiltonian partial", q, lam, u)
    dH_du, dH_dq, f = _split(grad, q.shape[-1], r)
    return HamiltonianPartials(dH_dq, f, dH_du, w)


def _hamilton_field(ham: ControlledHamiltonian, q, lam, grad: np.ndarray):
    """Hamilton's equations of the form B: (F[..., :nq], -(dH/dq, 0) - B F) from the ``dH`` value at u*, with
    -B F (a new array) from one ``ham.bracket`` call."""
    nq = q.shape[-1]
    _, dH_dq, f = _split(grad, nq, grad.shape[-1] - nq - lam.shape[-1])
    if ham.bracket is None:
        return f, -dH_dq
    lam_dot = ham.bracket(q, lam, f)
    if nq:
        lam_dot[..., :nq] -= dH_dq
    return f[..., :nq], lam_dot


def _is_regular(w: np.ndarray) -> np.ndarray:
    """Per member of a stack of control Hessians (..., r, r): smallest singular value above ``RANK_TOL``."""
    return np.linalg.svd(w, compute_uv=False)[..., -1] > RANK_TOL


def _newton(ham: ControlledHamiltonian, q, lam, u_guess, config):
    """Newton solve of dH/du = 0 at the stacks (q, lam) from ``u_guess``, with ``config.newton_tol`` and ``newton_max_iter``.

    ``u_guess`` is one control (r,) or a stack (..., r).  Each member keeps its
    own convergence: once its residual is within tolerance it is not updated
    again, and every iteration checks the regularity of the other members
    with one stacked SVD and updates them with one stacked solve, so a member
    takes the same steps in any batch (for a constant W the view holds its
    inverse, ``w_inverse``, and a step is then one matmul).  Every
    iterate evaluates the whole ``dH`` on the whole stack and reads dH/du,
    its first r entries, so the gradient at the root, that of the last
    iterate, costs the caller no call (one step, for H quadratic in u).  W
    is evaluated only at the members that take a step.  One member (leading
    shape () or (1,), as the compiled tables tell it) with a regular
    constant W takes the same steps, each the same matmul, but keeps the
    residual, the convergence and finiteness tests and the count on Python
    floats, so it gives the bits it gives in a batch.  Returns (u*,
    iterations, residual, dH at u* unchecked), iterations and residual per
    member, Python numbers for that one member.  A failure names the flat
    index of the first failing member; a non-finite dH/du raises
    EvaluationError at its point.
    """
    u = np.array(u_guess, dtype=float, ndmin=1)
    r, lead = u.shape[-1], u.shape[:-1]
    if ham.w_inverse is not None and lead in ((), (1,)) and q.shape[:-1] == lam.shape[:-1] == lead:
        # one member and a regular constant W: the steps of the stack path, the bookkeeping on Python floats
        for iterations in range(config.newton_max_iter + 1):
            grad = ham.dH(q, lam, u)
            g = grad[..., :r]
            values = g.ravel().tolist()
            if not all(map(math.isfinite, values)):
                _require_finite(g, "non-finite Hamiltonian partial", q, lam, u)
            residual = max(map(abs, values), default=0.0)
            if residual <= config.newton_tol:
                return u, iterations, residual, grad
            if iterations == config.newton_max_iter:
                raise ConvergenceError(f"control Newton exhausted {config.newton_max_iter} iterations",
                                       residual=residual, member=0)
            u = u - (ham.w_inverse @ g[..., None])[..., 0]
    iterations = np.zeros(lead, dtype=int)
    constant_w = ham.w is not None
    for iteration in range(config.newton_max_iter + 1):
        grad = ham.dH(q, lam, u)
        g = grad[..., :r]
        residual = np.abs(g).max(axis=-1, initial=0.0)
        active = ~(residual <= config.newton_tol)
        stepping = np.count_nonzero(active)
        if not stepping:  # every residual is within tolerance, so finite
            return u, iterations, residual, grad
        # max |dH/du| is NaN or infinite exactly when dH/du is not finite
        _require_finite(residual, "non-finite Hamiltonian partial", q, lam, u)
        everyone = stepping == active.size
        if iteration == config.newton_max_iter:
            i = int(np.flatnonzero(active)[0])
            raise ConvergenceError(f"control Newton exhausted {config.newton_max_iter} iterations",
                                   residual=float(residual.flat[i]), member=i)
        if constant_w:
            singular = ham.w_inverse is None  # one W for every member
        else:
            qa, la, ua, ga = (q, lam, u, g) if everyone else (q[active], lam[active], u[active], g[active])
            w = ham.d2H_du2(qa, la, ua)
            _require_finite(w.reshape(ua.shape[:-1] + (-1,)), "non-finite Hamiltonian partial", qa, la, ua)
            regular = _is_regular(w)
            singular = not regular.all()
        if singular:
            i = int(np.flatnonzero(active)[0 if constant_w else np.argmin(regular)])
            raise RegularityError("control Hessian is singular along the Newton iteration",
                                  residual=float(residual.flat[i]), member=i)
        if constant_w:  # one matmul on the whole stack; a converged member keeps its control
            stepped = u - (ham.w_inverse @ g[..., None])[..., 0]
            u = stepped if everyone else np.where(active[..., None], stepped, u)
            iterations = iterations + active
        elif everyone:
            u, iterations = u - np.linalg.solve(w, g[..., None])[..., 0], iterations + 1
        else:
            u[active] = ua - np.linalg.solve(w, ga[..., None])[..., 0]
            iterations[active] += 1


def hamiltonian_partials(problem: ControlProblem, point: PontryaginPoint) -> HamiltonianPartials:
    """First partials of H plus the control Hessian W = d2H/du2 (see ``_partials``)."""
    point.conform(problem)
    return _partials(problem.view, point.x, point.p, point.u)


def pontryagin_hamiltonian(problem: ControlProblem, point: PontryaginPoint) -> float:
    """H(x, p, u) = <p, f(x, u)> - L(x, u)."""
    point.conform(problem)
    return float(_hamiltonian_value(problem.view, point.x, point.p, point.u))


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


def validate_jacobians(problem: ControlProblem, probes: int = 20, seed: int = 0, rtol: float = 1e-5) -> float:
    """Cross-check the given derivatives of H against central differences of H.

    At random points and costates, each field of ``problem.jacobians`` that is given is compared with what
    the view of the problem without them gives: central differences of H = <p, f> - L, built from the
    dynamics and the Lagrangian.  Returns the worst relative deviation over the probes; raises
    EvaluationError if it exceeds ``rtol``.
    """
    if problem.jacobians is None:
        return 0.0
    rng = np.random.default_rng(seed)
    draws = [(rng.normal(size=problem.n), rng.normal(size=problem.r)) for _ in range(probes)]
    x = np.array([d[0] for d in draws]).reshape(probes, problem.n)
    u = np.array([d[1] for d in draws]).reshape(probes, problem.r)
    p = rng.normal(size=(probes, problem.n))

    def rel(a, b):
        return float(np.max(np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b))), initial=0.0))

    _eval_dynamics(problem, x, u)  # also enforces the output-length invariant
    view, reference = problem.view, dataclasses.replace(problem, jacobians=None).view
    worst = 0.0
    for field in dataclasses.fields(problem.jacobians):
        if getattr(problem.jacobians, field.name) is not None:
            worst = max(worst, rel(getattr(view, field.name)(x, p, u), getattr(reference, field.name)(x, p, u)))
    if worst > rtol:
        raise EvaluationError(f"analytic derivatives of H deviate from finite differences by {worst:.3e}")
    return worst
