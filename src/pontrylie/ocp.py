"""Geometric optimal control problems on a single global chart.

A problem is the data (state dimension n, control dimension r, dynamics
f(x, u), running cost L(x, u)) with the analytic derivatives of its
Hamiltonian and an optional symmetry handle.  States and controls are flat
real vectors; all computations happen in chart coordinates.

The central object is the Pontryagin Hamiltonian

    H(x, p, u) = <p, f(x, u)> - L(x, u)

whose first and second partials drive the maximum-principle solver; they are
the only analytic derivatives a problem gives (``ProblemJacobians``), and it
gives both, exactly (``expr.load_problem`` compiles them from expressions).
One kernel reads them for H(q, lam, u) = <lam, F(q, u)> - L(q, u) with lam of
any length, so the reduced problem (lam = (p_z, mu), F = (base, fiber)) shares
it, and one Newton loop eliminates the controls of both.  Each problem holds
one view of H (``ControlProblem.view``, built by ``_controlled``), which
decides a constant W once.  The solvers read one gradient of it, the stacked
(dH/du, dH/dq, F).

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

from .errors import ConvergenceError, DimensionMismatchError, EvaluationError, NonNilpotentError, PontrylieError
from .errors import ExprEvaluationError, RegularityError
from .lie import GroupElement, LieAlgebraSpec, _exp_series, _is_nilpotent, exp_nilpotent, left_invariant_frame
from .lie import log_nilpotent


@dataclass(frozen=True)
class ProblemJacobians:
    """The analytic derivatives of the Pontryagin Hamiltonian H(x, p, u) = <p, f(x, u)> - L(x, u).

    Each is a function of (x, p, u), per member (see ``stacked``): dH of shape (r + 2n,), the
    concatenation (dH/du, dH/dx, f), whose last n entries must be those of the dynamics; d2H_du2 of shape
    (r, r), the control Hessian W.  A problem needs both: reading a missing one raises
    DimensionMismatchError naming it (see ``_stacked_jacobians``).  ``expr.load_problem`` compiles both from
    expressions, for every problem file.
    """

    dH: Optional[Callable] = None
    d2H_du2: Optional[Callable] = None


@dataclass(frozen=True)
class SymmetryHandle:
    """Group-action data attached to a problem.

    ``generators(x)`` is the only mandatory field (it feeds the momentum
    map): for x of shape (..., n) it returns the (..., dim, n) matrices
    whose row i is the generator (e_i)_P(x) of basis element i.  Like
    ``body_frame`` it always takes a stack, so the J channels of a whole
    integration come from one call.  The remaining callables enable
    invariance checking and, for problems whose state space is the group
    itself, reduction:

    - ``act_on_state(g, x)``: the action of a GroupElement on a chart point
      (controls are left as they are).
    - ``state_jacobian(g, x)``: Jacobian of act_on_state in x; finite
      differences if None.
    - ``body_frame(x)``: for x of shape (..., n), the (..., n, dim) matrices
      whose columns are the left-invariant basis vector fields at x;
      required by reduction (state space = group).

    ``left_translations`` derives all of them for a nilpotent matrix algebra.
    """

    algebra: LieAlgebraSpec
    generators: Callable
    act_on_state: Optional[Callable] = None
    state_jacobian: Optional[Callable] = None
    body_frame: Optional[Callable] = None


def left_translations(alg: LieAlgebraSpec) -> SymmetryHandle:
    """Left multiplication of the group of a nilpotent matrix algebra on itself, x <-> exp(x).

    The generators are the rows of L(-x)^T, the right-invariant fields R(x) = L(-x), the body frame is
    the left-invariant L(x) (``lie.left_invariant_frame``), g acts by x -> log(g exp(x)), and its
    Jacobian is L(g.x) L(x)^-1 because left translation carries left-invariant fields to themselves.
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
        generators=lambda x: left_invariant_frame(alg, np.negative(x)).swapaxes(-1, -2),
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
                           jac=_stacked_jacobians(self.jacobians, r, r + 2 * n), r=r)


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


# A control Hessian whose smallest singular value is at or below this is singular.
RANK_TOL = 1e-9


class HamiltonianPartials(NamedTuple):
    dH_dx: np.ndarray
    dH_dp: np.ndarray
    dH_du: np.ndarray
    d2H_du2: np.ndarray


class ControlledHamiltonian(NamedTuple):
    """H(q, lam, u) = <lam, F(q, u)> - L(q, u) and its derivatives, as ``_controlled`` builds them.

    ``dH(q, lam, u)`` gives (..., r + nq + k) = (dH/du, dH/dq, F), nq = len(q) and k = len(lam) (see
    ``_split``); ``d2H_du2`` gives W, symmetrized, (..., r, r).  ``form(q, lam)`` is the antisymmetric (..., k, k)
    matrix B of the Poisson bracket's non-canonical part and ``bracket(q, lam, f)`` the product -B f that
    ``_hamilton_field`` reads; None for both means B = 0, and then k = nq.  ``w`` is W when it is the same at
    every point (a ``constant``), else None, and ``w_inverse`` its inverse, None when W is singular.  Every
    callable is stacked (see ``stacked``) but ``stage()``, which gives the view's generated one-member RK4 sweep
    (``expr.float_stage``, None where it does not apply), compiled in one ``compile()`` at its first call.
    """

    F: Callable
    L: Callable
    dH: Callable
    d2H_du2: Callable
    w: Optional[np.ndarray]
    w_inverse: Optional[np.ndarray]
    form: Optional[Callable] = None
    bracket: Optional[Callable] = None
    stage: Optional[Callable] = None


def _controlled(F: Callable, L: Callable, jac: ProblemJacobians, r: int, form: Optional[Callable] = None,
                bracket: Optional[Callable] = None) -> ControlledHamiltonian:
    """The view of H = <lam, F> - L on stacked F, L and the derivatives ``jac`` of H (see ``_stacked_jacobians``).

    dH is ``jac.dH`` and W the symmetrized ``jac.d2H_du2``.  A ``constant`` W of finite (r, r) value is
    symmetrized, rank-checked by one SVD and inverted here, once.
    """

    def d2H_du2(q, lam, u):
        w = jac.d2H_du2(q, lam, u)
        return 0.5 * (w + np.swapaxes(w, -1, -2))

    w = getattr(jac.d2H_du2, "value", None)
    w = 0.5 * (w + w.T) if w is not None and w.shape == (r, r) and np.isfinite(w).all() else None
    w_inverse = np.linalg.inv(w) if w is not None and (r == 0 or _is_regular(w)) else None

    def stage():
        from .expr import float_stage  # here: expr imports this module
        return float_stage(view)

    view = ControlledHamiltonian(F, L, jac.dH, d2H_du2, w, w_inverse, form, bracket)
    return view._replace(stage=functools.cache(stage))


def _stacked_jacobians(jac: Optional[ProblemJacobians], r: int, width: int) -> ProblemJacobians:
    """The derivatives ``jac`` of H, each stacked (see ``_per_member``), dH of ``width`` entries.

    A missing one is a stand-in that raises DimensionMismatchError naming it when called, so a problem without
    derivatives still gives the values of H, F and L.
    """
    jac = jac or ProblemJacobians()
    shapes = {"dH": (width,), "d2H_du2": (r, r)}
    return ProblemJacobians(**{name: _per_member(getattr(jac, name), name, shape) or _missing(name)
                               for name, shape in shapes.items()})


def _missing(name: str) -> Callable:
    """The stand-in of the missing derivative ``name`` of H: a stacked callable raising DimensionMismatchError."""

    def missing(*args):
        raise DimensionMismatchError(f"the problem gives no {name}: its jacobians need both dH and d2H_du2, exact "
                                     f"derivatives of H (pontrylie.expr.load_problem builds both from expressions)")

    return stacked(missing)


def _eval_dynamics(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _require_finite(problem.view.F(x, u), "dynamics produced a non-finite value", x, u)


def _eval_lagrangian(problem: ControlProblem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    return _require_finite(problem.view.L(x, u), "Lagrangian produced a non-finite value", x, u)


def _hamiltonian_value(q, lam, u, f: np.ndarray, lagrangian) -> np.ndarray:
    """H per member of the stacks (q, lam, u), checked finite; ``f`` = F(q, u) and ``lagrangian`` = L(q, u)."""
    value = (lam[..., None, :] @ f[..., None])[..., 0, 0] - lagrangian
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
    is evaluated only at the members that take a step.  Returns (u*,
    iterations, residual, dH at u* unchecked), iterations and residual
    arrays of the stack's leading shape.  A failure names the flat index
    of the first failing member (of the whole stack, also where W was
    evaluated at the stepping members only); a non-finite dH/du raises
    EvaluationError at its point.
    """
    u = np.array(u_guess, dtype=float, ndmin=1)
    r, lead = u.shape[-1], u.shape[:-1]
    iterations = np.zeros(lead, dtype=int)
    constant_w = ham.w is not None
    for iteration in range(config.newton_max_iter + 1):
        grad = ham.dH(q, lam, u)
        g = grad[..., :r]
        residual = np.abs(g).max(axis=-1, initial=0.0)
        active = ~(residual <= config.newton_tol)
        stepping = np.count_nonzero(active)
        if not stepping:  # every residual is within tolerance, so finite
            return u, np.asarray(iterations), np.asarray(residual), grad  # not NumPy scalars, at one point
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
            try:
                w = ham.d2H_du2(qa, la, ua)
                _require_finite(w.reshape(ua.shape[:-1] + (-1,)), "non-finite Hamiltonian partial", qa, la, ua)
            except (EvaluationError, ExprEvaluationError) as exc:  # it names a member of the active ones
                if not everyone and exc.member is not None:
                    exc.member = int(np.flatnonzero(active)[exc.member])
                raise
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

    Returns (|L(g.(x,u)) - L(x,u)|, max-norm of T(g.)f(x,u) - f(g.(x,u))), g.(x,u) = (g.x, u).
    """
    sym = problem.symmetry
    if sym is None or sym.act_on_state is None:
        raise PontrylieError("problem has no symmetry group action to check")
    gx = np.asarray(sym.act_on_state(g, x), dtype=float)
    l_dev = abs(float(_eval_lagrangian(problem, gx, u) - _eval_lagrangian(problem, x, u)))
    f = _eval_dynamics(problem, x, u)
    if sym.state_jacobian is not None:
        pushed = np.asarray(sym.state_jacobian(g, x), dtype=float) @ f
    else:
        pushed = _fd_pushforward(sym.act_on_state, g, x, f)
    dyn_dev = float(np.max(np.abs(pushed - _eval_dynamics(problem, gx, u)), initial=0.0))
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
