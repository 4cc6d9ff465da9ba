"""Symmetry-reduced maximum-principle dynamics.

A reduced problem lives on (base point z, base costate p_z, coalgebra point
mu, control u) with reduced Hamiltonian

    h(z, p_z, mu, u) = <p_z, base_dynamics(z, u)> + <mu, fiber_dynamics(z, u)> - l(z, u)

and evolves by Hamilton's equations (``ocp._hamilton_field``) with lam = (p_z, mu) and Martinez's Lie-algebroid
form B(z, lam)_ab = sum_k C^k_ab(z) mu_k = [[C(z, mu), 0], [0, B(mu)]], C from ``base_structure`` and c_ijk:

    z_dot   = dh/dp_z
    pz_dot  = -dh/dz - C(z, mu) z_dot  (coordinate form, zero without base structure)
    mu_dot  = -B(mu) xi = ad*_xi(mu),   xi = dh/dmu
    dh/du   = 0              (controls eliminated by Newton)

B(z, lam) and -B(z, lam) F are compiled from that structure when the view is built.

With the package's ad* convention this reproduces the closed-form Heisenberg
flow; data written for the opposite convention is the same flow on the
opposite algebra (negated structure constants).  When the base is
zero-dimensional (state space = symmetry group) this is the pure Lie-Poisson
system on the coalgebra.  Covariant derivatives are represented as plain coordinate
derivatives in the caller's trivialization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, ReductionUnsupportedError
from .lie import LieAlgebraSpec
from .ocp import ControlledHamiltonian, ControlProblem, HamiltonianPartials, PontryaginPoint, ProblemJacobians
from .ocp import _controlled, _gradient, _hamilton_field, _newton, _partials, _per_member, _sized
from .ocp import _split, _stacked_jacobians
from .pmp import PmpSolverConfig, Trajectory, _rk4_dae, _scan_rows, _with_channels


@dataclass(frozen=True)
class ReducedProblem:
    """Reduced dynamics data on base (+) coalgebra (+) controls.

    ``base_dynamics(z, u)`` returns the base velocity (length base_dim) and
    ``fiber_dynamics(z, u)`` the algebra coefficients of the vertical part.
    ``base_structure`` lists the structure functions C^k_ij(z) = value, sparse as ``algebra_from_dict``'s
    structure: entries (i, j, k, value), 0 <= i < j < base_dim, 0 <= k < algebra.dim, value a number or an ``expr``
    expression in z1..zs, C^k_ji = -C^k_ij; base sections i and j bracket into algebra direction k, and the p_z
    equation gets -(C(z, mu) z_dot)_i, C(z, mu)_ij = sum_k C^k_ij(z) mu_k (a malformed entry raises, naming it).
    ``jacobians`` holds the derivatives of h as functions of (z, lam, u), lam = (p_z, mu): dH of shape (r + 2 s + dim,)
    is (dh/du, dh/dz, base, fiber) and d2H_du2 of shape (r, r) the control Hessian, as for H (see
    ``ProblemJacobians``).  Casimirs are monitored, never discovered: a dict of name -> function of mu.
    """

    base_dim: int
    algebra: LieAlgebraSpec
    control_dim: int
    lagrangian: Callable
    base_dynamics: Callable
    fiber_dynamics: Callable
    base_structure: Sequence[tuple] = ()
    jacobians: Optional[ProblemJacobians] = None
    casimirs: Dict[str, Callable] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.base_dim < 0 or self.control_dim < 0:
            raise DimensionMismatchError("base_dim and control_dim must be nonnegative")
        from .expr import _structure_functions  # here: expr imports this module
        _structure_functions(self.base_structure, self.base_dim, self.algebra.dim)

    @functools.cached_property
    def view(self) -> ControlledHamiltonian:
        """h as the controlled Hamiltonian with q = z, lam = (p_z, mu) and F = (base, fiber), built once and held.

        ``ocp._controlled`` reads the derivatives ``jacobians`` and decides the constant W, once per problem.  B(z, lam)
        and -B(z, lam) F are compiled here, the two tables of one structure (``expr._lie_poisson_tables``), so a
        replaced algebra brings its own bracket.  A zero-dimensional base contributes no dynamics at all.
        Unmarked callables are called once per member.
        """
        from .expr import _lie_poisson_tables, compile_tables  # here: expr imports this module

        s, dim, r = self.base_dim, self.algebra.dim, self.control_dim
        form, bracket = compile_tables(_lie_poisson_tables(self.algebra.structure_constants, s, self.base_structure))
        F = fiber = _per_member(self.fiber_dynamics, "fiber dynamics", (dim,))
        if s:
            base = _per_member(self.base_dynamics, "base dynamics", (s,))
            F = lambda z, u: np.concatenate([base(z, u), fiber(z, u)], axis=-1)  # noqa: E731
        return _controlled(
            F=_sized(F, "base/fiber dynamics", s + dim), L=_per_member(self.lagrangian, "reduced Lagrangian", ()),
            jac=_stacked_jacobians(self.jacobians, r, r + 2 * s + dim), r=r, form=form, bracket=bracket,
        )


@dataclass(frozen=True)
class ReducedState:
    """A reduced bundle point (z, p_z, mu, u)."""

    z: np.ndarray
    p_z: np.ndarray
    mu: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        for name in ("z", "p_z", "mu", "u"):
            value = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, value)

    def conform(self, problem: ReducedProblem) -> "ReducedState":
        ok = (
            self.z.shape == (problem.base_dim,)
            and self.p_z.shape == (problem.base_dim,)
            and self.mu.shape == (problem.algebra.dim,)
            and self.u.shape == (problem.control_dim,)
        )
        if not ok:
            raise DimensionMismatchError(
                f"reduced state shapes {self.z.shape}/{self.p_z.shape}/{self.mu.shape}/{self.u.shape} "
                f"do not match s={problem.base_dim}, dim={problem.algebra.dim}, r={problem.control_dim}"
            )
        return self


def _point(state: ReducedState):
    """(q, lam) = (z, (p_z, mu)) of a reduced state."""
    return state.z, np.concatenate([state.p_z, state.mu])


def reduced_partials(problem: ReducedProblem, z, p_z, mu, u) -> HamiltonianPartials:
    """The partials of h at q = z, lam = (p_z, mu): dH_dx is dh/dz, dH_dp (base, fiber) = (dh/dp_z, dh/dmu), exact."""
    state = ReducedState(z, p_z, mu, u).conform(problem)
    return _partials(problem.view, *_point(state), state.u)


def eliminate_controls_reduced(
    problem: ReducedProblem, z, p_z, mu, u_guess, config: PmpSolverConfig = PmpSolverConfig()
) -> np.ndarray:
    """Newton solve of dh/du = 0 from ``u_guess`` (reduced optimal feedback)."""
    state = ReducedState(z, p_z, mu, u_guess).conform(problem)
    return _newton(problem.view, *_point(state), state.u, config)[0]


class ReducedRhs(NamedTuple):
    z_dot: np.ndarray
    pz_dot: np.ndarray
    mu_dot: np.ndarray
    xi: np.ndarray


def reduced_pmp_rhs(
    problem: ReducedProblem, state: ReducedState, config: PmpSolverConfig = PmpSolverConfig()
) -> ReducedRhs:
    """The reduced equations of motion at a state whose control is already eliminated.

    Covariant derivatives are returned as coordinate derivatives in the
    trivialization the problem data is expressed in.  With a zero-dimensional
    base this degenerates to the Lie-Poisson system mu_dot = ad*_xi(mu).
    ``config`` is accepted for call compatibility and not read.
    """
    state.conform(problem)
    ham = problem.view
    q, lam = _point(state)
    grad = _gradient(ham, q, lam, state.u)
    z_dot, lam_dot = _hamilton_field(ham, q, lam, grad)
    s = problem.base_dim
    xi = _split(grad, s, problem.control_dim)[2][s:]
    return ReducedRhs(z_dot=z_dot, pz_dot=lam_dot[:s], mu_dot=lam_dot[s:], xi=xi)


def integrate_reduced(
    problem: ReducedProblem,
    state0: Union[ReducedState, Sequence[ReducedState]],
    duration: float,
    config: PmpSolverConfig = PmpSolverConfig(),
) -> Union[Trajectory, List[Trajectory]]:
    """RK4 on (z, p_z, mu) with per-stage control elimination.

    Channels: "h" (reduced Hamiltonian), the solver channels "newton_iters"
    and "stationarity", plus every registered Casimir, evaluated on the
    stored mu rows after the sweep (once per row, or once in all for a
    ``stacked`` Casimir).
    Columns: z1.., pz1.., mu1.., u1.. .

    ``state0`` is one ReducedState, which gives its Trajectory, or a
    sequence of them, integrated in one batch into one Trajectory per
    member, each bit for bit the one that member gives alone.
    """
    states = [state0] if isinstance(state0, ReducedState) else list(state0)
    s, dim, r = problem.base_dim, problem.algebra.dim, problem.control_dim
    for state in states:
        state.conform(problem)

    blocks = (("z", s), ("pz", s), ("mu", dim))
    y0 = np.array([np.concatenate([st.z, st.p_z, st.mu]) for st in states]).reshape(len(states), 2 * s + dim)
    u0 = np.array([st.u for st in states]).reshape(len(states), r)
    trajectories = _rk4_dae(problem.view, blocks, y0, u0, duration, config, "h")
    trajectories = _with_channels(trajectories, lambda states: {
        name: _per_member(fun, f"Casimir {name}", ())(states[..., 2 * s : 2 * s + dim])
        for name, fun in problem.casimirs.items()
    })
    return trajectories[0] if isinstance(state0, ReducedState) else trajectories


def project_full_to_reduced(problem: ControlProblem, point: PontryaginPoint) -> ReducedState:
    """Project a full bundle point to the reduced bundle (state space = group case).

    The coalgebra part is the body momentum: the costate left-translated to
    the identity, computed against the left-invariant frame supplied by the
    symmetry handle.  The base is zero-dimensional in this case.
    """
    point.conform(problem)
    sym = problem.symmetry
    if sym is None or sym.body_frame is None:
        raise ReductionUnsupportedError(
            "projection needs a symmetry handle with a left-invariant body frame "
            "(only the state-space-equals-group case is supported)"
        )
    return ReducedState(z=np.zeros(0), p_z=np.zeros(0), mu=_body_momentum(problem, point.x, point.p), u=point.u)


def _body_momentum(problem: ControlProblem, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The body momenta L(x)^T p (..., dim) of stacks x, p (..., n), L the handle's body frame (..., n, dim)."""
    sym = problem.symmetry
    frame = np.asarray(sym.body_frame(x), dtype=float)
    if frame.shape != x.shape + (sym.algebra.dim,):
        raise DimensionMismatchError(f"body frame has shape {frame.shape}")
    return (np.swapaxes(frame, -1, -2) @ p[..., None])[..., 0]


def reduced_dirac_residuals(problem: ReducedProblem, trajectory: Trajectory) -> np.ndarray:
    """Per-row normalized membership residual against the reduced Dirac fiber: ``pmp._scan_rows`` of the reduced form.

    With a zero-dimensional base a row tests ((xi, mu_dot, 0), (0, dh/dmu, dh/du)), xi = dh/dmu and
    mu_dot = ad*_xi(mu) at the stored (mu, u): the Lie-Poisson equations and dh/du = 0.
    """
    s = problem.base_dim
    z, p_z, mu, u = trajectory.blocks(z=s, pz=s, mu=problem.algebra.dim, u=problem.control_dim)
    return _scan_rows(problem.view, z, np.hstack([p_z, mu]), u)
