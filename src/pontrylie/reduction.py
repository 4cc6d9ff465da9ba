"""Symmetry-reduced maximum-principle dynamics.

A reduced problem lives on (base point z, base costate p_z, coalgebra point
mu, control u) with reduced Hamiltonian

    h(z, p_z, mu, u) = <p_z, base_dynamics(z, u)> + <mu, fiber_dynamics(z, u)> - l(z, u)

and evolves by

    z_dot   = dh/dp_z
    pz_dot  = -dh/dz - curvature coupling (coordinate form, zero by default)
    mu_dot  = ad*_xi(mu),   xi = dh/dmu
    dh/du   = 0              (controls eliminated by Newton)

With the package's ad* convention this reproduces the closed-form Heisenberg
flow; data written for the opposite convention is the same flow on the
opposite algebra (negated structure constants).  When the base is
zero-dimensional (state space = symmetry group) this is the pure Lie-Poisson
system on the coalgebra.  Covariant derivatives are represented as plain coordinate
derivatives in the caller's trivialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from . import dirac
from .errors import DimensionMismatchError, ReductionUnsupportedError, TrajectoryFormatError
from .lie import LieAlgebraSpec, coadjoint
from .ocp import ControlledHamiltonian, ControlProblem, HamiltonianPartials, PontryaginPoint, ProblemJacobians
from .ocp import _hamiltonian_value, _newton, _partials
from .pmp import PmpSolverConfig, Trajectory, _rk4_dae


@dataclass(frozen=True)
class ReducedJacobians:
    """Optional analytic derivatives of the reduced data (same spirit as ocp)."""

    dl_dz: Optional[Callable] = None
    dl_du: Optional[Callable] = None
    dbase_dz: Optional[Callable] = None
    dbase_du: Optional[Callable] = None
    dfiber_dz: Optional[Callable] = None
    dfiber_du: Optional[Callable] = None
    d2l_du2: Optional[Callable] = None
    d2base_du2: Optional[Callable] = None
    d2fiber_du2: Optional[Callable] = None


@dataclass(frozen=True)
class ReducedProblem:
    """Reduced dynamics data on base (+) coalgebra (+) controls.

    ``base_dynamics(z, u)`` returns the base velocity (length base_dim) and
    ``fiber_dynamics(z, u)`` the algebra coefficients of the vertical part.
    ``curvature(z, mu, v, w)``, when given, is the scalar curvature coupling
    evaluated on two base vectors (antisymmetric in v, w); it enters the p_z
    equation as the covector -curvature(z, mu, z_dot, e_i).  Casimirs are
    monitored, never discovered: a dict of name -> function of mu.
    """

    base_dim: int
    algebra: LieAlgebraSpec
    control_dim: int
    lagrangian: Callable
    base_dynamics: Callable
    fiber_dynamics: Callable
    curvature: Optional[Callable] = None
    jacobians: Optional[ReducedJacobians] = None
    casimirs: Dict[str, Callable] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.base_dim < 0 or self.control_dim < 0:
            raise DimensionMismatchError("base_dim and control_dim must be nonnegative")


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


def _reduced_view(problem: ReducedProblem) -> ControlledHamiltonian:
    """h as the controlled Hamiltonian with q = z, lam = (p_z, mu) and F = (base, fiber).

    Built once per solve.  A derivative block is analytic only when both its
    base and its fiber half are given; a zero-dimensional base contributes
    no half at all.
    """
    s, jac = problem.base_dim, problem.jacobians or ReducedJacobians()

    def velocity(z, u):
        base = np.atleast_1d(np.asarray(problem.base_dynamics(z, u), dtype=float))
        fiber = np.atleast_1d(np.asarray(problem.fiber_dynamics(z, u), dtype=float))
        if base.shape != (s,) or fiber.shape != (problem.algebra.dim,):
            raise DimensionMismatchError(f"base/fiber dynamics returned shapes {base.shape}/{fiber.shape}")
        return np.concatenate([base, fiber])

    def stacked(base, fiber):
        if not s:
            return fiber
        if base is None or fiber is None:
            return None
        return lambda z, u: np.concatenate([np.asarray(f(z, u), dtype=float) for f in (base, fiber)])

    return ControlledHamiltonian(
        F=velocity,
        L=lambda z, u: float(problem.lagrangian(z, u)),
        jac=ProblemJacobians(
            df_dx=stacked(jac.dbase_dz, jac.dfiber_dz),
            df_du=stacked(jac.dbase_du, jac.dfiber_du),
            dL_dx=jac.dl_dz,
            dL_du=jac.dl_du,
            d2f_du2=stacked(jac.d2base_du2, jac.d2fiber_du2),
            d2L_du2=jac.d2l_du2,
        ),
    )


def _point(z, p_z, mu):
    """(q, lam) = (z, (p_z, mu)) as float arrays."""
    z, p_z, mu = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (z, p_z, mu))
    return z, np.concatenate([p_z, mu])


def reduced_hamiltonian(problem: ReducedProblem, state: ReducedState) -> float:
    """h = <p_z, base> + <mu, fiber> - l."""
    state.conform(problem)
    return _hamiltonian_value(_reduced_view(problem), *_point(state.z, state.p_z, state.mu), state.u)


class ReducedPartials(NamedTuple):
    dh_dz: np.ndarray
    dh_dpz: np.ndarray
    dh_dmu: np.ndarray
    dh_du: np.ndarray
    d2h_du2: np.ndarray


def reduced_partials(problem: ReducedProblem, z, p_z, mu, u) -> ReducedPartials:
    """Partials of the reduced Hamiltonian; dh/dp_z and dh/dmu are always exact."""
    q, lam = _point(z, p_z, mu)
    parts = _partials(_reduced_view(problem), q, lam, np.atleast_1d(np.asarray(u, dtype=float)))
    s = problem.base_dim
    return ReducedPartials(parts.dH_dx, parts.dH_dp[:s], parts.dH_dp[s:], parts.dH_du, parts.d2H_du2)


def eliminate_controls_reduced(
    problem: ReducedProblem, z, p_z, mu, u_guess, config: PmpSolverConfig = PmpSolverConfig()
) -> np.ndarray:
    """Newton solve of dh/du = 0 from ``u_guess`` (reduced optimal feedback)."""
    ham = _reduced_view(problem)
    q, lam = _point(z, p_z, mu)
    return _newton(lambda u: _partials(ham, q, lam, u), u_guess, config)[0]


class ReducedRhs(NamedTuple):
    z_dot: np.ndarray
    pz_dot: np.ndarray
    mu_dot: np.ndarray
    xi: np.ndarray


def _rhs_from_parts(problem: ReducedProblem, z: np.ndarray, mu: np.ndarray, parts: HamiltonianPartials) -> ReducedRhs:
    s = problem.base_dim
    z_dot, xi, pz_dot = parts.dH_dp[:s], parts.dH_dp[s:], -parts.dH_dx
    if problem.curvature is not None and s:
        coupling = np.array([float(problem.curvature(z, mu, z_dot, e)) for e in np.eye(s)])
        pz_dot = pz_dot - coupling
    mu_dot = coadjoint(problem.algebra, xi, mu).coeffs
    return ReducedRhs(z_dot=z_dot, pz_dot=pz_dot, mu_dot=mu_dot, xi=xi)


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
    parts = _partials(_reduced_view(problem), *_point(state.z, state.p_z, state.mu), state.u)
    return _rhs_from_parts(problem, state.z, state.mu, parts)


def integrate_reduced(
    problem: ReducedProblem,
    state0: ReducedState,
    duration: float,
    config: PmpSolverConfig = PmpSolverConfig(),
) -> Trajectory:
    """RK4 on (z, p_z, mu) with per-stage control elimination.

    Channels: "h" (reduced Hamiltonian) plus every registered Casimir.
    Columns: z1.., pz1.., mu1.., u1.. .
    """
    state0.conform(problem)
    s = problem.base_dim

    def vector_field(y, parts):
        out = _rhs_from_parts(problem, y[:s], y[2 * s :], parts)
        return np.concatenate([out.z_dot, out.pz_dot, out.mu_dot])

    def casimirs(y):
        return {name: float(fun(y[2 * s :])) for name, fun in problem.casimirs.items()}

    blocks = (("z", s), ("pz", s), ("mu", problem.algebra.dim))
    y0 = np.concatenate([state0.z, state0.p_z, state0.mu])
    return _rk4_dae(_reduced_view(problem), blocks, y0, state0.u, duration, config, vector_field, "h", casimirs)


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
    frame = np.asarray(sym.body_frame(point.x), dtype=float)
    if frame.shape != (problem.n, sym.algebra.dim):
        raise DimensionMismatchError(f"body frame has shape {frame.shape}")
    mu = frame.T @ point.p
    return ReducedState(z=np.zeros(0), p_z=np.zeros(0), mu=mu, u=point.u)


def _reduced_membership_residual(alg: LieAlgebraSpec, mu, mu_dot, xi, dh_dmu, dh_du) -> float:
    """Normalized residual of ((xi, mu_dot, 0), (0, dh_dmu, dh_du)) against the reduced Dirac fiber at mu."""
    dh_du = np.asarray(dh_du, dtype=float)
    velocity = np.concatenate([np.asarray(xi, dtype=float), np.asarray(mu_dot, dtype=float), np.zeros(dh_du.size)])
    covector = np.concatenate([np.zeros(alg.dim), np.asarray(dh_dmu, dtype=float), dh_du])
    return dirac.membership_residual(dirac.reduced_dirac_fiber(alg, mu, dh_du.size), velocity, covector)


def membership_check_reduced(alg: LieAlgebraSpec, mu, mu_dot, xi, dh_dmu, tol: float = 1e-6) -> bool:
    """Whether ((xi, mu_dot), (0, dh_dmu)) lies in the reduced Dirac fiber at mu (no control block)."""
    return _reduced_membership_residual(alg, mu, mu_dot, xi, dh_dmu, ()) <= tol


def reduced_dirac_residuals(problem: ReducedProblem, trajectory: Trajectory) -> np.ndarray:
    """Per-row normalized membership residual against the reduced Dirac fiber on g (+) g* (+) U.

    Only the zero-dimensional-base (pure Lie-Poisson) case carries the fiber
    structure; the velocity is the reduced right-hand side at the stored row,
    and the control block tests dh/du = 0 there.
    """
    if problem.base_dim != 0:
        raise ReductionUnsupportedError("reduced Dirac fibers are defined for a zero-dimensional base")
    mu_rows = trajectory.block("mu")
    u_rows = trajectory.block("u")
    if mu_rows.shape[1] != problem.algebra.dim or u_rows.shape[1] != problem.control_dim:
        raise TrajectoryFormatError("trajectory does not carry (mu, u) blocks of the problem's shape")
    ham = _reduced_view(problem)
    residuals = np.empty(len(trajectory))
    empty = np.zeros(0)
    for k in range(len(trajectory)):
        parts = _partials(ham, empty, mu_rows[k], u_rows[k])
        out = _rhs_from_parts(problem, empty, mu_rows[k], parts)
        residuals[k] = _reduced_membership_residual(problem.algebra, mu_rows[k], out.mu_dot, out.xi, out.xi, parts.dH_du)
    return residuals
