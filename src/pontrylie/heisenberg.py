"""Builtin problem: subriemannian geodesics on the 3-dimensional Heisenberg group.

The group is realized as 3x3 upper unitriangular matrices; its algebra basis
(gamma1, gamma2, gamma3) consists of the elementary matrices E12, E23, E13
with the single nontrivial bracket [gamma1, gamma2] = gamma3.  Chart
coordinates on the group are its exponential coordinates of the first kind
(``lie.log_nilpotent``, inverse of ``lie.exp_nilpotent``):

    x = m[0,1],  y = m[1,2],  z = m[0,2] - x*y/2,

in which the group law reads

    (x1,y1,z1) * (x2,y2,z2) = (x1+x2, y1+y2, z1+z2 + (x1*y2 - y1*x2)/2).

Steering along the left-invariant horizontal frame with controls (u1, u2)
gives the control system

    x_dot = u1,  y_dot = u2,  z_dot = (x*u2 - y*u1)/2,

and the geodesic problem minimizes the energy integral of (u1^2 + u2^2)/2.
The left-invariant frame has columns (1, 0, -y/2), (0, 1, x/2), (0, 0, 1);
the right-invariant one, which generates left multiplication, flips the signs
of -y/2 and x/2.  These formulas are documentation: ``ocp.left_translations``
derives the problem's symmetry handle from the exponential map.

Left multiplication is a symmetry; the body momentum (costate pulled back to
the identity by left translation) obeys the closed-form flow

    mu1(t) = cos(theta + k t),  mu2(t) = sin(theta + k t),  mu3(t) = k

for mu(0) = (cos theta, sin theta, k), which this module exposes together
with the resulting chart geodesics (circles of radius 1/k in the plane, with
a vertical drift; straight lines for k = 0).
"""

from __future__ import annotations

import numpy as np

from .lie import LieAlgebraSpec
from .ocp import ControlProblem, ProblemJacobians, constant, left_translations, stacked
from .reduction import ReducedJacobians, ReducedProblem


def heisenberg_algebra() -> LieAlgebraSpec:
    """The nilpotent algebra with [gamma1, gamma2] = gamma3 and its matrix basis."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    e23 = np.zeros((3, 3))
    e23[1, 2] = 1.0
    e13 = np.zeros((3, 3))
    e13[0, 2] = 1.0
    return LieAlgebraSpec(
        dim=3,
        structure_constants=c,
        matrix_basis=(e12, e23, e13),
        labels=("gamma1", "gamma2", "gamma3"),
    )


# The problem callables are stacked (``ocp.stacked``): they index x[..., i], so one call serves a batch;
# constant blocks are ``ocp.constant`` values, which the solvers read instead of calling.


def _columns(*columns) -> np.ndarray:
    """The stack whose last axis holds the given per-member columns."""
    out = np.empty(columns[0].shape + (len(columns),))
    for i, column in enumerate(columns):
        out[..., i] = column
    return out


@stacked
def _dynamics(x, u):
    return _columns(u[..., 0], u[..., 1], 0.5 * (x[..., 0] * u[..., 1] - x[..., 1] * u[..., 0]))


@stacked
def _lagrangian(x, u):
    return 0.5 * (u[..., 0] ** 2 + u[..., 1] ** 2)


@stacked
def _df_dx(x, u):
    out = np.zeros(u.shape[:-1] + (3, 3))
    out[..., 2, 0] = 0.5 * u[..., 1]
    out[..., 2, 1] = -0.5 * u[..., 0]
    return out


@stacked
def _df_du(x, u):
    out = np.zeros(x.shape[:-1] + (3, 2))
    out[..., 0, 0] = out[..., 1, 1] = 1.0
    out[..., 2, 0] = -0.5 * x[..., 1]
    out[..., 2, 1] = 0.5 * x[..., 0]
    return out


@stacked
def _control(x, u):
    return np.asarray(u, dtype=float)


def heisenberg_problem() -> ControlProblem:
    """The geodesic problem as a control problem with full analytic derivatives."""
    jac = ProblemJacobians(
        df_dx=_df_dx,
        df_du=_df_du,
        dL_dx=constant(np.zeros(3)),
        dL_du=_control,
        d2f_du2=constant(np.zeros((3, 2, 2))),
        d2L_du2=constant(np.eye(2)),
    )
    return ControlProblem(
        n=3,
        r=2,
        dynamics=_dynamics,
        lagrangian=_lagrangian,
        jacobians=jac,
        symmetry=left_translations(heisenberg_algebra()),
        name="heisenberg",
    )


@stacked
def _fiber_dynamics(z, u):
    return _columns(u[..., 0], u[..., 1], np.zeros(u.shape[:-1]))


def heisenberg_reduced_problem() -> ReducedProblem:
    """The fully reduced (zero-dimensional base) Lie-Poisson form of the problem."""
    jac = ReducedJacobians(
        dl_du=_control,
        dfiber_du=constant([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        d2l_du2=constant(np.eye(2)),
        d2fiber_du2=constant(np.zeros((3, 2, 2))),
    )
    return ReducedProblem(
        base_dim=0,
        algebra=heisenberg_algebra(),
        control_dim=2,
        lagrangian=_lagrangian,
        base_dynamics=constant(np.zeros(0)),
        fiber_dynamics=_fiber_dynamics,
        jacobians=jac,
        casimirs={"casimir_mu3": lambda mu: float(mu[2])},
        name="heisenberg",
    )


def unit_cylinder_costate(theta: float, k: float) -> np.ndarray:
    """The momentum (cos theta, sin theta, k); unit horizontal speed, energy 1/2."""
    return np.array([np.cos(theta), np.sin(theta), k])


def lambda_closed_form(theta: float, k: float, t) -> np.ndarray:
    """Body momentum (cos(theta + k t), sin(theta + k t), k); rows index time for array t."""
    t_in = np.asarray(t, dtype=float)
    phase = theta + k * np.atleast_1d(t_in)
    out = np.stack([np.cos(phase), np.sin(phase), np.full_like(phase, float(k))], axis=-1)
    return out[0] if t_in.ndim == 0 else out


def lambda_rotation_closed_form(mu0, t) -> np.ndarray:
    """Closed-form body momentum for an arbitrary initial value.

    The flow rotates the (mu1, mu2) pair by angle k*t with k = mu3(0), which
    stays constant (it is a Casimir).
    """
    mu0 = np.asarray(mu0, dtype=float)
    t_in = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_in)
    k = float(mu0[2])
    c, s = np.cos(k * t), np.sin(k * t)
    out = np.stack([mu0[0] * c - mu0[1] * s, mu0[0] * s + mu0[1] * c, np.full_like(t, k)], axis=-1)
    return out[0] if t_in.ndim == 0 else out


def geodesic_chart_closed_form(theta: float, k: float, t) -> np.ndarray:
    """Chart coordinates of the geodesic from the origin with momentum angle theta.

    For k = 0 this is the straight line t*(cos theta, sin theta, 0); otherwise
    the planar projection is the circle of radius 1/k centered at
    (-sin(theta)/k, cos(theta)/k), with vertical coordinate
    z(t) = t/(2k) - sin(k t)/(2 k^2).
    """
    t_in = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_in)
    if k == 0.0:
        x = t * np.cos(theta)
        y = t * np.sin(theta)
        z = np.zeros_like(t)
    else:
        x = (np.sin(theta + k * t) - np.sin(theta)) / k
        y = (np.cos(theta) - np.cos(theta + k * t)) / k
        z = t / (2.0 * k) - np.sin(k * t) / (2.0 * k**2)
    out = np.stack([x, y, z], axis=-1)
    return out[0] if t_in.ndim == 0 else out


def full_state_closed_form(theta: float, k: float, t) -> np.ndarray:
    """(x, p) rows of the geodesic flow from the origin with p(0) on the unit cylinder."""
    t_in = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_in)
    chart = geodesic_chart_closed_form(theta, k, t)
    lam = lambda_closed_form(theta, k, t)
    p1 = lam[..., 0] + 0.5 * chart[..., 1] * k
    p2 = lam[..., 1] - 0.5 * chart[..., 0] * k
    p3 = np.full_like(p1, float(k))
    out = np.concatenate([chart, np.stack([p1, p2, p3], axis=-1)], axis=-1)
    return out[0] if t_in.ndim == 0 else out
