"""Control problems, Pontryagin Hamiltonian and partials, invariance checks."""

import numpy as np
import pytest

from pontrylie.errors import DimensionMismatchError, EvaluationError, PontrylieError
from pontrylie.heisenberg import heisenberg_algebra
from pontrylie.lie import GroupElement, exp_nilpotent
from pontrylie.ocp import (
    ControlProblem,
    PontryaginPoint,
    ProblemJacobians,
    SymmetryHandle,
    check_invariance,
    hamiltonian_partials,
    invariance_deviation,
    pontryagin_hamiltonian,
    validate_jacobians,
)


def test_hamiltonian_at_origin(heis_problem):
    # <p, f> - L = 1*1 - 0.5*(1+0) = 0.5
    pt = PontryaginPoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0])
    assert pontryagin_hamiltonian(heis_problem, pt) == 0.5


def test_hamiltonian_without_cost_is_pairing():
    problem = ControlProblem(
        n=2, r=1, dynamics=lambda x, u: np.array([x[1] * u[0], -x[0]]), lagrangian=lambda x, u: 0.0
    )
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, p = rng.normal(size=(2, 2))
        u = rng.normal(size=1)
        f = problem.dynamics(x, u)
        assert pontryagin_hamiltonian(problem, PontryaginPoint(x, p, u)) == float(p @ f)


def test_hamiltonian_zero_costate(heis_problem):
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = rng.normal(size=2)
        pt = PontryaginPoint(rng.normal(size=3), np.zeros(3), u)
        assert pontryagin_hamiltonian(heis_problem, pt) == -0.5 * (u[0] ** 2 + u[1] ** 2)


def test_hamiltonian_dimension_mismatch(heis_problem):
    with pytest.raises(DimensionMismatchError):
        pontryagin_hamiltonian(heis_problem, PontryaginPoint([0.0], [1.0], [0.0, 0.0]))


def test_hamiltonian_nonfinite_carries_point():
    problem = ControlProblem(
        n=1, r=1, dynamics=lambda x, u: np.array([np.inf * u[0]]), lagrangian=lambda x, u: 0.0
    )
    with pytest.raises(EvaluationError) as err:
        pontryagin_hamiltonian(problem, PontryaginPoint([0.0], [1.0], [1.0]))
    assert err.value.point is not None


def test_control_gradient_is_body_momentum_minus_control(heis_problem):
    rng = np.random.default_rng(6)
    for _ in range(10):
        x, p = rng.normal(size=(2, 3))
        u = rng.normal(size=2)
        parts = hamiltonian_partials(heis_problem, PontryaginPoint(x, p, u))
        lam = np.asarray(heis_problem.symmetry.body_frame(x)).T @ p
        assert np.allclose(parts.dH_du, lam[:2] - u, atol=1e-13)


def test_control_hessian_is_minus_identity(heis_problem):
    pt = PontryaginPoint([0.2, -1.0, 3.0], [0.5, 0.1, -2.0], [0.7, 0.9])
    parts = hamiltonian_partials(heis_problem, pt)
    assert np.array_equal(parts.d2H_du2, -np.eye(2))


def test_state_gradient_vanishes_without_x_dependence():
    problem = ControlProblem(
        n=2, r=1, dynamics=lambda x, u: np.array([u[0], 1.0]), lagrangian=lambda x, u: u[0] ** 2
    )
    parts = hamiltonian_partials(problem, PontryaginPoint([0.3, 0.4], [1.0, 2.0], [0.5]))
    assert np.allclose(parts.dH_dx, 0.0, atol=1e-10)


def test_momentum_slot_returns_dynamics_bitwise(heis_problem):
    pt = PontryaginPoint([0.1, 0.2, 0.3], [1.0, -1.0, 2.0], [0.4, 0.5])
    parts = hamiltonian_partials(heis_problem, pt)
    assert np.array_equal(parts.dH_dp, heis_problem.dynamics(pt.x, pt.u))


def test_hamiltonian_linear_in_costate(heis_problem):
    """H(x, p, u) + L(x, u) is linear in p, exactly."""
    rng = np.random.default_rng(8)
    x = rng.normal(size=3)
    u = rng.normal(size=2)
    p1, p2 = rng.normal(size=(2, 3))
    a, b = 0.7, -2.3
    lag = heis_problem.lagrangian(x, u)

    def hl(p):
        return pontryagin_hamiltonian(heis_problem, PontryaginPoint(x, p, u)) + lag

    assert abs(hl(a * p1 + b * p2) - (a * hl(p1) + b * hl(p2))) <= 1e-12


def test_fd_and_analytic_partials_agree(heis_problem):
    assert validate_jacobians(heis_problem, probes=20, seed=0) <= 1e-5
    stripped = ControlProblem(
        n=3, r=2, dynamics=heis_problem.dynamics, lagrangian=heis_problem.lagrangian
    )
    rng = np.random.default_rng(9)
    for _ in range(10):
        pt = PontryaginPoint(rng.normal(size=3), rng.normal(size=3), rng.normal(size=2))
        exact = hamiltonian_partials(heis_problem, pt)
        approx = hamiltonian_partials(stripped, pt)
        for a, b in zip(exact[:3], approx[:3]):
            assert np.max(np.abs(a - b) / (1.0 + np.abs(a))) <= 1e-5
        assert np.max(np.abs(exact.d2H_du2 - approx.d2H_du2)) <= 1e-5


def test_validate_jacobians_flags_wrong_derivative(heis_problem):
    wrong = ControlProblem(
        n=3,
        r=2,
        dynamics=heis_problem.dynamics,
        lagrangian=heis_problem.lagrangian,
        jacobians=ProblemJacobians(
            df_dx=lambda x, u: np.zeros((3, 3)),  # wrong: drops the u-coupling rows
            dL_dx=lambda x, u: np.zeros(3),
        ),
    )
    with pytest.raises(EvaluationError):
        validate_jacobians(wrong, probes=10, seed=1)


def test_heisenberg_is_invariant(heis_problem):
    report = check_invariance(heis_problem, samples=25, seed=0)
    assert report.invariant
    assert report.max_lagrangian_deviation <= 1e-10
    assert report.max_dynamics_deviation <= 1e-10


def test_broken_symmetry_detected(heis_problem):
    broken = ControlProblem(
        n=3,
        r=2,
        dynamics=heis_problem.dynamics,
        lagrangian=lambda x, u: x[0],  # translation in x1 shifts the cost
        symmetry=heis_problem.symmetry,
    )
    g = exp_nilpotent(heisenberg_algebra(), [0.5, 0.0, 0.0])
    l_dev, _ = invariance_deviation(broken, g, np.zeros(3), np.zeros(2))
    assert abs(l_dev - 0.5) <= 1e-12  # deviation equals the group displacement
    report = check_invariance(broken, samples=10, seed=3)
    assert not report.invariant


def test_identity_element_gives_zero_deviation(heis_problem):
    g = GroupElement(np.eye(3))
    l_dev, dyn_dev = invariance_deviation(
        heis_problem, g, np.array([0.3, -0.2, 1.0]), np.array([0.5, -1.5])
    )
    assert l_dev == 0.0
    assert dyn_dev == 0.0


def test_check_invariance_requires_symmetry():
    problem = ControlProblem(n=1, r=1, dynamics=lambda x, u: u, lagrangian=lambda x, u: 0.0)
    with pytest.raises(PontrylieError):
        check_invariance(problem)


def test_fd_jacobian_fallback_for_state_action(heis_problem):
    """check_invariance still works when the handle has no analytic Jacobian."""
    sym = heis_problem.symmetry
    reduced_handle = SymmetryHandle(
        algebra=sym.algebra,
        infinitesimal_action=sym.infinitesimal_action,
        act_on_state=sym.act_on_state,
        act_on_control=sym.act_on_control,
    )
    problem = ControlProblem(
        n=3,
        r=2,
        dynamics=heis_problem.dynamics,
        lagrangian=heis_problem.lagrangian,
        symmetry=reduced_handle,
    )
    report = check_invariance(problem, samples=10, seed=1)
    assert report.invariant  # the action is affine in x, so FD is exact to roundoff
