"""Control problems, Pontryagin Hamiltonian and partials, invariance checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import so3_algebra
from pontrylie.errors import DimensionMismatchError, EvaluationError, InvalidAlgebraError, NonNilpotentError
from pontrylie.errors import PontrylieError
from pontrylie.heisenberg import heisenberg_algebra
from pontrylie.lie import GroupElement, LieAlgebraSpec, exp_nilpotent, log_nilpotent
from pontrylie.ocp import (
    ControlProblem,
    PontryaginPoint,
    ProblemJacobians,
    SymmetryHandle,
    check_invariance,
    hamiltonian_partials,
    invariance_deviation,
    left_translations,
    pontryagin_hamiltonian,
    validate_jacobians,
)
from pontrylie.pmp import momentum_map
from test_lie import UT4


# Hand-written Heisenberg group formulas in the chart (x, y, z) = exponential coordinates.
def heisenberg_body_frame(q):
    """Columns are the left-invariant basis fields at q."""
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.5 * q[1], 0.5 * q[0], 1.0]])


def heisenberg_generators(xi, q):
    """The generator of left multiplication by exp(t xi): the right-invariant field of xi at q."""
    return np.array([xi[0], xi[1], xi[2] + 0.5 * (xi[0] * q[1] - xi[1] * q[0])])


def heisenberg_chart_product(q1, q2):
    """The group law in the chart."""
    x1, y1, z1 = q1
    x2, y2, z2 = q2
    return np.array([x1 + x2, y1 + y2, z1 + z2 + 0.5 * (x1 * y2 - y1 * x2)])


def heisenberg_state_jacobian(g_chart):
    """Jacobian in q of q -> g_chart * q."""
    gx, gy, _ = g_chart
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.5 * gy, 0.5 * gx, 1.0]])


def heisenberg_cotangent_lift(g_chart, p):
    """The costate carried along by q -> g_chart * q (the inverse transpose of the Jacobian)."""
    gx, gy, _ = g_chart
    return np.array([p[0] + 0.5 * gy * p[2], p[1] - 0.5 * gx * p[2], p[2]])


def _scaled_points(rng, count):
    """Random chart points with entries spread over scales 1e-8 .. 1e5."""
    return rng.normal(size=(count, 3)) * 10.0 ** rng.integers(-8, 6, size=(count, 3))


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


def test_left_translations_reproduce_the_hand_written_heisenberg_frames(heis_problem):
    sym = heis_problem.symmetry
    rng = np.random.default_rng(11)
    points, costates = _scaled_points(rng, 2000), _scaled_points(rng, 2000)
    for q, p in zip(points, costates):
        assert np.array_equal(sym.body_frame(q), heisenberg_body_frame(q))
        expected = [p @ heisenberg_generators(e, q) for e in np.eye(3)]
        assert np.array_equal(momentum_map(heis_problem, q, p).coeffs, expected)
    assert np.array_equal(sym.body_frame(points), [heisenberg_body_frame(q) for q in points])


def test_left_translations_reproduce_the_heisenberg_chart_product(heis_problem):
    sym = heis_problem.symmetry
    rng = np.random.default_rng(12)
    algebra = heisenberg_algebra()

    def rel(a, b):
        return np.max(np.abs(a - b) / (1.0 + np.abs(b)))

    for g_chart, q in rng.normal(scale=2.0, size=(500, 2, 3)):
        g = exp_nilpotent(algebra, g_chart)
        assert rel(sym.act_on_state(g, q), heisenberg_chart_product(g_chart, q)) <= 1e-12
        assert rel(sym.state_jacobian(g, q), heisenberg_state_jacobian(g_chart)) <= 1e-12


def test_infinitesimal_action_takes_a_stack_of_algebra_elements(heis_problem):
    q = np.array([0.7, -1.3, 0.4])
    xi = np.random.default_rng(13).normal(size=(5, 2, 3))
    stacked = heis_problem.symmetry.infinitesimal_action(xi, q)
    assert stacked.shape == (5, 2, 3)
    expected = [[heisenberg_generators(row, q) for row in block] for block in xi]
    assert np.allclose(stacked, expected, rtol=0, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_left_invariant_problem_on_upper_triangular_4x4_is_invariant(seed):
    """x_dot = L(x) B u is invariant under left translation; the right-invariant x_dot = L(-x) B u is not."""
    sym, b = left_translations(UT4), np.random.default_rng(seed).normal(size=(6, 2))
    problem = ControlProblem(n=6, r=2, dynamics=lambda x, u: sym.body_frame(x) @ (b @ u),
                             lagrangian=lambda x, u: 0.5 * float(u @ u), symmetry=sym)
    assert check_invariance(problem, samples=5, seed=seed).invariant
    right = ControlProblem(n=6, r=2, dynamics=lambda x, u: sym.body_frame(-x) @ (b @ u),
                           lagrangian=problem.lagrangian, symmetry=sym)
    assert not check_invariance(right, samples=5, seed=seed).invariant


def test_left_translations_compose_on_upper_triangular_4x4():
    sym = left_translations(UT4)
    rng = np.random.default_rng(14)
    x = rng.normal(size=6)
    g, h = (exp_nilpotent(UT4, v) for v in rng.normal(size=(2, 6)))
    gh = GroupElement(g.matrix @ h.matrix)
    assert np.allclose(sym.act_on_state(gh, x), sym.act_on_state(g, sym.act_on_state(h, x)), atol=1e-12)
    assert np.allclose(sym.act_on_state(g, x), log_nilpotent(UT4, g.matrix @ exp_nilpotent(UT4, x).matrix))


def test_left_translations_need_a_nilpotent_matrix_algebra():
    with pytest.raises(NonNilpotentError):
        left_translations(so3_algebra())
    # solvable but not nilpotent: [e1, e2] = e2 with the matrices diag(1, 0) and E12
    c = np.zeros((2, 2, 2))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    e1, e2 = np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonNilpotentError):
        left_translations(LieAlgebraSpec(dim=2, structure_constants=c, matrix_basis=(e1, e2)))
    with pytest.raises(InvalidAlgebraError):
        left_translations(LieAlgebraSpec(dim=3, structure_constants=heisenberg_algebra().structure_constants))
    line = left_translations(LieAlgebraSpec(dim=1, structure_constants=np.zeros((1, 1, 1)), matrix_basis=(e2,)))
    assert np.array_equal(line.body_frame(np.ones((4, 1))), np.ones((4, 1, 1)))
