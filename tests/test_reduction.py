"""Reduced dynamics, control elimination, projection, and Dirac membership."""

import dataclasses

import numpy as np
import pytest

from test_ocp import heisenberg_cotangent_lift
from pontrylie import pmp
from pontrylie.errors import DimensionMismatchError, RegularityError, ReductionUnsupportedError
from pontrylie.heisenberg import (
    heisenberg_algebra,
    lambda_closed_form,
    unit_cylinder_costate,
)
from pontrylie.lie import LieAlgebraSpec, coadjoint, exp_nilpotent, log_nilpotent
from pontrylie.ocp import PontryaginPoint, _newton, _partials
from pontrylie.pmp import PmpSolverConfig, Trajectory, dirac_membership_residuals, integrate_pmp, time_grid
from pontrylie.reduction import (
    ReducedJacobians,
    ReducedProblem,
    ReducedState,
    _reduced_view,
    eliminate_controls_reduced,
    integrate_reduced,
    membership_check_reduced,
    project_full_to_reduced,
    reduced_dirac_residuals,
    reduced_hamiltonian,
    reduced_partials,
    reduced_pmp_rhs,
)

TWO_PI = 2.0 * np.pi
EMPTY = np.zeros(0)
# expression-free toy problems below use finite-difference derivatives, whose
# noise floor sits above the default 1e-12 stationarity tolerance
FD_CONFIG = PmpSolverConfig(newton_tol=1e-9)


# the benchmark's theta-k grid: six rotating members and two at rest (k = 0)
GRID = [(theta, k) for theta in (0.1, 0.8) for k in (0.0, 0.5, 1.0, 2.0)]


def grid_states(cases=GRID):
    return [ReducedState(EMPTY, EMPTY, unit_cylinder_costate(theta, k), np.zeros(2)) for theta, k in cases]


def singular_at_unit_k():
    """xi3 = u1^2/2 makes the control Hessian diag(mu3 - 1, -1): singular exactly where mu3 = 1 (scalar callables)."""

    def d2fiber_du2(z, u):
        out = np.zeros((3, 2, 2))
        out[2, 0, 0] = 1.0
        return out

    return ReducedProblem(
        base_dim=0,
        algebra=heisenberg_algebra(),
        control_dim=2,
        lagrangian=lambda z, u: 0.5 * float(u[0] ** 2 + u[1] ** 2),
        base_dynamics=lambda z, u: np.zeros(0),
        fiber_dynamics=lambda z, u: np.array([u[0], u[1], 0.5 * u[0] ** 2]),
        jacobians=ReducedJacobians(
            dl_du=lambda z, u: np.asarray(u, dtype=float),
            dfiber_du=lambda z, u: np.array([[1.0, 0.0], [0.0, 1.0], [u[0], 0.0]]),
            d2l_du2=lambda z, u: np.eye(2),
            d2fiber_du2=d2fiber_du2,
        ),
    )


def sequential_reduced(problem, mu0, duration, config):
    """The earlier one-member RK4 through the one-point API: every stage, the first included, solves its control."""

    def field(mu, u_warm):
        u = eliminate_controls_reduced(problem, EMPTY, EMPTY, mu, u_warm, config)
        xi = reduced_partials(problem, EMPTY, EMPTY, mu, u).dh_dmu
        return coadjoint(problem.algebra, xi, mu).coeffs, u

    def h(mu, u):
        return reduced_hamiltonian(problem, ReducedState(EMPTY, EMPTY, mu, u))

    times = time_grid(duration, config.rk_step)
    mu = np.asarray(mu0, dtype=float)
    u = eliminate_controls_reduced(problem, EMPTY, EMPTY, mu, np.zeros(problem.control_dim), config)
    rows, hs = [np.concatenate([mu, u])], [h(mu, u)]
    for t0, t1 in zip(times[:-1], times[1:]):
        step = t1 - t0
        k1, u1 = field(mu, u)
        k2, u2 = field(mu + 0.5 * step * k1, u1)
        k3, u3 = field(mu + 0.5 * step * k2, u2)
        k4, u4 = field(mu + step * k3, u3)
        mu = mu + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = eliminate_controls_reduced(problem, EMPTY, EMPTY, mu, u4, config)
        rows.append(np.concatenate([mu, u]))
        hs.append(h(mu, u))
    return np.array(rows), np.array(hs)


def abelian_base_problem():
    """One-dimensional base with an abelian 2-dim algebra: canonical Hamilton test bed."""
    abelian = LieAlgebraSpec(2, np.zeros((2, 2, 2)))
    return ReducedProblem(
        base_dim=1,
        algebra=abelian,
        control_dim=1,
        lagrangian=lambda z, u: 0.5 * float(u[0] ** 2 + z[0] ** 2),
        base_dynamics=lambda z, u: np.array([u[0]]),
        fiber_dynamics=lambda z, u: np.zeros(2),
    )


def cross_curvature(z, mu, v, w):
    return float(v[0] * w[1] - v[1] * w[0])


def curvature_base_problem(curvature=cross_curvature):
    """Two-dimensional base, abelian algebra, base = (u, 1) and the antisymmetric coupling v1 w2 - v2 w1."""
    return ReducedProblem(
        base_dim=2,
        algebra=LieAlgebraSpec(2, np.zeros((2, 2, 2))),
        control_dim=1,
        lagrangian=lambda z, u: 0.5 * float(u[0] ** 2),
        base_dynamics=lambda z, u: np.array([u[0], 1.0]),
        fiber_dynamics=lambda z, u: np.zeros(2),
        curvature=curvature,
    )


def test_reduced_hamiltonian_formula(heis_reduced):
    rng = np.random.default_rng(0)
    for _ in range(10):
        mu = rng.normal(size=3)
        u = rng.normal(size=2)
        st = ReducedState(EMPTY, EMPTY, mu, u)
        expected = mu[0] * u[0] + mu[1] * u[1] - 0.5 * (u[0] ** 2 + u[1] ** 2)
        assert abs(reduced_hamiltonian(heis_reduced, st) - expected) <= 1e-14


def test_reduced_hamiltonian_base_pairing_only():
    problem = ReducedProblem(
        base_dim=1,
        algebra=LieAlgebraSpec(2, np.zeros((2, 2, 2))),
        control_dim=1,
        lagrangian=lambda z, u: 0.0,
        base_dynamics=lambda z, u: np.array([3.0 * u[0]]),
        fiber_dynamics=lambda z, u: np.zeros(2),
    )
    st = ReducedState([0.2], [2.0], np.zeros(2), [0.5])
    assert reduced_hamiltonian(problem, st) == 2.0 * 1.5


def test_eliminated_hamiltonian_is_kinetic(heis_reduced, default_config):
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu = rng.normal(size=3)
        u = eliminate_controls_reduced(heis_reduced, EMPTY, EMPTY, mu, np.zeros(2), default_config)
        h = reduced_hamiltonian(heis_reduced, ReducedState(EMPTY, EMPTY, mu, u))
        assert abs(h - 0.5 * (mu[0] ** 2 + mu[1] ** 2)) <= 1e-13


def test_eliminate_controls(heis_reduced, default_config):
    mu = np.array([0.7, -1.2, 3.0])
    u = eliminate_controls_reduced(heis_reduced, EMPTY, EMPTY, mu, np.zeros(2), default_config)
    assert np.allclose(u, mu[:2], atol=1e-13)
    assert np.array_equal(
        eliminate_controls_reduced(heis_reduced, EMPTY, EMPTY, np.zeros(3), np.zeros(2), default_config),
        np.zeros(2),
    )
    # an already-optimal guess passes the residual check with zero updates
    ham = _reduced_view(heis_reduced)
    _, iterations, _, _ = _newton(lambda u: _partials(ham, EMPTY, mu, u), mu[:2], default_config)
    assert iterations == 0


@pytest.mark.parametrize("dbase_du", [None, lambda z, u: np.array([[z[0], 2.0 * u[1]]])])
def test_partial_base_jacobians_fall_back_to_differences(heis_reduced, dbase_du):
    # base = z u1 + u2^2 has no analytic control Hessian here (nor, in the first
    # case, an analytic control gradient): its <p_z, .> terms must still count
    problem = ReducedProblem(
        base_dim=1,
        algebra=heis_reduced.algebra,
        control_dim=2,
        lagrangian=heis_reduced.lagrangian,
        base_dynamics=lambda z, u: np.array([z[0] * u[0] + u[1] ** 2]),
        fiber_dynamics=heis_reduced.fiber_dynamics,
        jacobians=dataclasses.replace(heis_reduced.jacobians, dbase_du=dbase_du),
    )
    parts = reduced_partials(problem, [0.7], [2.0], [0.3, -0.4, 1.0], [0.2, 0.5])
    assert np.allclose(parts.dh_du, [1.5, 1.1], atol=1e-8)
    assert np.allclose(parts.d2h_du2, [[-1.0, 0.0], [0.0, 3.0]], atol=1e-6)


def test_rhs_rotation_block(heis_reduced, default_config):
    for k in (0.5, 1.0, 2.0):
        st = ReducedState(EMPTY, EMPTY, [1.0, 0.0, k], [1.0, 0.0])
        out = reduced_pmp_rhs(heis_reduced, st, default_config)
        assert np.allclose(out.xi, [1.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(out.mu_dot, [0.0, k, 0.0], atol=1e-14)


def test_rhs_equilibrium(heis_reduced, default_config):
    st = ReducedState(EMPTY, EMPTY, [0.0, 0.0, 4.0], [0.0, 0.0])
    out = reduced_pmp_rhs(heis_reduced, st, default_config)
    assert np.allclose(out.xi, 0.0)
    assert np.allclose(out.mu_dot, 0.0)


def test_rhs_abelian_is_canonical_hamilton():
    problem = abelian_base_problem()
    z, pz, mu = np.array([0.3]), np.array([-0.8]), np.array([0.1, 0.2])
    u = eliminate_controls_reduced(problem, z, pz, mu, np.zeros(1), FD_CONFIG)
    st = ReducedState(z, pz, mu, u)
    out = reduced_pmp_rhs(problem, st, FD_CONFIG)
    parts = reduced_partials(problem, z, pz, mu, u)
    assert np.allclose(out.z_dot, parts.dh_dpz)
    assert np.allclose(out.pz_dot, -parts.dh_dz, atol=1e-9)
    assert np.array_equal(out.mu_dot, np.zeros(2))  # abelian: no coadjoint term


def test_rhs_coadjoint_sign_switch(heis_reduced):
    """The opposite ad* convention is the opposite algebra: negated structure constants."""
    opposite = dataclasses.replace(
        heis_reduced, algebra=LieAlgebraSpec(3, -heis_reduced.algebra.structure_constants)
    )
    st = ReducedState(EMPTY, EMPTY, [1.0, 0.0, 2.0], [1.0, 0.0])
    plus = reduced_pmp_rhs(heis_reduced, st)
    minus = reduced_pmp_rhs(opposite, st)
    assert np.allclose(plus.mu_dot, -minus.mu_dot)
    assert np.allclose(plus.mu_dot, coadjoint(heis_reduced.algebra, plus.xi, st.mu).coeffs)


def test_curvature_coupling_enters_base_costate_equation():
    # a one-dimensional base has only the zero antisymmetric coupling, so use base_dim=2
    seen = []

    def curvature(z, mu, v, w):
        seen.append(True)
        return cross_curvature(z, mu, v, w)

    problem2 = curvature_base_problem(curvature)
    z, pz, mu = np.zeros(2), np.array([0.5, 0.0]), np.zeros(2)
    u = eliminate_controls_reduced(problem2, z, pz, mu, np.zeros(1), FD_CONFIG)
    out = reduced_pmp_rhs(problem2, ReducedState(z, pz, mu, u), FD_CONFIG)
    assert seen
    # z_dot = (0.5, 1); coupling covector F(z_dot, e_i) = (z_dot x e_i) = (-1, 0.5)... sign per formula
    expected = -np.array([0.5 * 0.0 - 1.0 * 1.0, 0.5 * 1.0 - 1.0 * 0.0])
    base_grad = np.zeros(2)  # h has no z dependence here
    assert np.allclose(out.pz_dot, base_grad + expected, atol=1e-9)


def test_integrate_reduced_matches_closed_form(heis_reduced):
    theta, k = 0.4, 1.5
    config = PmpSolverConfig(rk_step=2e-3)
    st0 = ReducedState(EMPTY, EMPTY, unit_cylinder_costate(theta, k), np.zeros(2))
    traj = integrate_reduced(heis_reduced, st0, TWO_PI, config)
    exact = lambda_closed_form(theta, k, traj.times)
    assert np.max(np.abs(traj.block("mu") - exact)) <= 1e-6


def test_integrate_reduced_zero_duration(heis_reduced, default_config):
    st0 = ReducedState(EMPTY, EMPTY, [0.1, 0.2, 0.3], np.zeros(2))
    traj = integrate_reduced(heis_reduced, st0, 0.0, default_config)
    assert len(traj) == 1
    assert np.allclose(traj.block("mu")[0], [0.1, 0.2, 0.3])


def test_integrate_reduced_energy_and_casimir(reduced_runs):
    traj = reduced_runs[(0.0, 1.0)]  # mu0 = (1, 0, 1), step 1e-3
    h = traj.channel("h")
    assert np.max(np.abs(h - 0.5)) <= 1e-6
    # mu3 never moves: its time derivative is identically zero inside RK4
    assert np.max(np.abs(traj.channel("casimir_mu3") - 1.0)) <= 1e-9


def test_project_at_identity_is_verbatim(heis_problem):
    p = np.array([0.4, -0.7, 2.0])
    st = project_full_to_reduced(heis_problem, PontryaginPoint(np.zeros(3), p, np.zeros(2)))
    assert np.array_equal(st.mu, p)
    assert st.z.size == 0 and st.p_z.size == 0


def test_projection_commutes_with_dynamics(heis_problem, heis_reduced):
    config = PmpSolverConfig(rk_step=2e-3)
    p0 = unit_cylinder_costate(0.25, 1.0)
    full = integrate_pmp(heis_problem, np.zeros(3), p0, np.pi, config)
    reduced = integrate_reduced(
        heis_reduced, ReducedState(EMPTY, EMPTY, p0, np.zeros(2)), np.pi, config
    )
    projected = np.array(
        [
            project_full_to_reduced(heis_problem, PontryaginPoint(x, p, u)).mu
            for x, p, u in zip(full.block("x"), full.block("p"), full.block("u"))
        ]
    )
    assert np.max(np.abs(projected - reduced.block("mu"))) <= 1e-5


def test_projection_invariant_under_group_translation(heis_problem):
    sym = heis_problem.symmetry
    rng = np.random.default_rng(5)
    for _ in range(10):
        x0 = rng.normal(size=3)
        p0 = rng.normal(size=3)
        u0 = rng.normal(size=2)
        g = exp_nilpotent(heisenberg_algebra(), rng.normal(size=3))
        x1 = sym.act_on_state(g, x0)
        p1 = heisenberg_cotangent_lift(log_nilpotent(heisenberg_algebra(), g), p0)
        assert np.allclose(p1, np.linalg.solve(sym.state_jacobian(g, x0).T, p0), rtol=0, atol=1e-12)
        mu0 = project_full_to_reduced(heis_problem, PontryaginPoint(x0, p0, u0)).mu
        mu1 = project_full_to_reduced(heis_problem, PontryaginPoint(x1, p1, u0)).mu
        assert np.max(np.abs(mu0 - mu1)) <= 1e-12


def test_projection_requires_body_frame(heis_problem):
    from pontrylie.ocp import ControlProblem

    bare = ControlProblem(
        n=3, r=2, dynamics=heis_problem.dynamics, lagrangian=heis_problem.lagrangian
    )
    with pytest.raises(ReductionUnsupportedError):
        project_full_to_reduced(bare, PontryaginPoint(np.zeros(3), np.zeros(3), np.zeros(2)))


def test_membership_along_reduced_trajectory(heis_reduced):
    config = PmpSolverConfig(rk_step=5e-3)
    st0 = ReducedState(EMPTY, EMPTY, unit_cylinder_costate(0.6, 0.8), np.zeros(2))
    traj = integrate_reduced(heis_reduced, st0, 2.0, config)
    residuals = reduced_dirac_residuals(heis_reduced, traj)
    assert np.max(residuals) <= 1e-6
    # and through the boolean interface at a single point
    mu = traj.block("mu")[10]
    st = ReducedState(EMPTY, EMPTY, mu, traj.block("u")[10])
    out = reduced_pmp_rhs(heis_reduced, st, config)
    assert membership_check_reduced(heis_reduced.algebra, mu, out.mu_dot, out.xi, out.xi, tol=1e-6)


def test_membership_rejects_perturbed_velocity(heis_reduced, default_config):
    mu = unit_cylinder_costate(0.1, 1.2)
    st = ReducedState(EMPTY, EMPTY, mu, mu[:2])
    out = reduced_pmp_rhs(heis_reduced, st, default_config)
    perturbed = out.mu_dot.copy()
    perturbed[0] += 1e-2
    assert not membership_check_reduced(
        heis_reduced.algebra, mu, perturbed, out.xi, out.xi, tol=1e-6
    )


def test_membership_abelian_canonical_case():
    abelian = LieAlgebraSpec(2, np.zeros((2, 2, 2)))
    mu = np.array([0.5, -1.0])
    dh_dmu = np.array([2.0, 0.3])
    assert membership_check_reduced(abelian, mu, np.zeros(2), dh_dmu, dh_dmu, tol=1e-10)
    assert not membership_check_reduced(abelian, mu, np.array([0.1, 0.0]), dh_dmu, dh_dmu, tol=1e-6)


@pytest.mark.parametrize("make_problem, z0, pz0", [
    (abelian_base_problem, [0.2], [1.0]),
    (curvature_base_problem, [0.0, 0.3], [0.5, -0.4]),
], ids=["abelian-s1", "curvature-s2"])
def test_reduced_dirac_residuals_with_a_base(make_problem, z0, pz0):
    """The reduced scan reads (z, p_z, mu, u) rows against the form [[C, 0], [0, B(mu)]], and flags a raised pz1."""
    problem = make_problem()
    mu0 = np.linspace(0.3, -0.5, problem.algebra.dim)
    traj = integrate_reduced(problem, ReducedState(z0, pz0, mu0, np.zeros(1)), 0.2, FD_CONFIG)
    assert np.max(reduced_dirac_residuals(problem, traj)) <= 1e-6
    states = traj.states.copy()
    states[100, traj.columns.index("pz1")] += 0.5
    residuals = reduced_dirac_residuals(problem, Trajectory(traj.times, traj.columns, states, traj.channels))
    assert residuals[100] > 1e-2
    assert np.max(np.delete(residuals, 100)) <= 1e-6


def test_reduced_state_validation(heis_reduced):
    with pytest.raises(DimensionMismatchError):
        ReducedState(EMPTY, EMPTY, [1.0, 0.0], [0.0, 0.0]).conform(heis_reduced)


def test_dirac_scans_run_no_svd_per_row(heis_problem, heis_reduced, monkeypatch):
    """Both scans score all rows in closed form: no structure, so no SVD, per row."""
    config = PmpSolverConfig(rk_step=1e-2)
    mu0 = unit_cylinder_costate(0.3, 1.0)
    full = integrate_pmp(heis_problem, np.zeros(3), mu0, 0.5, config)
    reduced = integrate_reduced(heis_reduced, ReducedState(EMPTY, EMPTY, mu0, np.zeros(2)), 0.5, config)
    assert len(full) == len(reduced) == 51
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    assert np.max(dirac_membership_residuals(heis_problem, full)) <= 1e-10
    assert np.max(reduced_dirac_residuals(heis_reduced, reduced)) <= 1e-10
    assert len(calls) == 0


def test_dirac_scans_of_an_empty_trajectory_are_empty(heis_problem, heis_reduced):
    for scan, problem, columns in (
        (dirac_membership_residuals, heis_problem, ("x1", "x2", "x3", "p1", "p2", "p3", "u1", "u2")),
        (reduced_dirac_residuals, heis_reduced, ("mu1", "mu2", "mu3", "u1", "u2")),
    ):
        empty = Trajectory(times=np.zeros(0), columns=columns, states=np.zeros((0, len(columns))))
        assert scan(problem, empty).shape == (0,)


def test_reduced_batch_equals_each_member_alone_bit_for_bit(heis_reduced):
    config = PmpSolverConfig(rk_step=1e-2)
    states = grid_states()
    batch = integrate_reduced(heis_reduced, states, 1.0, config)
    assert isinstance(batch, list) and len(batch) == len(GRID)
    for state, traj in zip(states, batch):
        alone = integrate_reduced(heis_reduced, state, 1.0, config)
        assert np.array_equal(traj.states, alone.states)
        assert set(traj.channels) == set(alone.channels) == {"h", "casimir_mu3", "newton_iters", "stationarity"}
        for name in alone.channels:
            assert np.array_equal(traj.channel(name), alone.channel(name)), name
    assert integrate_reduced(heis_reduced, [], 1.0, config) == []


def test_reduced_batch_of_one_reproduces_the_sequential_solver(heis_reduced):
    config = PmpSolverConfig(rk_step=1e-2)
    for theta, k in ((0.4, 1.3), (0.1, 0.0)):
        mu0 = unit_cylinder_costate(theta, k)
        rows, hs = sequential_reduced(heis_reduced, mu0, 2.0, config)
        traj = integrate_reduced(heis_reduced, ReducedState(EMPTY, EMPTY, mu0, np.zeros(2)), 2.0, config)
        assert np.max(np.abs(traj.states - rows)) <= 1e-13
        assert np.max(np.abs(traj.channel("h") - hs)) <= 1e-13


def test_a_singular_member_is_named_with_its_time_state_and_residual():
    states = [ReducedState(EMPTY, EMPTY, unit_cylinder_costate(0.0, k), np.zeros(2)) for k in (0.5, 1.0, 2.0)]
    with pytest.raises(RegularityError) as err:
        integrate_reduced(singular_at_unit_k(), states, 0.5, PmpSolverConfig(rk_step=0.1))
    assert err.value.member == 1
    assert "member 1 at t=0" in str(err.value)
    assert err.value.t == 0.0 and err.value.residual == 1.0
    assert np.array_equal(err.value.state, [1.0, 0.0, 1.0])
    # without the singular member the same batch integrates
    assert len(integrate_reduced(singular_at_unit_k(), states[::2], 0.5, PmpSolverConfig(rk_step=0.1))) == 2


def test_each_reduced_step_reuses_the_node_partials(heis_reduced, monkeypatch):
    """Stage 1 takes the node's partials: 8 calls per step for a rotating member, 4 at rest, 7 over the grid."""
    calls = []
    partials = pmp._partials
    monkeypatch.setattr(pmp, "_partials", lambda *args: calls.append(1) or partials(*args))
    steps = 100
    config = PmpSolverConfig(rk_step=1e-3)
    counts = []
    for state in grid_states():
        calls.clear()
        integrate_reduced(heis_reduced, state, steps * config.rk_step, config)
        counts.append(len(calls))
    rotating = 2 + 8 * steps  # the first node's solve from u = 0, then stages 2-4 and the node, one update each
    resting = 2 + 4 * steps  # mu never moves, so no stage needs an update
    assert counts == [resting, rotating, rotating, rotating] * 2
    assert round(sum(counts) / (len(GRID) * steps)) == 7
