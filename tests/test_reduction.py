"""Reduced dynamics, control elimination, projection, and Dirac membership."""

import collections
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIG, FULL_PERIOD_CASES, heisenberg_oracle_problem, heisenberg_oracle_reduced, so3_algebra
from conftest import count_float_solves, counting, reduced_hamiltonian
from test_lie import upper_triangular_4x4
from test_ocp import heisenberg_cotangent_lift
from pontrylie import lie
from pontrylie.errors import DimensionMismatchError, EvaluationError, PontrylieError, RegularityError
from pontrylie.errors import ReductionUnsupportedError, SolverError
from pontrylie.heisenberg import (
    heisenberg_algebra,
    lambda_closed_form,
    unit_cylinder_costate,
)
from pontrylie.expr import _lie_poisson_tables, compile_tables
from pontrylie.lie import LieAlgebraSpec, _lie_poisson_form, coadjoint, exp_nilpotent, log_nilpotent
from pontrylie.ocp import PontryaginPoint, ProblemJacobians, _newton, check_invariance, hamiltonian_partials
from pontrylie.ocp import constant, stacked
from pontrylie.pmp import PmpSolverConfig, Trajectory, dirac_membership_residuals, integrate_pmp, optimal_feedback
from pontrylie.pmp import lagrange_pontryagin_action, time_grid
from pontrylie.reconstruct import xi_curve_from_reduced
from pontrylie.reduction import (
    ReducedProblem,
    ReducedState,
    eliminate_controls_reduced,
    integrate_reduced,
    project_full_to_reduced,
    reduced_dirac_residuals,
    reduced_partials,
    reduced_pmp_rhs,
)

TWO_PI = 2.0 * np.pi
EMPTY = np.zeros(0)


# the benchmark's theta-k grid: six rotating members and two at rest (k = 0)
GRID = [(theta, k) for theta in (0.1, 0.8) for k in (0.0, 0.5, 1.0, 2.0)]


def grid_states(cases=GRID):
    return [ReducedState(EMPTY, EMPTY, unit_cylinder_costate(theta, k), np.zeros(2)) for theta, k in cases]


def singular_at_unit_k():
    """xi3 = u1^2/2 makes the control Hessian diag(mu3 - 1, -1): singular exactly where mu3 = 1 (scalar callables).

    dH = (dh/du, dh/dz (none, s = 0), fiber) and W are given; the dynamics come without them.
    """
    return ReducedProblem(
        base_dim=0,
        algebra=heisenberg_algebra(),
        control_dim=2,
        lagrangian=lambda z, u: 0.5 * float(u[0] ** 2 + u[1] ** 2),
        base_dynamics=lambda z, u: np.zeros(0),
        fiber_dynamics=lambda z, u: np.array([u[0], u[1], 0.5 * u[0] ** 2]),
        jacobians=ProblemJacobians(
            dH=lambda z, mu, u: np.array([mu[0] + mu[2] * u[0] - u[0], mu[1] - u[1], u[0], u[1], 0.5 * u[0] ** 2]),
            d2H_du2=lambda z, mu, u: np.diag([mu[2] - 1.0, -1.0]),
        ),
    )


def sequential_reduced(problem, mu0, duration, config):
    """The earlier one-member RK4 through the one-point API: every stage, the first included, solves its control."""

    def field(mu, u_warm):
        u = eliminate_controls_reduced(problem, EMPTY, EMPTY, mu, u_warm, config)
        xi = reduced_partials(problem, EMPTY, EMPTY, mu, u).dH_dp
        return coadjoint(problem.algebra, xi, mu), u

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
        jacobians=ProblemJacobians(dH=lambda z, lam, u: np.array([lam[0] - u[0], -z[0], u[0], 0.0, 0.0]),
                                   d2H_du2=constant(-np.eye(1))),
    )


def curvature_base_problem(value=-1.0):
    """Two-dimensional base, abelian 2-dim algebra, base = (u, 1) and one structure function: the bracket of the
    base sections 0 and 1 lands in algebra direction 0 with coefficient ``value``.  Read at mu1 = 1 (a Casimir
    here), the default is the coupling v1 w2 - v2 w1 of C_ij = C(e_j, e_i): C_01 = -1, C_10 = 1."""
    return ReducedProblem(
        base_dim=2,
        algebra=LieAlgebraSpec(2, np.zeros((2, 2, 2))),
        control_dim=1,
        lagrangian=lambda z, u: 0.5 * float(u[0] ** 2),
        base_dynamics=lambda z, u: np.array([u[0], 1.0]),
        fiber_dynamics=lambda z, u: np.zeros(2),
        base_structure=((0, 1, 0, value),),
        jacobians=ProblemJacobians(dH=lambda z, lam, u: np.array([lam[0] - u[0], 0.0, 0.0, u[0], 1.0, 0.0, 0.0]),
                                   d2H_du2=constant(-np.eye(1))),
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
        jacobians=ProblemJacobians(dH=lambda z, lam, u: np.array([3.0 * lam[0], 0.0, 3.0 * u[0], 0.0, 0.0]),
                                   d2H_du2=constant(np.zeros((1, 1)))),
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
    _, iterations, _, _ = _newton(heis_reduced.view, EMPTY, mu, mu[:2], default_config)
    assert iterations == 0


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
    u = eliminate_controls_reduced(problem, z, pz, mu, np.zeros(1), CONFIG)
    st = ReducedState(z, pz, mu, u)
    out = reduced_pmp_rhs(problem, st, CONFIG)
    parts = reduced_partials(problem, z, pz, mu, u)
    assert np.allclose(out.z_dot, parts.dH_dp[:1])
    assert np.allclose(out.pz_dot, -parts.dH_dx, atol=1e-9)
    assert np.array_equal(out.mu_dot, np.zeros(2))  # abelian: no coadjoint term


def test_rhs_coadjoint_sign_switch(heis_reduced):
    """The opposite ad* convention is the opposite algebra: negated structure constants.  The builtin on the
    opposite algebra computes B(mu) of that algebra, so its mu_dot is the builtin's negated."""
    opposite = dataclasses.replace(heis_reduced, algebra=LieAlgebraSpec(3, -heis_reduced.algebra.structure_constants))
    st = ReducedState(EMPTY, EMPTY, [1.0, 0.0, 2.0], [1.0, 0.0])
    plus = reduced_pmp_rhs(heis_reduced, st)
    minus = reduced_pmp_rhs(opposite, st)
    assert np.allclose(plus.mu_dot, -minus.mu_dot)
    assert np.allclose(plus.mu_dot, coadjoint(heis_reduced.algebra, plus.xi, st.mu))


def test_curvature_coupling_enters_base_costate_equation():
    # a one-dimensional base has only the zero antisymmetric coupling, so use base_dim=2
    def pz_dot(problem2):
        z, pz, mu = np.zeros(2), np.array([0.5, 0.0]), np.array([1.0, 0.0])
        u = eliminate_controls_reduced(problem2, z, pz, mu, np.zeros(1), CONFIG)
        return reduced_pmp_rhs(problem2, ReducedState(z, pz, mu, u), CONFIG).pz_dot

    out = pz_dot(curvature_base_problem())
    assert not np.allclose(pz_dot(curvature_base_problem(-2.0)), out, atol=1e-9)  # the entry is read
    # z_dot = (0.5, 1); coupling covector F(z_dot, e_i) = (z_dot x e_i) = (-1, 0.5)... sign per formula
    expected = -np.array([0.5 * 0.0 - 1.0 * 1.0, 0.5 * 1.0 - 1.0 * 0.0])
    base_grad = np.zeros(2)  # h has no z dependence here
    assert np.allclose(out, base_grad + expected, atol=1e-9)


@pytest.mark.parametrize("entry", [(1, 0, 0, -1.0), (0, 2, 0, -1.0), (0, 1, 2, -1.0), (0, 1, 0, "mu1")])
def test_a_malformed_base_structure_entry_fails_on_construction(entry):
    """A Python-defined problem's entries are checked as a problem file's: 0 <= i < j < base_dim, k < dim and a
    value in z1..zs; the error names the entry."""
    with pytest.raises(PontrylieError, match=r"^base_structure entry \(" + ", ".join(map(repr, entry))):
        dataclasses.replace(curvature_base_problem(), base_structure=(entry,))


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


@pytest.mark.parametrize("make_problem, z0, pz0", [
    (abelian_base_problem, [0.2], [1.0]),
    (curvature_base_problem, [0.0, 0.3], [0.5, -0.4]),
], ids=["abelian-s1", "curvature-s2"])
def test_reduced_dirac_residuals_with_a_base(make_problem, z0, pz0):
    """The reduced scan reads (z, p_z, mu, u) rows against the form [[C, 0], [0, B(mu)]], and flags a raised pz1."""
    problem = make_problem()
    mu0 = np.linspace(0.3, -0.5, problem.algebra.dim)
    traj = integrate_reduced(problem, ReducedState(z0, pz0, mu0, np.zeros(1)), 0.2, CONFIG)
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


def counted(calls, obj):
    """The problem dataclass ``obj`` with every callable field counted under its name."""
    fields = (f.name for f in dataclasses.fields(obj) if callable(getattr(obj, f.name)))
    return dataclasses.replace(obj, **{name: counting(calls, name, getattr(obj, name)) for name in fields})


@pytest.mark.parametrize("kind", ["full", "reduced"])
def test_callbacks_and_svds_per_integration_are_pinned(heis_problem, heis_reduced, kind, monkeypatch):
    """Problem callbacks of a resting (k = 0) and a rotating (k = 1) member, and SVDs, per integration.

    A solve calls the compiled dH = (dH/du, dH/dq, F) once per iterate: twice from a warm start one step
    away from the root (node 0 from u = 0, and every solve of the rotating member), once from a warm start
    already at the root (every later solve of the resting member).  The dynamics are called once per
    iterate of node 0, to check the F entries of its dH.  The constant control Hessian is
    rank-checked once per problem, when the first integration builds its view.  Per node comes the Lagrangian of H (or h); the J channels come from one call of
    the handle's generators, and the Casimir channel from one call of the stacked Casimir.  Every solve of
    these one-member integrations is written out in the view's generated sweep (``expr.float_stage``): node 0's
    reads the counted dH through its check, every other one the dH lines inlined in the sweep, counted here
    by tracing (``conftest.count_float_solves``) as one evaluation per iterate, iterations + 1.  The sweep
    inlines L too, so the counted Lagrangian itself is never called; its traced lines give one evaluation per node.
    """
    calls, svds, float_solves = collections.Counter(), [], collections.Counter()
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(1) or svd(*args, **kwargs))
    count_float_solves(monkeypatch, float_solves)
    if kind == "full":
        problem = dataclasses.replace(counted(calls, heis_problem), jacobians=counted(calls, heis_problem.jacobians),
                                      symmetry=counted(calls, heis_problem.symmetry))
    else:
        problem = dataclasses.replace(counted(calls, heis_reduced), jacobians=counted(calls, heis_reduced.jacobians),
                                      casimirs={k: counting(calls, k, f) for k, f in heis_reduced.casimirs.items()})
    steps = 50
    config = PmpSolverConfig(rk_step=1e-3)
    solves = 1 + 4 * steps  # stage 1 reuses the node's solve: stages 2-4 and the node solve once per step
    for k, per_solve in ((0.0, 1), (1.0, 2)):
        calls.clear()
        svds.clear()
        float_solves.clear()
        mu0 = unit_cylinder_costate(0.1, k)
        if kind == "full":
            integrate_pmp(problem, np.zeros(3), mu0, steps * config.rk_step, config)
            expected = {"dH": 2 + per_solve * (solves - 1), "dynamics": 2, "lagrangian": steps + 1,
                        "generators": 1}
        else:
            integrate_reduced(problem, ReducedState(EMPTY, EMPTY, mu0, np.zeros(2)), steps * config.rk_step, config)
            expected = {"dH": 2 + per_solve * (solves - 1), "fiber_dynamics": 2, "lagrangian": steps + 1,
                        "casimir_mu3": 1}
        assert calls["lagrangian"] == 0  # the sweep reads only the inlined L lines
        calls["dH"] += float_solves.pop("dH")  # the inlined dH lines
        calls["lagrangian"] += float_solves.pop("lagrangian")  # the inlined L lines
        assert dict(calls) == expected
        assert len(svds) == (1 if k == 0.0 else 0)
        assert float_solves == {"float solves": solves}


def test_feedback_makes_one_gradient_call_per_iterate(heis_problem):
    """One feedback solve from u = 0 at a rotating point: one dH at the first iterate, one after the step."""
    calls = collections.Counter()
    problem = dataclasses.replace(counted(calls, heis_problem), jacobians=counted(calls, heis_problem.jacobians))
    u = optimal_feedback(problem, np.zeros(3), unit_cylinder_costate(0.1, 1.0), np.zeros(2))
    assert np.allclose(u, [np.cos(0.1), np.sin(0.1)], atol=1e-15)
    assert dict(calls) == {"dH": 2}


def test_a_problem_builds_its_view_once(heis_problem, heis_reduced, monkeypatch):
    """Point calls and the invariance check of one fresh problem, full or reduced, share one held view."""
    from pontrylie import ocp, reduction

    assert heis_problem.view is heis_problem.view and heis_reduced.view is heis_reduced.view
    problem, reduced = dataclasses.replace(heis_problem), dataclasses.replace(heis_reduced)
    builds = collections.Counter()

    def counted_build(module):
        build = module._controlled

        def counted(*args, **kwargs):
            builds[module.__name__] += 1
            return build(*args, **kwargs)

        return counted

    for module in (ocp, reduction):
        monkeypatch.setattr(module, "_controlled", counted_build(module))
    point = PontryaginPoint(np.zeros(3), unit_cylinder_costate(0.1, 1.0), np.zeros(2))
    mu = np.array([0.7, -1.2, 3.0])
    for _ in range(3):
        optimal_feedback(problem, point.x, point.p, point.u)
        eliminate_controls_reduced(reduced, EMPTY, EMPTY, mu, np.zeros(2))
    hamiltonian_partials(problem, point)
    check_invariance(problem, samples=20)
    reduced_partials(reduced, EMPTY, EMPTY, mu, np.zeros(2))
    reduced_pmp_rhs(reduced, ReducedState(EMPTY, EMPTY, mu, mu[:2]))
    assert builds == {"pontrylie.ocp": 1, "pontrylie.reduction": 1}


@pytest.mark.parametrize("z, mu, u", [
    (EMPTY, [1.0, 2.0], [0.0, 0.0]),
    (EMPTY, [1.0, 2.0, 3.0, 4.0], [0.0, 0.0]),
    (EMPTY, [1.0, 2.0, 3.0], [0.0]),
    ([0.5], [1.0, 2.0, 3.0], [0.0, 0.0]),
])
def test_reduced_point_calls_refuse_blocks_of_the_wrong_width(heis_reduced, z, mu, u):
    """Wrong-width blocks are named before they reach the compiled code."""
    for call in (reduced_partials, eliminate_controls_reduced):
        with pytest.raises(DimensionMismatchError, match="reduced state shapes"):
            call(heis_reduced, z, EMPTY, mu, u)


def _same_trajectories(a, b):
    assert np.array_equal(a.times, b.times) and a.columns == b.columns and np.array_equal(a.states, b.states)
    assert a.channels.keys() == b.channels.keys()
    assert all(np.array_equal(value, b.channels[name]) for name, value in a.channels.items())


def test_compiled_builtin_is_the_hand_written_oracle_bit_for_bit(heis_problem, heis_reduced, full_period_runs,
                                                                 reduced_runs):
    """The builtin, the README problem file compiled, against the hand-written callables of conftest.

    Over the acceptance grid both give the same trajectories (states and every channel) and the same Dirac
    residuals, bit for bit: the oracle's gradients of H repeat the compiled tree's float operations.
    """
    oracle, oracle_reduced = heisenberg_oracle_problem(), heisenberg_oracle_reduced()
    p0 = [unit_cylinder_costate(theta, k) for theta, k in FULL_PERIOD_CASES]
    for case, traj in zip(FULL_PERIOD_CASES, integrate_pmp(oracle, np.zeros(3), p0, TWO_PI, CONFIG)):
        _same_trajectories(full_period_runs[case], traj)
        assert np.array_equal(dirac_membership_residuals(heis_problem, full_period_runs[case]),
                              dirac_membership_residuals(oracle, traj))
    states = [ReducedState(EMPTY, EMPTY, unit_cylinder_costate(theta, k), np.zeros(2)) for theta, k in reduced_runs]
    for case, traj in zip(reduced_runs, integrate_reduced(oracle_reduced, states, TWO_PI, CONFIG)):
        _same_trajectories(reduced_runs[case], traj)
        assert np.array_equal(reduced_dirac_residuals(heis_reduced, reduced_runs[case]),
                              reduced_dirac_residuals(oracle_reduced, traj))


@pytest.mark.parametrize("kind", ["full", "reduced"])
@pytest.mark.parametrize("missing", ["dH", "d2H_du2", None], ids=["dH", "d2H_du2", "both"])
def test_a_problem_without_a_derivative_of_h_names_it_at_its_first_read(heis_problem, heis_reduced, kind, missing):
    """The builtin without one of its derivatives of H, or without both (dH is read first): an integration, a
    feedback solve and the partials, each from a control one step from its root (so a solve reads W), raise
    DimensionMismatchError naming the field and the expression route.  The values of H's terms are still read: the
    invariance check and the action, or the xi curve, of a stored trajectory give what the whole problem gives."""
    builtin = heis_problem if kind == "full" else heis_reduced
    jacobians = None if missing is None else dataclasses.replace(builtin.jacobians, **{missing: None})
    problem = dataclasses.replace(builtin, jacobians=jacobians)
    x, p, u = np.array([0.1, -0.2, 0.3]), unit_cylinder_costate(0.4, 1.3), np.zeros(2)
    if kind == "full":
        reads = (lambda: integrate_pmp(problem, x, p, 0.1, CONFIG), lambda: optimal_feedback(problem, x, p, u, CONFIG),
                 lambda: hamiltonian_partials(problem, PontryaginPoint(x, p, u)))
    else:
        reads = (lambda: integrate_reduced(problem, ReducedState(EMPTY, EMPTY, p, u), 0.1, CONFIG),
                 lambda: eliminate_controls_reduced(problem, EMPTY, EMPTY, p, u, CONFIG),
                 lambda: reduced_partials(problem, EMPTY, EMPTY, p, u))
    for read in reads:
        with pytest.raises(DimensionMismatchError,
                           match=rf"^the problem gives no {missing or 'dH'}: .*pontrylie\.expr\.load_problem"):
            read()
    if kind == "full":
        assert check_invariance(problem, samples=5) == check_invariance(builtin, samples=5)
        run = integrate_pmp(builtin, x, p, 0.1, CONFIG)
        assert lagrange_pontryagin_action(problem, run) == lagrange_pontryagin_action(builtin, run)
    else:
        run = integrate_reduced(builtin, ReducedState(EMPTY, EMPTY, p, u), 0.1, CONFIG)
        assert all(np.array_equal(a, b) for a, b in zip(xi_curve_from_reduced(problem, run),
                                                        xi_curve_from_reduced(builtin, run)))


def _short_dH(fn):
    return stacked(lambda q, lam, u: fn(q, lam, u)[..., :-1])


@pytest.mark.parametrize("members", [1, 3])
def test_a_gradient_one_entry_short_is_a_dimension_error_naming_it(heis_reduced, heis_problem, members):
    """dH one entry short, full and reduced: the integration and the Dirac scan name the field."""
    reduced = dataclasses.replace(heis_reduced, jacobians=dataclasses.replace(
        heis_reduced.jacobians, dH=_short_dH(heis_reduced.jacobians.dH)))
    states = [ReducedState(EMPTY, EMPTY, unit_cylinder_costate(0.3 * i, 1.0), np.zeros(2)) for i in range(members)]
    with pytest.raises(DimensionMismatchError, match="dH returned shape"):
        integrate_reduced(reduced, states, 0.01, CONFIG)
    traj = integrate_reduced(heis_reduced, states[0], 0.01, CONFIG)
    with pytest.raises(DimensionMismatchError, match="dH returned shape"):
        reduced_dirac_residuals(reduced, traj)
    problem = dataclasses.replace(heis_problem, jacobians=dataclasses.replace(
        heis_problem.jacobians, dH=_short_dH(heis_problem.jacobians.dH)))
    p0 = [unit_cylinder_costate(0.3 * i, 1.0) for i in range(members)]
    with pytest.raises(DimensionMismatchError, match="dH returned shape"):
        integrate_pmp(problem, np.zeros(3), p0, 0.01, CONFIG)
    with pytest.raises(DimensionMismatchError, match="dH returned shape"):
        dirac_membership_residuals(problem, integrate_pmp(heis_problem, np.zeros(3), p0[0], 0.01, CONFIG))


def test_a_wide_dH_is_a_dimension_error_naming_it(heis_reduced):
    wide = stacked(lambda q, lam, u: np.concatenate([heis_reduced.jacobians.dH(q, lam, u), u[..., :1]], axis=-1))
    reduced = dataclasses.replace(heis_reduced, jacobians=dataclasses.replace(heis_reduced.jacobians, dH=wide))
    with pytest.raises(DimensionMismatchError, match="dH returned shape"):
        integrate_reduced(reduced, ReducedState(EMPTY, EMPTY, unit_cylinder_costate(0.3, 1.0), np.zeros(2)), 0.01,
                          CONFIG)


def test_a_base_borrowing_the_builtin_gradients_is_a_dimension_error(heis_reduced):
    """A one-dimensional base with the builtin's compiled derivatives of h (written for s = 0): unchecked, they
    would read p_z as mu1 on a stack and fail to unpack the arguments at one member.  The compiled dH carries
    the widths of its arguments, and the integration, at one member and on a stack, and the Dirac scan refuse
    the others before the call, naming dH."""
    base = dataclasses.replace(heis_reduced, base_dim=1, base_dynamics=stacked(lambda z, u: u[..., :1]),
                               casimirs={})
    states = [ReducedState(np.zeros(1), np.zeros(1), unit_cylinder_costate(0.3 * i, 1.0), np.zeros(2))
              for i in range(2)]
    with pytest.raises(DimensionMismatchError, match="dH takes arguments of widths"):
        integrate_reduced(base, states, 0.01, CONFIG)
    with pytest.raises(DimensionMismatchError, match="dH takes arguments of widths"):
        integrate_reduced(base, states[0], 0.01, CONFIG)
    rows = Trajectory(times=[0.0, 0.1], columns=("z1", "pz1", "mu1", "mu2", "mu3", "u1", "u2"),
                      states=np.ones((2, 7)))
    with pytest.raises(DimensionMismatchError, match="dH takes arguments of widths"):
        reduced_dirac_residuals(base, rows)


@pytest.mark.parametrize("members", [1, 3])
def test_a_gradient_of_other_dynamics_is_an_input_error(heis_problem, heis_reduced, members):
    """The builtin with its dynamics doubled keeps the compiled gradient of the original H: its F entries are
    not the dynamics, so the integration and the Dirac scan, full and reduced, refuse it naming dH."""
    def doubled(fn):
        return stacked(lambda *args: 2.0 * fn(*args))

    heis_problem.view, heis_reduced.view  # a held view must not leak into a replaced problem
    problem = dataclasses.replace(heis_problem, dynamics=doubled(heis_problem.dynamics))
    reduced = dataclasses.replace(heis_reduced, fiber_dynamics=doubled(heis_reduced.fiber_dynamics))
    p0 = [unit_cylinder_costate(0.3 * i, 1.0) for i in range(members)]
    states = [ReducedState(EMPTY, EMPTY, mu0, np.zeros(2)) for mu0 in p0]
    full, lie_poisson = (integrate_pmp(heis_problem, np.zeros(3), p0[0], 0.01, CONFIG),
                         integrate_reduced(heis_reduced, states[0], 0.01, CONFIG))
    for run in (lambda: integrate_pmp(problem, np.zeros(3), p0, 0.01, CONFIG),
                lambda: integrate_reduced(reduced, states, 0.01, CONFIG),
                lambda: dirac_membership_residuals(problem, full),
                lambda: reduced_dirac_residuals(reduced, lie_poisson)):
        with pytest.raises(PontrylieError, match="dH does not belong to the dynamics") as err:
            run()
        assert not isinstance(err.value, (DimensionMismatchError, SolverError, EvaluationError))


ALGEBRAS = {"heisenberg": heisenberg_algebra, "so3": so3_algebra, "upper_triangular_4x4": upper_triangular_4x4,
            "opposite_heisenberg": lambda: LieAlgebraSpec(3, -heisenberg_algebra().structure_constants)}


def compiled_lie_poisson(alg: LieAlgebraSpec):
    """The compiled (B(mu), -B(mu) xi) of ``alg``, the pair the reduced view builds over a zero-dimensional base,
    as functions of mu (and xi) alone: the base argument z passed is zero-width."""
    form, bracket = compile_tables(_lie_poisson_tables(alg.structure_constants, 0, ()))
    return (lambda mu: form(np.zeros(mu.shape[:-1] + (0,)), mu),
            lambda mu, xi: bracket(np.zeros(mu.shape[:-1] + (0,)), mu, xi))


@pytest.mark.parametrize("lead", [(), (1,), (8,), (0,)])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_compiled_bracket_is_the_lie_poisson_form_and_the_coadjoint_action(name, lead):
    """Compiled B(mu) is ``lie._lie_poisson_form`` and compiled -B(mu) xi is ``lie.coadjoint``, at one point, one
    member, a stack and no member: bit for bit on Heisenberg, to 1e-15 relative on the other algebras."""
    alg = ALGEBRAS[name]()
    dim, (compiled_form, compiled_bracket) = alg.dim, compiled_lie_poisson(alg)
    rng = np.random.default_rng(11)
    mu, xi = rng.normal(size=(2,) + lead + (dim,))
    form, bracket = compiled_form(mu), compiled_bracket(mu, xi)
    rows = zip(mu.reshape(-1, dim), xi.reshape(-1, dim))
    expected = (_lie_poisson_form(alg, mu),
                np.array([coadjoint(alg, x, m) for m, x in rows]).reshape(lead + (dim,)))
    assert form.shape == lead + (dim, dim) and bracket.shape == lead + (dim,)
    for value, reference in zip((form, bracket), expected):
        if name == "heisenberg":
            assert np.array_equal(value, reference)
        else:
            assert np.abs(value - reference).max(initial=0.0) <= 1e-15 * np.abs(reference).max(initial=0.0)


@pytest.mark.parametrize("name", ["so3", "opposite_heisenberg"])
def test_a_replaced_algebra_brings_its_own_bracket(heis_reduced, name):
    """The view compiles B(mu) from the problem's own structure constants, so the builtin with its algebra
    replaced moves mu by that algebra's coadjoint action: bit for bit on the opposite Heisenberg algebra, to
    1e-15 relative on so(3)."""
    alg = ALGEBRAS[name]()
    heis_reduced.view  # a held view must not leak into a replaced problem
    problem = dataclasses.replace(heis_reduced, algebra=alg)
    rng = np.random.default_rng(5)
    for mu, u in zip(rng.normal(size=(4, 3)), rng.normal(size=(4, 2))):
        rhs = reduced_pmp_rhs(problem, ReducedState(EMPTY, EMPTY, mu, u))
        expected = coadjoint(alg, rhs.xi, mu)
        if name == "opposite_heisenberg":
            assert np.array_equal(rhs.mu_dot, expected)
        else:
            assert np.abs(rhs.mu_dot - expected).max() <= 1e-15 * np.abs(expected).max()


def test_one_bracket_for_every_reduced_problem(heis_reduced, monkeypatch):
    """With ``lie._lie_poisson_form`` broken, the builtin, the hand-written oracle and a Python-defined problem
    with a base structure function all integrate on the bracket their view compiles; the builtin still scans its
    rows, and it and the oracle agree to 0.0."""
    def broken(*args):
        raise AssertionError("the computed Lie-Poisson form was read")

    monkeypatch.setattr(lie, "_lie_poisson_form", broken)
    builtin = dataclasses.replace(heis_reduced)  # a new problem builds its own view
    runs = integrate_reduced(builtin, grid_states(), 0.2, CONFIG)
    assert reduced_dirac_residuals(builtin, runs[0]).max() <= 1e-12
    oracle_runs = integrate_reduced(heisenberg_oracle_reduced(), grid_states(), 0.2, CONFIG)
    curved = integrate_reduced(curvature_base_problem(), ReducedState(np.zeros(2), [0.5, 0.0], [1.0, 0.0], [0.0]),
                               0.1, CONFIG)
    assert np.isfinite(curved.states).all() and len(curved) == 101
    for run, oracle in zip(runs, oracle_runs):
        assert np.array_equal(run.states, oracle.states) and np.array_equal(run.channel("h"), oracle.channel("h"))


IMPORT_FIRST = """
import numpy as np
from pontrylie.reduction import ReducedProblem, ReducedState, integrate_reduced
from pontrylie.lie import LieAlgebraSpec
from pontrylie.ocp import ProblemJacobians
from pontrylie.pmp import PmpSolverConfig

c = np.zeros((3, 3, 3))
c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
problem = ReducedProblem(base_dim=0, algebra=LieAlgebraSpec(3, c), control_dim=2,
                         lagrangian=lambda z, u: 0.5 * float(u @ u), base_dynamics=lambda z, u: np.zeros(0),
                         fiber_dynamics=lambda z, u: np.array([u[0], u[1], 0.0]),
                         jacobians=ProblemJacobians(
                             dH=lambda z, mu, u: np.array([mu[0] - u[0], mu[1] - u[1], u[0], u[1], 0.0]),
                             d2H_du2=lambda z, mu, u: -np.eye(2)))
run = integrate_reduced(problem, ReducedState([], [], [1.0, 0.0, 1.0], [0.0, 0.0]), 1e-3, PmpSolverConfig(rk_step=1e-3))
print(len(run), *run.block("mu")[-1])
"""


def test_a_view_built_with_reduction_imported_first():
    """A fresh interpreter that imports ``pontrylie.reduction`` first builds a Python-defined problem's view,
    whose bracket comes from ``expr`` imported inside the view, and integrates one step."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_FIRST], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rows, *mu = map(float, proc.stdout.split())
    assert rows == 2 and np.allclose(mu, [np.cos(1e-3), np.sin(1e-3), 1.0], atol=1e-9)
