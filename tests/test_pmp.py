"""Feedback solver, Hamilton-equation integration, conservation, action functional."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from conftest import CONFIG
from pontrylie.errors import (
    ConvergenceError,
    DimensionMismatchError,
    EvaluationError,
    PontrylieError,
    RegularityError,
    TrajectoryFormatError,
)
from pontrylie.expr import load_problem
from pontrylie import pmp
from pontrylie.heisenberg import (
    PROBLEM_JSON,
    full_state_closed_form,
    unit_cylinder_costate,
)
from pontrylie.ocp import ControlProblem, PontryaginPoint, ProblemJacobians, _newton, constant
from pontrylie.ocp import hamiltonian_partials, pontryagin_hamiltonian, stacked
from pontrylie.pmp import (
    PmpSolverConfig,
    Trajectory,
    consistency_residual,
    dirac_membership_residuals,
    integrate_pmp,
    lagrange_pontryagin_action,
    momentum_map,
    optimal_feedback,
    regularity_check,
    time_grid,
)

TWO_PI = 2.0 * np.pi


def body_momentum(problem, x, p):
    return np.asarray(problem.symmetry.body_frame(x), dtype=float).T @ p


def newton_feedback(problem, x, p, u_guess, config):
    return _newton(problem.view, x, p, u_guess, config)[:3]


def degenerate_problem():
    """L and f both linear in u: the control Hessian vanishes identically (W from differences of the dH/du
    entries of dH)."""
    return ControlProblem(
        n=2,
        r=2,
        dynamics=lambda x, u: np.array([u[0] + x[0], u[1]]),
        lagrangian=lambda x, u: u[0] + u[1],
        jacobians=ProblemJacobians(dH=lambda x, p, u: np.array([p[0] - 1.0, p[1] - 1.0, p[0], 0.0, u[0] + x[0], u[1]])),
    )


def test_consistency_residual_vanishes_at_feedback(heis_problem):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, p = rng.normal(size=(2, 3))
        u = body_momentum(heis_problem, x, p)[:2]  # u_a = <lambda, Gamma_a>
        res = consistency_residual(heis_problem, PontryaginPoint(x, p, u))
        assert np.max(np.abs(res)) <= 1e-12


def test_consistency_residual_zero_costate(heis_problem):
    res = consistency_residual(heis_problem, PontryaginPoint(np.zeros(3), np.zeros(3), [1.0, 1.0]))
    assert np.allclose(res, [-1.0, -1.0])


def test_consistency_residual_at_newton_point(heis_problem, default_config):
    x = np.array([0.3, -0.7, 2.0])
    p = np.array([1.0, 0.5, -0.25])
    u = optimal_feedback(heis_problem, x, p, np.zeros(2), default_config)
    res = consistency_residual(heis_problem, PontryaginPoint(x, p, u))
    assert np.max(np.abs(res)) <= default_config.newton_tol


def test_regularity_heisenberg(heis_problem):
    rng = np.random.default_rng(1)
    for _ in range(5):
        pt = PontryaginPoint(rng.normal(size=3), rng.normal(size=3), rng.normal(size=2))
        assert regularity_check(heis_problem, pt)


def test_regularity_degenerate_problem():
    pt = PontryaginPoint([0.1, 0.2], [1.0, -1.0], [0.3, 0.4])
    assert not regularity_check(degenerate_problem(), pt)


def test_regularity_no_controls():
    problem = ControlProblem(n=1, r=0, dynamics=lambda x, u: -x, lagrangian=lambda x, u: 0.0)
    assert regularity_check(problem, PontryaginPoint([1.0], [1.0], []))


def test_a_constant_empty_control_hessian_is_regular():
    """A problem file without controls compiles W as a constant (0, 0) array: its view holds it and its
    inverse, and a solve takes no step."""
    problem = load_problem({"n": 1, "r": 0, "dynamics": ["-x1"], "lagrangian": "0"}, "f", "t")[0]
    assert problem.view.w.shape == problem.view.w_inverse.shape == (0, 0)
    assert optimal_feedback(problem, [1.0], [1.0], []).shape == (0,)


def test_feedback_single_newton_step(heis_problem, default_config):
    # phi is affine in u with unit Hessian, so one update lands exactly
    theta, k = 0.93, 0.4
    u, iterations, residual = newton_feedback(
        heis_problem, np.zeros(3), unit_cylinder_costate(theta, k), np.zeros(2), default_config
    )
    assert iterations == 1
    assert residual <= default_config.newton_tol
    assert np.allclose(u, [np.cos(theta), np.sin(theta)], atol=1e-14)


def test_feedback_fixed_point(heis_problem, default_config):
    x = np.array([0.4, 0.6, -1.0])
    p = np.array([0.3, -0.2, 0.9])
    u_star = body_momentum(heis_problem, x, p)[:2]
    u, iterations, _ = newton_feedback(heis_problem, x, p, u_star, default_config)
    assert iterations == 0
    assert np.array_equal(u, u_star)


def test_feedback_zero_momentum(heis_problem, default_config):
    u = optimal_feedback(heis_problem, np.zeros(3), np.zeros(3), np.zeros(2), default_config)
    assert np.array_equal(u, np.zeros(2))


def test_feedback_nonconvergence_reports_residual():
    # phi = p * exp(u) has no root; a small budget must fail loudly
    problem = ControlProblem(
        n=1, r=1, dynamics=lambda x, u: np.array([np.exp(u[0])]), lagrangian=lambda x, u: 0.0
    )
    config = PmpSolverConfig(newton_max_iter=5)
    with pytest.raises(ConvergenceError) as err:
        optimal_feedback(problem, [0.0], [2.0], [0.0], config)
    assert np.isfinite(err.value.residual)


def test_feedback_singular_hessian_raises(default_config):
    # p = (2, -1) keeps the (constant) stationarity residual nonzero, so the
    # solver must inspect the vanishing Hessian and refuse
    with pytest.raises(RegularityError):
        optimal_feedback(degenerate_problem(), [0.0, 0.0], [2.0, -1.0], [0.0, 0.0], default_config)


def test_a_constant_singular_hessian_is_refused_where_a_step_needs_it(default_config):
    """W = 0 as a constant: the once-checked W still raises RegularityError naming the member and residual."""
    degenerate = degenerate_problem()
    problem = dataclasses.replace(degenerate, jacobians=dataclasses.replace(
        degenerate.jacobians, d2H_du2=constant(np.zeros((2, 2)))
    ))
    assert problem.view.w is not None and problem.view.w_inverse is None
    with pytest.raises(RegularityError) as err:
        optimal_feedback(problem, [0.0, 0.0], [2.0, -1.0], [0.0, 0.0], default_config)
    assert err.value.member == 0 and err.value.residual == 2.0
    # p = (1, 1) is at a root (dH/du = p - 1 = 0), so the member that must step is the second
    with pytest.raises(RegularityError) as err:
        integrate_pmp(problem, np.zeros(2), [[1.0, 1.0], [2.0, -1.0]], 0.1, PmpSolverConfig(rk_step=0.05))
    assert err.value.member == 1 and err.value.residual == 2.0
    assert "member 1 at t=0" in str(err.value)


def test_a_non_finite_state_partial_at_the_root_names_its_point(default_config):
    """Newton reads only the dH/du entries of each iterate's dH; the integrator reads the dH/dq entries of the
    root's, and a NaN there raises EvaluationError with (x, p, u*)."""
    problem = ControlProblem(
        n=1, r=1, dynamics=lambda x, u: np.array([u[0]]), lagrangian=lambda x, u: 0.5 * float(u[0] ** 2),
        jacobians=ProblemJacobians(dH=lambda x, p, u: np.array([p[0] - u[0], np.nan, u[0]])),
    )
    with pytest.raises(EvaluationError, match="non-finite Hamiltonian partial") as err:
        integrate_pmp(problem, [0.5], [2.0], 0.1, default_config)
    x, p, u = err.value.point
    assert (x.tolist(), p.tolist(), u.tolist()) == ([0.5], [2.0], [2.0])


def test_a_math_error_of_an_unmarked_callable_is_an_evaluation_error_at_its_point(default_config):
    """An unmarked dynamics taking math.sqrt of a negative number raises EvaluationError (exit 2) at the
    member's arguments, alone and inside an integration."""
    problem = ControlProblem(n=1, r=1, dynamics=lambda x, u: np.array([math.sqrt(x[0] - 1.0) + u[0]]),
                             lagrangian=lambda x, u: 0.5 * float(u[0] ** 2))
    with pytest.raises(EvaluationError, match="dynamics failed: math domain error") as err:
        pontryagin_hamiltonian(problem, PontryaginPoint([0.0], [1.0], [0.5]))
    assert [v.tolist() for v in err.value.point] == [[0.0], [0.5]]
    with pytest.raises(EvaluationError, match="dynamics failed: math domain error") as err:
        integrate_pmp(problem, [0.0], [1.0], 0.1, default_config)
    x, u = err.value.point
    assert x.tolist() == [0.0] and u.shape == (1,)


def plain_blocks(jacobians):
    """The derivatives of H as plain stacked callables, so a ``constant`` W is called rather than read."""

    def plain(fn):
        return None if fn is None else stacked(lambda *args: fn(*args))

    return dataclasses.replace(jacobians, **{f.name: plain(getattr(jacobians, f.name)) for f in dataclasses.fields(jacobians)})


@pytest.mark.parametrize("members", [5, 1])
def test_constant_blocks_give_the_general_path_bit_for_bit(heis_problem, heis_reduced, members):
    """The once-checked constant W, read and inverted once, changes no bit of a full or a reduced integration."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    plain = dataclasses.replace(heis_problem, jacobians=plain_blocks(heis_problem.jacobians))
    plain_reduced = dataclasses.replace(heis_reduced, jacobians=plain_blocks(heis_reduced.jacobians))
    assert heis_problem.view.w is not None and plain.view.w is None
    assert heis_reduced.view.w is not None and plain_reduced.view.w is None
    cases = [(0.0, 1.0), (0.7, -0.5), (2.0, 2.0), (0.3, 0.0), (4.0, -1.5)][:members]
    x0 = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [1.0, 2.0, -3.0], [0.0, 0.0, 0.0], [-0.5, 0.25, 1.0]])[:members]
    p0 = np.array([unit_cylinder_costate(theta, k) for theta, k in cases])
    states = [ReducedState(np.zeros(0), np.zeros(0), mu0, np.zeros(2)) for mu0 in p0]
    config = PmpSolverConfig(rk_step=1e-2)
    full = [integrate_pmp(problem, x0, p0, 1.0, config) for problem in (heis_problem, plain)]
    reduced = [integrate_reduced(problem, states, 1.0, config) for problem in (heis_reduced, plain_reduced)]
    for fast, general in (full, reduced):
        assert len(fast) == len(general) == members
        for a, b in zip(fast, general):
            assert np.array_equal(a.states, b.states)
            assert a.channel("newton_iters").max() == 1
            for name in ("newton_iters", "stationarity"):
                assert np.array_equal(a.channel(name), b.channel(name)), name


def skewed_problems():
    """The README file with the cost 0.5*(u1^2 + u1*u2 + 2*u2^2), full and reduced: a constant W whose inverse is
    not diagonal, so a step folded in Python could differ from the stack's matmul in the last bit (Heisenberg's
    W^-1 = -I cannot tell the two apart)."""
    data = json.loads(PROBLEM_JSON)
    data["lagrangian"] = data["reduced"]["lagrangian"] = "0.5*(u1^2 + u1*u2 + 2*u2^2)"
    return load_problem(data, "skewed", "test")


@pytest.fixture
def newton_calls(monkeypatch):
    """(iterations, residual) of every ``_newton`` call made through ``pmp``: Python numbers on the one-member
    branch, arrays on the stack path."""
    calls = []

    def spied(*args):
        result = _newton(*args)
        calls.append(result[1:3])
        return result

    monkeypatch.setattr(pmp, "_newton", spied)
    return calls


def branches(calls):
    """The set of ``calls``' (iterations, residual) types, emptying ``calls``."""
    kinds = {tuple(type(v) for v in call) for call in calls}
    calls.clear()
    return kinds


def test_one_member_gives_its_batch_bits_with_an_off_diagonal_w(newton_calls):
    """Alone, a member takes the one-member branch and gives the bits it has in a batch, full and reduced."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    problem, reduced = skewed_problems()
    for view in (problem.view, reduced.view):
        assert view.w_inverse is not None and view.w_inverse[0, 1] != 0.0
    config = PmpSolverConfig(rk_step=1e-2)
    x0 = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [1.0, 2.0, -3.0]])
    p0 = np.array([unit_cylinder_costate(theta, k) for theta, k in ((0.0, 1.0), (0.7, 0.5), (2.0, 2.0))])
    states = [ReducedState(np.zeros(0), np.zeros(0), mu0, np.zeros(2)) for mu0 in p0]
    for batch, alone in (
        (lambda: integrate_pmp(problem, x0, p0, 1.0, config),
         lambda i: integrate_pmp(problem, x0[i], p0[i], 1.0, config)),
        (lambda: integrate_reduced(reduced, states, 1.0, config),
         lambda i: integrate_reduced(reduced, states[i], 1.0, config)),
    ):
        together = batch()
        assert branches(newton_calls) == {(np.ndarray, np.ndarray)}
        for i, member in enumerate(together):
            single = alone(i)
            assert branches(newton_calls) == {(int, float)}
            assert np.array_equal(member.states, single.states)
            assert member.channels.keys() == single.channels.keys()
            for name in single.channels:
                assert np.array_equal(member.channel(name), single.channel(name)), name


def stiffening_problem():
    """x_dot = u, L = u^2/2 + s u^4/4 with s = max(x - 1, 0), and W = -1 as a constant: exact while x <= 1,
    after which Newton converges only linearly."""

    @stacked
    def dH(x, p, u):
        s = np.maximum(x - 1.0, 0.0)
        return np.concatenate([p - u - s * u**3, -0.25 * (x > 1.0) * u**4, u], axis=-1)

    @stacked
    def lagrangian(x, u):
        return (0.5 * u**2 + 0.25 * np.maximum(x - 1.0, 0.0) * u**4)[..., 0]

    return ControlProblem(n=1, r=1, dynamics=stacked(lambda x, u: u), lagrangian=lagrangian,
                          jacobians=ProblemJacobians(dH=dH, d2H_du2=constant([[-1.0]])))


def rooted_problem():
    """x_dot = u, L = u^2/2 - u sqrt(1 - x), and W = -1 as a constant: dH/du = p - u + sqrt(1 - x) is NaN past
    x = 1."""

    @stacked
    def dH(x, p, u):
        root = np.sqrt(1.0 - x)
        return np.concatenate([p - u + root, -0.5 * u / root, u], axis=-1)

    return ControlProblem(n=1, r=1, dynamics=stacked(lambda x, u: u),
                          lagrangian=stacked(lambda x, u: (0.5 * u**2 - u * np.sqrt(1.0 - x))[..., 0]),
                          jacobians=ProblemJacobians(dH=dH, d2H_du2=constant([[-1.0]])))


@pytest.mark.parametrize("problem, kind, message", [
    (stiffening_problem(), ConvergenceError, "control Newton exhausted 2 iterations"),
    (rooted_problem(), EvaluationError, "non-finite Hamiltonian partial"),
])
def test_a_one_member_failure_is_the_one_it_has_in_a_batch(newton_calls, problem, kind, message):
    """Member 0 crosses x = 1 mid-run and fails there; the other two stay at x = -5.  Alone it fails on the
    one-member branch with the type, message, residual, member, time, state and point it has in the batch."""
    config = PmpSolverConfig(rk_step=0.01, newton_max_iter=2)
    failures = []
    for x0, p0 in (([[0.95], [-5.0], [-5.0]], [[1.0], [1.0], [0.5]]), ([0.95], [1.0])):
        with pytest.raises(kind, match=message) as err:
            integrate_pmp(problem, x0, p0, 0.5, config)
        failures.append(err.value)
    assert branches(newton_calls) == {(np.ndarray, np.ndarray), (int, float)}
    together, alone = failures
    assert str(together) == str(alone) and "member 0 while stepping from t=0.0" in str(alone)
    assert together.member == alone.member == 0 and together.t == alone.t > 0.0
    for name in ("residual", "state", "point"):
        assert np.array_equal(getattr(together, name, None), getattr(alone, name, None)), name


def test_optimal_feedback_of_one_point_takes_the_one_member_branch(newton_calls):
    """A 1-D guess takes the one-member branch, and its control is the stack's, bit for bit."""
    problem = skewed_problems()[0]
    x, p, u0 = np.array([0.1, -0.2, 0.3]), unit_cylinder_costate(0.4, 1.3), np.array([0.2, -0.1])
    u = optimal_feedback(problem, x, p, u0)
    assert branches(newton_calls) == {(int, float)}
    stack = _newton(problem.view, np.tile(x, (3, 1)), np.tile(p, (3, 1)), np.tile(u0, (3, 1)), PmpSolverConfig())
    assert np.array_equal(stack[0], np.tile(u, (3, 1)))
    assert stack[1].tolist() == [1, 1, 1]


def without_symmetry():
    """The README file without ``algebra``, ``action`` and ``reduced``: neither dH nor H reads x3."""
    data = json.loads(PROBLEM_JSON)
    for key in ("algebra", "action", "reduced"):
        del data[key]
    return load_problem(data, "plain", "test")[0]


@pytest.mark.parametrize("p0, member, t", [
    ([[1.0, 0.0, 1.0], [1.3e154, 0.0, 1.0], [1.33e154, 0.0, 1.0]], 2, 0.86),  # the earliest node first
    ([[1.0, 0.0, 1.0], [1.3e154, 0.0, 1.0], [1.3e154, 0.0, 1.0]], 1, 0.88),  # then the lowest member
    ([1.3e154, 0.0, 1.0], 0, 0.88),
])
def test_a_non_finite_state_row_is_an_evaluation_error_at_its_first_row(p0, member, t):
    """x3 overflows in the RK4 update, which no evaluation reads: the recorded rows are checked after the sweep."""
    with pytest.raises(EvaluationError, match=rf"non-finite state \(member {member} at t={t}\)") as err:
        integrate_pmp(without_symmetry(), np.zeros(3), p0, 1.0, PmpSolverConfig(rk_step=0.01))
    assert err.value.member == member and err.value.t == t
    x, p, u = err.value.point
    assert x.shape == p.shape == (3,) and u.shape == (2,) and x[2] == np.inf


def test_integrate_conserves_hamiltonian(full_period_runs):
    traj = full_period_runs[(0.0, 1.0)]  # p0 = (1, 0, 1)
    h = traj.channel("H")
    assert np.max(np.abs(h - 0.5)) <= 1e-6
    # observed drift obeys the C * step^4 * T bound with C < 10
    assert np.max(np.abs(h - h[0])) <= 10.0 * CONFIG.rk_step**4 * TWO_PI


def test_integrate_zero_duration(heis_problem, default_config):
    traj = integrate_pmp(heis_problem, [0.1, 0.2, 0.3], [1.0, 0.0, 0.5], 0.0, default_config)
    assert len(traj) == 1
    assert np.allclose(traj.block("x")[0], [0.1, 0.2, 0.3])
    assert np.allclose(traj.block("p")[0], [1.0, 0.0, 0.5])


def test_integrate_casimir_exact(heis_problem, casimir_runs):
    for k, traj in casimir_runs.items():  # p0 = (1, 0, k), step 2e-3
        lam3 = np.array(
            [body_momentum(heis_problem, x, p)[2] for x, p in zip(traj.block("x"), traj.block("p"))]
        )
        assert np.max(np.abs(lam3 - k)) <= 1e-9


def test_integrate_rows_satisfy_stationarity(heis_problem):
    config = PmpSolverConfig(rk_step=5e-3)
    traj = integrate_pmp(heis_problem, np.zeros(3), [0.6, -0.8, 1.0], 1.0, config)
    for x, p, u in zip(traj.block("x"), traj.block("p"), traj.block("u")):
        res = consistency_residual(heis_problem, PontryaginPoint(x, p, u))
        assert np.max(np.abs(res)) <= 10.0 * config.newton_tol


def test_momentum_channels_conserved(full_period_runs):
    traj = full_period_runs[(0.2, 1.0)]
    for name in ("J1", "J2", "J3"):
        values = traj.channel(name)
        assert np.max(np.abs(values - values[0])) <= 1e-8, name


def test_rk4_order_against_closed_form(heis_problem):
    theta, k = 0.0, 1.0

    def endpoint_error(step):
        traj = integrate_pmp(
            heis_problem, np.zeros(3), unit_cylinder_costate(theta, k), TWO_PI,
            PmpSolverConfig(rk_step=step),
        )
        exact = full_state_closed_form(theta, k, traj.times[-1])
        state = np.concatenate([traj.block("x")[-1], traj.block("p")[-1]])
        return np.max(np.abs(state - exact))

    coarse = endpoint_error(TWO_PI / 128)
    fine = endpoint_error(TWO_PI / 256)
    ratio = coarse / fine
    assert 12.0 <= ratio <= 20.0, f"expected 4th-order halving ratio, got {ratio}"


def test_integrate_validates_shapes(heis_problem, default_config):
    with pytest.raises(DimensionMismatchError):
        integrate_pmp(heis_problem, np.zeros(3), [1.0, 0.0], 1.0, default_config)
    with pytest.raises(DimensionMismatchError):
        integrate_pmp(heis_problem, np.zeros(3), [1.0, 0.0, 1.0], -1.0, default_config)


def test_feedback_failure_reports_time(heis_problem):
    problem = ControlProblem(
        n=1, r=1, dynamics=lambda x, u: np.array([np.exp(u[0])]), lagrangian=lambda x, u: 0.0
    )
    with pytest.raises(ConvergenceError) as err:
        integrate_pmp(problem, [0.0], [1.0], 0.5, PmpSolverConfig(newton_max_iter=4, rk_step=0.1))
    assert "t=" in str(err.value)
    assert np.isfinite(err.value.residual)


def test_stage_failure_reports_the_stage_state():
    # H = p u - exp(u) - x: the root u* = log(p) moves with p_dot = 1, and one
    # Newton step from the node's control cannot follow it to the second stage
    problem = ControlProblem(
        n=1, r=1, dynamics=lambda x, u: np.array([u[0]]), lagrangian=lambda x, u: float(np.exp(u[0]) + x[0]),
        jacobians=ProblemJacobians(
            dH=lambda x, p, u: np.array([p[0] - np.exp(u[0]), -1.0, u[0]]),
            d2H_du2=lambda x, p, u: -np.exp(u)[None],  # W varies: Newton evaluates it at every step
        ),
    )
    u0 = np.log(2.0)
    with pytest.raises(ConvergenceError) as err:
        integrate_pmp(problem, [0.0], [2.0], 0.5, PmpSolverConfig(newton_max_iter=1, rk_step=0.1), u_guess=[u0])
    assert "while stepping from t=0" in str(err.value)
    assert err.value.t == 0.0
    assert np.allclose(err.value.state, [0.05 * u0, 2.05], atol=1e-15)


def scalar_heisenberg(calls=None):
    """The Heisenberg problem written for one point at a time (unmarked callables), recording the shapes of x and u.

    The gradient of H repeats the float operations of the compiled one (see conftest); W = -I is not a
    ``constant``, so Newton evaluates it at every step.
    """

    def one(fn):
        def called(*args):
            if calls is not None:
                calls.append((np.shape(args[0]), np.shape(args[-1])))
            return fn(*args)
        return called

    def control_gradient(x, p, u):
        return [(p[0] + p[2] * (x[1] / -2.0)) - u[0], (p[1] + p[2] * (x[0] / 2.0)) - u[1]]

    def dynamics(x, u):
        return [u[0], u[1], 0.5 * (x[0] * u[1] - x[1] * u[0])]

    return ControlProblem(
        n=3,
        r=2,
        dynamics=one(lambda x, u: np.array(dynamics(x, u))),
        lagrangian=one(lambda x, u: 0.5 * float(u[0] ** 2 + u[1] ** 2)),
        jacobians=ProblemJacobians(
            dH=one(lambda x, p, u: np.array(control_gradient(x, p, u) + [p[2] * (u[1] / 2.0), p[2] * (u[0] / -2.0),
                                                                        0.0] + dynamics(x, u))),
            d2H_du2=one(lambda x, p, u: -np.eye(2)),
        ),
    )


def sequential_pmp(problem, x0, p0, duration, config):
    """The earlier one-member RK4 through the one-point API: every stage, the first included, solves its control."""
    n = problem.n

    def field(y, u_warm):
        u = optimal_feedback(problem, y[:n], y[n:], u_warm, config)
        parts = hamiltonian_partials(problem, PontryaginPoint(y[:n], y[n:], u))
        return np.concatenate([parts.dH_dp, -parts.dH_dx]), u

    times = time_grid(duration, config.rk_step)
    y = np.concatenate([x0, p0])
    u = optimal_feedback(problem, x0, p0, np.zeros(problem.r), config)
    rows, hs = [np.concatenate([y, u])], [pontryagin_hamiltonian(problem, PontryaginPoint(x0, p0, u))]
    for t0, t1 in zip(times[:-1], times[1:]):
        h = t1 - t0
        k1, u1 = field(y, u)
        k2, u2 = field(y + 0.5 * h * k1, u1)
        k3, u3 = field(y + 0.5 * h * k2, u2)
        k4, u4 = field(y + h * k3, u3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = optimal_feedback(problem, y[:n], y[n:], u4, config)
        rows.append(np.concatenate([y, u]))
        hs.append(pontryagin_hamiltonian(problem, PontryaginPoint(y[:n], y[n:], u)))
    return np.array(rows), np.array(hs)


def test_batch_equals_each_member_alone_bit_for_bit(heis_problem):
    config = PmpSolverConfig(rk_step=1e-2)
    x0 = np.array([[0.0, 0.0, 0.0], [0.1, -0.2, 0.3], [1.0, 2.0, -3.0], [0.0, 0.0, 0.0]])
    p0 = np.array([unit_cylinder_costate(theta, k) for theta, k in ((0.0, 1.0), (0.7, 0.5), (2.0, 2.0), (0.3, 0.0))])
    batch = integrate_pmp(heis_problem, x0, p0, 1.0, config)
    assert len(batch) == 4
    for x, p, traj in zip(x0, p0, batch):
        alone = integrate_pmp(heis_problem, x, p, 1.0, config)
        assert isinstance(alone, Trajectory)
        assert np.array_equal(traj.states, alone.states)
        assert set(traj.channels) == set(alone.channels) == {"H", "J1", "J2", "J3", "newton_iters", "stationarity"}
        for name in alone.channels:
            assert np.array_equal(traj.channel(name), alone.channel(name)), name
    # a single row is shared by every member
    shared = integrate_pmp(heis_problem, np.zeros(3), p0[:2], 1.0, config)
    assert np.array_equal(shared[1].states, integrate_pmp(heis_problem, np.zeros(3), p0[1], 1.0, config).states)
    with pytest.raises(DimensionMismatchError):
        integrate_pmp(heis_problem, x0[:3], p0, 1.0, config)


def test_batch_of_one_reproduces_the_sequential_solver(heis_problem):
    config = PmpSolverConfig(rk_step=1e-2)
    x0, p0 = np.array([0.1, -0.2, 0.3]), unit_cylinder_costate(0.4, 1.3)
    rows, hs = sequential_pmp(heis_problem, x0, p0, 2.0, config)
    traj = integrate_pmp(heis_problem, x0, p0, 2.0, config)
    assert np.max(np.abs(traj.states - rows)) <= 1e-13
    assert np.max(np.abs(traj.channel("H") - hs)) <= 1e-13


def test_unmarked_scalar_callables_run_once_per_member(heis_problem):
    """Callables without the ``stacked`` marker get one member's vectors per call and give the same trajectories."""
    calls = []
    config = PmpSolverConfig(rk_step=1e-2)
    p0 = [unit_cylinder_costate(0.2, 1.0), unit_cylinder_costate(1.1, 0.5)]
    scalar = integrate_pmp(scalar_heisenberg(calls), np.zeros(3), p0, 0.5, config)
    assert calls and set(calls) == {((3,), (2,))}
    for traj, builtin in zip(scalar, integrate_pmp(heis_problem, np.zeros(3), p0, 0.5, config)):
        assert np.array_equal(traj.states, builtin.states)
        assert np.array_equal(traj.channel("H"), builtin.channel("H"))
    wrong = dataclasses.replace(scalar_heisenberg(), dynamics=lambda x, u: np.zeros(2))
    with pytest.raises(DimensionMismatchError, match="dynamics returned shape"):
        integrate_pmp(wrong, np.zeros(3), p0, 0.5, config)


def test_solver_channels_record_newton_work(heis_problem):
    config = PmpSolverConfig(rk_step=1e-2)
    traj = integrate_pmp(heis_problem, np.zeros(3), unit_cylinder_costate(0.3, 1.0), 0.5, config)
    iters, stationarity = traj.channel("newton_iters"), traj.channel("stationarity")
    # dH/du is affine in u: the first node takes one update from u = 0, and so does every stage after it
    assert np.array_equal(iters, np.ones(len(traj)))
    assert np.max(stationarity) <= config.newton_tol
    for x, p, u, res in zip(traj.block("x"), traj.block("p"), traj.block("u"), stationarity):
        assert abs(res - np.max(np.abs(consistency_residual(heis_problem, PontryaginPoint(x, p, u))))) <= 1e-15


def test_failing_member_is_named_with_its_time_state_and_residual():
    # phi = p exp(u) has no root unless p = 0: members 0 and 2 converge at once, member 1 never
    problem = ControlProblem(
        n=1, r=1, dynamics=lambda x, u: np.array([np.exp(u[0])]), lagrangian=lambda x, u: 0.0
    )
    with pytest.raises(ConvergenceError) as err:
        integrate_pmp(problem, [0.0], [[0.0], [2.0], [0.0]], 0.5, PmpSolverConfig(newton_max_iter=5, rk_step=0.1))
    assert err.value.member == 1
    assert "member 1 at t=0" in str(err.value)
    assert err.value.t == 0.0
    assert np.array_equal(err.value.state, [0.0, 2.0])
    assert np.isfinite(err.value.residual) and err.value.residual > 0


def test_action_along_geodesic(heis_problem):
    config = PmpSolverConfig(rk_step=1e-3)
    traj = integrate_pmp(heis_problem, np.zeros(3), unit_cylinder_costate(0.3, 1.0), 1.0, config)
    action = lagrange_pontryagin_action(heis_problem, traj)
    # L = |u|^2/2 = 1/2 along the unit cylinder; the pairing term is tiny
    assert abs(action - 0.5) <= 1e-4


def test_action_zero_curve(heis_problem):
    traj = Trajectory(
        times=np.linspace(0.0, 1.0, 11),
        columns=("x1", "x2", "x3", "p1", "p2", "p3", "u1", "u2"),
        states=np.zeros((11, 8)),
    )
    assert lagrange_pontryagin_action(heis_problem, traj) == 0.0


def test_action_sampling_density(heis_problem):
    def action_at(step):
        traj = integrate_pmp(
            heis_problem, np.zeros(3), unit_cylinder_costate(0.0, 1.0), 1.0,
            PmpSolverConfig(rk_step=step),
        )
        return lagrange_pontryagin_action(heis_problem, traj)

    coarse, fine = action_at(2e-2), action_at(1e-2)
    assert abs(coarse - fine) <= 10.0 * (2e-2) ** 2


def test_action_needs_two_samples(heis_problem, default_config):
    traj = integrate_pmp(heis_problem, np.zeros(3), [1.0, 0.0, 1.0], 0.0, default_config)
    with pytest.raises(TrajectoryFormatError):
        lagrange_pontryagin_action(heis_problem, traj)


def test_action_of_a_non_finite_integrand_is_an_evaluation_error():
    """The action evaluates f and L through the same finite-value checks as every other path."""
    problem = ControlProblem(n=1, r=1, dynamics=lambda x, u: np.sqrt(x - 1.0), lagrangian=lambda x, u: 0.0)
    states = [[0.0, 1.0, 0.0], [0.5, 1.0, 0.0], [1.0, 1.0, 0.0]]  # x1 in [0, 1], where sqrt(x1 - 1) is NaN
    traj = Trajectory(times=[0.0, 0.5, 1.0], columns=("x1", "p1", "u1"), states=states)
    with np.errstate(invalid="ignore"), pytest.raises(EvaluationError, match="dynamics"):
        lagrange_pontryagin_action(problem, traj)
    costly = ControlProblem(n=1, r=1, dynamics=lambda x, u: u, lagrangian=lambda x, u: np.log(x[0] - 0.5))
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(EvaluationError, match="Lagrangian"):
        lagrange_pontryagin_action(costly, traj)


def test_momentum_map_values(heis_problem):
    # at the identity-chart origin the generators reduce to the basis vectors
    p = np.array([0.4, -1.1, 2.2])
    assert np.allclose(momentum_map(heis_problem, np.zeros(3), p).coeffs, p)
    assert np.allclose(momentum_map(heis_problem, [1.0, 2.0, 3.0], np.zeros(3)).coeffs, 0.0)


def test_momentum_map_takes_all_generators_from_one_stacked_call(heis_problem):
    """The handle gets the identity and the basis sum, one element per row; a handle returning one vector is refused."""
    from pontrylie.ocp import SymmetryHandle

    calls = []

    def action(xi, x):
        calls.append(np.shape(xi))
        return heis_problem.symmetry.infinitesimal_action(xi, x)

    handle = SymmetryHandle(algebra=heis_problem.symmetry.algebra, infinitesimal_action=action)
    problem = dataclasses.replace(heis_problem, symmetry=handle)
    x, p = np.array([0.2, -0.4, 1.0]), np.array([1.0, 2.0, 3.0])
    assert np.array_equal(momentum_map(problem, x, p).coeffs, momentum_map(heis_problem, x, p).coeffs)
    assert calls == [(4, 3)]
    single = SymmetryHandle(algebra=problem.symmetry.algebra, infinitesimal_action=lambda xi, x: np.zeros(3))
    with pytest.raises(DimensionMismatchError, match="generators"):
        momentum_map(dataclasses.replace(problem, symmetry=single), x, p)


def test_momentum_map_refuses_a_handle_written_for_one_algebra_vector(heis_problem):
    """The deleted single-vector Heisenberg formula, handed the identity, returned the transpose of the generators."""
    from pontrylie.ocp import SymmetryHandle

    def one_vector(xi, q):
        return np.array([xi[0], xi[1], xi[2] + 0.5 * (xi[0] * q[1] - xi[1] * q[0])])

    x, p = np.array([0.3, -0.7, 0.2]), np.array([1.0, 2.0, 3.0])
    assert np.allclose(one_vector(np.eye(3), x) @ p, [1.0, 2.0, 2.35])  # what the identity alone let through
    assert np.allclose(momentum_map(heis_problem, x, p).coeffs, [-0.05, 1.55, 3.0], rtol=0, atol=1e-15)
    algebra = heis_problem.symmetry.algebra

    def combination(xi, q):  # sum_i xi_i (e_i)_P for one vector: the stack's fourth row has no generator
        return sum(xi[i] * one_vector(np.eye(3), q).T[i] for i in range(len(xi)))

    for action, match in ((one_vector, "shape"), (combination, "cannot take a stack")):
        handle = SymmetryHandle(algebra=algebra, infinitesimal_action=action)
        with pytest.raises(DimensionMismatchError, match=match):
            momentum_map(dataclasses.replace(heis_problem, symmetry=handle), x, p)
    # the right shape, but the sum's generator is not the sum of the basis generators
    nonlinear = SymmetryHandle(algebra=algebra, infinitesimal_action=lambda xi, q: np.asarray(xi) ** 2 + q)
    with pytest.raises(DimensionMismatchError, match="sum"):
        momentum_map(dataclasses.replace(heis_problem, symmetry=nonlinear), x, p)


def test_momentum_map_requires_symmetry():
    problem = ControlProblem(n=1, r=0, dynamics=lambda x, u: -x, lagrangian=lambda x, u: 0.0)
    with pytest.raises(PontrylieError):
        momentum_map(problem, [0.0], [1.0])


def test_dirac_membership_residuals_small(heis_problem):
    config = PmpSolverConfig(rk_step=5e-3)
    traj = integrate_pmp(heis_problem, np.zeros(3), [0.8, 0.6, -0.5], 2.0, config)
    residuals = dirac_membership_residuals(heis_problem, traj)
    assert residuals.shape == (len(traj),)
    assert np.max(residuals) <= 1e-10


def test_time_grid_edges():
    assert np.array_equal(time_grid(0.0, 0.1), [0.0])
    grid = time_grid(0.05, 0.1)  # duration shorter than one step
    assert np.allclose(grid, [0.0, 0.05])
    grid = time_grid(6.2832, 1e-3)  # non-divisible duration closes with a partial step
    assert grid[-1] == 6.2832
    assert len(grid) == 6285
    with pytest.raises(DimensionMismatchError):
        time_grid(-1.0, 0.1)
    with pytest.raises(DimensionMismatchError):
        time_grid(1.0, 0.0)


@pytest.mark.parametrize("duration, step, name", [
    (np.inf, 0.1, "duration"), (np.nan, 0.1, "duration"), (1.0, np.inf, "step"), (1.0, np.nan, "step"),
])
def test_time_grid_rejects_non_finite_values(duration, step, name):
    with pytest.raises(DimensionMismatchError, match=f"{name} must be finite"):
        time_grid(duration, step)


@pytest.mark.parametrize("duration, step, nodes", [
    (1.0, 1e-300, "1e+300"), (1e300, 1e-300, "inf"), (1e10, 1e-9, "1e+19"),
])
def test_a_grid_beyond_numpys_index_range_names_duration_step_and_nodes(duration, step, nodes):
    """Refused before any allocation: the node count exceeds the largest NumPy index."""
    message = f"duration {duration} / step {step} needs {nodes} grid nodes"
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        time_grid(duration, step)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["newton_tol", "rk_step"])
def test_solver_config_rejects_non_finite_values(name, bad):
    with pytest.raises(DimensionMismatchError, match=f"{name} must be positive and finite"):
        PmpSolverConfig(**{name: bad})


def test_trajectory_roundtrip(tmp_path, heis_problem, default_config):
    traj = integrate_pmp(heis_problem, np.zeros(3), [1.0, 0.0, 1.0], 0.02, default_config)
    csv_path = tmp_path / "traj.csv"
    json_path = tmp_path / "traj.json"
    traj.to_csv(csv_path)
    traj.to_json(json_path)
    back_csv = Trajectory.from_csv(csv_path)
    back_json = Trajectory.from_json(json_path)
    for back in (back_csv, back_json):
        assert back.columns == traj.columns
        assert np.array_equal(back.states, traj.states)
        assert np.array_equal(back.times, traj.times)
        assert set(back.channels) == set(traj.channels)
        assert np.array_equal(back.channel("H"), traj.channel("H"))


def test_trajectory_validation():
    with pytest.raises(TrajectoryFormatError):
        Trajectory(times=[0.0, 0.0], columns=("x1",), states=np.zeros((2, 1)))
    with pytest.raises(TrajectoryFormatError):
        Trajectory(times=[0.0, 1.0], columns=("x1", "x2"), states=np.zeros((2, 1)))
    with pytest.raises(TrajectoryFormatError):
        Trajectory(
            times=[0.0, 1.0],
            columns=("x1",),
            states=np.zeros((2, 1)),
            channels={"H": np.zeros(3)},
        )
    with pytest.raises(TrajectoryFormatError):
        Trajectory(
            times=[0.0, 1.0],
            columns=("x1",),
            states=np.zeros((2, 1)),
            channels={"x1": np.zeros(2)},
        )


def test_trajectory_block_orders_numerically():
    columns = tuple(f"x{i}" for i in (2, 10, 1))
    states = np.array([[2.0, 10.0, 1.0]])
    traj = Trajectory(times=[0.0], columns=columns, states=states)
    assert np.array_equal(traj.block("x")[0], [1.0, 2.0, 10.0])


@pytest.mark.parametrize(
    ("body", "line"),
    [("0,1,2\r\n1,2\r\n", 3), ("0,1\r\n1,2\r\n", 2)],
)
def test_trajectory_csv_rows_must_match_the_header(tmp_path, body, line):
    path = tmp_path / "ragged.csv"
    path.write_text("t,x1,p1\r\n" + body, newline="")
    with pytest.raises(TrajectoryFormatError) as err:
        Trajectory.from_csv(path)
    assert str(path) in str(err.value)
    assert f"line {line} has 2 cells, the header 3" in str(err.value)


def test_trajectory_blocks_name_a_missing_or_mis_sized_block():
    traj = Trajectory(times=[0.0, 1.0], columns=("x1", "x2", "u1"), states=np.arange(6.0).reshape(2, 3))
    x, u, p = traj.blocks(x=2, u=1, p=0)
    assert np.array_equal(x, traj.states[:, :2]) and np.array_equal(u, traj.states[:, 2:])
    assert p.shape == (2, 0)
    with pytest.raises(TrajectoryFormatError, match="'u' columns, the problem needs 2"):
        traj.blocks(x=2, u=2)
    with pytest.raises(TrajectoryFormatError, match="0 'mu' columns"):
        traj.blocks(mu=3)
    gap = Trajectory(times=[0.0], columns=("u1", "u3"), states=[[1.0, 2.0]])
    with pytest.raises(TrajectoryFormatError, match="2 'u' columns, the problem needs 2, numbered from 1"):
        gap.blocks(u=2)
