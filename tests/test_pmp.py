"""Feedback solver, Hamilton-equation integration, conservation, action functional."""

import collections
import dataclasses
import gc
import io
import json
import math
import re
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG, count_float_solves, counting, hamiltonian, heisenberg_oracle_problem, wrap_float_sweeps
from pontrylie.errors import (
    ConvergenceError,
    DimensionMismatchError,
    EvaluationError,
    PontrylieError,
    RegularityError,
    TrajectoryFormatError,
)
from pontrylie.expr import ExprEvaluationError, load_problem
from pontrylie import pmp
from pontrylie.heisenberg import (
    PROBLEM_JSON,
    full_state_closed_form,
    unit_cylinder_costate,
)
from pontrylie.ocp import RANK_TOL, ControlProblem, PontryaginPoint, ProblemJacobians, _newton, constant
from pontrylie.ocp import hamiltonian_partials, stacked
from pontrylie.pmp import (
    PmpSolverConfig,
    Trajectory,
    dirac_membership_residuals,
    integrate_pmp,
    lagrange_pontryagin_action,
    momentum_map,
    optimal_feedback,
    time_grid,
)

TWO_PI = 2.0 * np.pi


def body_momentum(problem, x, p):
    return np.asarray(problem.symmetry.body_frame(x), dtype=float).T @ p


def newton_feedback(problem, x, p, u_guess, config):
    return _newton(problem.view, x, p, u_guess, config)[:3]


def degenerate_problem():
    """L and f both linear in u: the control Hessian vanishes identically (W = 0, given per member)."""
    return ControlProblem(
        n=2,
        r=2,
        dynamics=lambda x, u: np.array([u[0] + x[0], u[1]]),
        lagrangian=lambda x, u: u[0] + u[1],
        jacobians=ProblemJacobians(dH=lambda x, p, u: np.array([p[0] - 1.0, p[1] - 1.0, p[0], 0.0, u[0] + x[0], u[1]]),
                                   d2H_du2=lambda x, p, u: np.zeros((2, 2))),
    )


def rootless_problem():
    """H = p exp(u), L = 0: dH/du = p exp(u) has no root unless p = 0, and W = p exp(u)."""
    return ControlProblem(
        n=1, r=1, dynamics=lambda x, u: np.array([np.exp(u[0])]), lagrangian=lambda x, u: 0.0,
        jacobians=ProblemJacobians(dH=lambda x, p, u: np.array([p[0] * np.exp(u[0]), 0.0, np.exp(u[0])]),
                                   d2H_du2=lambda x, p, u: np.array([[p[0] * np.exp(u[0])]])),
    )


def is_regular(problem, point):
    """The smallest singular value of W = d2H/du2 at ``point`` is above ``ocp.RANK_TOL``; vacuously so without
    controls, where W is (0, 0)."""
    w = hamiltonian_partials(problem, point).d2H_du2
    assert w.shape == (problem.r, problem.r)
    return problem.r == 0 or bool(np.linalg.svd(w, compute_uv=False)[-1] > RANK_TOL)


def test_consistency_residual_vanishes_at_feedback(heis_problem):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, p = rng.normal(size=(2, 3))
        u = body_momentum(heis_problem, x, p)[:2]  # u_a = <lambda, Gamma_a>
        res = hamiltonian_partials(heis_problem, PontryaginPoint(x, p, u)).dH_du
        assert np.max(np.abs(res)) <= 1e-12


def test_consistency_residual_zero_costate(heis_problem):
    res = hamiltonian_partials(heis_problem, PontryaginPoint(np.zeros(3), np.zeros(3), [1.0, 1.0])).dH_du
    assert np.allclose(res, [-1.0, -1.0])


def test_consistency_residual_at_newton_point(heis_problem, default_config):
    x = np.array([0.3, -0.7, 2.0])
    p = np.array([1.0, 0.5, -0.25])
    u = optimal_feedback(heis_problem, x, p, np.zeros(2), default_config)
    res = hamiltonian_partials(heis_problem, PontryaginPoint(x, p, u)).dH_du
    assert np.max(np.abs(res)) <= default_config.newton_tol


def test_regularity_heisenberg(heis_problem):
    rng = np.random.default_rng(1)
    for _ in range(5):
        pt = PontryaginPoint(rng.normal(size=3), rng.normal(size=3), rng.normal(size=2))
        assert is_regular(heis_problem, pt)


def test_regularity_degenerate_problem():
    pt = PontryaginPoint([0.1, 0.2], [1.0, -1.0], [0.3, 0.4])
    assert not is_regular(degenerate_problem(), pt)


def test_regularity_no_controls():
    problem = ControlProblem(n=1, r=0, dynamics=lambda x, u: -x, lagrangian=lambda x, u: 0.0,
                             jacobians=ProblemJacobians(dH=lambda x, p, u: np.array([-p[0], -x[0]]),
                                                        d2H_du2=lambda x, p, u: np.zeros((0, 0))))
    assert is_regular(problem, PontryaginPoint([1.0], [1.0], []))


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
    problem = rootless_problem()
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
        jacobians=ProblemJacobians(dH=lambda x, p, u: np.array([p[0] - u[0], np.nan, u[0]]),
                                   d2H_du2=constant(-np.eye(1))),
    )
    with pytest.raises(EvaluationError, match="non-finite Hamiltonian partial") as err:
        integrate_pmp(problem, [0.5], [2.0], 0.1, default_config)
    x, p, u = err.value.point
    assert (x.tolist(), p.tolist(), u.tolist()) == ([0.5], [2.0], [2.0])


def test_a_math_error_of_an_unmarked_callable_is_an_evaluation_error_at_its_point(default_config):
    """An unmarked dynamics taking math.sqrt of a negative number raises EvaluationError (exit 2) at the
    member's arguments, where H's terms are evaluated at stored points (the action) and inside an integration."""
    def dH(x, p, u):
        if x[0] <= 1.0:  # off the domain, where an integration calls the dynamics before it reads any entry
            return np.full(3, np.nan)
        root = math.sqrt(x[0] - 1.0)
        return np.array([p[0] - u[0], 0.5 * p[0] / root, root + u[0]])

    problem = ControlProblem(n=1, r=1, dynamics=lambda x, u: np.array([math.sqrt(x[0] - 1.0) + u[0]]),
                             lagrangian=lambda x, u: 0.5 * float(u[0] ** 2),
                             jacobians=ProblemJacobians(dH=dH, d2H_du2=constant(-np.eye(1))))
    stored = Trajectory([0.0, 0.1, 0.2], ("x1", "p1", "u1"), [[0.0, 1.0, 0.5]] * 3)
    with pytest.raises(EvaluationError, match="dynamics failed: math domain error") as err:
        lagrange_pontryagin_action(problem, stored)
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
    """(iterations, residual) of the Newton solves made through ``pmp``: arrays of every solve from ``_newton``,
    which solves stacks only, and Python numbers of every node from the generated sweep (``expr.float_stage``),
    which solves the float sweep's members (the most iterations of the node's step, and the node's residual)."""
    calls = []

    def spy(solve):
        def spied(*args):
            result = solve(*args)
            calls.append(result[1:3])
            return result

        return spied

    def spy_sweep(sweep, source):
        def spied(*args):
            result = sweep(*args)
            calls.extend(zip(*result[3:]))
            return result

        return spied

    monkeypatch.setattr(pmp, "_newton", spy(_newton))
    wrap_float_sweeps(monkeypatch, spy_sweep)
    return calls


def branches(calls):
    """The set of ``calls``' (iterations, residual) types, emptying ``calls``."""
    kinds = {tuple(type(v) for v in call) for call in calls}
    calls.clear()
    return kinds


def test_one_member_gives_its_batch_bits_with_an_off_diagonal_w(monkeypatch, newton_calls):
    """Alone, a member takes the float sweep and gives the bits it has in a batch on the NumPy sweep (every batch,
    here), full and reduced."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    monkeypatch.setattr(pmp, "_FLOAT_MEMBERS", 1)
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


def curved_base(value):
    """The README file with its reduced block on a two-dimensional base, z_dot = (u2, u1), whose structure function
    C^3_12(z) is ``value`` and whose cost reads z."""
    data = json.loads(PROBLEM_JSON)
    data["reduced"].update(s=2, base_dynamics=["u2", "u1"], base_structure=[[0, 1, 2, value]],
                           lagrangian="0.5*(u1^2 + u2^2) + 0.1*z1*z2")
    return data


@pytest.mark.parametrize("data", [
    {"n": 2, "r": 0, "dynamics": ["x2", "-x1"], "lagrangian": "0.5*x1^2"},
    {"n": 2, "r": 2, "dynamics": ["u1", "u2"], "lagrangian": "0.5*(u1^2 + u2^2) + 0.1*x1*x2"},
    curved_base("1 + 0.5*z1"),
    curved_base("sqrt(4 + z1^2)"),
], ids=["no-control", "dynamics-are-the-controls", "base-structure", "guarded-base-structure"])
def test_a_generated_stage_gives_a_member_its_batch_bits(monkeypatch, newton_calls, data):
    """The float stage's edge cases: r = 0 (no Newton step), F = u (its dH entries are the controls themselves,
    and the dynamics a copy of them) and a reduced view with s > 0 and a structure function (its bracket lines,
    in a ``try`` when guarded).  Alone, each member runs the stage and gives the bits it has in a batch on the
    NumPy sweep (every batch, here)."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    monkeypatch.setattr(pmp, "_FLOAT_MEMBERS", 1)
    problem, reduced = load_problem(data, "edge", "test")
    config = PmpSolverConfig(rk_step=1e-2)
    rng = np.random.default_rng(3)
    if reduced is None:
        n, r = problem.n, problem.r
        x0, p0 = rng.uniform(-1.0, 1.0, (3, n)), rng.uniform(-1.0, 1.0, (3, n))
        if r:
            assert np.array_equal(problem.dynamics(x0, np.ones((3, r))), np.ones((3, r)))

        def integrate(*i):
            return integrate_pmp(problem, x0[i] if i else x0, p0[i] if i else p0, 1.0, config)
    else:
        states = [ReducedState(*rng.uniform(-1.0, 1.0, (2, 2)), rng.uniform(-1.0, 1.0, 3), np.zeros(2))
                  for _ in range(3)]

        def integrate(*i):
            return integrate_reduced(reduced, states[i[0]] if i else states, 1.0, config)

    together = integrate()
    assert branches(newton_calls) == {(np.ndarray, np.ndarray)}
    for i, member in enumerate(together):
        single = integrate(i)
        assert branches(newton_calls) == {(int, float)}
        assert np.array_equal(member.states, single.states)
        assert member.channels.keys() == single.channels.keys()
        for name in single.channels:
            assert np.array_equal(member.channel(name), single.channel(name)), name


def test_a_bracket_failing_only_at_the_last_node_leaves_the_trajectory():
    """No step reads the vector field of the last node, so it is not computed.  A reduced block on the base
    z = (sin t, cos t), z_dot = (z2, -z1), whose structure function sqrt(0.841 - z1) fails past z1 = 0.841: only the
    last node, at sin 1, gets there (the fourth RK4 stage of the last step, at 0.8404, stays below it, where with
    z_dot = 1 it would land on the last node).  The trajectory comes back, alone (the generated sweep) and as member
    0 of a batch (the NumPy sweep), with the same bits."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    data = json.loads(PROBLEM_JSON)
    data["reduced"].update(s=2, base_dynamics=["z2", "-z1"], base_structure=[[0, 1, 2, "sqrt(0.841 - z1)"]])
    reduced = load_problem(data, "edge", "test")[1]
    states = [ReducedState(np.array([0.0, z2]), np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2))
              for z2 in (1.0, 0.5)]
    config = PmpSolverConfig(rk_step=0.25)
    alone, together = (integrate_reduced(reduced, start, 1.0, config) for start in (states[0], states))
    assert alone.states[-2, 0] < 0.841 < alone.states[-1, 0]
    with pytest.raises(ExprEvaluationError, match="sqrt of negative value"):  # the bracket's form at the last node
        reduced.view.form(alone.states[-1:, :2], alone.states[-1:, 2:7])
    assert np.array_equal(together[0].states, alone.states)
    assert together[0].channels.keys() == alone.channels.keys()
    for name in alone.channels:
        assert np.array_equal(together[0].channel(name), alone.channel(name)), name


SWEPT_CASES = ["full builtin", "reduced builtin", "full skewed", "reduced skewed"]


def integrate_case(case, rows, duration, config):
    """Integrate the view ``case`` of SWEPT_CASES (the full or reduced builtin, or of ``skewed_problems``) from
    ``rows``: one row (x0, p0, u_guess) of a full member or (mu0, u_guess) of a reduced one, or a stack of rows."""
    from pontrylie.heisenberg import heisenberg_problem, heisenberg_reduced_problem
    from pontrylie.reduction import ReducedState, integrate_reduced

    kind, source = case.split()
    problem = (skewed_problems() if source == "skewed" else (heisenberg_problem(), heisenberg_reduced_problem()))[
        kind == "reduced"]
    assert problem.view.stage() is not None
    if kind == "full":
        return integrate_pmp(problem, rows[..., :3], rows[..., 3:6], duration, config, rows[..., 6:])
    states = [ReducedState(np.zeros(0), np.zeros(0), row[:3], row[3:5]) for row in np.atleast_2d(rows)]
    return integrate_reduced(problem, states if rows.ndim == 2 else states[0], duration, config)


def assert_same_bits(a, b):
    """The trajectories ``a`` and ``b`` have the same rows and channels, bit for bit."""
    assert np.array_equal(a.states, b.states)
    assert a.channels.keys() == b.channels.keys()
    for name in a.channels:
        assert np.array_equal(a.channel(name), b.channel(name)), name


def partial_step(steps, fraction):
    """The config of step 0.05 and a duration of ``steps`` steps and ``fraction`` of one: its last step is partial,
    and the sweeps take it with its own h."""
    config = PmpSolverConfig(rk_step=0.05)
    duration = (steps + fraction) * config.rk_step
    assert 0.0 < np.diff(time_grid(duration, config.rk_step))[-1] < config.rk_step
    return duration, config


@pytest.mark.parametrize("case", SWEPT_CASES)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(row=st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8), steps=st.integers(0, 5),
       fraction=st.floats(0.05, 0.95))
def test_a_member_alone_through_the_generated_sweep_gives_its_batch_bits(case, row, steps, fraction):
    """A random member, alone through its view's generated sweep, gives the rows and channels it has in a batch of
    ``_FLOAT_MEMBERS + 1`` (the NumPy sweep) over a duration that ends in a partial step: the full and reduced
    builtin, and the README file with the non-diagonal W of ``skewed_problems`` (a Newton step by
    ``_w_inverse.dot``)."""
    duration, config = partial_step(steps, fraction)
    rows = np.array([row[::(-1) ** i] for i in range(pmp._FLOAT_MEMBERS + 1)])
    assert_same_bits(integrate_case(case, rows, duration, config)[0], integrate_case(case, rows[0], duration, config))


@pytest.mark.parametrize("case", SWEPT_CASES)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.lists(st.floats(-1.5, 1.5), min_size=8, max_size=8), min_size=2, max_size=16),
       steps=st.integers(0, 5), fraction=st.floats(0.05, 0.95))
def test_a_small_batch_gives_each_member_its_bits_in_a_stack(case, rows, steps, fraction):
    """A batch of 2 to ``_FLOAT_MEMBERS`` random members runs the generated sweep member by member, with no stack
    solve, and gives each member the rows and channels it has in a batch of ``_FLOAT_MEMBERS + 1`` (the NumPy sweep;
    the same members, then copies of the first), over a duration that ends in a partial step."""
    duration, config = partial_step(steps, fraction)
    rows = np.array(rows)
    assert 2 <= len(rows) <= pmp._FLOAT_MEMBERS
    with mock.patch.object(pmp, "_newton", wraps=_newton) as newton:
        small = integrate_case(case, rows, duration, config)
    assert not newton.called
    padded = np.concatenate([rows, np.tile(rows[:1], (pmp._FLOAT_MEMBERS + 1 - len(rows), 1))])
    stack = integrate_case(case, padded, duration, config)
    assert len(small) == len(rows)
    for member, in_stack in zip(small, stack):
        assert_same_bits(member, in_stack)


def spy_stage_compiles(monkeypatch):
    """(views whose ``expr.float_stage`` was called, file names ``expr`` compiled) from now on."""
    from pontrylie import expr

    compiled, compile_stage, compiles = [], expr.float_stage, []
    monkeypatch.setattr(expr, "float_stage", lambda ham: compiled.append(ham) or compile_stage(ham))
    monkeypatch.setattr(expr, "compile", lambda *args: compiles.append(args[1]) or compile(*args), raising=False)
    return compiled, compiles


def test_a_view_compiles_its_float_stage_once_and_only_to_sweep_a_small_batch(monkeypatch):
    """A view compiles its generated sweep at its first integration of at most ``_FLOAT_MEMBERS`` members (here one),
    in one ``compile()``, and never again; a batch of ``_FLOAT_MEMBERS + 1``, a point solve and a Dirac scan compile
    none.  The sweep is one function: every solve is written out in it, so it calls no generated code."""
    from pontrylie.reduction import ReducedState, integrate_reduced, reduced_dirac_residuals

    compiled, compiles = spy_stage_compiles(monkeypatch)
    problem, reduced = load_problem(json.loads(PROBLEM_JSON), "heisenberg", "test")
    config = PmpSolverConfig(rk_step=1e-2)
    p0 = np.array([unit_cylinder_costate(theta, 1.0) for theta in np.linspace(0.0, 0.5, pmp._FLOAT_MEMBERS + 1)])
    states = [ReducedState(np.zeros(0), np.zeros(0), mu0, np.zeros(2)) for mu0 in p0]
    batch = integrate_pmp(problem, np.zeros(3), p0, 0.1, config), integrate_reduced(reduced, states, 0.1, config)
    dirac_membership_residuals(problem, batch[0][0]), reduced_dirac_residuals(reduced, batch[1][0])
    optimal_feedback(problem, np.zeros(3), p0[0], np.zeros(2))
    assert compiled == [] and "<pontrylie.expr stage>" not in compiles
    compiles.clear()
    for _ in range(2):
        integrate_pmp(problem, np.zeros(3), p0[0], 0.1, config), integrate_reduced(reduced, states[0], 0.1, config)
    assert [ham.dH for ham in compiled] == [problem.view.dH, reduced.view.dH]
    assert compiles == ["<pontrylie.expr stage>"] * 2
    for view in (problem.view, reduced.view):
        sweep = view.stage()
        assert sweep is view.stage() and sweep.__code__.co_filename == "<pontrylie.expr stage>"
        assert not [const for const in sweep.__code__.co_consts if isinstance(const, types.CodeType)]


def test_a_views_generated_sweep_dies_with_its_problem():
    """A view holds its generated sweep (``ControlledHamiltonian.stage``) and nothing else does: once a loaded problem
    that has integrated, full or reduced, is dropped, its view's sweep and compiled dH are collected."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    problem, reduced = load_problem(json.loads(PROBLEM_JSON), "heisenberg", "test")
    config, mu0 = PmpSolverConfig(rk_step=1e-2), unit_cylinder_costate(0.3, 1.0)
    integrate_pmp(problem, np.zeros(3), mu0, 0.05, config)
    integrate_reduced(reduced, ReducedState(np.zeros(0), np.zeros(0), mu0, np.zeros(2)), 0.05, config)
    held = [weakref.ref(fn) for view in (problem.view, reduced.view) for fn in (view.stage(), view.dH)]
    assert all(ref() is not None for ref in held)
    del problem, reduced
    gc.collect()
    assert [ref() for ref in held] == [None] * 4


def test_a_small_batch_compiles_its_views_code_once_and_a_larger_one_none(monkeypatch):
    """A batch of 2 to ``_FLOAT_MEMBERS`` members compiles its view's generated sweep once, at its first integration;
    a second small batch and a batch of ``_FLOAT_MEMBERS + 1`` compile nothing."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    problem, reduced = load_problem(json.loads(PROBLEM_JSON), "heisenberg", "test")
    problem.view, reduced.view  # compiles the views' tables
    compiled, compiles = spy_stage_compiles(monkeypatch)
    config = PmpSolverConfig(rk_step=1e-2)
    p0 = np.array([unit_cylinder_costate(theta, 1.0) for theta in np.linspace(0.0, 0.5, pmp._FLOAT_MEMBERS + 1)])
    states = [ReducedState(np.zeros(0), np.zeros(0), mu0, np.zeros(2)) for mu0 in p0]
    for members in (2, pmp._FLOAT_MEMBERS):
        integrate_pmp(problem, np.zeros(3), p0[:members], 0.1, config)
        integrate_reduced(reduced, states[:members], 0.1, config)
    assert [ham.dH for ham in compiled] == [problem.view.dH, reduced.view.dH]
    assert compiles == ["<pontrylie.expr stage>"] * 2
    compiled.clear(), compiles.clear()
    integrate_pmp(problem, np.zeros(3), p0, 0.1, config), integrate_reduced(reduced, states, 0.1, config)
    assert compiled == compiles == []


@pytest.mark.parametrize("lagrangian, kind", [
    ("0.5*u1^2 - u1*sqrt(1 - x1)", ExprEvaluationError),  # dH/du, a guarded table, once x1 passes 1
    ("0.5*u1^2 - u1*(x2*1e154)^2/1e308", EvaluationError),  # dH overflows to inf once x2 passes about 0.64
    ("0.5*u1^2 + 1.7e308 + 1e307*x2", EvaluationError),  # L overflows to inf once x2 passes about 0.97
])
@pytest.mark.parametrize("x0, failing", [
    ([[-5.0, -0.5], [0.95, 0.5], [-5.0, -0.5]], [1]),
    ([[-5.0, -0.5], [0.5, 0.2], [0.95, 0.5]], [2, 1]),  # member 2 fails first
], ids=["one-failing-member", "two-failing-members"])
def test_a_failing_small_batch_raises_the_error_of_the_numpy_sweep(monkeypatch, lagrangian, kind, x0, failing):
    """A problem file (x1_dot = u1, x2_dot = 1) whose batch of three has a failing member other than 0, or two that
    fail at different times.  The float sweep fails on a member, and the batch raises the type, message, time,
    member, state, residual and point of the NumPy sweep, the ones a batch of ``_FLOAT_MEMBERS + 1`` raises (the
    same members, then copies of member 0): at the earliest failure's time, which the float sweep, member by member,
    may not reach first."""
    problem = load_problem({"n": 2, "r": 1, "dynamics": ["u1", "1"], "lagrangian": lagrangian}, "f", "test")[0]
    calls = collections.Counter()
    count_float_solves(monkeypatch, calls)
    config = PmpSolverConfig(rk_step=0.01)
    failures, swept = [], []
    for rows in (x0, x0 + x0[:1] * (pmp._FLOAT_MEMBERS + 1 - len(x0)), [x0[failing[0]]], [x0[failing[-1]]]):
        calls.clear()
        with pytest.raises(kind) as err:
            integrate_pmp(problem, rows, [[1.0, 0.0]] * len(rows), 1.0, config)
        failures.append(failure_fields(err.value))
        swept.append(calls["float solves"])
    small, stack, first, last = failures
    assert swept[0] > 0 and swept[1] == 0
    assert small == stack
    assert small[3] == failing[0]
    assert small[2] == first[2] > 0.0 and (len(failing) == 1 or first[2] < last[2])


def test_a_hand_written_numpy_problem_runs_the_numpy_sweep(newton_calls):
    """A problem of hand-written NumPy callables (``conftest.heisenberg_oracle_problem``) has no generated stage: a
    small batch and one member run the NumPy sweep, and give the bits of the README file's generated sweep."""
    problem, heis_problem = heisenberg_oracle_problem(), load_problem(json.loads(PROBLEM_JSON), "heisenberg", "test")[0]
    assert problem.view.stage() is None
    config = PmpSolverConfig(rk_step=1e-2)
    p0 = np.array([unit_cylinder_costate(theta, k) for theta, k in ((0.0, 1.0), (0.7, 0.5), (2.0, 2.0))])
    for start in (p0, p0[1]):
        oracle = integrate_pmp(problem, np.zeros(3), start, 0.5, config)
        assert branches(newton_calls) == {(np.ndarray, np.ndarray)}
        builtin = integrate_pmp(heis_problem, np.zeros(3), start, 0.5, config)
        assert branches(newton_calls) == {(int, float)}
        for a, b in zip(np.atleast_1d(oracle), np.atleast_1d(builtin)):
            assert np.array_equal(a.states, b.states) and np.array_equal(a.channel("H"), b.channel("H"))


def test_a_compiled_table_failure_names_its_time_and_a_lone_member():
    """A guarded table's ExprEvaluationError is re-raised at its grid time: the README file on the base z1 = t + z1(0),
    whose structure function 1/(z1 - 1) divides by zero at the fourth stage of the last step (step 0.25, T = 1) from
    z1(0) = 0, and never from z1(0) = -0.1.  It keeps its type, message and offset, and names the failing member:
    0 alone, and 1 in a batch (small, or on the NumPy sweep) whose member 0 starts at -0.1, the index the stack's
    table walker gives."""
    from pontrylie.reduction import ReducedState, integrate_reduced

    data = json.loads(PROBLEM_JSON)
    data["reduced"].update(s=2, base_dynamics=["1", "0"], base_structure=[[0, 1, 2, "1/(z1 - 1)"]])
    reduced = load_problem(data, "edge", "test")[1]
    states = [ReducedState(np.zeros(2), np.zeros(2), np.array([1.0, 0.0, k]), np.zeros(2))
              for k in np.linspace(0.5, 1.5, pmp._FLOAT_MEMBERS + 1)]
    spared = [dataclasses.replace(states[0], z=np.array([-0.1, 0.0]))]
    integrate_reduced(reduced, spared[0], 1.0, PmpSolverConfig(rk_step=0.25))
    for start, member in ((states[0], 0), (spared + states[1:2], 1), (spared + states[1:], 1)):
        with pytest.raises(ExprEvaluationError) as err:
            integrate_reduced(reduced, start, 1.0, PmpSolverConfig(rk_step=0.25))
        named = "" if member is None else f"member {member} "
        assert str(err.value) == f"division by zero (at offset 1) ({named}while stepping from t=0.75)"
        assert err.value.pos == 1 and err.value.t == 0.75 and err.value.member == member


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
    """Member 0 crosses x = 1 mid-run and fails there; the other two stay at x = -5.  Alone (a NumPy problem, so
    not on the float sweep) it fails with the type, message, residual, member, time, state and point it has in
    the batch."""
    config = PmpSolverConfig(rk_step=0.01, newton_max_iter=2)
    failures = []
    for x0, p0 in (([[0.95], [-5.0], [-5.0]], [[1.0], [1.0], [0.5]]), ([0.95], [1.0])):
        with pytest.raises(kind, match=message) as err:
            integrate_pmp(problem, x0, p0, 0.5, config)
        failures.append(err.value)
    assert branches(newton_calls) == {(np.ndarray, np.ndarray)}
    together, alone = failures
    assert str(together) == str(alone) and "member 0 while stepping from t=0.0" in str(alone)
    assert together.member == alone.member == 0 and together.t == alone.t > 0.0
    for name in ("residual", "state", "point"):
        assert np.array_equal(getattr(together, name, None), getattr(alone, name, None)), name


def failure_fields(err):
    """Type, message, t, member, state, residual, point and offset ``pos`` of ``err`` (None where it has none),
    arrays as lists."""
    state, residual, point = (getattr(err, name, None) for name in ("state", "residual", "point"))
    return (type(err), str(err), getattr(err, "t", None), getattr(err, "member", None),
            None if state is None else state.tolist(), residual,
            None if point is None else [np.asarray(v).tolist() for v in point], getattr(err, "pos", None))


@pytest.mark.parametrize("lagrangian, kind, message", [
    # dH/du reads sqrt(1 - x1), a guarded table, once x1 passes 1
    ("0.5*u1^2 - u1*sqrt(1 - x1)", ExprEvaluationError, r"sqrt of negative value -0.0050802056"),
    # dH overflows to inf, unguarded, once x2 passes about 0.64
    ("0.5*u1^2 - u1*(x2*1e154)^2/1e308", EvaluationError,
     r"non-finite Hamiltonian partial \(member 0 while stepping from t=0.13\)"),
    # L overflows to inf once x2 passes about 0.97, and its gradient stays finite: H fails at that node
    ("0.5*u1^2 + 1.7e308 + 1e307*x2", EvaluationError, r"non-finite Hamiltonian \(member 0 at t=0.48\)"),
    # L, a guarded table, reads sqrt(1 - x1) once x1 passes 1, and its gradient does not: L fails at that node
    ("0.5*u1^2 + 0*sqrt(1 - x1)", ExprEvaluationError, r"sqrt of negative value .* \(member 0 at t=0.06\)"),
])
def test_a_compiled_one_member_failure_is_the_one_it_has_in_a_batch(monkeypatch, lagrangian, kind, message):
    """A problem file (x1_dot = u1, x2_dot = 1) whose member 0 fails mid-run; the other two stay finite.  Alone it
    runs the float sweep (its solves are the float stage's) and fails with the type, message, time, member, state,
    residual, point and offset it has in a batch on the NumPy sweep (every batch, here), at the same node: the
    Lagrangian is evaluated once per node up to the failing one, as in the batch (alone, by its lines inlined in
    the sweep, counted by tracing, or when they fail by the compiled L they fall back to)."""
    monkeypatch.setattr(pmp, "_FLOAT_MEMBERS", 1)
    problem = load_problem({"n": 2, "r": 1, "dynamics": ["u1", "1"], "lagrangian": lagrangian}, "f", "test")[0]
    calls = collections.Counter()
    count_float_solves(monkeypatch, calls)
    counted = dataclasses.replace(problem, lagrangian=counting(calls, "lagrangian", problem.lagrangian))
    config = PmpSolverConfig(rk_step=0.01)
    failures, lagrangians = [], []
    for x0, p0 in (([[0.95, 0.5], [-5.0, -0.5], [-5.0, -0.5]], [[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]]),
                   ([0.95, 0.5], [1.0, 0.0])):
        calls.clear()
        with pytest.raises(kind, match=message) as err:
            integrate_pmp(counted, x0, p0, 1.0, config)
        failures.append(failure_fields(err.value))
        lagrangians.append(calls["lagrangian"])
    assert calls["float solves"] > 1  # alone, and not in the batch
    assert failures[0] == failures[1]
    assert lagrangians[0] == lagrangians[1] > 1
    if kind is EvaluationError:
        assert lagrangians[1] == round(err.value.t / config.rk_step) + 1


def test_a_guarded_dH_failing_at_a_node_is_counted_once_per_evaluation(monkeypatch):
    """x3_dot = x2^2 with x2 = t puts each node h^3/12 ahead of its step's stage 4, and dH reads sqrt(c - x3), a
    guarded table, with c between the two at t = 0.5: alone, member 0's inlined dH fails on floats first at that
    node, and its fallback, the compiled dH on a one-member stack, raises the batch's error.  Alone its dH is
    evaluated as often as in a batch on the NumPy sweep (every batch, here): twice per solve, but once in the first
    step's stage 2, which starts at node 0's x3 = 0 and root, and once at the failing node, whose fallback the
    counting wrapper of the compiled dH counts and the trace does not."""
    monkeypatch.setattr(pmp, "_FLOAT_MEMBERS", 1)
    problem = load_problem({"n": 3, "r": 1, "dynamics": ["u1", "1", "x2^2"],
                            "lagrangian": "0.5*u1^2 - u1*sqrt(0.041625 - x3)"}, "f", "test")[0]
    calls = collections.Counter()
    count_float_solves(monkeypatch, calls)
    counted = dataclasses.replace(problem, jacobians=dataclasses.replace(
        problem.jacobians, dH=counting(calls, "dH", problem.jacobians.dH)))
    failures, evaluations = [], []
    for x0, p0 in (([[0.0, 0.0, 0.0], [0.0, 0.0, -5.0], [0.0, 0.0, -5.0]],
                    [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
                   ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])):
        calls.clear()
        with pytest.raises(ExprEvaluationError, match=r"sqrt of negative value .* \(member 0 at t=0.5\)") as err:
            integrate_pmp(counted, x0, p0, 1.0, PmpSolverConfig(rk_step=0.1))
        failures.append(failure_fields(err.value))
        evaluations.append(calls["dH"])
    solves = 1 + 4 * 4 + 3  # node 0, four whole steps and the stages of the fifth
    assert calls["float solves"] == solves  # alone, and not in the batch
    assert failures[0] == failures[1]
    assert evaluations[0] == evaluations[1] == 2 * solves - 1 + 1  # the first stage 2 once; the failing node once


@pytest.mark.parametrize("lagrangian, config, kind, message", [
    # dH/du reads 1/x2, a division by a variable, and x2 reaches 0 at stage 4 of the first step
    ("0.5*u1^2 - u1/x2", PmpSolverConfig(rk_step=0.25), ExprEvaluationError, r"division by zero \(at offset 13\)"),
    # dH/dx2 reads (-x2)^-0.5, a power other than 2, of 0 at the same stage
    ("0.5*u1^2 - u1*(-x2)^0.5", PmpSolverConfig(rk_step=0.25), ExprEvaluationError,
     r"power failed: 0.0 cannot be raised to a negative power \(at offset 19\)"),
    # W = -3, a constant whose inverse is inexact: the residual stalls at rounding level, above the tolerance
    ("1.5*u1^2 - x1*x2*u1", PmpSolverConfig(rk_step=0.01, newton_tol=1e-300, newton_max_iter=3), ConvergenceError,
     r"control Newton exhausted 3 iterations \(member 0 while stepping from t=0.09\)"),
])
def test_a_failure_inside_the_float_stage_is_the_one_it_has_in_a_batch(monkeypatch, lagrangian, config, kind, message):
    """A problem file (x1_dot = u1, x2_dot = 1) whose member 0 fails at a stage, inside the stage's own lines, the
    other two never: alone it fails with the type, message, time, member, state, residual, point and offset it has
    in a batch on the NumPy sweep (every batch, here)."""
    monkeypatch.setattr(pmp, "_FLOAT_MEMBERS", 1)
    problem = load_problem({"n": 2, "r": 1, "dynamics": ["u1", "1"], "lagrangian": lagrangian}, "f", "test")[0]
    calls = collections.Counter()
    count_float_solves(monkeypatch, calls)
    x0, p0 = [[0.0, -0.25], [0.0, -5.0], [0.0, -5.0]], [[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]]
    if kind is ConvergenceError:  # member 0 rests at its root at node 0, the others for good
        x0, p0 = [[0.5, 0.1], [0.0, 0.1], [0.0, -0.3]], [[-0.05, 0.0], [0.0, 0.0], [0.0, 0.0]]
    failures = []
    for x, p in ((x0, p0), (x0[0], p0[0])):
        with pytest.raises(kind, match=message) as err:
            integrate_pmp(problem, x, p, 1.0, config)
        failures.append(failure_fields(err.value))
    assert calls["float solves"] > 1
    assert failures[0] == failures[1]


def test_optimal_feedback_of_one_point_is_the_stacks_bit_for_bit():
    """The control of a 1-D guess is that of every member of a stack of the same point, bit for bit."""
    problem = skewed_problems()[0]
    x, p, u0 = np.array([0.1, -0.2, 0.3]), unit_cylinder_costate(0.4, 1.3), np.array([0.2, -0.1])
    u = optimal_feedback(problem, x, p, u0)
    stack = _newton(problem.view, np.tile(x, (3, 1)), np.tile(p, (3, 1)), np.tile(u0, (3, 1)), PmpSolverConfig())
    assert np.array_equal(stack[0], np.tile(u, (3, 1)))
    assert stack[1].tolist() == [1, 1, 1]


def infinite_hessian_past_one():
    """x_dot = u, L = u^2/2, with a hand-written W that is -1, and inf where x > 1."""

    @stacked
    def d2H_du2(x, p, u):
        return np.where(x[..., :, None] > 1.0, np.inf, -1.0)

    @stacked
    def dH(x, p, u):
        return np.concatenate([p - u, 0.0 * x, u], axis=-1)

    return ControlProblem(n=1, r=1, dynamics=stacked(lambda x, u: u),
                          lagrangian=stacked(lambda x, u: 0.5 * u[..., 0] ** 2),
                          jacobians=ProblemJacobians(dH=dH, d2H_du2=d2H_du2))


@pytest.mark.parametrize("problem, x, kind, message", [
    (infinite_hessian_past_one(), 2.0, EvaluationError, "non-finite Hamiltonian partial"),
    # W = -0.75 u^-0.5 fails at u = 0, where dH/du = p - 1.5 u^0.5 does not
    (load_problem({"n": 1, "r": 1, "dynamics": ["u1"], "lagrangian": "u1^1.5"}, "f", "test")[0], 0.0,
     ExprEvaluationError, "power failed"),
], ids=["non-finite", "compiled-table"])
def test_a_control_hessian_failure_names_its_member_of_the_whole_stack(problem, x, kind, message):
    """W is evaluated only at the members that take a Newton step; member 0 starts at its root (p = u = 0) and takes
    none, so the failing W is the first of those evaluated, and the error names member 1 of the stack, at its point."""
    assert problem.view.w is None
    q, lam, u = np.array([[0.0], [x]]), np.array([[0.0], [1.0]]), np.zeros((2, 1))
    with pytest.raises(kind, match=message) as err:
        _newton(problem.view, q, lam, u, PmpSolverConfig())
    assert err.value.member == 1
    if kind is EvaluationError:
        assert [v.tolist() for v in err.value.point] == [[x], [1.0], [0.0]]


def unmarked_w_oracle():
    """The hand-written oracle with W = -I an unmarked callable, evaluated per member at every Newton step."""
    oracle = heisenberg_oracle_problem()
    jacobians = dataclasses.replace(oracle.jacobians, d2H_du2=lambda x, p, u: -np.eye(2))
    return dataclasses.replace(oracle, jacobians=jacobians)


@pytest.mark.parametrize("lead", [(), (1,)])
@pytest.mark.parametrize("problem", [skewed_problems()[0], unmarked_w_oracle()], ids=["constant-w", "unmarked-w"])
def test_newton_gives_one_member_arrays_of_its_leading_shape(problem, lead):
    """One member, a stack of leading shape () or (1,), gets its iterations and residual as arrays of that shape,
    as any stack does, with a constant W and with one evaluated at every step."""
    point = (np.array([0.1, -0.2, 0.3]), unit_cylinder_costate(0.4, 1.3), np.array([0.2, -0.1]))
    x, p, u0 = (v.reshape(lead + v.shape) for v in point)
    u, iterations, residual, grad = _newton(problem.view, x, p, u0, PmpSolverConfig(newton_tol=1e-9))
    assert u.shape == lead + (2,) and grad.shape == lead + (8,)
    for value in (iterations, residual):
        assert type(value) is np.ndarray and value.shape == lead
    assert iterations.dtype.kind == "i" and iterations.sum() >= 1 and residual.sum() <= 1e-9


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
        res = hamiltonian_partials(heis_problem, PontryaginPoint(x, p, u)).dH_du
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
    problem = rootless_problem()
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
    rows, hs = [np.concatenate([y, u])], [hamiltonian(problem, PontryaginPoint(x0, p0, u))]
    for t0, t1 in zip(times[:-1], times[1:]):
        h = t1 - t0
        k1, u1 = field(y, u)
        k2, u2 = field(y + 0.5 * h * k1, u1)
        k3, u3 = field(y + 0.5 * h * k2, u2)
        k4, u4 = field(y + h * k3, u3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        u = optimal_feedback(problem, y[:n], y[n:], u4, config)
        rows.append(np.concatenate([y, u]))
        hs.append(hamiltonian(problem, PontryaginPoint(y[:n], y[n:], u)))
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
        assert abs(res - np.max(np.abs(hamiltonian_partials(heis_problem, PontryaginPoint(x, p, u)).dH_du))) <= 1e-15


def test_failing_member_is_named_with_its_time_state_and_residual():
    # phi = p exp(u) has no root unless p = 0: members 0 and 2 converge at once, member 1 never
    problem = rootless_problem()
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


def test_action_needs_three_samples(heis_problem, default_config):
    """The second-order difference of x needs three samples; two used to fail in NumPy with a bare ValueError."""
    traj = integrate_pmp(heis_problem, np.zeros(3), [1.0, 0.0, 1.0], 0.0, default_config)
    with pytest.raises(TrajectoryFormatError):
        lagrange_pontryagin_action(heis_problem, traj)
    two = Trajectory([0.0, 0.1], traj.columns, np.vstack([traj.states] * 2))
    with pytest.raises(TrajectoryFormatError, match="at least three samples"):
        lagrange_pontryagin_action(heis_problem, two)


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
    assert np.allclose(momentum_map(heis_problem, np.zeros(3), p), p)
    assert np.allclose(momentum_map(heis_problem, [1.0, 2.0, 3.0], np.zeros(3)), 0.0)
    assert np.allclose(momentum_map(heis_problem, [0.3, -0.7, 0.2], [1.0, 2.0, 3.0]), [-0.05, 1.55, 3.0],
                       rtol=0, atol=1e-15)


def test_momentum_map_takes_stacks_of_points(heis_problem):
    """Points x, p of shape (..., n) give (..., dim), each member the plain array it gives alone."""
    rng = np.random.default_rng(14)
    x, p = rng.normal(size=(2, 4, 2, 3))
    stack = momentum_map(heis_problem, x, p)
    assert type(stack) is np.ndarray and stack.shape == (4, 2, 3)
    for index in np.ndindex(4, 2):
        assert np.array_equal(stack[index], momentum_map(heis_problem, x[index], p[index]))


def test_momentum_map_makes_one_generators_call_on_the_whole_stack(heis_problem):
    """The handle's generators are called once, on the whole stack of points, and paired with p by one matmul."""
    from pontrylie.ocp import SymmetryHandle

    calls = []

    def generators(x):
        calls.append(np.shape(x))
        return heis_problem.symmetry.generators(x)

    problem = dataclasses.replace(heis_problem, symmetry=SymmetryHandle(heis_problem.symmetry.algebra, generators))
    x, p = np.random.default_rng(15).normal(size=(2, 4, 2, 3))
    assert np.array_equal(momentum_map(problem, x, p), momentum_map(heis_problem, x, p))
    assert calls == [(4, 2, 3)]
    assert np.array_equal(momentum_map(problem, x, p), (heis_problem.symmetry.generators(x) @ p[..., None])[..., 0])


def test_momentum_map_refuses_generators_of_the_wrong_shape(heis_problem):
    """Generators of any shape but (..., dim, n) are refused naming ``generators``: a table of the wrong width, and
    one (dim, n) matrix for a whole stack of points (constant generators written for one point)."""
    from pontrylie.ocp import SymmetryHandle

    algebra = heis_problem.symmetry.algebra
    x, p = np.random.default_rng(16).normal(size=(2, 5, 3))
    one_matrix = SymmetryHandle(algebra, lambda q: np.eye(3))
    assert np.array_equal(momentum_map(dataclasses.replace(heis_problem, symmetry=one_matrix), x[0], p[0]), p[0])
    wide = SymmetryHandle(algebra, lambda q: np.zeros(q.shape + (4,)))
    for handle, shape in ((wide, r"\(5, 3, 4\)"), (one_matrix, r"\(3, 3\)")):
        with pytest.raises(DimensionMismatchError, match=rf"^generators returned shape {shape}, expected \(5, 3, 3\)$"):
            momentum_map(dataclasses.replace(heis_problem, symmetry=handle), x, p)


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


@pytest.mark.parametrize("rows", [1, pmp._CSV_BLOCK, pmp._CSV_BLOCK + 1])
def test_a_trajectory_csv_has_the_bytes_of_savetxt(tmp_path, rows):
    """The CSV body, written by one % per block of rows, is the bytes ``np.savetxt`` writes with the same format,
    delimiter and newline: in one row, a full block and one row more; every row holds -0.0, subnormals, +-1e308,
    the extreme finite values and integral values, scaled by random factors past the first row."""
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).tiny, 3.0, -7.0,
               1e16, 123456789012345678.0, 0.1, 1.0 / 3.0, 2.0**-1074, 1e-5]
    table = np.tile(special, (rows, 1))
    table[1:] *= np.random.default_rng(17).choice([1.0, -1.0, 0.5, 1e-3, 1.0 / np.pi], size=(rows - 1, len(special)))
    columns = tuple(f"x{i + 1}" for i in range(len(special) - 2))
    traj = Trajectory(times=np.arange(rows) * 0.25, columns=columns, states=table[:, :-2],
                      channels={"newton_iters": table[:, -2], "H": table[:, -1]})
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    expected = io.BytesIO()
    expected.write(f"t,{','.join(columns)},H,newton_iters\r\n".encode())
    np.savetxt(expected, np.column_stack([traj.times, table[:, :-2], table[:, -1], table[:, -2]]), fmt="%.17g",
               delimiter=",", newline="\r\n")
    assert path.read_bytes() == expected.getvalue()
    assert path.read_bytes().count(b"\r\n") == rows + 1


@pytest.mark.parametrize("rows", [1, pmp._CSV_BLOCK, pmp._CSV_BLOCK + 1])
def test_repeated_values_of_a_trajectory_csv_keep_the_bytes_of_savetxt(tmp_path, rows):
    """Each repeated value of a block is formatted once and the bytes stay those of ``np.savetxt``: a constant
    column, columns bit-identical to an all-distinct one and to one of few values in runs with jitter in the last
    bit, 0.0 with one -0.0 (not constant: equal cells have equal bits), runs of +-inf, NaN and subnormals, and two
    columns that are no copies: one a last bit off the all-distinct one, and -1 times the zeros, equal in value."""
    rng = np.random.default_rng(29)
    distinct = rng.standard_normal(rows)
    few = np.repeat(rng.choice([0.5, 1.0 / 3.0, -2.0], size=rows), 8)[:rows]
    jittered = np.where(np.repeat(rng.random(rows) < 0.5, 8)[:rows], np.nextafter(few, np.inf), few)
    zeros = np.zeros(rows)
    zeros[rows // 2] = -0.0
    special = np.repeat(rng.choice([np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.0**-1074], size=rows), 2)[:rows]
    states = np.column_stack([np.full(rows, 0.1), distinct, jittered, zeros, special, distinct, jittered,
                              np.nextafter(distinct, np.inf), -zeros])
    columns = tuple(f"x{i + 1}" for i in range(states.shape[1]))
    traj = Trajectory(times=np.arange(rows) * 0.25, columns=columns, states=states, channels={"H": np.full(rows, -0.0)})
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    expected = io.BytesIO()
    expected.write(f"t,{','.join(columns)},H\r\n".encode())
    np.savetxt(expected, np.column_stack([traj.times, states, traj.channel("H")]), fmt="%.17g", delimiter=",",
               newline="\r\n")
    assert path.read_bytes() == expected.getvalue()
    if rows > 1:
        assert b",-0," in path.read_bytes() and len(np.unique(jittered.view(np.int64))) > 3


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
