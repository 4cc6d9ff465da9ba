"""Group reconstruction, the chart map, the geodesic oracle, and the form audit."""

import numpy as np
import pytest

from pontrylie.errors import DimensionMismatchError, EvaluationError, NonNilpotentError
from pontrylie.heisenberg import (
    geodesic_chart_closed_form,
    heisenberg_algebra,
    unit_cylinder_costate,
)
from pontrylie.lie import GroupElement, exp_nilpotent, log_nilpotent
from pontrylie.pmp import PmpSolverConfig
from pontrylie.reconstruct import (
    audit_geodesic_forms,
    chart_trajectory,
    claimed_geodesic_forms,
    heisenberg_geodesic_oracle,
    reconstruct_group,
    xi_curve_from_reduced,
)
from pontrylie.reduction import ReducedState, integrate_reduced

TWO_PI = 2.0 * np.pi
EMPTY = np.zeros(0)


def geodesic_xi(theta, k):
    return lambda t: np.array([np.cos(theta + k * t), np.sin(theta + k * t), 0.0])


def test_zero_velocity_freezes_group(heis_algebra):
    g0 = exp_nilpotent(heis_algebra, [0.4, -0.2, 1.0])
    path = reconstruct_group(heis_algebra, g0, lambda t: np.zeros(3), 1.0, 0.05)
    for m in path.matrices:
        assert np.array_equal(m, g0.matrix)


def test_constant_velocity_is_one_parameter_subgroup(heis_algebra):
    xi = np.array([0.3, -0.8, 0.45])
    g0 = GroupElement(np.eye(3))
    duration = 2.0
    path = reconstruct_group(heis_algebra, g0, lambda t: xi, duration, 0.01)
    exact = exp_nilpotent(heis_algebra, duration * xi).matrix
    assert np.max(np.abs(path.matrices[-1] - exact)) <= 1e-12


def test_reconstructed_matrices_stay_exactly_unitriangular(heis_algebra):
    path = reconstruct_group(
        heis_algebra, GroupElement(np.eye(3)), geodesic_xi(0.3, 1.2), TWO_PI, 1e-2
    )
    for m in path.matrices:
        assert np.array_equal(np.diag(m), np.ones(3))
        assert np.array_equal(np.tril(m, k=-1), np.zeros((3, 3)))


def test_geodesic_circle_property(heis_algebra):
    theta, k = 0.0, 1.0
    path = reconstruct_group(
        heis_algebra, GroupElement(np.eye(3)), geodesic_xi(theta, k), TWO_PI, 1e-3
    )
    chart = chart_trajectory(path)
    center = np.array([-np.sin(theta) / k, np.cos(theta) / k])
    radii = np.hypot(chart.states[:, 0] - center[0], chart.states[:, 1] - center[1])
    assert np.max(np.abs(radii - 1.0 / k)) <= 1e-5


def test_reconstruction_from_sampled_reduced_trajectory(heis_reduced, heis_algebra):
    theta, k = np.pi / 4, 0.5
    config = PmpSolverConfig(rk_step=2e-3)
    st0 = ReducedState(EMPTY, EMPTY, unit_cylinder_costate(theta, k), np.zeros(2))
    reduced = integrate_reduced(heis_reduced, st0, TWO_PI, config)
    samples = xi_curve_from_reduced(heis_reduced, reduced)
    path = reconstruct_group(heis_algebra, GroupElement(np.eye(3)), samples, TWO_PI, 2e-3)
    chart = chart_trajectory(path)
    exact = geodesic_chart_closed_form(theta, k, chart.times)
    assert np.max(np.abs(chart.states - exact)) <= 1e-4


def test_reconstruction_second_order(heis_algebra):
    theta, k = 0.0, 1.0
    exact = exp_nilpotent(heis_algebra, geodesic_chart_closed_form(theta, k, TWO_PI)).matrix

    def endpoint_error(step):
        path = reconstruct_group(
            heis_algebra, GroupElement(np.eye(3)), geodesic_xi(theta, k), TWO_PI, step
        )
        return np.max(np.abs(path.matrices[-1] - exact))

    ratio = endpoint_error(TWO_PI / 256) / endpoint_error(TWO_PI / 512)
    assert ratio >= 3.5, f"midpoint scheme lost second order: ratio {ratio}"


def test_sampled_curve_shape_validated(heis_algebra):
    with pytest.raises(DimensionMismatchError):
        reconstruct_group(
            heis_algebra,
            GroupElement(np.eye(3)),
            (np.array([0.0, 1.0]), np.zeros((2, 2))),  # wrong width
            1.0,
            0.1,
        )


def test_chart_values():
    alg = heisenberg_algebra()
    assert tuple(log_nilpotent(alg, GroupElement(np.eye(3)))) == (0.0, 0.0, 0.0)
    a, b, c = 1.7, -0.4, 0.9
    g = exp_nilpotent(alg, np.array([a, b, c]))
    # the (0,2) entry is c + ab/2 and the logarithm subtracts ab/2 again
    assert np.allclose(log_nilpotent(alg, g), (a, b, c), atol=1e-15)
    assert tuple(log_nilpotent(alg, exp_nilpotent(alg, np.array([0.0, 0.0, 1.0])))) == (0.0, 0.0, 1.0)


def test_chart_rejects_non_unitriangular():
    with pytest.raises(DimensionMismatchError):
        log_nilpotent(heisenberg_algebra(), np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_oracle_straight_line_family():
    oracle = heisenberg_geodesic_oracle(0.0, 0.0, 3.0, 0.01)
    assert np.max(np.abs(oracle.states[:, 0] - oracle.times)) <= 1e-12
    assert np.max(np.abs(oracle.states[:, 1:])) <= 1e-12


def test_oracle_matches_derived_closed_form():
    for theta, k in ((0.0, 1.0), (np.pi / 4, 0.5), (1.0, 2.0)):
        oracle = heisenberg_geodesic_oracle(theta, k, TWO_PI, 1e-3)
        exact = geodesic_chart_closed_form(theta, k, oracle.times)
        assert np.max(np.abs(oracle.states - exact)) <= 1e-9, (theta, k)


def test_oracle_radial_invariant():
    for theta, k in ((0.2, 0.5), (2.0, 1.5)):
        oracle = heisenberg_geodesic_oracle(theta, k, TWO_PI / k, 1e-3)
        center = np.array([-np.sin(theta) / k, np.cos(theta) / k])
        radii = np.hypot(oracle.states[:, 0] - center[0], oracle.states[:, 1] - center[1])
        assert np.max(np.abs(radii - 1.0 / k)) <= 1e-5


def test_oracle_period_return_with_vertical_advance():
    k = 1.3
    oracle = heisenberg_geodesic_oracle(0.7, k, TWO_PI / k, 1e-3)
    end = oracle.states[-1]
    assert abs(end[0]) <= 1e-9 and abs(end[1]) <= 1e-9
    assert end[2] > 0.0
    # derived: z(2 pi / k) = pi / k^2 since the sine term vanishes at a full period
    assert abs(end[2] - np.pi / k**2) <= 1e-9


def test_speed_constant_along_geodesics(heis_reduced):
    config = PmpSolverConfig(rk_step=1e-3)
    st0 = ReducedState(EMPTY, EMPTY, unit_cylinder_costate(0.3, 1.0), np.zeros(2))
    traj = integrate_reduced(heis_reduced, st0, TWO_PI, config)
    u = traj.block("u")
    speed_sq = u[:, 0] ** 2 + u[:, 1] ** 2
    assert np.max(np.abs(speed_sq - 2.0 * traj.channel("h")[0])) <= 1e-6


def test_audit_is_internally_consistent():
    audit = audit_geodesic_forms(0.0, 1.0, TWO_PI, 1e-3)
    for name in ("x", "y", "z"):
        assert audit.matches[name] == (audit.max_deviation[name] <= audit.tol)
    assert audit.matches["x"]  # the x formula is sound
    assert "MATCH" in audit.summary()


def test_audit_rejects_k_zero():
    with pytest.raises(DimensionMismatchError):
        claimed_geodesic_forms(0.0, 0.0)
    with pytest.raises(DimensionMismatchError):
        audit_geodesic_forms(0.0, 0.0, 1.0, 0.01)


def test_stacked_midpoint_exponentials_equal_the_step_by_step_product(heis_algebra):
    """One stacked series for all midpoints gives the matrices of one exp_nilpotent per step, bit for bit."""
    rng = np.random.default_rng(3)
    times, values = np.linspace(0.0, 2.0, 81), rng.normal(size=(81, 3))
    g0 = exp_nilpotent(heis_algebra, [0.4, -0.2, 1.0])
    path = reconstruct_group(heis_algebra, g0, (times, values), 2.0, 7e-3)
    expected = [g0.matrix]
    for t, h in zip(path.times[:-1], np.diff(path.times)):
        mid = np.array([np.interp(t + 0.5 * h, times, values[:, i]) for i in range(3)])
        expected.append(expected[-1] @ exp_nilpotent(heis_algebra, h * mid).matrix)
    assert np.array_equal(path.matrices, np.array(expected))


def test_every_midpoint_exponential_is_checked_for_nilpotency():
    from conftest import so3_algebra

    times = np.linspace(0.0, 1.0, 11)
    values = np.zeros((11, 3))
    values[-1] = [0.4, 0.2, 1.0]  # only the last midpoint leaves the zero element
    with pytest.raises(NonNilpotentError):
        reconstruct_group(so3_algebra(), GroupElement(np.eye(3)), (times, values), 1.0, 0.1)
    with pytest.raises(DimensionMismatchError):
        reconstruct_group(heisenberg_algebra(), GroupElement(np.eye(3)), lambda t: [t, 0.0], 1.0, 0.1)


def test_non_finite_algebra_velocity_is_an_evaluation_error(heis_algebra):
    """The first non-finite midpoint xi is named by its time instead of yielding NaN matrices."""
    times = np.linspace(0.0, 1.0, 11)
    values = np.tile([1.0, 0.5, 0.0], (11, 1))
    values[4, 1] = np.nan  # spoils the midpoints on both sides of t = 0.4
    with pytest.raises(EvaluationError, match=r"t = 0\.35"):
        reconstruct_group(heis_algebra, GroupElement(np.eye(3)), (times, values), 1.0, 0.1)
    with pytest.raises(EvaluationError, match=r"t = 0\.05"):
        reconstruct_group(heis_algebra, GroupElement(np.eye(3)), lambda t: [np.inf, 0.0, 0.0], 1.0, 0.1)
