"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy trajectories (step 1e-3 over a full period) are the session fixtures
``reduced_runs`` and ``full_runs`` of conftest, computed once and shared.
"""

import numpy as np

from conftest import FULL_CASES, STEP, THETAS, TWO_PI, record_acceptance
from pontrylie.dirac import (
    LinearDiracStructure,
    TwoForm,
    backward,
    canonical_two_form,
    forward,
    graph_of_two_form,
    is_dirac,
    pontryagin_projection,
    subspaces_equal,
)
from pontrylie.heisenberg import (
    full_state_closed_form,
    geodesic_chart_closed_form,
    heisenberg_algebra,
    lambda_closed_form,
    unit_cylinder_costate,
)
from pontrylie.lie import GroupElement, exp_nilpotent
from pontrylie.ocp import PontryaginPoint, _newton, hamiltonian_partials
from pontrylie.pmp import (
    PmpSolverConfig,
    dirac_membership_residuals,
    integrate_pmp,
)
from pontrylie.reconstruct import (
    audit_geodesic_forms,
    chart_trajectory,
    reconstruct_group,
    xi_curve_from_reduced,
)
from pontrylie.reduction import project_full_to_reduced, reduced_dirac_residuals


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    record_acceptance(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_reduced_lie_poisson_reproduction(reduced_runs):
    worst = 0.0
    for (theta, k), traj in reduced_runs.items():
        exact = lambda_closed_form(theta, k, traj.times)
        worst = max(worst, float(np.max(np.abs(traj.block("mu") - exact))))
    verdict(
        1,
        "reduced Lie-Poisson reproduction",
        worst <= 1e-6,
        f"max closed-form deviation {worst:.3e} <= 1e-6 over theta in {{0, pi/4}}, k in {{0.5, 1, 2}}",
    )


def test_criterion_2_full_pmp_conservation(heis_problem, full_runs):
    worst_h = worst_cas = worst_j3 = 0.0
    for (theta, k), traj in full_runs.items():
        h = traj.channel("H")
        worst_h = max(worst_h, float(np.max(np.abs(h - h[0]))))
        lam3 = np.array(
            [
                project_full_to_reduced(heis_problem, PontryaginPoint(x, p, u)).mu[2]
                for x, p, u in zip(traj.block("x"), traj.block("p"), traj.block("u"))
            ]
        )
        worst_cas = max(worst_cas, float(np.max(np.abs(lam3 - lam3[0]))))
        j3 = traj.channel("J3")
        worst_j3 = max(worst_j3, float(np.max(np.abs(j3 - j3[0]))))
    ok = worst_h <= 1e-6 and worst_cas <= 1e-9 and worst_j3 <= 1e-8
    verdict(
        2,
        "full PMP conservation",
        ok,
        f"H drift {worst_h:.3e} <= 1e-6, Casimir drift {worst_cas:.3e} <= 1e-9, "
        f"J3 drift {worst_j3:.3e} <= 1e-8",
    )


def test_criterion_3_reduction_commutes_with_dynamics(heis_problem, full_runs, reduced_runs):
    worst = 0.0
    for case, full in full_runs.items():
        reduced = reduced_runs[case]
        projected = np.array(
            [
                project_full_to_reduced(heis_problem, PontryaginPoint(x, p, u)).mu
                for x, p, u in zip(full.block("x"), full.block("p"), full.block("u"))
            ]
        )
        worst = max(worst, float(np.max(np.abs(projected - reduced.block("mu")))))
    verdict(
        3,
        "reduction commutes with dynamics",
        worst <= 1e-5,
        f"max pointwise |projected full - reduced| {worst:.3e} <= 1e-5",
    )


def test_criterion_4_dirac_membership(heis_problem, heis_reduced, full_runs, reduced_runs):
    worst_full = max(
        float(np.max(dirac_membership_residuals(heis_problem, traj)))
        for traj in full_runs.values()
    )
    worst_reduced = max(
        float(np.max(reduced_dirac_residuals(heis_reduced, reduced_runs[case])))
        for case in FULL_CASES
    )
    ok = worst_full <= 1e-6 and worst_reduced <= 1e-6
    verdict(
        4,
        "Dirac membership at every stored step",
        ok,
        f"full fiber residual {worst_full:.3e}, reduced fiber residual {worst_reduced:.3e}, both <= 1e-6",
    )


def test_criterion_5_dirac_algebra_property_suite():
    rng = np.random.default_rng(20240801)
    graphs_ok = True
    for _ in range(200):
        d = int(rng.integers(1, 9))
        raw = rng.normal(size=(d, d))
        graphs_ok &= is_dirac(graph_of_two_form(TwoForm(raw - raw.T)))

    struct = graph_of_two_form(canonical_two_form(3))
    identity_ok = subspaces_equal(backward(np.eye(6), struct), struct) and subspaces_equal(
        forward(np.eye(6), struct), struct
    )

    # backward along the (x, p, u) -> (x, p) projection vs the hand-built local form
    n, r = 3, 2
    pulled = backward(pontryagin_projection(n, r), graph_of_two_form(canonical_two_form(n)))
    rows = []
    for i in range(n):  # (e_x_i ; e_p_i*)
        row = np.zeros(2 * (2 * n + r))
        row[i] = 1.0
        row[2 * n + r + n + i] = 1.0
        rows.append(row)
    for i in range(n):  # (e_p_i ; -e_x_i*)
        row = np.zeros(2 * (2 * n + r))
        row[n + i] = 1.0
        row[2 * n + r + i] = -1.0
        rows.append(row)
    for a in range(r):  # (e_u_a ; 0): constraint covectors vanish on control directions
        row = np.zeros(2 * (2 * n + r))
        row[2 * n + a] = 1.0
        rows.append(row)
    local_form = LinearDiracStructure(2 * n + r, np.array(rows))
    pullback_ok = subspaces_equal(pulled, local_form, rtol=1e-10)

    ok = graphs_ok and identity_ok and pullback_ok
    verdict(
        5,
        "Dirac algebra property suite",
        ok,
        f"200/200 random graphs Dirac: {graphs_ok}, identity images: {identity_ok}, "
        f"projection pullback equals local form: {pullback_ok}",
    )


def test_criterion_6_geodesic_geometry(heis_reduced, heis_algebra, reduced_runs):
    worst_radial = 0.0
    worst_speed = 0.0
    for (theta, k), reduced in reduced_runs.items():
        samples = xi_curve_from_reduced(heis_reduced, reduced)
        path = reconstruct_group(heis_algebra, GroupElement(np.eye(3)), samples, TWO_PI, STEP)
        chart = chart_trajectory(path)
        center = np.array([-np.sin(theta) / k, np.cos(theta) / k])
        radii = np.hypot(chart.states[:, 0] - center[0], chart.states[:, 1] - center[1])
        worst_radial = max(worst_radial, float(np.max(np.abs(radii - 1.0 / k))))
        u = reduced.block("u")
        speed_sq = u[:, 0] ** 2 + u[:, 1] ** 2
        worst_speed = max(worst_speed, float(np.max(np.abs(speed_sq - 2.0 * reduced.channel("h")[0]))))

    # k = 0 family: straight lines with no discretization error at all
    worst_line = 0.0
    for theta in THETAS:
        xi = lambda t, th=theta: np.array([np.cos(th), np.sin(th), 0.0])
        path = reconstruct_group(heis_algebra, GroupElement(np.eye(3)), xi, TWO_PI, STEP)
        chart = chart_trajectory(path)
        cross = chart.states[:, 0] * np.sin(theta) - chart.states[:, 1] * np.cos(theta)
        worst_line = max(
            worst_line, float(np.max(np.abs(cross))), float(np.max(np.abs(chart.states[:, 2])))
        )

    ok = worst_radial <= 1e-5 and worst_speed <= 1e-6 and worst_line <= 1e-12
    verdict(
        6,
        "geodesic geometry",
        ok,
        f"radial deviation {worst_radial:.3e} <= 1e-5, speed drift {worst_speed:.3e} <= 1e-6, "
        f"k=0 line deviation {worst_line:.3e} (roundoff only)",
    )


def test_criterion_7_convergence_orders(heis_problem, heis_algebra):
    theta, k = 0.0, 1.0

    def full_endpoint_error(step):
        traj = integrate_pmp(
            heis_problem,
            np.zeros(3),
            unit_cylinder_costate(theta, k),
            TWO_PI,
            PmpSolverConfig(rk_step=step),
        )
        exact = full_state_closed_form(theta, k, traj.times[-1])
        state = np.concatenate([traj.block("x")[-1], traj.block("p")[-1]])
        return float(np.max(np.abs(state - exact)))

    rk_ratio = full_endpoint_error(TWO_PI / 128) / full_endpoint_error(TWO_PI / 256)

    exact_end = exp_nilpotent(heisenberg_algebra(), geodesic_chart_closed_form(theta, k, TWO_PI)).matrix

    def recon_endpoint_error(step):
        path = reconstruct_group(
            heis_algebra,
            GroupElement(np.eye(3)),
            lambda t: np.array([np.cos(theta + k * t), np.sin(theta + k * t), 0.0]),
            TWO_PI,
            step,
        )
        return float(np.max(np.abs(path.matrices[-1] - exact_end)))

    recon_ratio = recon_endpoint_error(TWO_PI / 256) / recon_endpoint_error(TWO_PI / 512)

    ok = 12.0 <= rk_ratio <= 20.0 and recon_ratio >= 3.5
    verdict(
        7,
        "convergence orders",
        ok,
        f"RK4 halving ratio {rk_ratio:.2f} in [12, 20], reconstruction halving ratio "
        f"{recon_ratio:.2f} >= 3.5",
    )


def test_criterion_8_regularity_and_feedback(heis_problem):
    rng = np.random.default_rng(8)
    worst_sigma_err = 0.0
    worst_iterations = 0
    config = PmpSolverConfig()
    for _ in range(1000):
        x = rng.normal(size=3)
        p = rng.normal(size=3)
        w = hamiltonian_partials(heis_problem, PontryaginPoint(x, p, rng.normal(size=2))).d2H_du2
        sigma_min = float(np.linalg.svd(w, compute_uv=False)[-1])
        worst_sigma_err = max(worst_sigma_err, abs(sigma_min - 1.0))
        _, iterations, _, _ = _newton(heis_problem.view, x, p, np.zeros(2), config)
        worst_iterations = max(worst_iterations, iterations)
    ok = worst_sigma_err <= 1e-12 and worst_iterations <= 2
    verdict(
        8,
        "regularity and feedback",
        ok,
        f"max |sigma_min(W) - 1| = {worst_sigma_err:.3e} <= 1e-12, "
        f"max Newton iterations {worst_iterations} <= 2 over 1000 random points",
    )


def test_criterion_9_geodesic_form_audit():
    consistent = True
    x_matches = True
    details = []
    for theta in THETAS:
        for k in (0.5, 1.0):
            audit = audit_geodesic_forms(theta, k, TWO_PI, STEP, tol=1e-5)
            for name in ("x", "y", "z"):
                consistent &= audit.matches[name] == (audit.max_deviation[name] <= audit.tol)
            x_matches &= audit.matches["x"]
            details.append(
                f"theta={theta:.3f} k={k:g}: "
                + ", ".join(
                    f"{name}:{'match' if audit.matches[name] else 'MISMATCH'}"
                    for name in ("x", "y", "z")
                )
            )
    ok = consistent and x_matches
    verdict(
        9,
        "geodesic closed-form audit",
        ok,
        "report internally consistent; " + " | ".join(details),
    )
