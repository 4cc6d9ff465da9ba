"""Command-line front end: exit codes, RESULT lines, file round trips."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import so3_algebra
from pontrylie import cli, heisenberg, ocp, pmp, reconstruct, reduction
from pontrylie.cli import load_problem_file, main
from pontrylie.heisenberg import heisenberg_algebra
from pontrylie.lie import LieAlgebraSpec
from pontrylie.pmp import Trajectory

HEISENBERG_JSON = json.loads(heisenberg.PROBLEM_JSON)


def _strict_result(out: str) -> dict:
    """The RESULT line parsed as strict JSON: NaN and Infinity are rejected."""
    lines = [line for line in out.splitlines() if line]
    assert lines, "no stdout"
    assert lines[-1].startswith("RESULT "), f"last line is not a RESULT line: {lines[-1]!r}"

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(lines[-1][len("RESULT "):], parse_constant=reject)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, _strict_result(captured.out), captured


def test_solve_pmp_builtin(tmp_path, capsys):
    out = tmp_path / "full.csv"
    code, result, captured = run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1",
        "--T", "6.2832", "--step", "5e-3", "--out", str(out),
    )
    assert code == 0
    assert out.exists()
    assert result["H_drift"] <= 1e-6
    assert result["newton_iters_max"] == 1 and 0.0 <= result["stationarity_max"] <= 1e-12
    assert "H drift" in captured.out
    traj = Trajectory.from_csv(out)
    assert traj.columns[:3] == ("x1", "x2", "x3")
    assert "J3" in traj.channels


def test_solve_pmp_zero_duration(tmp_path, capsys):
    out = tmp_path / "single.csv"
    code, result, _ = run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1", "--T", "0", "--out", str(out),
    )
    assert code == 0
    assert result["rows"] == 1
    assert len(Trajectory.from_csv(out)) == 1


def test_solve_pmp_wrong_costate_length(tmp_path, capsys):
    code, result, captured = run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0",
        "--T", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert result["status"] == "error"
    assert "p0" in captured.err or "shape" in captured.err


def test_solve_pmp_requires_p0(tmp_path, capsys):
    code, result, _ = run_cli(
        capsys, "solve-pmp", "--builtin", "heisenberg", "--T", "1", "--out", str(tmp_path / "x.csv")
    )
    assert code == 1


def test_unknown_builtin(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "solve-pmp", "--builtin", "nosuch", "--p0", "1", "--T", "1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1


def test_solve_reduced_shortcuts(tmp_path, capsys):
    out = tmp_path / "red.csv"
    code, result, _ = run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--theta", "0", "--k", "1",
        "--T", "6.2832", "--step", "2e-3", "--out", str(out),
    )
    assert code == 0
    run = result["runs"][0]
    assert run["closed_form_max_dev"] <= 1e-6
    assert run["casimir_mu3_drift"] <= 1e-9
    assert out.exists()


def test_solve_reduced_k_zero(tmp_path, capsys):
    code, result, _ = run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--theta", "0.3", "--k", "0",
        "--T", "1", "--step", "1e-2", "--out", str(tmp_path / "line.csv"),
    )
    assert code == 0
    assert result["runs"][0]["closed_form_max_dev"] <= 1e-9


def test_solve_reduced_missing_initial_condition(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "solve-reduced", "--builtin", "heisenberg", "--T", "1",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1


def test_solve_reduced_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, result, _ = run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--theta", "0,0.785", "--k", "0.5,1",
        "--T", "0.5", "--step", "1e-2", "--out", str(out),
    )
    assert code == 0
    assert len(result["runs"]) == 4
    written = sorted(p.name for p in tmp_path.glob("grid_*.csv"))
    assert len(written) == 4
    for run in result["runs"]:
        assert run["newton_iters_max"] == 1 and 0.0 <= run["stationarity_max"] <= 1e-12
    # the grid is one batch; each member's file is the one its own solve writes
    single = tmp_path / "single.csv"
    run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--theta", "0.785", "--k", "0.5",
            "--T", "0.5", "--step", "1e-2", "--out", str(single))
    member = Trajectory.from_csv(tmp_path / "grid_theta0.785_k0.5.csv")
    assert single.read_text() == (tmp_path / "grid_theta0.785_k0.5.csv").read_text()
    assert set(member.channels) == {"h", "casimir_mu3", "newton_iters", "stationarity"}


def test_failing_grid_member_exits_2_naming_it(tmp_path, capsys):
    """xi3 = u1^2/2 makes the control Hessian singular exactly where k = mu3 = 1: the grid's second member."""
    problem_file = tmp_path / "singular.json"
    problem_file.write_text(json.dumps({
        **HEISENBERG_JSON,
        "reduced": {"s": 0, "lagrangian": "0.5*(u1^2 + u2^2)", "fiber_dynamics": ["u1", "u2", "0.5*u1^2"]},
    }))
    code, result, captured = run_cli(capsys, "solve-reduced", "--problem", str(problem_file), "--theta", "0",
                                     "--k", "0.5,1,2", "--T", "0.5", "--step", "0.1", "--out", str(tmp_path / "g.csv"))
    assert code == 2 and result["exit_code"] == 2 and result["status"] == "error"
    assert "singular" in result["error"] and "member 1 at t=0" in result["error"]
    assert result["member"] == 1 and result["t"] == 0.0 and result["residual"] == 1.0
    assert result["state"] == [1.0, 0.0, 1.0]
    assert not list(tmp_path.glob("g*.csv"))


def test_reconstruct_circle_report(tmp_path, capsys):
    red = tmp_path / "red.csv"
    run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--theta", "0", "--k", "1",
        "--T", "6.2832", "--step", "2e-3", "--out", str(red),
    )
    out = tmp_path / "chart.csv"
    code, result, captured = run_cli(
        capsys,
        "reconstruct", "--builtin", "heisenberg", "--traj", str(red), "--out", str(out),
    )
    assert code == 0
    assert abs(result["circle_radius"] - 1.0) <= 1e-12
    assert result["max_radial_deviation"] <= 1e-5
    assert "circle radius" in captured.out
    assert out.exists()


def test_reconstruct_from_a_full_trajectory(tmp_path, capsys):
    """A full run carries the same optimal controls, so it reconstructs too; it has no mu for the circle summary."""
    full = tmp_path / "full.csv"
    run_cli(capsys, "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1", "--T", "0.5", "--step", "1e-2",
            "--out", str(full))
    out = tmp_path / "chart.csv"
    code, result, _ = run_cli(capsys, "reconstruct", "--builtin", "heisenberg", "--traj", str(full), "--out", str(out))
    assert code == 0
    assert "k" not in result
    chart, states = Trajectory.from_csv(out).states, Trajectory.from_csv(full).block("x")
    assert np.max(np.abs(chart - states)) <= 1e-4  # the second-order midpoint scheme at step 1e-2


def test_reconstruct_of_its_own_chart_output_names_the_missing_block(tmp_path, capsys):
    """A chart CSV has x columns only: reconstruct must refuse it as input, not crash."""
    red, chart = tmp_path / "red.csv", tmp_path / "chart.csv"
    run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--theta", "0", "--k", "1", "--T", "0.5",
            "--step", "1e-2", "--out", str(red))
    run_cli(capsys, "reconstruct", "--builtin", "heisenberg", "--traj", str(red), "--out", str(chart))
    code, result, _ = run_cli(capsys, "reconstruct", "--builtin", "heisenberg", "--traj", str(chart),
                              "--out", str(tmp_path / "again.csv"))
    assert code == 1
    assert result["status"] == "error"
    assert "'u' columns, the problem needs 2" in result["error"]
    assert not (tmp_path / "again.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_vector_options_are_input_errors(tmp_path, capsys, bad):
    """--g0 (and every other vector option) with a non-finite entry exits 1 and writes nothing."""
    data = json.loads(json.dumps(HEISENBERG_JSON))
    data["algebra"]["matrix_basis"] = [m.tolist() for m in heisenberg_algebra().matrix_basis]
    problem_file, red = tmp_path / "heis.json", tmp_path / "red.csv"
    problem_file.write_text(json.dumps(data))
    run_cli(capsys, "solve-reduced", "--problem", str(problem_file), "--lambda0", "1,0,1", "--T", "0.1",
            "--step", "1e-2", "--out", str(red))
    chart = tmp_path / "chart.csv"
    code, result, _ = run_cli(capsys, "reconstruct", "--problem", str(problem_file), "--traj", str(red),
                              f"--g0={bad},0,0", "--out", str(chart))
    assert code == 1
    assert result["status"] == "error" and "non-finite" in result["error"]
    assert not chart.exists()
    code, result, _ = run_cli(capsys, "solve-pmp", "--builtin", "heisenberg", "--p0", f"1,{bad},1", "--T", "0.1",
                              "--out", str(tmp_path / "full.csv"))
    assert code == 1 and "non-finite" in result["error"]
    assert run_cli(capsys, "reconstruct", "--problem", str(problem_file), "--traj", str(red),
                   "--g0=0.4,-0.2,1", "--out", str(chart))[0] == 0


def test_reconstruct_equilibrium_is_constant(tmp_path, capsys):
    red = tmp_path / "eq.csv"
    run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--lambda0", "0,0,5",
        "--T", "1", "--step", "1e-2", "--out", str(red),
    )
    out = tmp_path / "eqchart.csv"
    code, _, _ = run_cli(
        capsys, "reconstruct", "--builtin", "heisenberg", "--traj", str(red), "--out", str(out)
    )
    assert code == 0
    chart = Trajectory.from_csv(out)
    assert np.array_equal(chart.states, np.zeros_like(chart.states))


def test_reconstruct_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("this,is\nnot,a trajectory\n")
    code, result, _ = run_cli(
        capsys, "reconstruct", "--builtin", "heisenberg", "--traj", str(bad),
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert result["status"] == "error"


def test_check_dirac_trajectory_and_corruption(tmp_path, capsys):
    out = tmp_path / "full.csv"
    run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "0.6,-0.8,1",
        "--T", "1", "--step", "5e-3", "--out", str(out),
    )
    code, result, _ = run_cli(
        capsys, "check-dirac", "--builtin", "heisenberg", "--traj", str(out), "--tol", "1e-6"
    )
    assert code == 0
    assert result["max_residual"] <= 1e-6

    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    p1 = header.index("p1")
    cells = lines[40].split(",")
    cells[p1] = str(float(cells[p1]) + 0.05)
    lines[40] = ",".join(cells)
    corrupted = tmp_path / "corrupt.csv"
    corrupted.write_text("\n".join(lines) + "\n")
    code, result, _ = run_cli(
        capsys, "check-dirac", "--builtin", "heisenberg", "--traj", str(corrupted), "--tol", "1e-6"
    )
    assert code == 2
    assert result["max_residual"] > 1e-6


def test_check_dirac_reduced_trajectory(tmp_path, capsys):
    red = tmp_path / "red.csv"
    run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--theta", "0.5", "--k", "0.7",
        "--T", "1", "--step", "5e-3", "--out", str(red),
    )
    code, result, _ = run_cli(
        capsys, "check-dirac", "--builtin", "heisenberg", "--traj", str(red), "--tol", "1e-6"
    )
    assert code == 0
    assert result["mode"] == "reduced"


def test_check_dirac_reduced_corruption(tmp_path, capsys):
    """The reduced scan tests dh/du = 0 too, so a row whose mu disagrees with its u fails."""
    red = tmp_path / "red.csv"
    run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--theta", "0.5", "--k", "0.7",
        "--T", "1", "--step", "5e-3", "--out", str(red),
    )
    lines = red.read_text().splitlines()
    mu1 = lines[0].split(",").index("mu1")
    cells = lines[40].split(",")
    cells[mu1] = str(float(cells[mu1]) + 0.5)
    lines[40] = ",".join(cells)
    corrupted = tmp_path / "corrupt.csv"
    corrupted.write_text("\n".join(lines) + "\n")
    code, result, _ = run_cli(
        capsys, "check-dirac", "--builtin", "heisenberg", "--traj", str(corrupted), "--tol", "1e-6"
    )
    assert code == 2
    assert result["mode"] == "reduced"
    assert result["max_residual"] > 1e-6


def test_check_dirac_self_test(capsys):
    code, result, captured = run_cli(capsys, "check-dirac", "--self-test", "--count", "50")
    assert code == 0
    assert result["passes"] == 50
    assert "50/50" in captured.out


def test_check_dirac_needs_input(capsys):
    code, _, _ = run_cli(capsys, "check-dirac", "--builtin", "heisenberg")
    assert code == 1


def test_compare_full_and_reduced(tmp_path, capsys):
    full = tmp_path / "full.csv"
    red = tmp_path / "red.csv"
    run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1",
        "--T", "2", "--step", "5e-3", "--out", str(full),
    )
    run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--lambda0", "1,0,1",
        "--T", "2", "--step", "5e-3", "--out", str(red),
    )
    code, result, _ = run_cli(
        capsys, "compare", "--builtin", "heisenberg", "--full", str(full), "--reduced", str(red)
    )
    assert code == 0
    assert result["max_deviation"] <= 1e-5
    assert not result["resampled"]


def test_compare_resamples_mismatched_grids(tmp_path, capsys):
    full = tmp_path / "full.csv"
    red = tmp_path / "red.csv"
    run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1",
        "--T", "1", "--step", "5e-3", "--out", str(full),
    )
    run_cli(
        capsys,
        "solve-reduced", "--builtin", "heisenberg", "--lambda0", "1,0,1",
        "--T", "1", "--step", "2e-3", "--out", str(red),
    )
    code, result, captured = run_cli(
        capsys, "compare", "--builtin", "heisenberg", "--full", str(full), "--reduced", str(red)
    )
    assert code == 0
    assert result["resampled"]
    assert "resampling" in captured.err


def test_compare_names_the_missing_block(tmp_path, capsys):
    red = tmp_path / "red.csv"
    run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--lambda0", "1,0,1", "--T", "0.2",
            "--step", "1e-2", "--out", str(red))
    code, result, _ = run_cli(capsys, "compare", "--builtin", "heisenberg", "--full", str(red), "--reduced", str(red))
    assert code == 1
    assert "0 'x' columns, the problem needs 3" in result["error"]


def test_compare_disjoint_ranges(tmp_path, capsys):
    full = tmp_path / "full.csv"
    run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1",
        "--T", "0.5", "--step", "1e-2", "--out", str(full),
    )
    shifted = tmp_path / "late.csv"
    shifted.write_text(
        "t,mu1,mu2,mu3,u1,u2\n10,1,0,1,1,0\n11,0.5,0.8,1,0.5,0.8\n"
    )
    code, result, _ = run_cli(
        capsys, "compare", "--builtin", "heisenberg", "--full", str(full), "--reduced", str(shifted)
    )
    assert code == 1
    assert "disjoint" in result["error"]


@pytest.mark.parametrize("args, name", [
    (("solve-pmp", "--p0", "1,0,1", "--T", "inf"), "duration"),
    (("solve-pmp", "--p0", "1,0,1", "--T", "1", "--step", "nan"), "rk_step"),
    (("solve-reduced", "--theta", "0", "--k", "1", "--T", "0.01", "--step", "inf"), "rk_step"),
    (("solve-reduced", "--theta", "0", "--k", "1", "--T", "nan"), "duration"),
])
def test_non_finite_duration_or_step_is_an_input_error(tmp_path, capsys, args, name):
    """A non-finite --T or --step exits 1 naming it, with a RESULT line and no output file."""
    out = tmp_path / "out.csv"
    code, result, _ = run_cli(capsys, args[0], "--builtin", "heisenberg", *args[1:], "--out", str(out))
    assert code == 1
    assert result["status"] == "error" and f"{name} must be" in result["error"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option, value", [("theta", "0,nan"), ("k", "inf"), ("k", "1,-inf")])
def test_non_finite_theta_or_k_is_an_input_error(tmp_path, capsys, option, value):
    """A non-finite --theta/--k entry exits 1 naming the option, before integrating, with no output file."""
    other = ("--k", "1") if option == "theta" else ("--theta", "0")
    code, result, _ = run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", f"--{option}={value}", *other,
                              "--T", "0.01", "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert result["status"] == "error" and f"--{option} '{value}' has a non-finite entry" in result["error"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option, value", [("theta", "abc"), ("k", "1,,2")])
def test_unparsable_theta_or_k_is_an_input_error_naming_the_option(tmp_path, capsys, option, value):
    other = ("--k", "1") if option == "theta" else ("--theta", "0")
    code, result, _ = run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", f"--{option}={value}", *other,
                              "--T", "0.01", "--out", str(tmp_path / "out.csv"))
    assert code == 1
    assert result["status"] == "error" and f"--{option} '{value}' has an entry that is not a number" in result["error"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_non_finite_or_negative_tolerance_is_an_input_error(tmp_path, capsys, tol):
    """check-dirac and compare refuse a non-finite or negative --tol with exit 1 and a strict RESULT naming it."""
    full, red = tmp_path / "full.csv", tmp_path / "red.csv"
    run_cli(capsys, "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1", "--T", "0.05", "--out", str(full))
    run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--lambda0", "1,0,1", "--T", "0.05", "--out", str(red))
    for command, *files in (("check-dirac", "--traj", str(full)), ("compare", "--full", str(full), "--reduced", str(red))):
        code, result, _ = run_cli(capsys, command, "--builtin", "heisenberg", *files, f"--tol={tol}")
        assert code == 1, command
        assert result["status"] == "error" and "--tol must be finite and nonnegative" in result["error"]


@pytest.mark.parametrize("mark", [True, False])
def test_a_single_vector_symmetry_handle_exits_1(tmp_path, capsys, monkeypatch, mark):
    """A handle written for one algebra vector is refused by the momentum map, whether it is called once on
    every node (``stacked``) or once per node, with exit 1 and no output file."""

    def one_vector(xi, q):
        return np.array([xi[0], xi[1], xi[2] + 0.5 * (xi[0] * q[1] - xi[1] * q[0])])

    builtin = heisenberg.heisenberg_problem
    handle = dataclasses.replace(builtin().symmetry, infinitesimal_action=ocp.stacked(one_vector) if mark else one_vector)
    monkeypatch.setattr(heisenberg, "heisenberg_problem", lambda: dataclasses.replace(builtin(), symmetry=handle))
    code, result, _ = run_cli(capsys, "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1", "--T", "0.01",
                              "--out", str(tmp_path / "full.csv"))
    assert code == 1
    assert result["status"] == "error" and "generators" in result["error"]
    assert not list(tmp_path.iterdir())


def _with_nan(source, target, column):
    lines = source.read_text().splitlines()
    index = lines[0].split(",").index(column)
    cells = lines[3].split(",")
    cells[index] = "nan"
    lines[3] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    return target


def test_non_finite_trajectory_is_an_input_error(tmp_path, capsys):
    full = tmp_path / "full.csv"
    red = tmp_path / "red.csv"
    run_cli(capsys, "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1",
            "--T", "0.1", "--step", "1e-2", "--out", str(full))
    run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--lambda0", "1,0,1",
            "--T", "0.1", "--step", "1e-2", "--out", str(red))
    bad_full = _with_nan(full, tmp_path / "bad_full.csv", "p2")
    bad_red = _with_nan(red, tmp_path / "bad_red.csv", "mu1")
    for args in (
        ["check-dirac", "--builtin", "heisenberg", "--traj", str(bad_full)],
        ["compare", "--builtin", "heisenberg", "--full", str(full), "--reduced", str(bad_red)],
    ):
        code, result, _ = run_cli(capsys, *args)
        assert code == 1, args
        assert result["status"] == "error"
        assert "non-finite value in column" in result["error"]


def test_ragged_trajectory_csv_is_an_input_error(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,x1,p1\n0,1,2\n1,2\n")
    code, result, _ = run_cli(capsys, "check-dirac", "--builtin", "heisenberg", "--traj", str(ragged))
    assert code == 1
    assert result["status"] == "error"
    assert str(ragged) in result["error"] and "line 3 has 2 cells" in result["error"]


def test_non_finite_result_field_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    full = tmp_path / "full.csv"
    run_cli(capsys, "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1",
            "--T", "0.1", "--step", "1e-2", "--out", str(full))
    monkeypatch.setattr(cli.pmp, "dirac_membership_residuals", lambda problem, traj: np.array([np.nan]))
    code, result, _ = run_cli(capsys, "check-dirac", "--builtin", "heisenberg", "--traj", str(full))
    assert code == 2
    assert result["exit_code"] == 2
    assert "'max_residual'" in result["error"]


def test_solver_failure_reports_residual_and_time(tmp_path, capsys):
    problem_file = tmp_path / "linear.json"
    # H = p u1 is linear in u: dH/du = 1 everywhere and the control Hessian vanishes
    problem_file.write_text(json.dumps({"n": 1, "r": 1, "dynamics": ["u1"], "lagrangian": "0"}))
    code, result, _ = run_cli(capsys, "solve-pmp", "--problem", str(problem_file), "--p0", "1",
                              "--T", "0.5", "--step", "0.1", "--out", str(tmp_path / "linear.csv"))
    assert code == 2
    assert "singular" in result["error"]
    assert result["t"] == 0.0
    assert result["residual"] == 1.0
    assert result["state"] == [0.0, 1.0]  # (x, p) at the failing node


def test_file_problem_solve_pmp(tmp_path, capsys):
    problem_file = tmp_path / "heis.json"
    problem_file.write_text(json.dumps(HEISENBERG_JSON))
    out = tmp_path / "file_full.csv"
    code, result, _ = run_cli(
        capsys,
        "solve-pmp", "--problem", str(problem_file), "--p0", "1,0,1",
        "--T", "1", "--step", "5e-3", "--out", str(out),
    )
    assert code == 0
    assert result["H_drift"] <= 1e-6
    assert "momentum_drift" in result  # the action block wires in momentum channels
    traj = Trajectory.from_csv(out)
    assert "J1" in traj.channels


def test_file_problem_solve_reduced(tmp_path, capsys):
    problem_file = tmp_path / "heis.json"
    problem_file.write_text(json.dumps(HEISENBERG_JSON))
    code, result, _ = run_cli(
        capsys,
        "solve-reduced", "--problem", str(problem_file), "--lambda0", "1,0,1",
        "--T", "1", "--step", "5e-3", "--out", str(tmp_path / "file_red.csv"),
    )
    assert code == 0
    assert result["runs"][0]["h_drift"] <= 1e-6


def _readme_problem_text() -> str:
    """The JSON example of the README's "Problem files" section, as written."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Problem files"):]
    block = section[section.index("```json\n") + len("```json\n"):]
    return block[: block.index("```")]


def _readme_problem() -> dict:
    return json.loads(_readme_problem_text())


def test_readme_problem_file_is_the_builtin_text():
    assert _readme_problem_text() == heisenberg.PROBLEM_JSON


def test_builtin_compiles_once_per_process_and_not_at_import():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import pontrylie.cli\n"
            "from pontrylie import heisenberg\n"
            "at_import = heisenberg._builtin.cache_info().misses\n"
            "heisenberg.heisenberg_problem(), heisenberg.heisenberg_reduced_problem(), heisenberg.heisenberg_problem()\n"
            "print(at_import, heisenberg._builtin.cache_info().misses)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "1"]


def test_problem_file_has_exact_derivatives(tmp_path):
    """The README file and the builtin give dH and d2H_du2, full and reduced; W is the constant -I."""
    problem_file = tmp_path / "heis.json"
    problem_file.write_text(json.dumps(_readme_problem()))
    for loaded in (load_problem_file(problem_file), cli._builtin("heisenberg")):
        for jac in (loaded.problem.jacobians, loaded.reduced.jacobians):
            assert [f.name for f in dataclasses.fields(jac)] == ["dH", "d2H_du2"]
            assert all(getattr(jac, f.name) is not None for f in dataclasses.fields(jac))
            assert np.array_equal(jac.d2H_du2.value, -np.eye(2))


@pytest.mark.parametrize(
    ("command", "start", "channel"),
    [("solve-pmp", ["--p0", "0.6,-0.8,1"], "H"), ("solve-reduced", ["--lambda0", "0.6,-0.8,1"], "h")],
)
def test_readme_problem_file_reproduces_builtin(tmp_path, capsys, monkeypatch, command, start, channel):
    problem_file = tmp_path / "heis.json"
    problem_file.write_text(json.dumps(_readme_problem()))

    def no_finite_differences(*args, **kwargs):
        raise AssertionError("finite-difference fallback used")

    for name in ("fd_gradient", "fd_hessian_direct", "fd_jacobian"):
        monkeypatch.setattr(ocp, name, no_finite_differences)
    runs = []
    for source in (["--builtin", "heisenberg"], ["--problem", str(problem_file)]):
        out = tmp_path / f"{source[0][2:]}.csv"
        code, _, _ = run_cli(capsys, command, *source, *start, "--T", "1", "--step", "1e-2", "--out", str(out))
        assert code == 0
        runs.append(Trajectory.from_csv(out))
    builtin, from_file = runs
    assert np.array_equal(builtin.states, from_file.states)
    assert np.array_equal(builtin.channel(channel), from_file.channel(channel))
    # every channel of the file is the builtin's; the builtin adds the Casimir to the reduced run
    assert all(np.array_equal(value, builtin.channel(name)) for name, value in from_file.channels.items())


@pytest.mark.parametrize(("option", "value"), [("--count", "-3"), ("--count", "0"), ("--max-dim", "0")])
def test_self_test_sizes_below_one_are_input_errors(capsys, option, value):
    code, result, _ = run_cli(capsys, "check-dirac", "--self-test", option, value)
    assert code == 1
    assert f"{option} must be at least 1, got {value}" in result["error"]


def test_reconstruct_rejects_a_step_that_is_not_positive(tmp_path, capsys):
    red, chart = tmp_path / "red.csv", tmp_path / "chart.csv"
    run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--theta", "0", "--k", "1", "--T", "0.1",
            "--out", str(red))
    for step in ("0", "-0.1"):
        code, result, _ = run_cli(capsys, "reconstruct", "--builtin", "heisenberg", "--traj", str(red),
                                  "--step", step, "--out", str(chart))
        assert code == 1
        assert "--step must be positive and finite" in result["error"]
    assert not chart.exists()


@pytest.mark.parametrize("command", [
    ["solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1", "--T", "1"],
    ["solve-reduced", "--builtin", "heisenberg", "--theta", "0,1", "--k", "1", "--T", "1"],
    ["reconstruct", "--builtin", "heisenberg", "--traj", "red.csv"],
])
def test_missing_output_directory_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output directory was checked")

    for module, name in ((pmp, "integrate_pmp"), (reduction, "integrate_reduced"), (cli, "_read_trajectory"),
                         (reconstruct, "reconstruct_group")):
        monkeypatch.setattr(module, name, no_work)
    missing = tmp_path / "missing"
    code, result, _ = run_cli(capsys, *command, "--out", str(missing / "out.csv"))
    assert code == 1
    assert f"--out directory '{missing}' does not exist" in result["error"]


def test_fractional_power_of_negative_value_is_a_solver_failure(tmp_path, capsys):
    problem_file = tmp_path / "root.json"
    problem_file.write_text(json.dumps(
        {"n": 1, "r": 1, "dynamics": ["(u1-1)^0.5"], "lagrangian": "0.5*u1^2"}
    ))
    code = main(["solve-pmp", "--problem", str(problem_file), "--p0", "1", "--T", "0.1",
                 "--out", str(tmp_path / "root.csv")])
    result = _strict_result(capsys.readouterr().out)
    assert code == 2
    assert result["exit_code"] == 2 and result["status"] == "error"
    assert "fractional power" in result["error"]
    assert "(at offset 6)" in result["error"]  # the '^' of (u1-1)^0.5


def test_overflow_mid_solve_exits_2_with_its_point_and_no_warning(tmp_path, capsys):
    """x_dot = x1*x1 + u1 is a safe (unguarded) table: x1 = 1e150 overflows it at the first stage, and NumPy
    stays silent while the solver turns the infinite F into a numerical failure at that point."""
    problem_file = tmp_path / "blowup.json"
    problem_file.write_text(json.dumps({"n": 1, "r": 1, "dynamics": ["x1*x1 + u1"], "lagrangian": "0.5*u1^2"}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, result, _ = run_cli(capsys, "solve-pmp", "--problem", str(problem_file), "--x0", "1e150", "--p0", "1",
                                  "--T", "1", "--step", "0.1", "--out", str(tmp_path / "blowup.csv"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
    assert code == 2 and result["status"] == "error"
    assert "non-finite Hamiltonian partial" in result["error"]
    x, p, u = result["point"]  # the stage (x, p, u*) where F overflowed
    assert x[0] * x[0] == np.inf and p == u


def _without_symmetry(tmp_path) -> str:
    """The README file without ``algebra``, ``action`` and ``reduced``, written to ``tmp_path``."""
    problem_file = tmp_path / "plain.json"
    problem_file.write_text(json.dumps({k: v for k, v in HEISENBERG_JSON.items()
                                        if k not in ("algebra", "action", "reduced")}))
    return str(problem_file)


@pytest.mark.parametrize("source", ["file", "builtin"])
def test_a_non_finite_state_row_exits_2_naming_its_time_and_member(tmp_path, capsys, source):
    """x3 overflows in the RK4 update at t = 0.88 and no evaluation reads it: the file's run exited 0 writing inf,
    the builtin's exited 1 blaming its generators."""
    problem = ["--problem", _without_symmetry(tmp_path)] if source == "file" else ["--builtin", "heisenberg"]
    out = tmp_path / "out.csv"
    code, result, _ = run_cli(capsys, "solve-pmp", *problem, "--p0=1.3e154,0,1", "--T", "1", "--step", "0.01",
                              "--out", str(out))
    assert code == 2 and result["status"] == "error"
    assert result["error"] == "non-finite state (member 0 at t=0.88)"
    assert result["t"] == 0.88 and result["member"] == 0 and "point" not in result  # x3 is infinite
    assert not out.exists()


@pytest.mark.parametrize("problem, args, message", [
    ({}, ("--p0=1.5e154,0,1",), "non-finite Hamiltonian (member 0 at t=0)"),
    ({"n": 1, "r": 1, "dynamics": ["x1*x1 + u1"], "lagrangian": "0.5*u1^2"}, ("--x0", "1e150", "--p0", "1"),
     "non-finite Hamiltonian partial (member 0 while stepping from t=0)"),
])
def test_evaluation_errors_of_the_sweep_carry_time_and_member(tmp_path, capsys, problem, args, message):
    """u*^2 overflows H at the first node of the builtin; x1*x1 overflows F at the first stage of the file."""
    problem_file = tmp_path / "p.json"
    problem_file.write_text(json.dumps(problem))
    source = ["--problem", str(problem_file)] if problem else ["--builtin", "heisenberg"]
    code, result, _ = run_cli(capsys, "solve-pmp", *source, *args, "--T", "1", "--step", "0.1",
                              "--out", str(tmp_path / "out.csv"))
    assert code == 2 and result["status"] == "error"
    assert result["error"] == message
    assert result["t"] == 0.0 and result["member"] == 0 and len(result["point"]) == 3  # (x, p, u)


def test_an_overflowing_scan_row_names_its_point_but_no_time_or_member(tmp_path, capsys):
    """p3 x2 overflows dH at the second row of a stored trajectory: a scan is not an integration."""
    traj = tmp_path / "bad.csv"
    traj.write_text("t,x1,x2,x3,p1,p2,p3,u1,u2\n0,0,0,0,1,0,1,1,0\n0.1,0,1e200,0,1,0,1e200,1,0\n")
    code, result, _ = run_cli(capsys, "check-dirac", "--builtin", "heisenberg", "--traj", str(traj))
    assert code == 2 and result["error"] == "non-finite Hamiltonian partial"
    assert result["point"] == [[0.0, 1e200, 0.0], [1.0, 0.0, 1e200], [1.0, 0.0]]
    assert "t" not in result and "member" not in result


def test_a_step_beyond_numpys_index_range_exits_1_naming_it(tmp_path, capsys):
    """1 / 1e-300 nodes: refused naming duration, step and the node count (it was NumPy's bare message)."""
    code, result, _ = run_cli(capsys, "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1", "--T", "1",
                              "--step", "1e-300", "--out", str(tmp_path / "out.csv"))
    assert code == 1 and result["status"] == "error"
    assert result["error"] == "duration 1.0 / step 1e-300 needs 1e+300 grid nodes, beyond NumPy's index range"


def test_action_without_algebra_is_rejected(tmp_path, capsys):
    problem_file = tmp_path / "heis.json"
    data = {k: v for k, v in HEISENBERG_JSON.items() if k not in ("algebra", "reduced")}
    problem_file.write_text(json.dumps(data))
    code, result, _ = run_cli(
        capsys, "solve-pmp", "--problem", str(problem_file), "--p0", "1,0,1",
        "--T", "0.1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "action table requires an algebra block" in result["error"]


ABELIAN_PLANE_JSON = {
    "n": 2,
    "r": 2,
    "dynamics": ["u1", "u2"],
    "lagrangian": "0.5*(u1^2 + u2^2)",
    "algebra": {"dim": 2, "structure": []},
    "reduced": {"s": 0, "lagrangian": "0.5*(u1^2 + u2^2)", "base_dynamics": [], "fiber_dynamics": ["u1", "u2"]},
}


def test_problem_file_named_heisenberg_is_not_the_builtin(tmp_path, capsys):
    """The Heisenberg closed form belongs to --builtin heisenberg, not to a file name."""
    problem_file = tmp_path / "heisenberg.json"
    problem_file.write_text(json.dumps(ABELIAN_PLANE_JSON))
    code, result, _ = run_cli(
        capsys, "solve-reduced", "--problem", str(problem_file), "--lambda0", "1,0.5",
        "--T", "0.1", "--step", "1e-2", "--out", str(tmp_path / "plane.csv"),
    )
    assert code == 0
    assert "closed_form_max_dev" not in result["runs"][0]


def test_theta_k_on_an_algebra_not_of_dimension_3_names_the_shortcut(tmp_path, capsys, monkeypatch):
    """--theta/--k build (cos theta, sin theta, k); on a 2-dimensional algebra they are refused before any work."""
    problem_file = tmp_path / "plane.json"
    problem_file.write_text(json.dumps(ABELIAN_PLANE_JSON))
    monkeypatch.setattr(reduction, "integrate_reduced", None)
    code, result, _ = run_cli(capsys, "solve-reduced", "--problem", str(problem_file), "--theta", "0", "--k", "1",
                              "--T", "0.1", "--out", str(tmp_path / "plane.csv"))
    assert code == 1
    assert "--theta/--k build lambda0 = (cos theta, sin theta, k)" in result["error"]
    assert "need an algebra of dimension 3, got 2" in result["error"]
    assert "lambda0 must have length" not in result["error"]
    assert not (tmp_path / "plane.csv").exists()


@pytest.mark.parametrize(
    ("block", "key"),
    [(None, "reduce"), ("algebra", "label"), ("reduced", "curvature")],
)
def test_unknown_problem_file_keys_are_rejected(tmp_path, capsys, block, key):
    data = json.loads(json.dumps(HEISENBERG_JSON))
    (data if block is None else data[block])[key] = "0"
    problem_file = tmp_path / "typo.json"
    problem_file.write_text(json.dumps(data))
    code, result, _ = run_cli(
        capsys, "solve-pmp", "--problem", str(problem_file), "--p0", "1,0,1",
        "--T", "0", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert f"unknown key '{key}'" in result["error"]


def test_reconstruct_needs_a_nilpotent_matrix_realization(tmp_path, capsys):
    """Exponential coordinates for any nilpotent matrix algebra; no basis, or a non-nilpotent one, fails."""
    e12, e13 = np.zeros((3, 3)), np.zeros((3, 3))
    e12[0, 1], e13[0, 2] = 1.0, 1.0
    abelian = json.loads(json.dumps(ABELIAN_PLANE_JSON))
    abelian["algebra"]["matrix_basis"] = [e12.tolist(), e13.tolist()]
    so3 = so3_algebra()
    rotations = {
        "n": 3, "r": 3, "dynamics": ["u1", "u2", "u3"], "lagrangian": "0.5*(u1^2 + u2^2 + u3^2)",
        "algebra": {
            "dim": 3,
            "structure": [[i, j, k, so3.structure_constants[i, j, k]] for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))],
            "matrix_basis": [m.tolist() for m in so3.matrix_basis],
        },
        "reduced": {"s": 0, "lagrangian": "0.5*(u1^2 + u2^2 + u3^2)", "fiber_dynamics": ["u1", "u2", "u3"]},
    }
    results = {}
    for name, data, mu0 in (("abelian", abelian, "1,0.5"), ("readme", HEISENBERG_JSON, "1,0,1"),
                            ("so3", rotations, "1,0.5,0.2")):
        problem_file = tmp_path / f"{name}.json"
        problem_file.write_text(json.dumps(data))
        red = tmp_path / f"{name}_red.csv"
        code, _, _ = run_cli(capsys, "solve-reduced", "--problem", str(problem_file), "--lambda0", mu0,
                             "--T", "0.1", "--step", "1e-2", "--out", str(red))
        assert code == 0
        chart = tmp_path / f"{name}_chart.csv"
        results[name] = run_cli(capsys, "reconstruct", "--problem", str(problem_file), "--traj", str(red),
                                "--out", str(chart))[:2] + (Trajectory.from_csv(red), chart)
    code, result, red, chart = results["abelian"]
    assert code == 0
    xi = red.block("u")  # the fiber dynamics is (u1, u2)
    integral = np.vstack([np.zeros(2), np.cumsum(0.5 * (xi[1:] + xi[:-1]) * np.diff(red.times)[:, None], axis=0)])
    assert np.max(np.abs(Trajectory.from_csv(chart).block("x") - integral)) <= 1e-12
    assert "circle_radius" not in result
    code, result, _, _ = results["readme"]
    assert code == 1
    assert "no matrix realization" in result["error"]
    code, result, _, chart = results["so3"]
    assert code == 2
    assert result["status"] == "error"
    assert not chart.exists()


def test_json_output_format(tmp_path, capsys):
    out = tmp_path / "traj.json"
    code, _, _ = run_cli(
        capsys,
        "solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1",
        "--T", "0.1", "--step", "1e-2", "--out", str(out), "--format", "json",
    )
    assert code == 0
    traj = Trajectory.from_json(out)
    assert len(traj) == 11


def test_bad_usage_maps_to_input_error(capsys):
    """argparse's message goes to stderr and a strict RESULT line ends stdout; --help still exits 0."""
    code, result, captured = run_cli(capsys, "solve-pmp", "--T", "not-a-number")
    assert code == 1 and result["status"] == "error" and result["exit_code"] == 1
    assert "invalid float value: 'not-a-number'" in captured.err
    assert main(["--help"]) == 0
    assert not any(line.startswith("RESULT ") for line in capsys.readouterr().out.splitlines())


def test_console_entry_point():
    """A real process: the installed script, or the module run on this checkout's sources."""
    exe = shutil.which("pontrylie")
    env = dict(os.environ)
    if exe is None:
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [exe] if exe else [sys.executable, "-m", "pontrylie.cli"]
    proc = subprocess.run(
        [*command, "check-dirac", "--self-test", "--count", "5"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1].startswith("RESULT ")


def test_a_gradient_of_the_wrong_width_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    builtin = heisenberg.heisenberg_reduced_problem
    dH = builtin().jacobians.dH
    short = ocp.stacked(lambda q, lam, u: dH(q, lam, u)[..., :-1])
    monkeypatch.setattr(heisenberg, "heisenberg_reduced_problem", lambda: dataclasses.replace(
        builtin(), jacobians=dataclasses.replace(builtin().jacobians, dH=short)))
    code, result, _ = run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--lambda0", "1,0,1",
                              "--T", "0.01", "--out", str(tmp_path / "reduced.csv"))
    assert code == 1
    assert result["status"] == "error" and "dH returned shape" in result["error"]


@pytest.mark.parametrize("command", ["solve-pmp", "solve-reduced"])
def test_a_gradient_of_other_dynamics_exits_1_naming_it(tmp_path, capsys, monkeypatch, command):
    """The builtin with its dynamics doubled keeps the gradient compiled for the original ones: exit 1, not a run."""
    name, field, start = {
        "solve-pmp": ("heisenberg_problem", "dynamics", ["--p0", "1,0,1"]),
        "solve-reduced": ("heisenberg_reduced_problem", "fiber_dynamics", ["--lambda0", "1,0,1"]),
    }[command]
    problem = getattr(heisenberg, name)()
    twice = ocp.stacked(lambda *args: 2.0 * getattr(problem, field)(*args))
    monkeypatch.setattr(heisenberg, name, lambda: dataclasses.replace(problem, **{field: twice}))
    code, result, _ = run_cli(capsys, command, "--builtin", "heisenberg", *start, "--T", "0.01",
                              "--out", str(tmp_path / "run.csv"))
    assert code == 1
    assert result["status"] == "error" and "dH does not belong to the dynamics" in result["error"]
    assert not (tmp_path / "run.csv").exists()


def test_the_builtin_on_the_opposite_algebra_runs_the_opposite_flow(tmp_path, capsys, monkeypatch):
    """The builtin reduced problem with its algebra replaced by the opposite one brings that algebra's bracket:
    it exits 0 and mu follows (cos(theta - k t), sin(theta - k t), k)."""
    builtin = heisenberg.heisenberg_reduced_problem()
    opposite = LieAlgebraSpec(3, -builtin.algebra.structure_constants)
    monkeypatch.setattr(heisenberg, "heisenberg_reduced_problem", lambda: dataclasses.replace(builtin, algebra=opposite))
    theta, k = 0.3, 1.5
    code, _, _ = run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--theta", str(theta), "--k", str(k),
                         "--T", "1", "--out", str(tmp_path / "run.csv"))
    assert code == 0
    run = Trajectory.from_csv(tmp_path / "run.csv")
    angle = theta - k * run.times
    expected = np.column_stack([np.cos(angle), np.sin(angle), np.full(len(run), k)])
    assert np.abs(run.block("mu") - expected).max() <= 1e-6


@pytest.mark.parametrize("thetas", ["0.1234561,0.1234562", "0,0"])
def test_grid_points_sharing_an_output_file_are_an_input_error(tmp_path, capsys, thetas):
    """Two grid points whose output names agree to 6 significant digits exit 1 before any work, naming the
    shared path and both points; nothing is written."""
    code, result, _ = run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--theta", thetas, "--k", "1",
                              "--T", "0.01", "--out", str(tmp_path / "grid.csv"))
    first, second = thetas.split(",")
    shared = tmp_path / f"grid_theta{float(first):g}_k1.csv"
    assert code == 1 and result["status"] == "error"
    assert str(shared) in result["error"]
    assert f"({float(first)!r}, 1.0)" in result["error"] and f"({float(second)!r}, 1.0)" in result["error"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("shortcut", [("--theta", "0", "--k", "1"), ("--theta", "0"), ("--k", "1")])
def test_lambda0_with_the_theta_k_shortcut_is_an_input_error(tmp_path, capsys, shortcut):
    """--lambda0 together with --theta or --k exits 1 naming both options, with no output file."""
    code, result, _ = run_cli(capsys, "solve-reduced", "--builtin", "heisenberg", "--lambda0", "1,0,1", *shortcut,
                              "--T", "0.01", "--out", str(tmp_path / "run.csv"))
    assert code == 1 and result["status"] == "error"
    assert "--lambda0" in result["error"] and "--theta/--k" in result["error"]
    assert not (tmp_path / "run.csv").exists()


def test_a_one_dimensional_base_pads_the_compiled_bracket(tmp_path, capsys):
    """The README file with a base coordinate z1, z1_dot = u1 (n = 4, s = 1): the p_z row of -B F is zero, so p_z
    stays 0, z1 integrates u1, and the mu and u columns and h are those of the README file bit for bit;
    check-dirac passes."""
    data = _readme_problem()
    data.update(n=4, dynamics=data["dynamics"] + ["u1"], action=[row + ["0"] for row in data["action"]])
    data["reduced"].update(s=1, base_dynamics=["u1"])
    runs = []
    for name, problem in (("readme", _readme_problem()), ("base", data)):
        (tmp_path / f"{name}.json").write_text(json.dumps(problem))
        out = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(capsys, "solve-reduced", "--problem", str(tmp_path / f"{name}.json"), "--lambda0",
                             "0.6,-0.8,1", "--T", "1", "--step", "1e-2", "--out", str(out))
        assert code == 0
        runs.append(Trajectory.from_csv(out))
    readme, base = runs
    assert base.columns == ("z1", "pz1", *readme.columns)
    assert np.array_equal(base.states[:, 2:], readme.states) and np.array_equal(base.channel("h"), readme.channel("h"))
    assert np.array_equal(base.block("pz"), np.zeros((len(base), 1)))
    assert abs(base.block("z")[-1, 0] - np.trapezoid(base.block("u")[:, 0], base.times)) <= 1e-4
    code, result, _ = run_cli(capsys, "check-dirac", "--problem", str(tmp_path / "base.json"),
                              "--traj", str(tmp_path / "base.csv"))
    assert code == 0 and result["mode"] == "reduced" and result["max_residual"] <= 1e-12


def _fresh_process(cwd, args):
    """The exit code and the stdout of ``python -m pontrylie ARGS`` in a new process on this checkout's sources."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pontrylie", *args], capture_output=True, text=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout


def test_successive_main_calls_share_the_parser_without_leaking_options(tmp_path, capsys, monkeypatch):
    """One parser serves every ``main`` call of a process: each call gives the exit code and stdout (the
    RESULT line) of a fresh process.  A usage error exits 1 with an error RESULT line."""
    monkeypatch.chdir(tmp_path)
    solve = ["solve-pmp", "--builtin", "heisenberg", "--p0", "1,0,1", "--T", "0.01"]
    calls = [
        [*solve, "--format", "json", "--out", "a.json"], [*solve, "--out", "b.csv"],
        ["solve-pmp", "--T", "not-a-number"], [*solve, "--out", "c.csv"],
        ["check-dirac", "--self-test", "--count", "3"], ["check-dirac", "--builtin", "heisenberg", "--traj", "b.csv"],
    ]
    assert cli._build_parser() is cli._build_parser()
    in_process = []
    for args in calls:
        code = main(args)
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [0, 0, 1, 0, 0, 0]
    assert _strict_result(in_process[1][1])["out"] == "b.csv" and Trajectory.from_csv(tmp_path / "b.csv")
    assert _strict_result(in_process[2][1])["status"] == "error"
    assert _strict_result(in_process[5][1])["mode"] == "full"
    for args, outcome in zip(calls, in_process):
        assert _fresh_process(tmp_path, args) == outcome, args


def test_python_dash_m_pontrylie(tmp_path):
    code, out = _fresh_process(tmp_path, ["check-dirac", "--self-test", "--count", "5"])
    assert code == 0 and _strict_result(out)["passes"] == 5
