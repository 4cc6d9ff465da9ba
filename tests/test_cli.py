"""Command-line front end: exit codes, RESULT lines, file round trips."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import so3_algebra
from pontrylie import cli, ocp
from pontrylie.cli import load_problem_file, main
from pontrylie.heisenberg import heisenberg_algebra
from pontrylie.pmp import Trajectory

HEISENBERG_JSON = {
    "n": 3,
    "r": 2,
    "dynamics": ["u1", "u2", "(x1*u2 - x2*u1)/2"],
    "lagrangian": "0.5*(u1^2 + u2^2)",
    "algebra": {"dim": 3, "structure": [[0, 1, 2, 1.0]]},
    "action": [["1", "0", "0.5*x2"], ["0", "1", "-0.5*x1"], ["0", "0", "1"]],
    "reduced": {
        "s": 0,
        "lagrangian": "0.5*(u1^2 + u2^2)",
        "base_dynamics": [],
        "fiber_dynamics": ["u1", "u2", "0"],
    },
}


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


def _readme_problem() -> dict:
    """The JSON example of the README's "Problem files" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Problem files"):]
    block = section[section.index("```json") + len("```json"):]
    return json.loads(block[: block.index("```")])


def test_problem_file_has_exact_derivatives(tmp_path):
    problem_file = tmp_path / "heis.json"
    problem_file.write_text(json.dumps(_readme_problem()))
    loaded = load_problem_file(problem_file)
    for jac in (loaded.problem.jacobians, loaded.reduced.jacobians):
        assert all(getattr(jac, f.name) is not None for f in dataclasses.fields(jac))


@pytest.mark.parametrize(
    ("command", "start", "channel"),
    [("solve-pmp", ["--p0", "0.6,-0.8,1"], "H"), ("solve-reduced", ["--lambda0", "0.6,-0.8,1"], "h")],
)
def test_readme_problem_file_reproduces_builtin(tmp_path, capsys, monkeypatch, command, start, channel):
    problem_file = tmp_path / "heis.json"
    problem_file.write_text(json.dumps(_readme_problem()))

    def no_finite_differences(*args, **kwargs):
        raise AssertionError("finite-difference fallback used")

    for name in ("fd_gradient", "fd_hessian_direct", "fd_hessian_from_gradient"):
        monkeypatch.setattr(ocp, name, no_finite_differences)
    runs = []
    for source in (["--builtin", "heisenberg"], ["--problem", str(problem_file)]):
        out = tmp_path / f"{source[0][2:]}.csv"
        code, _, _ = run_cli(capsys, command, *source, *start, "--T", "1", "--step", "1e-2", "--out", str(out))
        assert code == 0
        runs.append(Trajectory.from_csv(out))
    builtin, from_file = runs
    assert np.max(np.abs(builtin.states - from_file.states)) <= 1e-13
    assert np.max(np.abs(builtin.channel(channel) - from_file.channel(channel))) <= 1e-13


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
    assert main(["solve-pmp", "--T", "not-a-number"]) == 1
    capsys.readouterr()


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
