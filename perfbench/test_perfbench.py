"""Tests of the benchmark itself, in smoke mode.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checkout
from run import END_TO_END, PER_LAYER
from workloads import SMOKE, WORKLOADS, Params, build, parse_result, run_pass

HERE = Path(__file__).resolve().parent
SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_spec_matches_the_metrics_the_runner_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.fixture(scope="module")
def traced_counts():
    return {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_its_checks(workload, trace, traced_counts):
    proc = run_bench(checkout.ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, rescale_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = PER_LAYER if trace else END_TO_END
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert rescale_line.startswith("RESCALE ")
    rescale = json.loads(rescale_line.removeprefix("RESCALE "))
    assert set(rescale) == (set() if trace else set(END_TO_END) - {"peak_rss_mb"})
    for name, r in rescale.items():  # rescaled to the nominal machine speed: times multiply, rates divide
        rescaled = r["raw"] / r["scale"] if name.endswith("_per_s") else r["raw"] * r["scale"]
        assert result["metrics"][name]["value"] == pytest.approx(rescaled, rel=1e-12)
    assert all(m["value"] > 0 for name, m in result["metrics"].items() if name != "cli.overhead_share")
    if trace:
        counts = {k: v["value"] for k, v in result["metrics"].items() if "callbacks_per_step" in k}
        # callback counts are exact: every traced run on the same seed repeats them
        assert traced_counts.setdefault("counts", counts) == counts


@pytest.mark.parametrize("entry", ["run", "setup_probe", "baseline"])
def test_entry_points_pin_blas_before_numpy_loads(entry):
    code = (f"import {entry}, checkout, os; assert not checkout.NUMPY_LOADED_BEFORE_PINNING; "
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=HERE)
    assert proc.returncode == 0, proc.stderr


def test_import_cli_refuses_when_numpy_loaded_first():
    code = "import numpy, checkout; checkout.import_cli()"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=HERE)
    assert "BenchmarkError" in proc.stderr


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_result_parsing_rejects_non_finite_numbers():
    assert parse_result('noise\nRESULT {"max_deviation": 1e-12}') == {"max_deviation": 1e-12}
    for bad in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            parse_result(f'RESULT {{"max_deviation": {bad}}}')
    with pytest.raises(ValueError):
        parse_result("no result line")


class NaNCli:
    """Stands in for ``pontrylie.cli``: exits 0 but prints a NaN deviation."""

    @staticmethod
    def main(argv):
        print('RESULT {"status": "ok", "exit_code": 0, "max_deviation": NaN}')
        return 0


def test_every_bad_output_counts_as_a_failed_operation(tmp_path):
    commands = build("geodesic-pipeline", Params.draw(7), SMOKE, tmp_path)
    record = run_pass(NaNCli, commands, tmp_path, "test")
    assert record.attempted == len(commands)
    assert record.failed == len(commands)
