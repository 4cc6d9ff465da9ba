"""The pontrylie benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see ``workloads.py``): ``geodesic-pipeline``, ``reduced-grid`` and
``problem-file``.  One process, one thread (BLAS pinned to one thread), a
closed loop with one caller: each CLI command starts when the previous one
returns.  Every run starts from a fresh interpreter.

A run first times ``SETUP_REPEATS`` set-ups in fresh child interpreters
(``setup_probe.py``), then runs one untimed smoke-sized warm-up pass, then
repeats the workload's pass until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics: wall and CPU time per pass and
the two throughputs, each the median over the timed passes, all four
rescaled to a nominal machine speed measured during the run (``calibrate.py``);
``setup_s`` is the median over the set-ups, each rescaled the same way by a
kernel run just before it; ``peak_rss_mb`` is the process's peak.  The line
before the result, ``RESCALE {...}``, holds each rescaled metric's ``raw``
value and ``scale``: ``value = raw * scale`` for times and ``raw / scale`` for
rates, so a regression hidden by the scale shows.
``--trace 1`` runs each CLI pass next to two mirrors of it through the
library, one traced and one plain, and then the layer probes (``tracing.py``);
it reports the per-layer metrics and writes the spans to ``.bench_out/``.

Every command's outputs are checked (``workloads.run_pass``).  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, each metric ``{"value": ..., "unit": ...}``.  ``--smoke`` shrinks every horizon for the benchmark's own tests.
Without the package sources in ``src/`` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout  # first: pins BLAS to one thread before NumPy loads
import calibrate
from workloads import FULL, SMOKE, WORKLOADS, Params, build, run_pass

SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "solve_steps_per_s": "1/s",
    "verify_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ocp.partials_us": "us",
    "ocp.partials_file_us": "us",
    "ocp.callbacks_per_step": "calls/step",
    "ocp.callbacks_per_step_file": "calls/step",
    "pmp.step_us": "us",
    "pmp.step_file_us": "us",
    "pmp.feedback_us": "us",
    "pmp.dirac_row_us": "us",
    "pmp.csv_write_row_us": "us",
    "pmp.csv_read_row_us": "us",
    "reduction.step_us": "us",
    "reduction.grid_traj_ms": "ms",
    "reduction.rhs_us": "us",
    "reduction.eliminate_us": "us",
    "reduction.callbacks_per_step": "calls/step",
    "reduction.dirac_row_us": "us",
    "dirac.membership_us": "us",
    "dirac.reduced_fiber_us": "us",
    "dirac.is_dirac_us": "us",
    "lie.exp_us": "us",
    "lie.coadjoint_us": "us",
    "reconstruct.step_us": "us",
    "reconstruct.chart_row_us": "us",
    "reconstruct.xi_row_us": "us",
    "expr.dynamics_eval_us": "us",
    "cli.import_s": "s",
    "cli.load_file_ms": "ms",
    "cli.overhead_share": "share",
    "trace.overhead_ratio": "ratio",
}


def setup_probes(workload: str, seed: int, smoke: bool, work: Path):
    """Set-up time (spawn to ready) and package import time of fresh interpreters.

    Returns the ``setup_s`` entry, the median set-up time rescaled to the
    nominal machine speed (each set-up by the calibration kernel run just
    before it) with the raw median and their ratio as ``scale``, and the
    median import time.
    """
    setups, scaled, imports = [], [], []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), "--workload", workload,
                "--seed", str(seed), "--work", str(work / f"setup{i}")] + (["--smoke"] if smoke else [])
        scale = calibrate.NOMINAL_S / calibrate.timed_kernel()[0]
        spawned = time.time()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=checkout.ROOT)
        if proc.returncode != 0:
            raise checkout.BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(report["ready"] - spawned)
        scaled.append(setups[-1] * scale)
        imports.append(report["import_s"])
    value, raw = statistics.median(scaled), statistics.median(setups)
    entry = {"value": value, "unit": "s", "raw": raw, "scale": value / raw}
    return entry, statistics.median(imports)


def measure(cli, workload, commands, work, deadline, records) -> dict:
    """End-to-end metric entries: medians over the timed passes, rescaled to the nominal machine speed.

    The calibration kernel runs before every command and once after the
    last; each command's time is rescaled by the mean of the kernel times on
    either side of it (wall times for wall-clock metrics, CPU times for
    ``cpu_s``).  Each entry holds the median of the rescaled per-pass values,
    the median of the raw ones, and their ratio as ``scale``.
    """
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(cli, commands, work, f"{workload} pass {len(passes) + 1}", calibrate.timed_kernel))
    records.extend(passes)
    kernels = [k for p in passes for k in p.kernel_s] + [calibrate.timed_kernel()]

    def factor(i, column):  # for the i-th command of the run
        return calibrate.NOMINAL_S * 2 / (kernels[i][column] + kernels[i + 1][column])

    timed = ("wall_s", "cpu_s", "solve_steps_per_s", "verify_rows_per_s")
    raw, scaled = {name: [] for name in timed}, {name: [] for name in timed}
    for j, p in enumerate(passes):
        first = j * len(commands)
        wall = [c * factor(first + i, 0) for i, c in enumerate(p.command_s)]
        raw["wall_s"].append(p.wall_s)
        scaled["wall_s"].append(sum(wall))
        raw["cpu_s"].append(p.cpu_s)
        scaled["cpu_s"].append(sum(c * factor(first + i, 1) for i, c in enumerate(p.command_cpu_s)))
        for name, kind, count, seconds in (("solve_steps_per_s", "solve", p.solve_steps, p.solve_s),
                                           ("verify_rows_per_s", "verify", p.verify_rows, p.verify_s)):
            raw[name].append(count / seconds)
            scaled[name].append(count / sum(w for w, cmd in zip(wall, commands) if cmd.kind == kind))
    entries = {}
    for name in timed:
        value, median_raw = statistics.median(scaled[name]), statistics.median(raw[name])
        rate = name.endswith("_per_s")  # times multiply by the scale, rates divide
        entries[name] = {"value": value, "unit": END_TO_END[name], "raw": median_raw,
                         "scale": median_raw / value if rate else value / median_raw}
    entries["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "unit": END_TO_END["peak_rss_mb"]}
    return entries


def measure_traced(cli, workload, seed, commands, params, sizes, work, deadline, records) -> dict:
    """Per-layer metrics; the two harness metrics come from medians of pass times.

    Each round runs the CLI pass, the traced mirror (spans and counted
    callbacks) and the plain mirror (neither), in an order that reverses
    every other round, so drift in machine speed hits all three alike.
    ``trace.overhead_ratio`` is traced over plain mirror time;
    ``cli.overhead_share`` is the share of the CLI pass time not covered by
    the traced mirror's library spans.
    """
    import tracing  # imports pontrylie, so only after checkout.import_cli()

    tr = tracing.Tracer(workload)
    counter = tracing.CallCounter()
    cli_s, traced_s, plain_s, library_s = [], [], [], []

    def cli_pass():
        record = run_pass(cli, commands, work, f"{workload} traced round {len(cli_s) + 1}")
        records.append(record)
        cli_s.append(record.wall_s)

    def traced_mirror():
        start = time.perf_counter()
        root = tracing.mirror_pass(tr, workload, params, sizes, work / "mirror", counter)
        traced_s.append(time.perf_counter() - start)
        root["callbacks"], counter.calls = counter.calls, 0
        library_s.append(tracing.library_time(tr, root))

    def plain_mirror():
        start = time.perf_counter()
        tracing.mirror_pass(tracing.NullTracer(workload), workload, params, sizes, work / "mirror",
                            tracing.NullCounter())
        plain_s.append(time.perf_counter() - start)

    while not cli_s or time.perf_counter() < deadline:
        order = (cli_pass, traced_mirror, plain_mirror)
        for step in order if len(cli_s) % 2 == 0 else reversed(order):
            step()
    metrics = tracing.layer_probes(tr, params, sizes, work / "probe")
    metrics["cli.overhead_share"] = 1.0 - statistics.median(library_s) / statistics.median(cli_s)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    tr.write(checkout.OUT / f"trace-{workload}-seed{seed}.json")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny horizons, for the benchmark's own tests")
    args = parser.parse_args(argv)

    work = checkout.OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = checkout.import_cli()
        setup_s, import_s = setup_probes(args.workload, args.seed, args.smoke, work)
        sizes = SMOKE if args.smoke else FULL
        params = Params.draw(args.seed)
        commands = build(args.workload, params, sizes, work)
        # a smoke-sized pass fills caches and finishes lazy set-up on every code path
        warm_up = work / "warm-up"
        records = [run_pass(cli, build(args.workload, params, SMOKE, warm_up), warm_up, f"{args.workload} warm-up")]
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            values = measure_traced(cli, args.workload, args.seed, commands, params, sizes, work, deadline, records)
            values["cli.import_s"] = import_s
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            metrics = {"setup_s": setup_s, **measure(cli, args.workload, commands, work, deadline, records)}
            metrics = {name: metrics[name] for name in END_TO_END}
    except (checkout.BenchmarkError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    rescale = {name: {k: m.pop(k) for k in ("raw", "scale")} for name, m in metrics.items() if "raw" in m}
    for name, m in metrics.items():
        note = f"(raw {rescale[name]['raw']:.6g}, machine-speed scale {rescale[name]['scale']:.4f})" \
            if name in rescale else ""
        print(f"{args.workload:18} {name:28} {m['value']:14.6g} {m['unit']} {note}")
    print(f"{args.workload:18} {'fail_ratio':28} {failed / attempted:14.6g} failed/attempted ({failed}/{attempted})")
    print("RESCALE " + json.dumps(rescale))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
