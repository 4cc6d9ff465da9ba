"""The traced run: spans around library calls, counted problem callbacks, layer probes.

Spans are recorded from the benchmark's own code around calls into the
library's public API (``pontrylie`` exports, ``cli.load_problem_file`` and
``Trajectory`` methods), kept in memory and written out as JSON when the run
ends.  Callback counts come from wrapping the callables of the problems the
benchmark hands in, so they are exact and need nothing inside the program.
Every per-layer metric is a probe on the seed's inputs, the same probes for
every workload.  The two harness metrics come from the workload's own CLI
pass and two library mirrors of it, one traced and one plain (``NullTracer``
and ``NullCounter``).
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import pontrylie as pl
from pontrylie import cli
from pontrylie.heisenberg import heisenberg_problem, heisenberg_reduced_problem

from workloads import STEP, Params, Sizes, mu0_of, steps_of, write_problem_file

# the CLI's Newton tolerance for expression-backed problem files
FILE_CONFIG = pl.PmpSolverConfig(rk_step=STEP, newton_tol=1e-9)
BUILTIN_CONFIG = pl.PmpSolverConfig(rk_step=STEP)


class Tracer:
    """In-memory spans: name, start, end, parent span and workload id, plus attributes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "workload": self.workload,
                  "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "spans": self.spans}, indent=1))


class NullTracer(Tracer):
    """Records nothing: the plain mirror that ``trace.overhead_ratio`` compares against."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


def duration(record: dict) -> float:
    return record["end"] - record["start"]


class NullCounter:
    """Hands problems back unwrapped: the plain mirror counts no callbacks."""

    calls = 0

    def problem(self, problem):
        return problem

    def reduced(self, problem):
        return problem


class CallCounter:
    """Counts calls of the problem callables it wraps."""

    def __init__(self):
        self.calls = 0

    def wrap(self, fn):
        if fn is None:
            return None

        def counted(*args):
            self.calls += 1
            return fn(*args)

        return counted

    def _wrap_fields(self, obj, skip=()):
        if obj is None:
            return None
        return dataclasses.replace(obj, **{
            f.name: self.wrap(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if f.name not in skip and callable(getattr(obj, f.name))
        })

    def problem(self, problem: pl.ControlProblem) -> pl.ControlProblem:
        return dataclasses.replace(
            self._wrap_fields(problem, skip=("jacobians", "symmetry")),
            jacobians=self._wrap_fields(problem.jacobians),
            symmetry=self._wrap_fields(problem.symmetry, skip=("algebra",)),
        )

    def reduced(self, problem: pl.ReducedProblem) -> pl.ReducedProblem:
        return dataclasses.replace(
            self._wrap_fields(problem, skip=("jacobians", "algebra")),
            jacobians=self._wrap_fields(problem.jacobians),
            casimirs={name: self.wrap(fn) for name, fn in problem.casimirs.items()},
        )


def reduced_state(mu) -> pl.ReducedState:
    return pl.ReducedState(np.zeros(0), np.zeros(0), mu, np.zeros(2))


# ---------------------------------------------------------------- mirror passes


def _xi_rows(reduced: pl.ReducedProblem, traj: pl.Trajectory) -> np.ndarray:
    """The algebra curve xi = fiber_dynamics(z, u) along a reduced trajectory, as ``reconstruct`` builds it."""
    z, u = traj.block("z"), traj.block("u")
    return np.array([np.asarray(reduced.fiber_dynamics(z[i], u[i]), dtype=float) for i in range(len(traj))])


def _reconstruct(tr: Tracer, reduced, traj_path: Path, out: Path) -> None:
    with tr.span("pmp.from_csv"):
        traj = pl.Trajectory.from_csv(traj_path)
    with tr.span("reconstruct.xi_rows", rows=len(traj)):
        xi = _xi_rows(reduced, traj)
    times = traj.times - traj.times[0]
    with tr.span("reconstruct.reconstruct_group", steps=len(traj) - 1):
        path = pl.reconstruct_group(reduced.algebra, pl.GroupElement(np.eye(3)), (times, xi),
                                    float(times[-1]), float(np.median(np.diff(times))))
    with tr.span("reconstruct.chart_trajectory", rows=len(traj)):
        chart = pl.chart_trajectory(path)
    with tr.span("pmp.to_csv", rows=len(chart)):
        chart.to_csv(out)


def _solve_full(tr: Tracer, problem, mu0, horizon, config, out: Path) -> None:
    with tr.span("pmp.integrate_pmp", steps=steps_of(horizon)):
        traj = pl.integrate_pmp(problem, np.zeros(3), mu0, horizon, config)
    with tr.span("pmp.to_csv", rows=len(traj)):
        traj.to_csv(out)


def _solve_reduced(tr: Tracer, reduced, mu0, horizon, config, out: Path) -> None:
    with tr.span("reduction.integrate_reduced", steps=steps_of(horizon)):
        traj = pl.integrate_reduced(reduced, reduced_state(mu0), horizon, config)
    with tr.span("pmp.to_csv", rows=len(traj)):
        traj.to_csv(out)


def _check_full(tr: Tracer, problem, traj_path: Path) -> None:
    with tr.span("pmp.from_csv"):
        traj = pl.Trajectory.from_csv(traj_path)
    with tr.span("pmp.dirac_membership_residuals", rows=len(traj)):
        pl.dirac_membership_residuals(problem, traj)


def mirror_pass(tr: Tracer, workload: str, params: Params, sizes: Sizes, work: Path, counter: CallCounter) -> dict:
    """Repeat one CLI pass of ``workload`` through the library, with counted callbacks.

    Each command gets a span named like the command, and each library call
    inside it a span named ``<module>.<function>``.  Returns the pass's root span.
    """
    work.mkdir(parents=True, exist_ok=True)
    with tr.span(f"pass {workload}") as root:
        if workload == "geodesic-pipeline":
            problem = counter.problem(heisenberg_problem())
            reduced = counter.reduced(heisenberg_reduced_problem())
            mu0 = mu0_of(*params.geo)
            full, red = work / "full.csv", work / "reduced.csv"
            with tr.span("solve-pmp"):
                _solve_full(tr, problem, mu0, sizes.geo_T, BUILTIN_CONFIG, full)
            with tr.span("solve-reduced"):
                _solve_reduced(tr, reduced, mu0, sizes.geo_T, BUILTIN_CONFIG, red)
            with tr.span("reconstruct"):
                _reconstruct(tr, reduced, red, work / "chart.csv")
            with tr.span("check-dirac full"):
                _check_full(tr, problem, full)
            with tr.span("check-dirac reduced"):
                with tr.span("pmp.from_csv"):
                    traj = pl.Trajectory.from_csv(red)
                with tr.span("reduction.reduced_dirac_residuals", rows=len(traj)):
                    pl.reduced_dirac_residuals(reduced, traj)
            with tr.span("compare"):
                with tr.span("pmp.from_csv"):
                    a, b = pl.Trajectory.from_csv(full), pl.Trajectory.from_csv(red)
                x, p, u = a.block("x"), a.block("p"), a.block("u")
                with tr.span("reduction.project_full_to_reduced", rows=len(a)):
                    mu = np.array([pl.project_full_to_reduced(problem, pl.PontryaginPoint(x[i], p[i], u[i])).mu
                                   for i in range(len(a))])
                float(np.max(np.abs(mu - b.block("mu"))))  # the deviation `compare` reports
            with tr.span("check-dirac self-test"):
                structures = _self_test_structures(params.dirac_seed, sizes.self_test_count)
                with tr.span("dirac.is_dirac", calls=len(structures)):
                    for structure in structures:
                        pl.is_dirac(structure)
        elif workload == "reduced-grid":
            reduced = counter.reduced(heisenberg_reduced_problem())
            with tr.span("solve-reduced grid"):
                for i, (theta, k) in enumerate(params.grid):
                    _solve_reduced(tr, reduced, mu0_of(theta, k), sizes.grid_T, BUILTIN_CONFIG, work / f"grid_{i}.csv")
            with tr.span("reconstruct"):
                # the member the CLI pass reconstructs: first theta, first k != 0
                _reconstruct(tr, reduced, work / "grid_1.csv", work / "grid_chart.csv")
        elif workload == "problem-file":
            path = write_problem_file(work)
            mu0 = mu0_of(*params.file)
            full = work / "file_full.csv"

            def load():
                with tr.span("cli.load_problem_file"):
                    return cli.load_problem_file(path)

            with tr.span("solve-pmp --problem"):
                _solve_full(tr, counter.problem(load().problem), mu0, sizes.file_T, FILE_CONFIG, full)
            with tr.span("solve-reduced --problem"):
                _solve_reduced(tr, counter.reduced(load().reduced), mu0, sizes.file_T, FILE_CONFIG,
                               work / "file_reduced.csv")
            with tr.span("check-dirac --problem"):
                _check_full(tr, counter.problem(load().problem), full)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return root


def _self_test_structures(seed: int, count: int) -> list:
    """The random two-form graphs ``check-dirac --self-test --seed`` draws."""
    rng = np.random.default_rng(seed)
    structures = []
    for _ in range(count):
        d = int(rng.integers(1, 9))
        raw = rng.normal(size=(d, d))
        structures.append(pl.graph_of_two_form(pl.TwoForm(raw - raw.T)))
    return structures


def library_time(tr: Tracer, root: dict) -> float:
    """Time spent in library spans (named ``<module>.<function>``) under ``root``, the latest pass."""
    return sum(duration(s) for s in tr.spans[root["id"] + 1:] if "." in s["name"])


# ---------------------------------------------------------------- layer probes


def per_call_us(tr: Tracer, name: str, fn: Callable, args: list, repeats: int) -> float:
    """Median over ``repeats`` of the mean time of ``fn(*a)`` over ``args``, in microseconds."""
    times = []
    with tr.span(name, calls=len(args) * repeats):
        for _ in range(repeats):
            start = time.perf_counter()
            for a in args:
                fn(*a)
            times.append((time.perf_counter() - start) / len(args))
    return 1e6 * statistics.median(times)


def timed(tr: Tracer, name: str, fn: Callable, **attrs):
    """``fn()`` under a span; returns its value and the span's duration in seconds."""
    with tr.span(name, **attrs) as record:
        value = fn()
    return value, duration(record)


def layer_probes(tr: Tracer, params: Params, sizes: Sizes, work: Path) -> Dict[str, float]:
    """Per-layer costs and exact callback counts on the seed's inputs of all three workloads."""
    work.mkdir(parents=True, exist_ok=True)
    m: Dict[str, float] = {}
    reps = sizes.probe_repeats
    problem, reduced = heisenberg_problem(), heisenberg_reduced_problem()
    alg = reduced.algebra
    mu0 = mu0_of(*params.geo)
    geo_steps = steps_of(sizes.geo_T)

    with tr.span("probe.builtin"):
        full, t = timed(tr, "pmp.integrate_pmp", steps=geo_steps, fn=lambda: pl.integrate_pmp(
            problem, np.zeros(3), mu0, sizes.geo_T, BUILTIN_CONFIG))
        m["pmp.step_us"] = 1e6 * t / geo_steps
        red, t = timed(tr, "reduction.integrate_reduced", steps=geo_steps, fn=lambda: pl.integrate_reduced(
            reduced, reduced_state(mu0), sizes.geo_T, BUILTIN_CONFIG))
        m["reduction.step_us"] = 1e6 * t / geo_steps

        count_T = sizes.count_steps * STEP
        counter = CallCounter()
        with tr.span("ocp.count_callbacks", steps=sizes.count_steps) as s:
            pl.integrate_pmp(counter.problem(problem), np.zeros(3), mu0, count_T, BUILTIN_CONFIG)
            s["callbacks"] = counter.calls
        m["ocp.callbacks_per_step"] = counter.calls / sizes.count_steps
        counter = CallCounter()
        with tr.span("reduction.count_callbacks", steps=sizes.count_steps) as s:
            pl.integrate_reduced(counter.reduced(reduced), reduced_state(mu0), count_T, BUILTIN_CONFIG)
            s["callbacks"] = counter.calls
        m["reduction.callbacks_per_step"] = counter.calls / sizes.count_steps

        x, p, u = full.block("x"), full.block("p"), full.block("u")
        points = [(problem, pl.PontryaginPoint(x[i], p[i], u[i])) for i in range(len(full))]
        m["ocp.partials_us"] = per_call_us(tr, "ocp.hamiltonian_partials", pl.hamiltonian_partials, points, reps)
        # warm started from the neighbouring row, as the integrator does
        feedback_args = [(problem, x[i], p[i], u[i - 1], BUILTIN_CONFIG) for i in range(1, len(full))]
        m["pmp.feedback_us"] = per_call_us(tr, "pmp.optimal_feedback", pl.optimal_feedback, feedback_args, reps)
        _, t = timed(tr, "pmp.dirac_membership_residuals", rows=len(full),
                     fn=lambda: pl.dirac_membership_residuals(problem, full))
        m["pmp.dirac_row_us"] = 1e6 * t / len(full)
        csv_path = work / "probe_full.csv"
        m["pmp.csv_write_row_us"] = per_call_us(tr, "pmp.to_csv", full.to_csv, [(csv_path,)], reps) / len(full)
        m["pmp.csv_read_row_us"] = per_call_us(tr, "pmp.from_csv", pl.Trajectory.from_csv, [(csv_path,)], reps) / len(full)

        mu, ur = red.block("mu"), red.block("u")
        empty = np.zeros(0)
        states = [(reduced, pl.ReducedState(empty, empty, mu[i], ur[i]), BUILTIN_CONFIG) for i in range(len(red))]
        m["reduction.rhs_us"] = per_call_us(tr, "reduction.reduced_pmp_rhs", pl.reduced_pmp_rhs, states, reps)
        eliminate_args = [(reduced, empty, empty, mu[i], ur[i - 1], BUILTIN_CONFIG) for i in range(1, len(red))]
        m["reduction.eliminate_us"] = per_call_us(tr, "reduction.eliminate_controls_reduced",
                                                  pl.eliminate_controls_reduced, eliminate_args, reps)
        _, t = timed(tr, "reduction.reduced_dirac_residuals", rows=len(red),
                     fn=lambda: pl.reduced_dirac_residuals(reduced, red))
        m["reduction.dirac_row_us"] = 1e6 * t / len(red)

        fiber = pl.graph_of_two_form(pl.pontryagin_two_form(3, 2))
        covectors = []
        for _, point in points:
            parts = pl.hamiltonian_partials(problem, point)
            covectors.append((fiber, np.concatenate([parts.dH_dp, -parts.dH_dx, np.zeros(2)]),
                              np.concatenate([parts.dH_dx, parts.dH_dp, parts.dH_du])))
        m["dirac.membership_us"] = per_call_us(tr, "dirac.membership_residual", pl.membership_residual, covectors, reps)
        m["dirac.reduced_fiber_us"] = per_call_us(tr, "dirac.reduced_dirac_fiber", pl.reduced_dirac_fiber,
                                                  [(alg, row) for row in mu], reps)
        structures = [(s,) for s in _self_test_structures(params.dirac_seed, sizes.self_test_count)]
        m["dirac.is_dirac_us"] = per_call_us(tr, "dirac.is_dirac", pl.is_dirac, structures, reps)

        xi = _xi_rows(reduced, red)
        m["reconstruct.xi_row_us"] = per_call_us(tr, "reconstruct.xi_rows", _xi_rows, [(reduced, red)], reps) / len(red)
        m["lie.exp_us"] = per_call_us(tr, "lie.exp_nilpotent", pl.exp_nilpotent, [(alg, STEP * row) for row in xi], reps)
        m["lie.coadjoint_us"] = per_call_us(tr, "lie.coadjoint", pl.coadjoint,
                                            [(alg, xi[i], mu[i]) for i in range(len(red))], reps)
        times = red.times - red.times[0]
        g0 = pl.GroupElement(np.eye(3))
        path, t = timed(tr, "reconstruct.reconstruct_group", steps=geo_steps,
                        fn=lambda: pl.reconstruct_group(alg, g0, (times, xi), float(times[-1]), STEP))
        m["reconstruct.step_us"] = 1e6 * t / geo_steps
        m["reconstruct.chart_row_us"] = per_call_us(tr, "reconstruct.chart_trajectory", pl.chart_trajectory,
                                                    [(path,)], reps) / len(red)

    with tr.span("probe.problem-file"):
        file_path = write_problem_file(work)
        m["cli.load_file_ms"] = 1e-3 * per_call_us(tr, "cli.load_problem_file", cli.load_problem_file,
                                                   [(file_path,)] * 5, reps)
        loaded = cli.load_problem_file(file_path)
        fmu0 = mu0_of(*params.file)
        file_steps = steps_of(sizes.file_T)
        ffull, t = timed(tr, "pmp.integrate_pmp", steps=file_steps, fn=lambda: pl.integrate_pmp(
            loaded.problem, np.zeros(3), fmu0, sizes.file_T, FILE_CONFIG))
        m["pmp.step_file_us"] = 1e6 * t / file_steps
        counter = CallCounter()
        with tr.span("ocp.count_callbacks", steps=sizes.count_steps) as s:
            pl.integrate_pmp(counter.problem(loaded.problem), np.zeros(3), fmu0, count_T, FILE_CONFIG)
            s["callbacks"] = counter.calls
        m["ocp.callbacks_per_step_file"] = counter.calls / sizes.count_steps
        fx, fp, fu = ffull.block("x"), ffull.block("p"), ffull.block("u")
        file_points = [(loaded.problem, pl.PontryaginPoint(fx[i], fp[i], fu[i])) for i in range(len(ffull))]
        m["ocp.partials_file_us"] = per_call_us(tr, "ocp.hamiltonian_partials", pl.hamiltonian_partials,
                                                file_points, reps)
        m["expr.dynamics_eval_us"] = per_call_us(tr, "expr.dynamics", loaded.problem.dynamics,
                                                 [(fx[i], fu[i]) for i in range(len(ffull))], reps)

    with tr.span("probe.reduced-grid"):
        grid_steps = steps_of(sizes.grid_T)
        start = time.perf_counter()
        for theta, k in params.grid:
            timed(tr, "reduction.integrate_reduced", steps=grid_steps, fn=lambda: pl.integrate_reduced(
                reduced, reduced_state(mu0_of(theta, k)), sizes.grid_T, BUILTIN_CONFIG))
        m["reduction.grid_traj_ms"] = 1e3 * (time.perf_counter() - start) / len(params.grid)
    return m
