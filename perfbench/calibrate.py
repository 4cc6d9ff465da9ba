"""Machine-speed calibration of the timed end-to-end metrics.

On a shared machine the speed of one core drifts by up to 2x over seconds to
minutes (other work on the same physical core and memory), which no amount of
repetition inside a 30-second run averages out.  So a fixed kernel of the
same kind of work as the program's hot path, interpreter overhead around
NumPy calls on 2- and 3-element arrays, is timed between commands.  Its mean
time over the run, against ``NOMINAL_S``, is the machine's speed during the
run, and the timed metrics are rescaled by it: wall-clock metrics by the
kernel's wall time, ``cpu_s`` by its CPU time.  The kernel belongs to the
benchmark, never to the program, so a change to the program moves the
rescaled metrics by the same factor as the raw ones, as long as the program
leaves no interpreter-wide state behind (a profiling hook, a helper thread
holding the GIL) that slows the kernel too.  The raw values and the scales
are reported next to every rescaled metric, so such a change still shows.
"""

import time

import numpy as np

NOMINAL_S = 0.025  # the kernel's time on the 2-core machine the benchmark was tuned on, when unloaded


def kernel(iterations: int = 1200) -> float:
    w = np.array([[2.0, 0.3], [0.3, 1.0]])
    y = np.zeros(6)
    acc = 0.0
    for i in range(iterations):
        u = np.linalg.solve(w, np.array([1.0, i * 1e-3]))
        smallest = np.linalg.svd(w, compute_uv=False)[-1]
        y = np.concatenate([y[3:], u, [float(smallest)]])
        acc += sum(float(v) for v in y)
    return acc


def timed_kernel() -> tuple:
    """The kernel's wall time and process CPU time, in seconds."""
    start, cpu_start = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - start, time.process_time() - cpu_start
