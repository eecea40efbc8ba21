"""Host-speed probes, and the correction of timings to a nominal host speed.

The vCPUs of the reference host (2 shared cores) switch between two speeds
every few seconds to every few tens of seconds, and process start-up slows
on its own at other times; nothing inside a container can change that.
Measured there, the slow state stretched an mlp invoke by 1.74x, a
small-array numpy loop by 1.93x and a pure Python loop by 1.40x, so raw
warm-invoke medians of repeated 20 s runs fell into two clusters about
1.7x apart, and builds and cold starts of whole runs moved by up to 30%.

Two probes, each a fixed piece of work timed as the median of a few runs,
stand for the two kinds of work the benchmark times:

- invoke_ns: a miniature of an invoke, half its time in an FC-style
  accumulate loop over small float32 arrays (the kernels), half in a pure
  Python loop (the dispatch around them). It brackets every stretch of
  about 50 ms of warm calls, in the worker.
- spawn_ns: starting and reaping `python -S -c pass`. It brackets every
  cold-start and batch spawn, in the launcher, and every build round and
  set-up, in the benchmark: a build spends most of its time in its two
  toolchain subprocesses. It needs no numpy, so the launcher stays small
  (see spawn.py).

Times measured between two probes are multiplied by the probe's nominal
time divided by the mean of the two probes: they are reported at the speed
at which the probes take their nominal times, the reference host's fast
state. The raw figures are printed beside the corrected ones.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

NOMINAL_NS = {"invoke": 150_000, "spawn": 10_000_000}


def _median_ns(fn, reps: int) -> int:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(statistics.median(times))


def invoke_ns(reps: int = 3) -> int:
    import numpy as np

    x = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
    w = np.linspace(1.0, -1.0, 64 * 64, dtype=np.float32).reshape(64, 64)

    def routine():
        row = np.zeros(64, dtype=np.float32)
        for i in range(64):
            row += x[i] * w[i]
        s = 0
        for i in range(1300):
            s += i * i

    return _median_ns(routine, reps)


def spawn_ns(reps: int = 3) -> int:
    argv = [sys.executable, "-S", "-c", "pass"]

    def routine():
        os.waitpid(os.posix_spawn(argv[0], argv, {}), 0)

    return _median_ns(routine, reps)


def factor(kind: str, before_ns: int, after_ns: int) -> float:
    """Multiplier taking times measured between two probes to nominal speed."""
    return NOMINAL_NS[kind] / ((before_ns + after_ns) / 2)
