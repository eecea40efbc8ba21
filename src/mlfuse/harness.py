"""Verification and measurement of generated programs against the runtime.

Verification runs the program and the runtime on the same seeded random
inputs, uniform over [-1, 1), and reports the worst l2 distance over all of
them, and beside it how many output values differ in their bits. Each
input's distance comes from distances, which the status search holds
every candidate to as well: a NaN or an inf on any input reads inf and
fails.
Benchmarking imports the program's driver from its zip (load_driver),
which reads the weights blob beside it in the zip, and times both
deployments in this process, one pair of invokes at a time.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import zipimport
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import interpreter
from .graphir import DataType, ModelBundle


class HarnessError(Exception):
    pass


@dataclass(frozen=True)
class VerifyConfig:
    delta: float = 1e-6
    n_inputs: int = 100
    seed: int = 4242424242424242

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and non-negative, "
                             f"got {self.delta!r}")
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")


def make_inputs(graph, cfg: VerifyConfig) -> list[list[np.ndarray]]:
    """Seeded random inputs, uniform over [-1, 1): n_inputs samples of all
    graph inputs."""
    rng = np.random.default_rng(cfg.seed)
    specs = []
    for tid in graph.inputs:
        t = graph.tensors[tid]
        if t.dtype is not DataType.F32:
            raise HarnessError(f"graph input {tid} is {t.dtype.name}; random "
                              "input generation covers F32 only")
        specs.append(t.shape)
    out = []
    for _ in range(cfg.n_inputs):
        out.append([rng.uniform(-1.0, 1.0, size=s).astype(np.float32)
                    for s in specs])
    return out


def distances(got, want) -> list[float]:
    """The l2 distance of each row of two (samples, values) arrays, each
    sqrt(d.dot(d)) in float64 as np.linalg.norm computes it; one that is
    not finite, a NaN's included, reads inf."""
    d = np.subtract(got, want, dtype=np.float64)
    if not d.any():  # no NaN either
        return [0.0] * len(d)
    return [e if e <= math.inf else math.inf
            for e in [math.sqrt(r.dot(r)) for r in d]]


@dataclass
class DiffReport:
    delta: float
    n_inputs: int
    seed: int
    max_error: float
    max_abs_error: float
    # output values whose <u4 bit patterns differ: a NaN equals only a NaN
    # of the same bits, and -0.0 is not +0.0, which the l2 cannot see
    bits_differing: int
    per_input: list[float]
    passed: bool

    def to_json(self) -> str:
        """The report as JSON, every float that is not finite as null:
        passed is false then, and JSON has no inf or NaN."""
        def finite(x):
            return x if math.isfinite(x) else None

        d = asdict(self)
        d["max_error"] = finite(d["max_error"])
        d["max_abs_error"] = finite(d["max_abs_error"])
        d["per_input"] = [*map(finite, d["per_input"])]
        return json.dumps(d, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")


def _run_program(executable, in_path, out_path, timeout=600) -> None:
    cmd = [str(executable), str(in_path), str(out_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise HarnessError(f"generated program failed (rc={proc.returncode}): "
                           f"{proc.stderr.strip()}")


def _write_samples(path, samples) -> None:
    flat = np.concatenate([a.reshape(-1) for sample in samples for a in sample])
    flat.astype("<f4").tofile(path)


def verify(bundle: ModelBundle, artifact, cfg: VerifyConfig | None = None,
           registry=None) -> DiffReport:
    """Compare the generated program against the runtime on random inputs."""
    cfg = cfg or VerifyConfig()
    plan = interpreter.load(bundle, registry=registry)
    xs = make_inputs(bundle.graph, cfg)
    want = np.concatenate([o.reshape(-1) for x in xs
                           for o in interpreter.invoke(plan, x)])
    want = want.reshape(len(xs), -1)

    with tempfile.TemporaryDirectory(prefix="mlfuse-verify-") as td:
        in_path = Path(td) / "in.raw"
        out_path = Path(td) / "out.raw"
        _write_samples(in_path, xs)
        _run_program(artifact.executable, in_path, out_path)
        got = np.fromfile(out_path, dtype="<f4")
    if got.size != want.size:
        raise HarnessError(f"program wrote {got.size} values, expected "
                           f"{want.size}")
    got = got.reshape(want.shape)

    per_input = distances(got, want)
    max_error = max(per_input)
    max_abs = float(np.abs(np.subtract(got, want, dtype=np.float64))
                    .max(initial=0.0))
    bits = int(np.count_nonzero(got.view("<u4")
                                != want.astype("<f4").view("<u4")))
    return DiffReport(
        delta=cfg.delta, n_inputs=cfg.n_inputs, seed=cfg.seed,
        max_error=max_error,
        max_abs_error=max_abs if max_abs <= math.inf else math.inf,
        bits_differing=bits, per_input=per_input,
        passed=max_error <= cfg.delta)


def _latency_stats(ns_list) -> dict:
    ms = [t / 1e6 for t in ns_list]
    return {
        "mean_ms": statistics.fmean(ms),
        "median_ms": statistics.median(ms),
        "min_ms": min(ms),
        "max_ms": max(ms),
    }


def check_latency_stats(stats: dict) -> None:
    if not (stats["min_ms"] <= stats["median_ms"] <= stats["max_ms"]
            and stats["min_ms"] <= stats["mean_ms"] <= stats["max_ms"]):
        raise HarnessError(f"inconsistent latency stats: {stats}")


@dataclass
class BenchReport:
    repetitions: int
    interpreter_latency: dict
    generated_latency: dict
    interpreter_counters: dict
    generated_counters: dict
    latency_change_pct: float
    peak_change_pct: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True,
                          separators=(",", ":"))


def load_driver(executable):
    """The program's net_driver module, imported from its zip, where its
    import reads the weights blob; it does not stay in sys.modules. The
    zip's directory is read anew, as zipimport caches it per path and a
    program may have been rebuilt there."""
    exe = str(executable)
    os.stat(exe)  # a missing program is an OSError, as for verify's spawn
    path = sys.path[:]
    sys.modules.pop("net_driver", None)
    sys.path_importer_cache.pop(exe, None)
    sys.path.insert(0, exe)
    try:
        zipimport.zipimporter(exe).invalidate_caches()
        return importlib.import_module("net_driver")
    # a cut zip, bytecode another Python wrote, or data that does not inflate
    except (ImportError, EOFError, ValueError, zlib.error) as e:
        raise HarnessError(f"cannot import the program {exe}: "
                           f"{type(e).__name__}: {e}") from e
    finally:
        sys.path[:] = path
        sys.modules.pop("net_driver", None)


def scratch_bytes(call_lists, owned) -> int:
    """Kernel scratch of a plan: the bytes of every array its call lists
    reach, keywords included, at the end of the chain of bases, that is not
    the base of an array in owned (the tensor buffers and weights), each
    base counted once. A base that views memory numpy does not own, such as
    the program's weights blob, is not scratch either."""
    def root(obj):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        return obj

    skip = {id(root(a)) for a in owned}
    stack = list(call_lists)
    scratch = {}
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, np.ndarray):
            obj = root(obj)
            if obj.base is None and id(obj) not in skip:
                scratch[id(obj)] = obj.nbytes
    return sum(scratch.values())


def plan_scratch(driver, n) -> int:
    """Kernel scratch of the driver's plan for n samples a call (1 or its
    BATCH), over its call lists S<i> and apart from its tensor buffers: B,
    or t<i> in a program older than call tables. The driver is left at
    plan(1)."""
    driver.plan(n)
    try:
        named = [(k[0], v) for k, v in vars(driver).items()
                 if k[0] in "St" and k[1:].isdigit()]
        return scratch_bytes([v for k, v in named if k == "S"],
                             [*getattr(driver, "B", ()),
                              *(v for k, v in named if k == "t")])
    finally:
        driver.plan(1)


def interpreter_scratch(plan: interpreter.ExecutablePlan) -> int:
    """Kernel scratch of an interpreter plan, apart from its tensor buffers
    and weights blob."""
    return scratch_bytes([calls for _, calls in plan.steps],
                         [*plan.buffers.values(), plan.blob])


def bench(bundle: ModelBundle, artifact, repetitions: int = 1000,
          cfg: VerifyConfig | None = None, registry=None) -> BenchReport:
    """Time repeated single-sample invokes on both deployments, one pair
    a repetition, the interpreter first in even ones. The program parses
    no container, and a call allocates only its output copies, so its peak
    is BUFFER_BYTES plus those. Both peaks leave kernel scratch out; each
    side's scratch_bytes counts it, the program's at one sample."""
    if repetitions < 1:
        raise HarnessError("repetitions must be >= 1")
    cfg = cfg or VerifyConfig()
    sample = make_inputs(bundle.graph,
                         VerifyConfig(seed=cfg.seed, n_inputs=1))[0]

    plan = interpreter.load(bundle, registry=registry)
    driver = load_driver(artifact.executable)
    invoke_bytes = sum(o.nbytes for o in driver.run(sample))  # warmup
    interpreter.invoke(plan, sample)  # warmup
    interp_ns, gen_ns = [], []
    sides = ((lambda: interpreter.invoke(plan, sample), interp_ns),
             (lambda: driver.run(sample), gen_ns))
    # collector pauses would land in individual repetitions
    gc.disable()
    try:
        for i in range(repetitions):
            for call, times in sides if i % 2 == 0 else sides[::-1]:
                t0 = time.perf_counter_ns()
                call()
                times.append(time.perf_counter_ns() - t0)
    finally:
        gc.enable()
    ic = interpreter.counters(plan)
    interp_counters = {
        "load_bytes": ic.load_bytes, "configure_bytes": ic.configure_bytes,
        "invoke_bytes": ic.invoke_bytes, "peak_bytes": ic.peak_bytes,
        "scratch_bytes": interpreter_scratch(plan),
    }
    gen_counters = {
        "load_bytes": 0, "configure_bytes": 0, "invoke_bytes": invoke_bytes,
        "peak_bytes": driver.BUFFER_BYTES + invoke_bytes,
        "scratch_bytes": plan_scratch(driver, 1),
    }

    interp_stats = _latency_stats(interp_ns)
    gen_stats = _latency_stats(gen_ns)
    check_latency_stats(interp_stats)
    check_latency_stats(gen_stats)

    return BenchReport(
        repetitions=repetitions,
        interpreter_latency=interp_stats,
        generated_latency=gen_stats,
        interpreter_counters=interp_counters,
        generated_counters=gen_counters,
        latency_change_pct=100.0 * (interp_stats["mean_ms"] - gen_stats["mean_ms"])
        / interp_stats["mean_ms"],
        peak_change_pct=100.0 * (interp_counters["peak_bytes"]
                                 - gen_counters["peak_bytes"])
        / max(1, interp_counters["peak_bytes"]),
    )
