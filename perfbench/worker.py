"""Warm-serving worker: one process holding both deployments of one model.

Started by run.py with a JSON spec as its only argument. It puts the shipped
executable (a zip) on sys.path and imports net_driver from it, loads the
container into interpreter.load, reads the sample file and makes one
warm-up call on each side, then answers one JSON command per stdin line
with one JSON reply per stdout line:

  outputs          -> every sample once through both sides, as base64 f32
  expect           <- the checked outputs later calls must reproduce
  block            -> program and interpreter calls, interleaved one pair at
                      a time for `seconds`, each call timed on its own; a
                      host-speed probe (probe.py) runs between stretches of
                      about SEGMENT_NS
  exit

The collector is off while a block runs, as in the program's own loop.
"""

from __future__ import annotations

import base64
import gc
import importlib
import json
import sys
import time
import traceback

import numpy as np

from mlfuse import codegen, graphir, harness, interpreter, sniffer
from mlfuse.kernels import DeviceInfo, default_registry
from mlfuse.kernels.ops import KERNELS

import probe
import spans

MODULES = {"graphir": graphir, "interpreter": interpreter,
           "codegen": codegen, "harness": harness, "sniffer": sniffer}
SEGMENT_NS = 50_000_000


def _flat(outs) -> np.ndarray:
    return np.concatenate([np.asarray(o, dtype=np.float32).reshape(-1)
                           for o in outs])


def _b64(arrays) -> str:
    return base64.b64encode(np.concatenate(arrays).astype("<f4")
                            .tobytes()).decode("ascii")


class Worker:
    def __init__(self, spec: dict):
        t0 = time.perf_counter_ns()
        sys.path.insert(0, spec["program"])
        self.program = importlib.import_module("net_driver")
        self.import_ns = time.perf_counter_ns() - t0
        sys.path.remove(spec["program"])
        rules = default_registry().custom_shape_rules()
        bundle = graphir.load_bundle(spec["graph"], spec["weights"],
                                     custom_rules=rules)
        self.plan = interpreter.load(bundle, device=DeviceInfo(threads=1))
        shapes = self.program.INPUT_SHAPES
        sizes = [int(np.prod(s)) for s in shapes]
        flat = np.fromfile(spec["inputs"], dtype="<f4").astype(np.float32)
        per = sum(sizes)
        self.samples = []
        for j in range(flat.size // per):
            chunk, at, sample = flat[j * per:(j + 1) * per], 0, []
            for n, shape in zip(sizes, shapes):
                sample.append(chunk[at:at + n].reshape(shape))
                at += n
            self.samples.append(sample)
        self.expected: list[bytes] = []
        self.cursor = 0
        self.program.run(self.samples[0])
        interpreter.invoke(self.plan, self.samples[0])

    def ready(self) -> dict:
        return {"ready": True, "import_ms": self.import_ns / 1e6,
                "plan_peak_bytes": interpreter.counters(self.plan).peak_bytes}

    def outputs(self) -> dict:
        prog = [_flat(self.program.run(x)) for x in self.samples]
        interp = [_flat(interpreter.invoke(self.plan, x))
                  for x in self.samples]
        return {"program": _b64(prog), "interp": _b64(interp)}

    def expect(self, b64: str) -> dict:
        blob = base64.b64decode(b64)
        size = len(blob) // len(self.samples)
        self.expected = [blob[i * size:(i + 1) * size]
                         for i in range(len(self.samples))]
        return {"ok": True}

    def block(self, seconds: float, trace: bool) -> dict:
        tracer = spans.Tracer() if trace else None
        if tracer:
            tracer.patch_layers(MODULES, default_registry())
            tracer.patch_program(self.program, KERNELS)
        prog_ns, interp_ns, failed = [], [], 0
        # [pairs, probe before, probe after] per stretch of warm calls
        segments = [[0, probe.invoke_ns(), 0]]
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        segment_end = clock() + SEGMENT_NS
        gc.disable()
        try:
            while True:
                idx = self.cursor % len(self.samples)
                x, want = self.samples[idx], self.expected[idx]
                if tracer:
                    tracer.request = self.cursor
                # alternate which side goes first, so neither always runs
                # on caches the other just warmed
                if self.cursor % 2 == 0:
                    t0 = clock()
                    p = self.program.run(x)
                    t1 = clock()
                    q = interpreter.invoke(self.plan, x)
                    t2 = clock()
                    prog_ns.append(t1 - t0)
                    interp_ns.append(t2 - t1)
                else:
                    t0 = clock()
                    q = interpreter.invoke(self.plan, x)
                    t1 = clock()
                    p = self.program.run(x)
                    t2 = clock()
                    interp_ns.append(t1 - t0)
                    prog_ns.append(t2 - t1)
                failed += (_flat(p).astype("<f4").tobytes() != want)
                failed += (_flat(q).astype("<f4").tobytes() != want)
                self.cursor += 1
                segments[-1][0] += 1
                if t2 >= segment_end or t2 >= deadline:
                    segments[-1][2] = probe.invoke_ns()
                    if t2 >= deadline:
                        break
                    segments.append([0, segments[-1][2], 0])
                    segment_end = clock() + SEGMENT_NS
        finally:
            gc.enable()
            if tracer:
                tracer.unpatch_all()
        reply = {"program_ns": prog_ns, "interp_ns": interp_ns,
                 "failed": int(failed), "segments": segments}
        if tracer:
            reply["spans"] = tracer.take()
        return reply


def main() -> int:
    spec = json.loads(sys.argv[1])

    def send(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    try:
        worker = Worker(spec)
        send(worker.ready())
        for line in sys.stdin:
            cmd = json.loads(line)
            op = cmd["op"]
            if op == "exit":
                break
            if op == "outputs":
                send(worker.outputs())
            elif op == "expect":
                send(worker.expect(cmd["outputs"]))
            elif op == "block":
                send(worker.block(cmd["seconds"], cmd["trace"]))
            else:
                raise ValueError(f"unknown command {op!r}")
    except Exception:
        send({"error": traceback.format_exc()})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
