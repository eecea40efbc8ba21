"""One benchmark run of one workload: set-up, measured loop, checks.

Imported by run.py once src/ is on sys.path. The run builds seeded fixture
models through the public API, starts one warm-serving worker (worker.py)
and one lean spawn launcher (spawn.py), and drives them strictly one
operation at a time. Every output is checked: the served samples against
the composed loop-nest oracles (a seeded subset) and against each other
(program and interpreter bit for bit), every later call against those
checked outputs, and every build by harness.verify (max_error exactly 0.0)
and by a sniffer scan of its shipped directory (no finding allowed).
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from mlfuse import codegen, fixtures, graphir, harness, interpreter, sniffer
from mlfuse.kernels import DeviceInfo, default_registry

import oracle
import probe
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEVICE = DeviceInfo(threads=1)
MODULES = {"graphir": graphir, "interpreter": interpreter,
           "codegen": codegen, "harness": harness, "sniffer": sniffer}


class BenchError(Exception):
    pass


def load_workloads() -> dict:
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def _artifact_sizes(artifact) -> dict:
    """What a build shipped, read before its directory is removed."""
    out = {"program_bytes": os.path.getsize(artifact.executable),
           "source_bytes": 0, "weights_source_bytes": 0,
           "candidates": artifact.manifest["candidates_evaluated"]}
    for rel in artifact.sources:
        key = ("weights_source_bytes" if rel.endswith("net_weights.py")
               else "source_bytes")
        out[key] += os.path.getsize(os.path.join(artifact.out_dir, rel))
    return out


class _Child:
    """A helper process answering one JSON line per JSON line."""

    def __init__(self, argv, env, cwd):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env,
                                     cwd=cwd, text=True)

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.proc.args[1]} exited "
                             f"(status {self.proc.wait()})")
        reply = json.loads(line)
        if "error" in reply:
            raise BenchError(reply["error"])
        return reply

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self.recv()

    def close(self) -> None:
        try:
            self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path):
        self.wl = load_workloads()[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = workdir
        self.tracer = spans.Tracer() if trace else None
        self.spans: list[list] = []
        self.attempted = {"invoke": 0, "spawn": 0, "build": 0}
        self.failed = {"invoke": 0, "spawn": 0, "build": 0}
        # timings carry their host-speed factor (probe.py) and, where a
        # traced run alternates, whether they ran traced
        self.warm = {"program": [], "interp": []}  # (traced, [factor], [ns])
        self.build_rounds: list[tuple] = []  # (traced, factor, seconds)
        self.setup_s: list[tuple] = []  # (factor, seconds)
        self.cold = {"program": [], "interp": []}  # (factor, ns, maxrss_kb)
        self.batch_s: list[tuple] = []  # (factor, seconds)
        self.ready: list[dict] = []
        self.findings = {"container": [], "shipped": []}
        self.artifacts: dict = {}
        self.worker = None
        self.launcher = None

        self.models = self.wl["models"]
        self.serve = self.wl["serve"]
        self.bundles = {m: fixtures.build_fixture(m, seed=seed)
                        for m in self.models}
        self.rules = default_registry().custom_shape_rules()
        self.tmp = workdir / "tmp"
        self.tmp.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env["TMPDIR"] = str(self.tmp)
        self.py_env = dict(self.env, PYTHONPATH=str(ROOT / "src"))
        self._make_inputs()

    # -- bookkeeping

    def count(self, kind: str, ok: bool, n: int = 1) -> None:
        self.attempted[kind] += n
        if not ok:
            self.failed[kind] += n

    def _trace(self, on: bool) -> None:
        if self.tracer and on:
            self.tracer.patch_layers(MODULES, default_registry())

    def _untrace(self) -> None:
        if self.tracer:
            self.tracer.unpatch_all()

    def _request(self, req: str) -> None:
        if self.tracer:
            self.tracer.request = req

    # -- inputs and references (not part of any timed figure)

    def _write(self, path: Path, idxs) -> None:
        np.concatenate([a.reshape(-1) for i in idxs
                        for a in self.samples[i]]).astype("<f4").tofile(path)

    def _make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        graph = self.bundles[self.serve].graph
        shapes = [graph.tensors[t].shape for t in graph.inputs]
        n = self.wl["samples"]
        self.samples = [[rng.uniform(-1.0, 1.0, size=s).astype(np.float32)
                         for s in shapes] for _ in range(n)]
        inputs = self.work / "inputs"
        inputs.mkdir()
        self._write(inputs / "all.raw", range(n))
        for i in range(n):
            self._write(inputs / f"{i}.raw", [i])
        self.batch_n = self.wl["batch_samples"]
        self.batch_path = inputs / "batch.raw"
        self._write(self.batch_path, [i % n for i in range(self.batch_n)])
        self.batch_bytes = self.batch_path.stat().st_size

        orc = oracle.load_oracles(ROOT)
        self.bitwise_equal = orc.bitwise_equal
        k = self.wl["oracle_samples"]
        self.oracle_out = {
            int(i): np.concatenate([o.reshape(-1) for o in
                                    oracle.reference_outputs(
                                        orc, self.bundles[self.serve],
                                        self.samples[i])])
            for i in rng.choice(n, size=min(k, n), replace=False)}
        # the other built models: interpreter outputs against the oracles,
        # since harness.verify already holds each program to its interpreter
        for m in self.models:
            if m == self.serve:
                continue
            bundle = self.bundles[m]
            plan = interpreter.load(bundle, device=DEVICE)
            xs = harness.make_inputs(bundle.graph, harness.VerifyConfig(
                n_inputs=k, seed=self.seed))
            for x in xs:
                want = oracle.reference_outputs(orc, bundle, x)
                got = interpreter.invoke(plan, x)
                self.count("invoke", all(
                    self.bitwise_equal(g, w.reshape(g.shape))
                    for g, w in zip(got, want)))

    # -- builds

    def _build_round(self, tag: str, traced: bool, start_worker: bool):
        """Save, load and build every model; optionally start the worker.

        Records the summed build time and returns the host-speed factor and
        the set-up time: save and load, build, and the worker's start with
        interpreter.load and its warm-up call.
        """
        rdir = self.work / tag
        built = {}
        build_s = 0.0
        before = probe.spawn_ns()
        self._trace(traced)
        try:
            t0 = time.perf_counter()
            for m in self.models:
                cdir = rdir / m / "container"
                cdir.mkdir(parents=True)
                g, w = cdir / f"{m}.mlg", cdir / f"{m}.mlw"
                self._request(f"load:{tag}:{m}")
                graphir.save_bundle(self.bundles[m], g, w)
                bundle = graphir.load_bundle(g, w, custom_rules=self.rules)
                self._request(f"build:{tag}:{m}")
                tb = time.perf_counter()
                artifact = codegen.pipeline(bundle, rdir / m / "build",
                                            device=DEVICE)
                build_s += time.perf_counter() - tb
                built[m] = (bundle, artifact, cdir, g, w)
            if start_worker:
                _, artifact, _, g, w = built[self.serve]
                worker = _Child(
                    [sys.executable, str(HERE / "worker.py"), json.dumps({
                        "program": artifact.executable, "graph": str(g),
                        "weights": str(w),
                        "inputs": str(self.work / "inputs" / "all.raw")})],
                    self.py_env, self.work)
                self.ready.append(worker.recv())
                if self.worker:
                    self.worker.close()
                self.worker = worker
            setup_s = time.perf_counter() - t0
        finally:
            self._untrace()
        speed = probe.factor("spawn", before, probe.spawn_ns())
        self.build_rounds.append((traced, speed, build_s))
        self._check_builds(tag, built, traced)
        self.artifacts = {m: _artifact_sizes(b[1]) for m, b in built.items()}
        if start_worker:
            self.program = built[self.serve][1].executable
            self.container = built[self.serve][2]
        return speed, setup_s

    def _check_builds(self, tag: str, built: dict, traced: bool) -> None:
        self._trace(traced)
        try:
            for m, (bundle, artifact, cdir, _, _) in built.items():
                self._request(f"verify:{tag}:{m}")
                report = harness.verify(bundle, artifact)
                shipped = cdir.parent / "shipped"
                shipped.mkdir()
                shutil.copy(artifact.executable, shipped / "program")
                self._request(f"scan:{tag}:{m}")
                base = len(sniffer.scan(cdir).findings)
                found = len(sniffer.scan(shipped).findings)
                self.findings["container"].append(base)
                self.findings["shipped"].append(found)
                self.count("build", report.max_error == 0.0 and found == 0)
        finally:
            self._untrace()

    def _drop_round(self, tag: str) -> None:
        shutil.rmtree(self.work / tag, ignore_errors=True)

    # -- serving

    def _reference_pass(self) -> None:
        """Every sample once on both sides, checked against the oracles.

        The interpreter's outputs, the reference deployment's, become what
        every later call and spawn must reproduce bit for bit.
        """
        reply = self.worker.call(op="outputs")
        n = len(self.samples)
        prog = np.frombuffer(base64.b64decode(reply["program"]), "<f4")
        interp = np.frombuffer(base64.b64decode(reply["interp"]), "<f4")
        prog, interp = prog.reshape(n, -1), interp.reshape(n, -1)
        for i in range(n):
            want = self.oracle_out.get(i)
            for got in (prog[i], interp[i]):
                self.count("invoke", got.tobytes() == interp[i].tobytes()
                           and (want is None
                                or self.bitwise_equal(got, want)))
        self.expected = [interp[i].tobytes() for i in range(n)]
        self.worker.call(op="expect", outputs=reply["interp"])

    def _warm_block(self, traced: bool) -> None:
        reply = self.worker.call(op="block", seconds=self.wl["block_s"],
                                 trace=traced)
        speeds = [probe.factor("invoke", before, after)
                  for n, before, after in reply["segments"] for _ in range(n)]
        for side in ("program", "interp"):
            self.warm[side].append((traced, speeds, reply[f"{side}_ns"]))
        calls = len(reply["program_ns"]) + len(reply["interp_ns"])
        self.attempted["invoke"] += calls
        self.failed["invoke"] += reply["failed"]
        if "spans" in reply:
            for s in reply["spans"]:
                s[4] = f"serve:{s[4]}"
            self._merge_spans(reply["spans"])

    def _merge_spans(self, new) -> None:
        """Append spans recorded elsewhere, re-basing their parent indices."""
        offset = len(self.spans)
        for s in new:
            if s[3] >= 0:
                s[3] += offset
        self.spans.extend(new)

    def _spawn(self, argv, out: Path, env) -> dict | None:
        out.unlink(missing_ok=True)
        r = self.launcher.call(argv=argv, env=env,
                               log=str(self.work / "spawn.log"))
        if r["status"] != 0 or not out.is_file():
            return None
        r["out"] = out.read_bytes()
        return r

    def _cold(self, side: str, idx: int) -> None:
        src = str(self.work / "inputs" / f"{idx}.raw")
        out = self.work / "cold.raw"
        if side == "program":
            argv, env = [self.program, src, str(out)], self.env
        else:
            m = self.serve
            argv = [sys.executable, "-m", "mlfuse.cli", "run",
                    str(self.container / f"{m}.mlg"),
                    str(self.container / f"{m}.mlw"), src, str(out)]
            env = self.py_env
        r = self._spawn(argv, out, env)
        self.count("spawn", r is not None and r["out"] == self.expected[idx])
        if r is not None:
            self.cold[side].append((probe.factor("spawn", *r["probe_ns"]),
                                    r["ns"], r["maxrss_kb"]))

    def _batch(self) -> None:
        out = self.work / "batch_out.raw"
        r = self._spawn([self.program, str(self.batch_path), str(out)],
                        out, self.env)
        n = len(self.samples)
        want = b"".join(self.expected[i % n] for i in range(self.batch_n))
        self.count("spawn", r is not None and r["out"] == want)
        if r is not None:
            self.batch_s.append((probe.factor("spawn", *r["probe_ns"]),
                                 r["ns"] / 1e9))

    # -- the run

    def execute(self) -> None:
        # harness.verify and codegen.compile_program make temporary dirs;
        # keep them inside the run's own directory
        saved_tempdir, tempfile.tempdir = tempfile.tempdir, str(self.tmp)
        self.launcher = _Child([sys.executable, str(HERE / "spawn.py")],
                               self.env, self.work)
        try:
            for k in range(self.wl["setups"]):
                self.setup_s.append(self._build_round(
                    f"setup{k}", self.trace and k % 2 == 1, True))
                if k:
                    self._drop_round(f"setup{k - 1}")
            self._reference_pass()
            self._loop()
        finally:
            if self.worker:
                self.worker.close()
            self.launcher.close()
            self._untrace()
            tempfile.tempdir = saved_tempdir
        if self.tracer:
            self._merge_spans(self.tracer.take())

    def _loop(self) -> None:
        deadline = time.perf_counter() + self.seconds
        n = len(self.samples)
        cycle = 0
        # a traced run needs at least one traced and one untraced cycle
        while cycle < 1 + self.trace or time.perf_counter() < deadline:
            traced = self.trace and cycle % 2 == 1
            self._warm_block(traced)
            sides = ("program", "interp") if cycle % 2 == 0 else \
                ("interp", "program")
            for side in sides:
                self._cold(side, cycle % n)
            if cycle % self.wl["batch_every"] == 0:
                self._batch()
            if self.wl["build_every"] and \
                    cycle % self.wl["build_every"] == 0:
                tag = f"round{cycle}"
                self._build_round(tag, traced, False)
                self._drop_round(tag)
            cycle += 1
        self.cycles = cycle

    # -- results

    def error_rate(self) -> float:
        return sum(self.failed.values()) / max(1, sum(self.attempted.values()))

    def end_to_end(self) -> dict:
        """name -> (value, unit, samples, raw value) for every metric.

        Latencies of completed calls and spawns count whether or not their
        output was right; wrong outputs count in error_rate. Timings are
        reported at nominal host speed (probe.py), with the raw figure
        beside them.
        """
        def warm(side):
            return [(f * t / 1e3, t / 1e3) for traced, fs, ns
                    in self.warm[side] if not traced for f, t in zip(fs, ns)]

        def cold(side, scale):
            return [(f * t * scale, t * scale) for f, t, _ in self.cold[side]]

        series = {
            "invoke": warm("program"), "interp_invoke": warm("interp"),
            "cold_start_ms": cold("program", 1e-6),
            "interp_cold_start_ms": cold("interp", 1e-6),
            "batch_sps": [(self.batch_n / (f * t), self.batch_n / t)
                          for f, t in self.batch_s],
            "build_s": [(f * b, b) for traced, f, b in self.build_rounds
                        if not traced],
            "setup_s": [(f * t, t) for f, t in self.setup_s],
        }
        if not all(series.values()):
            raise BenchError("a metric has no completed sample")
        arr = {k: np.array(v, dtype=float) for k, v in series.items()}
        m = {}
        # p99 is printed but not in BENCHMARK.json: on the reference host it
        # moved by up to 5x between runs with how often the host stalled a
        # vCPU for a few ms, while p90 held within 10%
        for name in ("invoke", "interp_invoke"):
            for q in (50, 90, 99):
                v = np.percentile(arr[name], q, axis=0)
                m[f"{name}_p{q}_us"] = (v[0], "us", len(arr[name]), v[1])
        for name, unit in (("cold_start_ms", "ms"),
                           ("interp_cold_start_ms", "ms"),
                           ("batch_sps", "1/s")):
            v = np.median(arr[name], axis=0)
            m[name] = (v[0], unit, len(arr[name]), v[1])
        for name, side in (("program_rss_kb", "program"),
                           ("interp_rss_kb", "interp")):
            v = statistics.median(r for _, _, r in self.cold[side])
            m[name] = (v, "KiB", len(self.cold[side]), v)
        size = sum(a["program_bytes"] for a in self.artifacts.values())
        m["program_bytes"] = (size, "bytes", len(self.artifacts), size)
        for name in ("build_s", "setup_s"):
            v = np.median(arr[name], axis=0)
            m[name] = (v[0], "s", len(arr[name]), v[1])
        rate = self.error_rate()
        m["error_rate"] = (rate, "ratio", sum(self.attempted.values()), rate)
        return {k: (float(v), u, n, float(r)) for k, (v, u, n, r) in m.items()}
