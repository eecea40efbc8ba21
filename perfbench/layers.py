"""Per-layer metrics of a traced run, derived from its spans.

Span names are "<module>.<function>" for the wrapped public functions,
"kernels.<kernel>" for kernel calls and "program.run" for the emitted
driver's entry point. Requests are "build:<round>:<model>",
"verify:<round>:<model>", "scan:<round>:<model>", "load:<round>:<model>"
and "serve:<n>" for the n-th warm pair of the worker.

FLOPs and bytes per invoke are computed from tensor shapes, not measured:
multiply and add count two, a pooling window tap or a ReLU one, and bytes
are every input, weight and output tensor read or written once as f32.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from mlfuse.graphir import (
    CONV_2D, DEPTHWISE_CONV_2D, FULLY_CONNECTED, MAX_POOL_2D, RELU, SOFTMAX,
)
from mlfuse.kernels import DeviceInfo, default_registry

import spans

KERNELS = ("conv2d", "depthwise_conv2d", "fully_connected", "max_pool2d",
           "softmax", "relu", "reshape", "scale_shift")
PHASES = {"extract": "extract_units", "analyze": "analyze_config",
          "search": "search_status", "plan": "build_emission_plan",
          "emit": "emit_source", "compile": "compile_program"}
INVOKES = ("interpreter.invoke", "program.run")


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def model_cost(bundle) -> tuple[int, int]:
    """(flops, bytes) of one invoke, from the declared tensor shapes."""
    graph = bundle.graph
    size = [math.prod(t.shape) for t in graph.tensors]
    flops = nbytes = 0
    for node in graph.operators:
        out = sum(size[t] for t in node.outputs)
        nbytes += 4 * (sum(size[t] for t in node.inputs) + out)
        bias = out if len(node.inputs) > 2 else 0
        if node.op_id in (CONV_2D, DEPTHWISE_CONV_2D):
            _, fh, fw, cin = graph.tensors[node.inputs[1]].shape
            taps = fh * fw * (cin if node.op_id == CONV_2D else 1)
            flops += 2 * out * taps + bias
        elif node.op_id == FULLY_CONNECTED:
            flops += 2 * out * graph.tensors[node.inputs[1]].shape[1] + bias
        elif node.op_id == MAX_POOL_2D:
            flops += out * node.options["filter_h"] * node.options["filter_w"]
        elif node.op_id == SOFTMAX:
            flops += 4 * out  # max, subtract and scale, exp, sum and divide
        elif node.op_id == RELU:
            flops += out
        elif node.op_id == "SCALE_SHIFT":
            flops += 2 * out
    return flops, nbytes


def _first_kernel(bundle) -> tuple[str, int]:
    """Span name of operator 0's kernel and how many operators use it."""
    reg = default_registry()
    graph = bundle.graph
    names = [spans.kernel_name(reg.lookup(
        node.op_id, graph.tensors[node.inputs[0]].dtype,
        DeviceInfo(threads=1)).template_id) for node in graph.operators]
    return names[0], names.count(names[0])


def compute(run) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    sp = run.spans
    self_ns = spans.self_times_ns(sp)
    dur = defaultdict(list)
    for s in sp:
        dur[s[0]].append(s[2] - s[1])
    m = {}

    # kernels
    for k in KERNELS:
        m[f"kernels.{k}_us"] = (_median(dur[f"kernels.{k}"]) / 1e3, "us")
    invoke_ids = {i for i, s in enumerate(sp) if s[0] in INVOKES
                  and s[4].startswith("serve:")}
    under = [s for s in sp if s[3] in invoke_ids
             and s[0].startswith("kernels.")]
    invoke_ns = sum(sp[i][2] - sp[i][1] for i in invoke_ids)
    m["kernels.calls_per_invoke"] = (len(under) / max(1, len(invoke_ids)),
                                     "count")
    m["kernels.share"] = (sum(s[2] - s[1] for s in under)
                          / max(1, invoke_ns), "ratio")
    flops, nbytes = model_cost(run.bundles[run.serve])
    m["kernels.flops_per_invoke"] = (float(flops), "flop")
    m["kernels.bytes_per_invoke"] = (float(nbytes), "bytes")
    for name in INVOKES:
        label = ("interpreter.invoke_self_us" if name == INVOKES[0]
                 else "program.run_self_us")
        m[label] = (_median([self_ns[i] for i in invoke_ids
                             if sp[i][0] == name]) / 1e3, "us")

    # program and codegen output
    m["program.import_ms"] = (_median([r["import_ms"] for r in run.ready]),
                              "ms")
    for key in ("source_bytes", "weights_source_bytes"):
        m[f"codegen.{key}"] = (float(sum(a[key] for a in
                                         run.artifacts.values())), "bytes")

    # codegen phases, per build round (a round builds every model once)
    rounds = defaultdict(lambda: defaultdict(float))
    builds = set()
    for s in sp:
        req = s[4]
        if req.startswith("build:"):
            builds.add(req)
            rounds[req.split(":")[1]][s[0]] += (s[2] - s[1]) / 1e6
    for label, fn in PHASES.items():
        m[f"codegen.{label}_ms"] = (_median(
            [r[f"codegen.{fn}"] for r in rounds.values()]), "ms")
    candidates = sum(a["candidates"] for a in run.artifacts.values())
    m["codegen.search_candidates"] = (float(candidates), "count")
    model_runs = defaultdict(float)
    firsts = {name: _first_kernel(b) for name, b in run.bundles.items()}
    search_ids = {i: s[4] for i, s in enumerate(sp)
                  if s[0] == "codegen.search_status"}
    for s in sp:
        req = search_ids.get(s[3])
        if req is not None:
            kernel, uses = firsts[req.split(":")[2]]
            if s[0] == kernel:
                model_runs[req.split(":")[1]] += 1 / uses
    m["codegen.search_model_runs"] = (_median(list(model_runs.values())),
                                      "count")
    m["codegen.search_yield"] = (len(run.artifacts) / max(1, candidates),
                                 "ratio")

    # graphir and interpreter, counted per build
    n_builds = max(1, len(builds))
    for name, label in (("graphir.load_bundle", "graphir.load_bundle_ms"),
                        ("graphir.validate", "graphir.validate_ms"),
                        ("interpreter.load", "interpreter.load_ms"),
                        ("harness.verify", "harness.verify_ms"),
                        ("sniffer.scan", "sniffer.scan_ms")):
        m[label] = (_median(dur[name]) / 1e6, "ms")
    for name in ("graphir.validate", "graphir.infer_shapes",
                 "interpreter.load"):
        calls = sum(1 for s in sp
                    if s[0] == name and s[4].startswith("build:"))
        m[f"{name}_calls"] = (calls / n_builds, "count")
    m["interpreter.plan_peak_bytes"] = (
        float(run.ready[-1]["plan_peak_bytes"]), "bytes")
    m["sniffer.findings_container"] = (_median(run.findings["container"]),
                                       "count")
    m["sniffer.findings_shipped"] = (float(sum(run.findings["shipped"])),
                                     "count")

    # tracing overhead: traced minus untraced units of the same run, both
    # at nominal host speed (probe.py)
    for side, label in (("program", "trace.overhead_invoke_us"),
                        ("interp", "trace.overhead_interp_invoke_us")):
        med = {flag: _median([f * t for traced, fs, ns in run.warm[side]
                              if traced == flag for f, t in zip(fs, ns)])
               for flag in (True, False)}
        m[label] = ((med[True] - med[False]) / 1e3, "us")
    bmed = {flag: _median([f * s for traced, f, s in run.build_rounds
                           if traced == flag]) for flag in (True, False)}
    m["trace.overhead_build_s"] = (bmed[True] - bmed[False], "s")
    return m


def prediction(run, m: dict) -> tuple[str, bool]:
    """The workload's recorded prediction, evaluated on this traced run."""
    share = m["kernels.share"][0]
    search_compile = (m["codegen.search_ms"][0] + m["codegen.compile_ms"][0])
    build_ms = 1e3 * _median([s for traced, _, s in run.build_rounds
                              if traced])
    checks = {
        "kernels.share > 0.5": (f"kernels.share = {share:.3f}", share > 0.5),
        "kernels.share <= 0.5": (f"kernels.share = {share:.3f}",
                                 share <= 0.5),
        "codegen.search_ms + codegen.compile_ms > 0.5 * build_s": (
            f"(search + compile) / build = {search_compile:.1f} / "
            f"{build_ms:.1f} ms", search_compile > 0.5 * build_ms),
    }
    text, held = checks[run.wl["prediction"]]
    return f"{run.wl['prediction']}: {text}", held
