#!/usr/bin/env python3
"""mlfuse benchmark: warm and cold latency of both deployments, and build
time, on the workloads in perfbench/workloads.json.

    python3 perfbench/run.py --workload lenet-stream --seed 1 --seconds 20 \
        --trace 0

Run it from anywhere inside a checkout; it finds src/ and tests/ next to
its own directory and writes only under .perfbench/ there. With --trace 0
it prints every end-to-end metric of BENCHMARK.json by name with its unit,
plus error_rate and sample counts; with --trace 1 it runs the same
procedure with every other unit of work (set-up, warm block, build round)
traced, and prints the per-layer metrics, the tracing overhead and whether
the workload's recorded prediction held. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. The same object
is written to .perfbench/out/, and the spans of a traced run next to it.
--workload all runs the three workloads one after another.

Exit status 0 on a completed run (correct may still be false), 1 when the
run could not complete, 2 when the checkout has no mlfuse sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def _definitions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_workload(name, seed, seconds, trace) -> dict:
    import bench
    import layers

    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = bench.Run(name, seed, seconds, bool(trace), work)
        run.execute()
        e2e = run.end_to_end()
        per_layer = layers.compute(run) if trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    defs = _definitions()
    print(f"== {name}  seed {seed}  {seconds:g} s measured  "
          f"{run.cycles} cycles  trace {trace}")
    print(f"   batch file: {run.batch_n} samples, {run.batch_bytes} bytes")
    print("   (timings at nominal host speed, raw beside them; "
          "see probe.py)")
    for metric, (value, unit, n, raw) in e2e.items():
        print(f"   {metric:<24} {value:>14.4f} {unit:<6} n={n:<7} "
              f"raw {raw:.4f}")
    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    print(f"   operations: {run.attempted} attempted, {run.failed} failed")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed}
    if trace:
        print("   per layer (interpreter.plan_peak_bytes is plan-managed "
              "bytes, not measured memory):")
        for metric, (value, unit) in per_layer.items():
            print(f"   {metric:<34} {value:>14.4f} {unit}")
        text, held = layers.prediction(run, per_layer)
        print(f"   prediction {'held' if held else 'FAILED'}: {text}")
        trace_path = OUT / "out" / f"trace-{name}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(
            {"fields": list(bench.spans.FIELDS), "spans": run.spans}))
        print(f"   trace: {trace_path} ({len(run.spans)} spans)")
        chosen = {d["name"]: per_layer[d["name"]] for d in defs["per_layer"]}
    else:
        chosen = {d["name"]: e2e[d["name"]][:2] for d in defs["end_to_end"]}
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in chosen.items()}
    path = OUT / "out" / f"result-{name}-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mlfuse").is_dir() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no mlfuse checkout around {HERE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    names = list(bench.load_workloads())
    if args.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {names + ['all']}")
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
        else:
            results = {n: run_workload(n, args.seed, args.seconds, args.trace)
                       for n in names}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}/{k}": v for n, r in results.items()
                            for k, v in r["metrics"].items()}}
    except bench.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
