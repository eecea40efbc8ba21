"""Command line front end for the whole toolchain.

`run` and `inspect` load only the runtime: numpy, graphir, lowering, the
kernels and the interpreter. The toolchain loads with the command that
uses it: codegen and harness inside `codegen`, `verify` and `bench`, the
sniffer inside `sniff`.

Exit code contract: 0 success (or clean scan), 1 domain failure (failed
verification, scan findings, exhausted status search), 2 usage or
environment error (bad files, unknown toolchain, malformed models).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import fixtures, graphir, interpreter
from .kernels import ParamError, RegistryError, StatusError, default_registry


def _load(graph_path, weights_path) -> graphir.ModelBundle:
    rules = default_registry().custom_shape_rules()
    return graphir.load_bundle(graph_path, weights_path, custom_rules=rules)


def cmd_build_fixture(args) -> int:
    bundle = fixtures.build_fixture(args.name, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gp = out / f"{args.name}.mlg"
    wp = out / f"{args.name}.mlw"
    graphir.save_bundle(bundle, gp, wp)
    if args.json:
        print(json.dumps({"name": args.name, "graph": str(gp),
                          "weights": str(wp)}, sort_keys=True))
    else:
        print(f"wrote {gp} and {wp}")
    return 0


def cmd_inspect(args) -> int:
    bundle = _load(args.graph, args.weights)
    info = graphir.summarize(bundle)
    if args.json:
        print(json.dumps(info, sort_keys=True))
        return 0
    print(f"tensors: {info['tensor_count']}  "
          f"operators: {len(info['operators'])}  "
          f"weight entries: {len(info['weights'])}")
    for op in info["operators"]:
        print(f"  [{op['index']}] {op['op']}  "
              f"in={op['input_shapes']} out={op['output_shapes']}")
    return 0


def cmd_run(args) -> int:
    bundle = _load(args.graph, args.weights)
    plan = interpreter.load(bundle)
    specs = [plan.lowered.tensors[t] for t in plan.lowered.input_ids]
    total = sum(b.count for b in specs)
    raw = Path(args.input).read_bytes()
    # the program's file format: whole samples, each its inputs in order
    if not raw or len(raw) % (4 * total):
        raise ValueError(f"input file holds {len(raw)} bytes, need a "
                         f"multiple of {4 * total} (the model takes {total} "
                         f"float32 values a sample)")
    rows = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(
        -1, total)
    outs = []
    for row in rows:
        xs = []
        at = 0
        for b in specs:
            xs.append(row[at:at + b.count].reshape(b.shape))
            at += b.count
        outs += [o.reshape(-1) for o in interpreter.invoke(plan, xs)]
    merged = np.concatenate(outs).astype("<f4")
    merged.tofile(args.output)
    c = interpreter.counters(plan)
    if args.json:
        print(json.dumps({
            "output": args.output, "values": int(merged.size),
            "load_bytes": c.load_bytes, "configure_bytes": c.configure_bytes,
            "invoke_bytes": c.invoke_bytes, "peak_bytes": c.peak_bytes,
        }, sort_keys=True))
    else:
        print(f"wrote {merged.size} values to {args.output}")
    return 0


def _toolchain_from_args(args):
    from . import codegen
    if args.toolchain:
        obj = json.loads(Path(args.toolchain).read_text(encoding="utf-8"))
        tc = codegen.ToolchainConfig.from_obj(obj)
    else:
        tc = codegen.ToolchainConfig()
    if args.strip is not None:
        tc = dataclasses.replace(tc, strip=args.strip)
    return tc


def cmd_codegen(args) -> int:
    from . import codegen, harness
    bundle = _load(args.graph, args.weights)
    kw = {}
    if args.delta is not None:
        kw["delta"] = args.delta
    if args.seed is not None:
        kw["seed"] = args.seed
    artifact = codegen.pipeline(
        bundle, args.out, cfg=harness.VerifyConfig(**kw),
        toolchain=_toolchain_from_args(args))
    if args.json:
        print(json.dumps(artifact.manifest, sort_keys=True))
    else:
        m = artifact.manifest
        print(f"built {artifact.executable}")
        print(f"candidates evaluated: {m['candidates_evaluated']}  "
              f"search max diff: {m['max_diff']!r}")
        print(f"plan digest: {artifact.plan_digest}")
    return 0


def cmd_verify(args) -> int:
    from . import codegen, harness
    bundle = _load(args.graph, args.weights)
    artifact = codegen.load_artifact(args.artifact)
    m = artifact.manifest
    cfg = harness.VerifyConfig(delta=m["delta"], n_inputs=m["n_inputs"],
                               seed=m["seed"])
    report = harness.verify(bundle, artifact, cfg)
    if args.json:
        print(report.to_json())
    else:
        word = "PASS" if report.passed else "FAIL"
        print(f"verify {word}: max_error={report.max_error!r} "
              f"delta={report.delta!r} over {report.n_inputs} inputs")
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    from . import codegen, harness
    bundle = _load(args.graph, args.weights)
    artifact = codegen.load_artifact(args.artifact)
    report = harness.bench(bundle, artifact, repetitions=args.reps)
    if args.json:
        print(report.to_json())
        return 0
    ik = report.interpreter_counters
    gk = report.generated_counters
    print(f"repetitions: {report.repetitions}")
    print(f"interpreter mean invoke: "
          f"{report.interpreter_latency['mean_ms']:.4f} ms  "
          f"peak {ik['peak_bytes']} bytes")
    print(f"generated   mean invoke: "
          f"{report.generated_latency['mean_ms']:.4f} ms  "
          f"peak {gk['peak_bytes']} bytes")
    print(f"latency change: {report.latency_change_pct:+.1f}%  "
          f"peak change: {report.peak_change_pct:+.1f}%")
    return 0


def cmd_sniff(args) -> int:
    from . import sniffer
    sigs = None
    if args.sigs:
        sigs = sniffer.SignatureSet.from_json(
            Path(args.sigs).read_text(encoding="utf-8"))
    if args.strings:
        report = sniffer.scan_binary_strings(args.target, sigs)
    else:
        report = sniffer.scan(args.target, sigs)
    if args.json:
        report.write(args.json)
    n = len(report.findings)
    print(f"{n} finding(s) in {report.target} "
          f"({report.scanned_files} file(s) scanned)")
    for f in report.findings:
        where = "name" if f.offset is None else f"offset {f.offset}"
        print(f"  {f.path}: {f.kind} {f.token!r} ({where})")
    return 1 if report.findings else 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlfuse",
        description="run, compile, verify, benchmark, and sniff on-device "
                    "model deployments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-fixture", help="construct a seeded test model")
    p.add_argument("name", choices=sorted(fixtures.FIXTURES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_build_fixture)

    p = sub.add_parser("inspect", help="summarize a model bundle")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("run", help="run an input file of samples through the "
                                   "interpreter")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("codegen",
                       help="compile a bundle into a standalone program")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--toolchain", default=None,
                   help="JSON {command: str, flags: [str], strip_flags:"
                        " [str], strip: bool}: the one compile step runs"
                        " `command -S flags [strip_flags -X no_debug_ranges]"
                        " -c <compile script>`; strip ships its pycs")
    p.add_argument("--strip", action=argparse.BooleanOptionalAction,
                   default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_codegen)

    p = sub.add_parser("verify",
                       help="compare a generated program against the runtime")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("artifact", help="codegen output directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="time both deployments and report")
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("artifact", help="codegen output directory")
    p.add_argument("--reps", type=_positive_int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sniff", help="scan a target for DL components")
    p.add_argument("target")
    p.add_argument("--sigs", default=None,
                   help="JSON file overriding the signature set")
    p.add_argument("--strings", action="store_true",
                   help="match only against printable strings")
    p.add_argument("--json", default=None, metavar="OUT",
                   help="also write the report to this path")
    p.set_defaults(fn=cmd_sniff)
    return parser


def _toolchain_errors(*names: str) -> tuple:
    """The error classes `module.Class` of the toolchain modules loaded so
    far. A command imports its toolchain module itself, so a module that is
    not loaded raised nothing, and main() loads none to map an error."""
    errors = []
    for name in names:
        module, _, cls = name.partition(".")
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            errors.append(getattr(loaded, cls))
    return tuple(errors)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    # SearchError is a CodegenError, but an exhausted search is a domain
    # failure
    except (*_toolchain_errors("codegen.SearchError", "harness.HarnessError"),
            interpreter.InterpreterError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (graphir.GraphError, RegistryError, StatusError, ParamError,
            *_toolchain_errors("codegen.CodegenError", "sniffer.SnifferError"),
            OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
