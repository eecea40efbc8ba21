#!/usr/bin/env python3
"""Paired benchmark: a base revision against the working tree.

    python3 scripts/bench_pairs.py --rev HEAD --workload mlp-stream \
        --pairs 10 --seed 500 --seconds 20 --label mlp-stream-invoke

Exports the committed files of --rev into a temporary directory (git
archive) and runs perfbench/run.py there and in the working tree, in N
pairs. Pair i uses seed --seed + i on both sides; even pairs run the base
first, odd pairs the change first, so a drift in host speed falls on both
sides alike. Writes BENCH_<label>.json at the top of the working tree:
every run's metrics, and per metric each side's median and IQR, the median
change and the number of pairs the change won (ties win nothing). The
direction of "better" comes from the working tree's BENCHMARK.json.

Exit status 0 when every run completed, 1 when a run failed, 2 on bad
arguments or a revision git cannot export.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def _export(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def _run(checkout: Path, workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, better) -> dict:
    """Per metric: each side's median and IQR, and pairs the change won."""
    out = {}
    for name, entry in pairs[0]["base"]["metrics"].items():
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = -1 if better.get(name, "lower") == "lower" else 1
        b, c = _spread(base), _spread(change)
        out[name] = {
            "unit": entry["unit"],
            "better": better.get(name, "lower"),
            "base": b,
            "change": c,
            "median_change_pct": (100 * (c["median"] / b["median"] - 1)
                                  if b["median"] else None),
            "pairs_won": sum(sign * (y - x) > 0
                             for x, y in zip(base, change)),
            "pairs": len(pairs),
            # the change's median is better by more than the base's IQR
            "better_by_more_than_base_iqr":
                sign * (c["median"] - b["median"]) > b["iqr"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD",
                    help="base revision (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair i uses seed + i")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", required=True,
                    help="the file written is BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 \
            or not args.label.replace("-", "").replace("_", "").isalnum():
        ap.error("--pairs and --seconds must be positive, and --label "
                 "letters, digits, '-' and '_'")
    try:
        sha = _git("rev-parse", "--verify",
                   args.rev + "^{commit}").decode().strip()
        head = _git("rev-parse", "HEAD").decode().strip()
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except subprocess.CalledProcessError as e:
        print(f"error: {e.stderr.decode().strip()}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {d["name"]: d["better"]
              for d in spec["end_to_end"] + spec["per_layer"]}

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        _export(sha, base)
        try:
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("base", "change") if i % 2 == 0 \
                    else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(base if side == "base" else ROOT,
                                      args.workload, seed, args.seconds,
                                      args.trace)
                pairs.append(pair)
                print(f"pair {i + 1}/{args.pairs} (seed {seed}) done",
                      flush=True)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1

    result = {
        "label": args.label,
        "workload": args.workload,
        "base": {"rev": args.rev, "commit": sha},
        "change": {"tree": "working tree", "head": head,
                   "uncommitted_changes": dirty},
        "protocol": {
            "command": "python3 perfbench/run.py --workload "
                       f"{args.workload} --seed SEED --seconds "
                       f"{args.seconds:g} --trace {args.trace}",
            "pairs": args.pairs,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "order": "even pairs base first, odd pairs change first",
        },
        "correct": all(p[s]["correct"] for p in pairs
                       for s in ("base", "change")),
        "metrics": summarize(pairs, better),
        "runs": pairs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, m in result["metrics"].items():
        pct = m["median_change_pct"]
        print(f"{name:<24} {m['base']['median']:>12.4f} -> "
              f"{m['change']['median']:>12.4f} {m['unit']:<6} "
              f"{'' if pct is None else f'{pct:+.1f}%':>8}  "
              f"won {m['pairs_won']}/{m['pairs']}  base IQR "
              f"{m['base']['iqr']:.4f}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
