#!/usr/bin/env python3
"""Check that the working tree builds the same programs as a base revision.

    python3 scripts/same_programs.py --rev HEAD

Exports the committed files of --rev into a temporary directory (git
archive, as bench_pairs.py does). There and in the working tree it builds
every fixture at its default seed and at seeds 1 and 2, stripped and
unstripped: 30 builds a side for the five fixtures. It compares the sha256
of every source and the program of each build and the text of its
build_manifest.json, and prints each difference; for a manifest, each
field that differs, with both values. Where a build's program differs, it
runs both programs on a seeded file of one sample, which runs a program's
plan of one sample a call, and on one of 37 samples, which runs its plan
at BATCH (padded to BATCH where that is more, overlapping where it is
less), and prints for each file whether their outputs are
byte-identical. The summary line ends with the line count of the Python
sources under src/ on both sides.

Exit status 0 when every file is byte-identical, 1 on a difference or a
failed build, 2 on a revision git cannot export.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, _export, _git  # noqa: E402

SEEDS = (None, 1, 2)  # None: the fixture's own seed
MANIFEST = "build_manifest.json"
SAMPLES = (1, 37)  # samples in each file both sides' programs run on

# Runs in a checkout with its src/ on PYTHONPATH; argv[1] is the build root.
# Prints, as JSON, {build: {file: sha256, "build_manifest.json": its text}}
# and {build: [program path, input float32 values a sample]}.
_BUILD_SRC = '''\
import hashlib
import json
import math
import sys
from pathlib import Path

from mlfuse import codegen, fixtures

root = Path(sys.argv[1])
seeds = json.loads(sys.argv[2])
digests = {}
programs = {}
for name in sorted(fixtures.FIXTURES):
    for seed in seeds:
        for strip in (True, False):
            build = (f"{name} seed={'default' if seed is None else seed} "
                     f"{'strip' if strip else 'no-strip'}")
            out = root / build.replace(" ", "_").replace("=", "")
            bundle = fixtures.build_fixture(name, seed)
            art = codegen.pipeline(
                bundle, out, toolchain=codegen.ToolchainConfig(strip=strip))
            graph = bundle.graph
            programs[build] = [art.executable, sum(
                math.prod(graph.tensors[t].shape) for t in graph.inputs)]
            files = [*art.sources, art.manifest["executable"]]
            digests[build] = {f: hashlib.sha256((out / f).read_bytes())
                              .hexdigest() for f in files}
            digests[build]["build_manifest.json"] = (
                out / "build_manifest.json").read_text()
print(json.dumps([digests, programs]))
'''


def build_all(checkout: Path, out: Path) -> tuple[dict, dict]:
    """Every build in checkout: {build: {file: sha256 or manifest text}}
    and {build: [program path, input float32 values a sample]}."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_SRC, str(out), json.dumps(SEEDS)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"builds in {checkout} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    return tuple(json.loads(proc.stdout))


def src_lines(checkout: Path) -> int:
    """Lines of the Python sources under checkout's src/, as wc -l counts
    them."""
    return sum(p.read_bytes().count(b"\n")
               for p in (checkout / "src").rglob("*.py"))


def same_outputs(base_program, change_program, values: int, work: Path,
                 samples: int = SAMPLES[-1]) -> bool:
    """Whether two programs write the same bytes on one file of `samples`
    samples of `values` float32 values each, seeded by its sample count. A
    program that fails writes nothing the other can match."""
    path = work / "samples.raw"
    np.random.default_rng(samples).uniform(
        -1, 1, samples * values).astype("<f4").tofile(path)
    outs = []
    for k, program in enumerate((base_program, change_program)):
        out = work / f"out{k}.raw"
        proc = subprocess.run([program, path, out], capture_output=True)
        outs.append(out.read_bytes() if proc.returncode == 0 else None)
    return outs[0] is not None and outs[0] == outs[1]


def differences(base: dict, change: dict) -> list[str]:
    """One line per build or file whose digests differ between the sides."""
    out = []
    for build in sorted(base.keys() | change.keys()):
        if build not in change or build not in base:
            side = "base" if build in base else "change"
            out.append(f"{build}: built only in the {side}")
            continue
        b, c = base[build], change[build]
        for name in sorted(b.keys() | c.keys()):
            if name not in b or name not in c:
                side = "base" if name in b else "change"
                out.append(f"{build}: {name} only in the {side}")
            elif b[name] != c[name]:
                fields = (_field_changes(b[name], c[name])
                          if name == MANIFEST else [])
                out.extend(f"{build}: {name} {f}"
                           for f in fields or ["differs"])
    return out


def _field_changes(base_text: str, change_text: str) -> list[str]:
    """'key old -> new' for each top-level field two manifests differ in."""
    base, change = json.loads(base_text), json.loads(change_text)

    def show(m, key):
        return json.dumps(m[key]) if key in m else "(absent)"

    return [f"{key} {show(base, key)} -> {show(change, key)}"
            for key in sorted(base.keys() | change.keys())
            if show(base, key) != show(change, key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD",
                    help="base revision (default HEAD)")
    args = ap.parse_args(argv)
    try:
        sha = _git("rev-parse", "--verify",
                   args.rev + "^{commit}").decode().strip()
    except subprocess.CalledProcessError as e:
        print(f"error: {e.stderr.decode().strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-programs-") as tmp:
        tmp = Path(tmp)
        _export(sha, tmp / "base")
        try:
            base, base_programs = build_all(tmp / "base", tmp / "base-builds")
            change, programs = build_all(ROOT, tmp / "change-builds")
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        diffs = differences(base, change)
        for line in diffs:
            print(line)
        # a program that differs may still compute the same bytes
        ran = same = 0
        for build in sorted(base.keys() & change.keys()):
            if base[build].get("program") == change[build].get("program"):
                continue
            program, values = programs[build]
            for samples in SAMPLES:
                ok = same_outputs(base_programs[build][0], program, values,
                                  tmp, samples)
                ran += 1
                same += ok
                print(f"{build}: outputs on {samples} sample(s) "
                      f"{'byte-identical' if ok else 'differ'}")
        lines = src_lines(tmp / "base"), src_lines(ROOT)
    files = sum(len(v) for v in change.values())
    print(f"{len(change)} builds, {files} files: "
          f"{len(diffs)} difference(s) against {args.rev} ({sha[:12]}); "
          f"{same} of {ran} runs of differing programs write byte-identical "
          f"outputs; "
          f"src/ {lines[0]} -> {lines[1]} lines ({lines[1] - lines[0]:+d})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
