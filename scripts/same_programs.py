#!/usr/bin/env python3
"""Check that the working tree builds the same programs as a base revision.

    python3 scripts/same_programs.py --rev HEAD

Exports the committed files of --rev into a temporary directory (git
archive, as bench_pairs.py does). There and in the working tree it builds
every fixture at its default seed and at seeds 1 and 2, stripped and
unstripped: 30 builds a side for the five fixtures. It compares the sha256
of every source, the program and build_manifest.json of each build, and
prints each difference.

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

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, _export, _git  # noqa: E402

SEEDS = (None, 1, 2)  # None: the fixture's own seed

# Runs in a checkout with its src/ on PYTHONPATH; argv[1] is the build root.
# Prints {build: {file: sha256}} as JSON.
_BUILD_SRC = '''\
import hashlib
import json
import sys
from pathlib import Path

from mlfuse import codegen, fixtures

root = Path(sys.argv[1])
seeds = json.loads(sys.argv[2])
digests = {}
for name in sorted(fixtures.FIXTURES):
    for seed in seeds:
        for strip in (True, False):
            build = (f"{name} seed={'default' if seed is None else seed} "
                     f"{'strip' if strip else 'no-strip'}")
            out = root / build.replace(" ", "_").replace("=", "")
            art = codegen.pipeline(
                fixtures.build_fixture(name, seed), out,
                toolchain=codegen.ToolchainConfig(strip=strip))
            files = [*art.sources, art.manifest["executable"],
                     "build_manifest.json"]
            digests[build] = {f: hashlib.sha256((out / f).read_bytes())
                              .hexdigest() for f in files}
print(json.dumps(digests))
'''


def build_all(checkout: Path, out: Path) -> dict:
    """{build: {file: sha256}} for every build made in checkout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_SRC, str(out), json.dumps(SEEDS)],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"builds in {checkout} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


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
                out.append(f"{build}: {name} differs")
    return out


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
            base = build_all(tmp / "base", tmp / "base-builds")
            change = build_all(ROOT, tmp / "change-builds")
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    diffs = differences(base, change)
    for line in diffs:
        print(line)
    files = sum(len(v) for v in change.values())
    print(f"{len(change)} builds, {files} files: "
          f"{len(diffs)} difference(s) against {args.rev} ({sha[:12]})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
