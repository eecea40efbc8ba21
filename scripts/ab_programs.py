#!/usr/bin/env python3
"""A/B of one fixture's program, in process and spawned: a base revision
against the working tree.

    python3 scripts/ab_programs.py --rev HEAD --fixture lenet --rounds 40

Exports the committed files of --rev into a temporary directory (git
archive, as bench_pairs.py does), builds the fixture's program there and in
the working tree, and imports both programs' drivers into this process. At
one sample a call and at the program's BATCH, it checks that both drivers'
run() write byte-identical outputs on the same seeded inputs, then times
them in interleaved rounds of _CALLS calls a side: even rounds run the
base first, odd rounds the change first. It prints each side's median time
of one run() call, the median change and the rounds the change won, each
side's kernel scratch (the scratch_bytes that side's program reports under
--stats on a file of that many samples), then each step's median time per
side, from a second interleaved pass with every run step wrapped in a
timer. When the two sides run different steps, it says so and lists each
side's steps on their own. Then it starts each side's program once a round
on one seeded sample, interleaved the same way, with posix_spawn from a
small `python -S` launcher, reaps it with wait4 and prints each side's
median ms from spawn to exit, the rounds the change won and each side's
median ru_maxrss. Last, it does the same for each side's interpreter
deployment, `python -m mlfuse.cli run` on the fixture's container, each
side from its own export (the working tree exported as bench_pairs.py
does), with that export's src/ as PYTHONPATH.

Exit status 0 when both sides' outputs are byte-identical, 1 when they
differ, a build fails or a program or interpreter exits non-zero, 2 on bad
arguments, a revision git cannot export, or a base whose program has no
plan() and BATCH (one older than batched serving).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, _export, _git, working_tree  # noqa: E402

# Runs in a checkout with its src/ on PYTHONPATH: argv is the fixture, its
# seed ("" for the fixture's own) and the build dir; prints the program.
_BUILD_SRC = '''\
import sys

from mlfuse import codegen, fixtures

name, seed, out = sys.argv[1:]
bundle = fixtures.build_fixture(name, *([int(seed)] if seed else []))
print(codegen.pipeline(bundle, out).executable)
'''

_MODULES = ("net_driver", "net_weights")

_CALLS = 20  # run() calls a side times in one round


def build(checkout: Path, fixture: str, seed, out: Path) -> str:
    """The path of the fixture's program built from checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_SRC, fixture,
         "" if seed is None else str(seed), str(out)],
        cwd=checkout, env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"build in {checkout} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def container(checkout: Path, fixture: str, out: Path) -> list[str]:
    """The fixture's container, written at its own seed by checkout's
    `mlfuse build-fixture`: the paths of its graph and weights."""
    proc = subprocess.run(
        [sys.executable, "-m", "mlfuse.cli", "build-fixture", fixture,
         "--out", str(out)], env=src_env(checkout), capture_output=True,
        text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"build-fixture in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return [str(out / f"{fixture}{ext}") for ext in (".mlg", ".mlw")]


def src_env(checkout: Path) -> dict:
    """This process's environment with checkout's src/ as the only
    PYTHONPATH entry, as perfbench gives its interpreter spawns."""
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def interpreter_command(checkout: Path, graph_and_weights) -> tuple:
    """The spawn (argv before the input and output paths, environment) of
    checkout's interpreter deployment on the container."""
    return ([sys.executable, "-m", "mlfuse.cli", "run", *graph_and_weights],
            src_env(checkout))


def load_driver(program: str):
    """The program's net_driver module, imported from its zip. Both sides'
    modules have the same names, so neither stays in sys.modules."""
    for m in _MODULES:
        sys.modules.pop(m, None)
    sys.path.insert(0, program)
    try:
        return importlib.import_module("net_driver")
    finally:
        sys.path.remove(program)
        for m in _MODULES:
            sys.modules.pop(m, None)


def inputs_for(driver, n: int) -> list:
    """Seeded inputs of n samples for each of the driver's inputs."""
    rng = np.random.default_rng(0)
    return [rng.uniform(-1, 1, size * n).astype(np.float32)
            for size in driver.INPUT_SIZES]


def same_outputs(base, change, inputs) -> bool:
    a, b = base.run(inputs), change.run(inputs)
    return [x.tobytes() for x in a] == [y.tobytes() for y in b]


def _time_calls(driver, inputs, calls: int) -> float:
    """Microseconds of one run() call, the mean of `calls` calls."""
    run = driver.run
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        run(inputs)
    return (time.perf_counter_ns() - t0) / calls / 1e3


def interleave(base, change, inputs, rounds: int, calls: int) -> dict:
    """Per-round times of each side, the base first in even rounds."""
    times = {"base": [], "change": []}
    sides = {"base": base, "change": change}
    for i in range(rounds):
        for side in (("base", "change") if i % 2 == 0
                     else ("change", "base")):
            times[side].append(_time_calls(sides[side], inputs, calls))
    return times


def step_times(drivers, inputs, rounds: int) -> list[list]:
    """Per driver, (template, median us) of each step of run(), in run
    order, from interleaved rounds with every run step wrapped in a timer.
    """
    seen = []

    def timed(name, fn):
        def wrapper(*args):
            t0 = time.perf_counter_ns()
            fn(*args)
            seen.append((name, time.perf_counter_ns() - t0))
        return wrapper

    kernels = [{name: fn for name, fn in vars(d).items()
                if not name.startswith("_") and hasattr(d, name + "_prep")}
               for d in drivers]
    for d, ks in zip(drivers, kernels):
        for name, fn in ks.items():
            setattr(d, name, timed(name, fn))
    per_round = [[] for _ in drivers]
    try:
        for i in range(rounds + 1):  # the first round warms up
            for k in (range(len(drivers)) if i % 2 == 0
                      else reversed(range(len(drivers)))):
                seen.clear()
                drivers[k].run(inputs)
                if i:
                    per_round[k].append(list(seen))
    finally:
        for d, ks in zip(drivers, kernels):
            for name, fn in ks.items():
                setattr(d, name, fn)
    return [[(rs[0][j][0], statistics.median(r[j][1] for r in rs) / 1e3)
             for j in range(len(rs[0]))] for rs in per_round]


def stats_scratch(program: str, inputs, n: int, work: Path) -> int:
    """The scratch_bytes the program's --stats reports on a file of the n
    samples in inputs (each input's values, n samples of them), which it
    serves in one call of n samples when n is at most its BATCH."""
    src = work / "stats-in.raw"
    np.concatenate([a.reshape(n, -1) for a in inputs], axis=1).astype(
        "<f4").tofile(src)
    subprocess.run([program, str(src), str(work / "stats-out.raw"),
                    "--stats", str(work / "stats.json")],
                   capture_output=True, check=True)
    return json.loads((work / "stats.json").read_text())["scratch_bytes"]


def compare(base, change, n: int, rounds: int, calls: int) -> dict:
    """Check and time both drivers at n samples a call."""
    for d in (base, change):
        d.plan(n)
    inputs = inputs_for(change, n)
    result = {"n": n, "identical": same_outputs(base, change, inputs)}
    if result["identical"]:
        times = interleave(base, change, inputs, rounds, calls)
        result["base_us"] = statistics.median(times["base"])
        result["change_us"] = statistics.median(times["change"])
        result["won"] = sum(c < b for b, c in zip(times["base"],
                                                  times["change"]))
        result["rounds"] = rounds
        result["steps"] = step_times((base, change), inputs, rounds)
    for d in (base, change):
        d.plan(1)
    return result


# Runs under python -S: argv is the rounds, stdin a JSON list of each
# side's [argv, environment] (null: the launcher's own). It starts each
# side once a round, interleaved as interleave() does, with posix_spawn and
# its stdout on /dev/null, reaps it with wait4 and prints a line "<side's
# index> <ns> <exit status> <ru_maxrss KiB>" per spawn. Linux counts the
# RSS of the process a child was spawned from into the child's ru_maxrss;
# this one loads no numpy and stays far smaller than a program.
_SPAWN_SRC = """\
import json, os, sys, time
specs = json.load(sys.stdin)
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
for i in range(int(sys.argv[1])):
    for k in range(len(specs))[::1 if i % 2 == 0 else -1]:
        argv, env = specs[k]
        t0 = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, env or os.environ,
                             file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
        ns = time.perf_counter_ns() - t0
        print(k, ns, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def spawn_times(commands: dict, inputs, work: Path, rounds: int) -> dict:
    """Per side of commands (side -> the argv before the input and output
    paths, and the environment, None for this process's), the ms from spawn
    to exit and the ru_maxrss (KiB) of one spawn a round on the same input
    file, and whether both sides wrote the same bytes."""
    src = work / "spawn-in.raw"
    np.concatenate(inputs).astype("<f4").tofile(src)
    sides = list(commands)
    outs = [work / f"spawn-{side}.raw" for side in sides]
    specs = [[[*commands[side][0], str(src), str(out)], commands[side][1]]
             for side, out in zip(sides, outs)]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _SPAWN_SRC, str(rounds)],
        input=json.dumps(specs), capture_output=True, text=True, check=True)
    result = {side: {"ms": [], "rss_kb": []} for side in sides}
    for line in proc.stdout.splitlines():
        k, ns, status, rss = map(int, line.split())
        if status != 0:
            raise RuntimeError(f"{' '.join(specs[k][0][:-2])} exited "
                               f"{status}")
        result[sides[k]]["ms"].append(ns / 1e6)
        result[sides[k]]["rss_kb"].append(rss)
    result["rounds"] = rounds
    result["identical"] = len({out.read_bytes() for out in outs}) == 1
    return result


def report(fixture: str, r: dict) -> list[str]:
    head = f"{fixture} n={r['n']}:"
    if not r["identical"]:
        return [f"{head} outputs differ"]
    pct = 100 * (r["change_us"] / r["base_us"] - 1)
    lines = [f"{head} run() {r['base_us']:.1f} -> {r['change_us']:.1f} us "
             f"({pct:+.1f}%), change won {r['won']}/{r['rounds']}; "
             f"outputs byte-identical"]
    b, c = r["scratch"]
    lines.append(f"  kernel scratch {b} -> {c} B ({100 * (c / b - 1):+.1f}%)"
                 if b else f"  kernel scratch {b} -> {c} B")
    base_steps, change_steps = r["steps"]
    if [s[0] for s in base_steps] == [s[0] for s in change_steps]:
        for k, ((name, b), (_, c)) in enumerate(zip(base_steps,
                                                    change_steps)):
            lines.append(f"  step {k:<2} {name:<22} {b:9.1f} -> {c:9.1f} us")
        return lines
    lines.append("  the two sides run different steps")
    for side, steps in (("base", base_steps), ("change", change_steps)):
        for k, (name, us) in enumerate(steps):
            lines.append(f"  {side:<6} step {k:<2} {name:<22} {us:9.1f} us")
    return lines


def spawn_report(fixture: str, r: dict, what: str = "spawn") -> str:
    head = f"{fixture} {what}, one sample:"
    if not r["identical"]:
        return f"{head} outputs differ"
    base, change = (statistics.median(r[side]["ms"])
                    for side in ("base", "change"))
    won = sum(c < b for b, c in zip(r["base"]["ms"], r["change"]["ms"]))
    rss = [statistics.median(r[side]["rss_kb"]) for side in ("base", "change")]
    return (f"{head} {base:.1f} -> {change:.1f} ms "
            f"({100 * (change / base - 1):+.1f}%), change won "
            f"{won}/{r['rounds']}; ru_maxrss {rss[0]:.0f} -> {rss[1]:.0f} "
            f"KiB; outputs byte-identical")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", default="HEAD",
                    help="base revision (default HEAD)")
    ap.add_argument("--fixture", required=True)
    ap.add_argument("--rounds", type=int, default=40)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be positive")
    try:
        sha = _git("rev-parse", "--verify",
                   args.rev + "^{commit}").decode().strip()
    except subprocess.CalledProcessError as e:
        print(f"error: {e.stderr.decode().strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ab-programs-") as tmp:
        tmp = Path(tmp)
        _export(sha, tmp / "base")
        try:
            programs = {
                "base": build(tmp / "base", args.fixture, None,
                              tmp / "base-build"),
                "change": build(ROOT, args.fixture, None,
                                tmp / "change-build")}
            base, change = map(load_driver, programs.values())
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        if not (hasattr(base, "plan") and hasattr(base, "BATCH")):
            print(f"error: the program of {args.rev} has no plan() and "
                  f"BATCH; it predates batched serving", file=sys.stderr)
            return 2
        ok = True
        try:
            for n in sorted({1, min(base.BATCH, change.BATCH)}):
                r = compare(base, change, n, args.rounds, _CALLS)
                ok &= r["identical"]
                if r["identical"]:
                    r["scratch"] = [
                        stats_scratch(p, inputs_for(change, n), n, tmp)
                        for p in programs.values()]
                print("\n".join(report(args.fixture, r)), flush=True)
            sample = inputs_for(change, 1)
            r = spawn_times({side: ([p], None)
                             for side, p in programs.items()},
                            sample, tmp, args.rounds)
            ok &= r["identical"]
            print(spawn_report(args.fixture, r), flush=True)
            # the interpreter from two exports whose paths are as long:
            # a spawn's peak RSS moves with the length of the path it
            # imports from
            _export(working_tree(), tmp / "work")
            interp = {}
            for side, name in (("base", "base"), ("change", "work")):
                paths = container(tmp / name, args.fixture,
                                  tmp / f"{name}-container")
                interp[side] = interpreter_command(tmp / name, paths)
            r = spawn_times(interp, sample, tmp, args.rounds)
            ok &= r["identical"]
            print(spawn_report(args.fixture, r, "interpreter spawn"))
        except (RuntimeError, subprocess.CalledProcessError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    print(f"base {args.rev} ({sha[:12]}), change: the working tree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
