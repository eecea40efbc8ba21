import importlib.util
import types
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_programs.py"
_spec = importlib.util.spec_from_file_location("ab_programs", _PATH)
ab_programs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_programs)


def _program(tmp_path, seed, tag):
    return ab_programs.build(ab_programs.ROOT, "mlp", seed, tmp_path / tag)


def _driver(tmp_path, seed, tag):
    return ab_programs.load_driver(_program(tmp_path, seed, tag))


def test_same_programs_are_timed_step_by_step_at_one_sample_and_batch(
        tmp_path):
    programs = [_program(tmp_path, 1, tag) for tag in ("a", "b")]
    base, change = map(ab_programs.load_driver, programs)
    assert base is not change and base.BATCH == change.BATCH > 1
    scratch = {}
    for n in (1, change.BATCH):
        r = ab_programs.compare(base, change, n, rounds=3, calls=2)
        assert r["identical"] and r["n"] == n
        assert r["rounds"] == 3 and 0 <= r["won"] <= 3
        # mlp runs fc, fc, softmax, in that order on both sides
        assert [[s[0] for s in side] for side in r["steps"]] == [
            ["fully_connected_f32", "fully_connected_f32", "softmax_f32"]] * 2
        # the same plans hold the same scratch, walked on each driver at n
        r["scratch"] = [ab_programs.plan_scratch(d, n)
                        for d in (base, change)]
        assert r["scratch"][0] == r["scratch"][1] > 0
        scratch[n] = r["scratch"][0]
        # and make the same calls: 9 at one sample, 26 at BATCH, where
        # each FC's sample lanes go in blocks
        r["calls"] = [ab_programs.step_calls(d, n) for d in (base, change)]
        assert r["calls"] == [9 if n == 1 else 26] * 2
        lines = ab_programs.report("mlp", r)
        assert lines[0].startswith(f"mlp n={n}: run() ")
        assert lines[0].endswith("outputs byte-identical")
        assert lines[1] == (f"  kernel scratch {r['scratch'][0]} -> "
                            f"{r['scratch'][1]} B (+0.0%); step calls "
                            f"{r['calls'][0]} -> {r['calls'][1]}")
        assert len(lines) == 5
        # each driver is left at one sample a call, where a larger plan
        # would refuse one sample's inputs
        for d in (base, change):
            d.run(ab_programs.inputs_for(d, 1))
    # at BATCH, mlp's FC products and softmax rows hold far more, in one
    # arena sized to the largest step: less than the 655,200 B the steps
    # held apart
    assert 100 * scratch[1] < scratch[change.BATCH] < 655_200


def test_differing_outputs_are_reported_and_not_timed(tmp_path):
    base, change = _driver(tmp_path, 1, "a"), _driver(tmp_path, 2, "b")
    r = ab_programs.compare(base, change, 1, rounds=3, calls=2)
    assert r == {"n": 1, "identical": False}
    assert ab_programs.report("mlp", r) == ["mlp n=1: outputs differ"]


def test_different_step_lists_are_listed_side_by_side_not_paired():
    r = {"n": 1, "identical": True, "base_us": 10.0, "change_us": 8.0,
         "won": 3, "rounds": 3, "scratch": [2048, 1024], "calls": [7, 4],
         "steps": [[("fully_connected_f32", 4.0), ("softmax_f32", 2.0)],
                   [("conv2d_f32", 5.0)]]}
    lines = ab_programs.report("mlp", r)
    assert lines[1] == ("  kernel scratch 2048 -> 1024 B (-50.0%); "
                        "step calls 7 -> 4")
    assert lines[2:] == [
        "  the two sides run different steps",
        "  base   step 0  fully_connected_f32          4.0 us",
        "  base   step 1  softmax_f32                  2.0 us",
        "  change step 0  conv2d_f32                   5.0 us"]


# identity's driver as it was while RESHAPE copied: a template id the
# working tree's kernels no longer have, bound to the driver's run_calls
_COPYING_IDENTITY = """\
import numpy as np

def run_calls(calls):
    for f, args, kw in calls:
        f(*args, **kw)

reshape_copy = run_calls
INPUT_SIZES = (4,)
BATCH = 8192
B = [np.empty(4, "<f4"), np.empty(4, "<f4")]
t0, t1 = B
S0 = [(np.copyto, (t1, t0), {})]

def plan(n):
    pass

def run(inputs):
    np.copyto(t0, inputs[0].reshape(-1))
    reshape_copy(S0)
    return (t1.copy(),)
"""


def test_each_side_times_the_steps_its_own_driver_binds(tmp_path):
    # the base still copies its RESHAPE; the working tree's identity makes
    # no step at all, so the base's step shows on its side alone
    base = types.ModuleType("net_driver")
    exec(_COPYING_IDENTITY, vars(base))
    change = ab_programs.load_driver(
        ab_programs.build(ab_programs.ROOT, "identity", None, tmp_path / "a"))
    r = ab_programs.compare(base, change, 1, rounds=3, calls=2)
    assert r["identical"]
    assert [[s[0] for s in side] for side in r["steps"]] == [
        ["reshape_copy"], []]
    # the timers are taken off again
    assert base.reshape_copy is base.run_calls
    r["scratch"] = [0, 0]
    r["calls"] = [ab_programs.step_calls(d, 1) for d in (base, change)]
    assert r["calls"] == [1, 0]
    lines = ab_programs.report("identity", r)
    assert lines[1] == "  kernel scratch 0 -> 0 B; step calls 1 -> 0"
    assert lines[2:] == ["  the two sides run different steps",
                         f"  base   step 0  reshape_copy           "
                         f"{r['steps'][0][0][1]:9.1f} us"]


def test_a_base_without_batched_plans_exits_2(monkeypatch, capsys):
    # a program from before batched serving: no plan() and no BATCH
    old = types.SimpleNamespace(INPUT_SIZES=(4,), run=lambda inputs: ())
    monkeypatch.setattr(ab_programs, "_git", lambda *a: b"0" * 40)
    monkeypatch.setattr(ab_programs, "_export", lambda sha, dest: None)
    monkeypatch.setattr(ab_programs, "build", lambda *a: "program")
    monkeypatch.setattr(ab_programs, "load_driver", lambda program: old)
    assert ab_programs.main(["--rev", "HEAD", "--fixture", "mlp"]) == 2
    assert "no plan() and BATCH" in capsys.readouterr().err


def test_spawns_are_timed_in_interleaved_rounds(tmp_path):
    # one program on both sides: each round starts each side once, and
    # the two write the same bytes
    program = ab_programs.build(ab_programs.ROOT, "mlp", 1, tmp_path / "a")
    driver = ab_programs.load_driver(program)
    r = ab_programs.spawn_times({"base": ([program], None),
                                 "change": ([program], None)},
                                ab_programs.inputs_for(driver, 1), tmp_path,
                                rounds=3)
    assert r["rounds"] == 3 and r["identical"]
    for side in ("base", "change"):
        assert len(r[side]["ms"]) == len(r[side]["rss_kb"]) == 3
        assert all(ms > 0 for ms in r[side]["ms"])
        # the launcher loads no numpy, so the peak is the program's own
        # and not this process's
        assert all(0 < kb < 100_000 for kb in r[side]["rss_kb"])
    line = ab_programs.spawn_report("mlp", r)
    assert line.startswith("mlp spawn, one sample: ")
    assert " change won " in line and line.endswith(
        " KiB; outputs byte-identical")


def test_programs_are_spawned_on_one_sample_and_on_batch(
        tmp_path, monkeypatch, capsys):
    # one program on both sides and as the interpreter: main spawns it on
    # one sample and on a file of BATCH samples, and reports each
    program = _program(tmp_path, 1, "a")
    monkeypatch.setattr(ab_programs, "_git", lambda *a: b"0" * 40)
    monkeypatch.setattr(ab_programs, "_export", lambda sha, dest: None)
    monkeypatch.setattr(ab_programs, "working_tree", lambda: "0" * 40)
    monkeypatch.setattr(ab_programs, "build", lambda *a: program)
    monkeypatch.setattr(ab_programs, "container", lambda *a: [])
    monkeypatch.setattr(ab_programs, "interpreter_command",
                        lambda checkout, paths: ([program], None))
    assert ab_programs.main(["--rev", "HEAD", "--fixture", "mlp",
                             "--rounds", "1"]) == 0
    batch = ab_programs.load_driver(program).BATCH
    lines = [line for line in capsys.readouterr().out.splitlines()
             if " spawn, " in line]
    assert [line.split(":")[0] for line in lines] == [
        "mlp spawn, one sample", f"mlp spawn, {batch} samples",
        "mlp interpreter spawn, one sample"]
    assert all(line.endswith(" KiB; outputs byte-identical")
               for line in lines)
    r = {"rounds": 1, "identical": True,
         "base": {"ms": [80.0], "rss_kb": [18916]},
         "change": {"ms": [80.0], "rss_kb": [18150]}}
    assert ab_programs.spawn_report("lenet", r, samples=9) == (
        "lenet spawn, 9 samples: 80.0 -> 80.0 ms (+0.0%), change won 0/1; "
        "ru_maxrss 18916 -> 18150 KiB; outputs byte-identical")


def test_spawned_programs_that_differ_are_reported(tmp_path):
    r = {"rounds": 1, "identical": False,
         "base": {"ms": [40.0], "rss_kb": [17000]},
         "change": {"ms": [30.0], "rss_kb": [16000]}}
    assert ab_programs.spawn_report("mlp", r) == (
        "mlp spawn, one sample: outputs differ")
    r["identical"] = True
    assert ab_programs.spawn_report("mlp", r) == (
        "mlp spawn, one sample: 40.0 -> 30.0 ms (-25.0%), change won 1/1; "
        "ru_maxrss 17000 -> 16000 KiB; outputs byte-identical")


def test_a_program_that_fails_to_start_is_an_error(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("#!/bin/sh\nexit 3\n")
    bad.chmod(0o755)
    with pytest.raises(RuntimeError, match="exited 3"):
        ab_programs.spawn_times({"base": ([str(bad)], None),
                                 "change": ([str(bad)], None)},
                                [np.zeros(4, np.float32)], tmp_path, 1)


def test_interpreter_spawns_are_timed_like_programs(tmp_path):
    # `mlfuse run` on the container that the checkout's build-fixture
    # writes, with the checkout's src/ as PYTHONPATH
    paths = ab_programs.container(ab_programs.ROOT, "identity",
                                  tmp_path / "container")
    assert [p.rpartition("/")[2] for p in paths] == ["identity.mlg",
                                                     "identity.mlw"]
    argv, env = ab_programs.interpreter_command(ab_programs.ROOT, paths)
    assert argv[1:4] == ["-m", "mlfuse.cli", "run"] and argv[4:] == paths
    assert env["PYTHONPATH"] == str(ab_programs.ROOT / "src")
    r = ab_programs.spawn_times({"base": (argv, env), "change": (argv, env)},
                                [np.arange(4, dtype=np.float32)], tmp_path,
                                rounds=2)
    assert r["rounds"] == 2 and r["identical"]
    # identity's output is its input
    assert (tmp_path / "spawn-change.raw").read_bytes() == np.arange(
        4, dtype="<f4").tobytes()
    for side in ("base", "change"):
        assert len(r[side]["ms"]) == 2
        assert all(0 < kb < 200_000 for kb in r[side]["rss_kb"])
    line = ab_programs.spawn_report("identity", r, "interpreter spawn")
    assert line.startswith("identity interpreter spawn, one sample: ")
    assert line.endswith(" KiB; outputs byte-identical")


def test_an_interpreter_that_fails_is_an_error(tmp_path):
    with pytest.raises(RuntimeError, match="build-fixture .* exited 2"):
        ab_programs.container(ab_programs.ROOT, "resnet", tmp_path)
    argv, env = ab_programs.interpreter_command(
        ab_programs.ROOT, [str(tmp_path / "no.mlg"), str(tmp_path / "no.mlw")])
    with pytest.raises(RuntimeError, match="mlfuse.cli run .* exited 2"):
        ab_programs.spawn_times({"base": (argv, env), "change": (argv, env)},
                                [np.zeros(4, np.float32)], tmp_path, 1)
