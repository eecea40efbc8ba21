import gc
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfuse import cli, codegen, fixtures, graphir, harness, interpreter
from mlfuse.harness import HarnessError, VerifyConfig


# -- configuration ------------------------------------------------------------

def test_verify_config_defaults():
    cfg = VerifyConfig()
    assert cfg.delta == 1e-6
    assert cfg.n_inputs == 100
    assert cfg.seed == 4242424242424242


@pytest.mark.parametrize("kw", [
    {"delta": -1e-9},
    {"delta": float("nan")},
    {"delta": float("inf")},
    {"n_inputs": 0},
])
def test_verify_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        VerifyConfig(**kw)


# -- input generation ---------------------------------------------------------

def test_make_inputs_shapes_and_range():
    bundle = fixtures.build_fixture("lenet")
    cfg = VerifyConfig(n_inputs=7)
    xs = harness.make_inputs(bundle.graph, cfg)
    assert len(xs) == 7
    for sample in xs:
        assert len(sample) == len(bundle.graph.inputs)
        for arr, tid in zip(sample, bundle.graph.inputs):
            assert arr.shape == bundle.graph.tensors[tid].shape
            assert arr.dtype == np.float32
            assert float(arr.min()) >= -1.0 and float(arr.max()) <= 1.0


def test_make_inputs_is_seed_deterministic():
    bundle = fixtures.build_fixture("mlp")
    a = harness.make_inputs(bundle.graph, VerifyConfig(n_inputs=3))
    b = harness.make_inputs(bundle.graph, VerifyConfig(n_inputs=3))
    c = harness.make_inputs(bundle.graph, VerifyConfig(n_inputs=3, seed=1))
    for sa, sb in zip(a, b):
        for xa, xb in zip(sa, sb):
            assert np.array_equal(xa, xb)
    assert not np.array_equal(a[0][0], c[0][0])


def test_make_inputs_covers_f32_only():
    from mlfuse.graphir import (ComputationalGraph, DataType, OperatorNode,
                                RESHAPE, TensorSpec)
    g = ComputationalGraph(
        tensors=[TensorSpec(0, "x", DataType.I32, (4,)),
                 TensorSpec(1, "y", DataType.I32, (4,))],
        operators=[OperatorNode(RESHAPE, (0,), (1,), {"new_shape": [4]})],
        inputs=(0,), outputs=(1,))
    with pytest.raises(HarnessError, match="F32"):
        harness.make_inputs(g, VerifyConfig(n_inputs=1))


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=20, deadline=None)
def test_make_inputs_any_seed_stays_in_range(seed):
    bundle = fixtures.build_fixture("identity")
    xs = harness.make_inputs(bundle.graph, VerifyConfig(n_inputs=1, seed=seed))
    assert float(np.abs(xs[0][0]).max()) <= 1.0


# -- distances and reports ----------------------------------------------------

def test_distances_accumulate_in_f64():
    a = np.full((2, 3), 1.0, dtype=np.float32)
    b = np.full((2, 3), 2.0, dtype=np.float32)
    b[1] = 1e20  # its square overflows float32, not float64
    assert harness.distances(a, b) == [
        pytest.approx(np.sqrt(3.0)),
        float(np.linalg.norm(np.float64(b[1]) - 1.0))]
    assert harness.distances(a, b)[1] < np.inf
    assert harness.distances(a, a) == [0.0, 0.0]


def test_diff_report_json_round_trip(tmp_path):
    rep = harness.DiffReport(delta=1e-6, n_inputs=2, seed=9,
                             max_error=0.5, max_abs_error=0.25,
                             bits_differing=3, per_input=[0.5, 0.1],
                             passed=False)
    path = tmp_path / "diff.json"
    rep.write(path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj == {"delta": 1e-6, "n_inputs": 2, "seed": 9,
                   "max_error": 0.5, "max_abs_error": 0.25,
                   "bits_differing": 3, "per_input": [0.5, 0.1],
                   "passed": False}


def test_check_latency_stats_rejects_inconsistency():
    stats = {"min_ms": 2.0, "median_ms": 1.0, "max_ms": 3.0, "mean_ms": 2.5}
    with pytest.raises(HarnessError, match="inconsistent"):
        harness.check_latency_stats(stats)
    harness.check_latency_stats(
        {"min_ms": 1.0, "median_ms": 2.0, "max_ms": 3.0, "mean_ms": 2.5})


# -- verification against built programs --------------------------------------

def test_verify_built_fixture_is_exact(built):
    bundle, artifact = built["mlp"]
    rep = harness.verify(bundle, artifact)
    assert rep.passed
    assert rep.max_error == 0.0
    assert rep.max_abs_error == 0.0
    assert len(rep.per_input) == 100


def test_verify_detects_model_program_mismatch(built):
    # an identity program fed the mlp bundle writes the wrong output count
    mlp_bundle, _ = built["mlp"]
    _, identity_artifact = built["identity"]
    with pytest.raises(HarnessError, match="program wrote"):
        harness.verify(mlp_bundle, identity_artifact)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_a_non_finite_value_on_a_later_input_fails_verify(built, tmp_path,
                                                          capsys, bad):
    # mlp's program, wrapped to write one value of input 5 (mlp writes 3
    # values a sample) as a NaN or +inf: that input's distance is inf, so
    # the worst is too, whichever input it is on
    bundle, artifact = built["mlp"]
    art = tmp_path / "build"
    shutil.copytree(artifact.out_dir, art)
    program = art / Path(artifact.executable).relative_to(artifact.out_dir)
    real = program.rename(program.with_name("program.real"))
    program.write_text(
        f"#!{sys.executable}\n"
        "import struct, subprocess, sys\n"
        f"subprocess.run([{str(real)!r}, *sys.argv[1:]], check=True)\n"
        "with open(sys.argv[2], 'r+b') as f:\n"
        "    f.seek(4 * (5 * 3 + 1))\n"
        f"    f.write(struct.pack('<f', float({bad!r})))\n")
    program.chmod(0o755)
    rep = harness.verify(bundle, codegen.load_artifact(art))
    assert not rep.passed
    assert rep.max_error == rep.max_abs_error == rep.per_input[5] == math.inf
    assert rep.per_input[:5] + rep.per_input[6:] == [0.0] * 99
    assert rep.bits_differing == 1
    g, w = tmp_path / "m.mlg", tmp_path / "m.mlw"
    graphir.save_bundle(bundle, g, w)
    assert cli.main(["verify", str(g), str(w), str(art)]) == 1
    assert capsys.readouterr().out.startswith("verify FAIL: max_error=inf ")
    # --json writes JSON, which has no inf or NaN: each non-finite float
    # is null, and passed carries the failure
    assert cli.main(["verify", "--json", str(g), str(w), str(art)]) == 1
    for text in rep.to_json(), capsys.readouterr().out:
        got = json.loads(text, parse_constant=_no_constant)
        assert got["passed"] is False
        assert got["max_error"] is got["max_abs_error"] is None
        assert got["per_input"][5] is None
        assert got["per_input"][:5] + got["per_input"][6:] == [0.0] * 99


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_report_is_reproducible(built):
    bundle, artifact = built["identity"]
    a = harness.verify(bundle, artifact, VerifyConfig(n_inputs=5))
    b = harness.verify(bundle, artifact, VerifyConfig(n_inputs=5))
    assert a.to_json() == b.to_json()


# -- benchmarking -------------------------------------------------------------

def test_bench_rejects_zero_reps(built):
    bundle, artifact = built["identity"]
    with pytest.raises(HarnessError, match="repetitions"):
        harness.bench(bundle, artifact, repetitions=0)


def test_bench_report_structure(built):
    bundle, artifact = built["identity"]
    rep = harness.bench(bundle, artifact, repetitions=5)
    assert rep.repetitions == 5
    for stats in (rep.interpreter_latency, rep.generated_latency):
        harness.check_latency_stats(stats)
    assert rep.generated_counters["load_bytes"] == 0
    assert rep.generated_counters["configure_bytes"] == 0
    assert rep.generated_counters["peak_bytes"] <= \
        rep.interpreter_counters["peak_bytes"]
    obj = json.loads(rep.to_json())
    assert obj["repetitions"] == 5


def test_bench_times_both_sides_in_process_one_pair_at_a_time(
        built, monkeypatch):
    # one warm-up call a side, then one interpreter invoke and one program
    # run() a repetition, the interpreter first in even repetitions, each
    # with the collector off
    bundle, artifact = built["mlp"]
    calls = []
    invoke, load = interpreter.invoke, harness.load_driver

    def logged(side, fn):
        def wrapper(*args):
            calls.append((side, gc.isenabled()))
            return fn(*args)
        return wrapper

    def load_logged(executable):
        driver = load(executable)
        driver.run = logged("program", driver.run)
        return driver

    monkeypatch.setattr(interpreter, "invoke", logged("interp", invoke))
    monkeypatch.setattr(harness, "load_driver", load_logged)
    rep = harness.bench(bundle, artifact, repetitions=3)
    assert [side for side, _ in calls] == [
        "program", "interp",
        "interp", "program", "program", "interp", "interp", "program"]
    assert not any(enabled for _, enabled in calls[2:])
    assert gc.isenabled()
    # mlp hands back its 3 class scores
    assert rep.generated_counters["invoke_bytes"] == 4 * 3


def test_load_driver_leaves_the_import_state_as_it_was(built):
    _, artifact = built["mlp"]
    path = sys.path[:]
    driver = harness.load_driver(artifact.executable)
    assert sys.path == path
    assert "net_driver" not in sys.modules
    assert driver.run(harness.make_inputs(
        built["mlp"][0].graph, VerifyConfig(n_inputs=1))[0])[0].shape == (3,)


def test_a_program_rebuilt_at_a_loaded_path_loads_as_built(tmp_path):
    # zipimport keeps a zip's directory per path for the life of the
    # process: read through mlp's directory, lenet's program, built where
    # mlp's was loaded from, fails to inflate
    out = tmp_path / "build"
    mlp = codegen.pipeline(fixtures.build_fixture("mlp"), out)
    assert harness.load_driver(mlp.executable).BATCH == 3640
    bundle = fixtures.build_fixture("lenet")
    lenet = codegen.pipeline(bundle, out)
    assert lenet.executable == mlp.executable
    assert harness.load_driver(lenet.executable).BATCH == 9
    rep = harness.bench(bundle, lenet, repetitions=3)
    assert rep.generated_counters["invoke_bytes"] == 4 * 10


def test_a_program_that_cannot_be_imported_is_a_harness_error(built,
                                                              tmp_path):
    _, artifact = built["mlp"]
    cut = tmp_path / "program"
    data = open(artifact.executable, "rb").read()
    cut.write_bytes(data[:len(data) // 2])
    path = sys.path[:]
    with pytest.raises(HarnessError, match="cannot import the program"):
        harness.load_driver(cut)
    assert sys.path == path
