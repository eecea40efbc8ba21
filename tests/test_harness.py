import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlfuse import fixtures, harness
from mlfuse.harness import HarnessError, VerifyConfig


# -- configuration ------------------------------------------------------------

def test_verify_config_defaults():
    cfg = VerifyConfig()
    assert cfg.delta == 1e-6
    assert cfg.n_inputs == 100
    assert cfg.seed == 4242424242424242
    assert (cfg.input_low, cfg.input_high) == (-1.0, 1.0)


@pytest.mark.parametrize("kw", [
    {"delta": -1e-9},
    {"delta": float("nan")},
    {"delta": float("inf")},
    {"n_inputs": 0},
    {"input_low": 1.0, "input_high": 1.0},
    {"input_low": 2.0, "input_high": -2.0},
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

def test_output_distance_accumulates_in_f64():
    a = [np.full(3, 1.0, dtype=np.float32)]
    b = [np.full(3, 2.0, dtype=np.float32)]
    assert harness.output_distance(a, b) == pytest.approx(np.sqrt(3.0))
    assert harness.output_distance(a, a) == 0.0


def test_output_distance_rejects_size_mismatch():
    with pytest.raises(HarnessError, match="element counts differ"):
        harness.output_distance([np.zeros(3)], [np.zeros(4)])


def test_diff_report_json_round_trip(tmp_path):
    rep = harness.DiffReport(delta=1e-6, n_inputs=2, seed=9,
                             max_error=0.5, max_abs_error=0.25,
                             per_input=[0.5, 0.1], passed=False)
    path = tmp_path / "diff.json"
    rep.write(path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert obj == {"delta": 1e-6, "n_inputs": 2, "seed": 9,
                   "max_error": 0.5, "max_abs_error": 0.25,
                   "per_input": [0.5, 0.1], "passed": False}


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
