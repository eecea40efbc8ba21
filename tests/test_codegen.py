import ast
import dataclasses
import gc
import importlib
import importlib.util
import inspect
import io
import json
import marshal
import math
import os
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import zipfile
import zipimport
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_cases

from mlfuse import (cli, codegen, corestart, fixtures, graphir, harness,
                    interpreter, lowering)
from mlfuse.graphir import (
    ADD,
    AVERAGE_POOL_2D,
    CONCATENATION,
    CONV_2D,
    DEPTHWISE_CONV_2D,
    FULLY_CONNECTED,
    MAX_POOL_2D,
    PAD,
    RELU,
    RESHAPE,
    SOFTMAX,
    ComputationalGraph,
    DataType,
    ModelBundle,
    OperatorNode,
    TensorSpec,
    WeightStore,
)
from mlfuse.kernels import DeviceInfo, default_registry, ops, registry
from mlfuse.kernels.live_status import hidden_status_for
from mlfuse.kernels.registry import (
    ComputingUnit,
    UnitKey,
    build_default_registry,
)

# the walk order is fixed, so the candidate count at acceptance is a stable
# property of each fixture: one failed candidate per unknown whose first
# layout is not the runtime's, plus the accepted one
EXPECTED_CANDIDATES = {
    "identity": 1,
    "mlp": 3,
    "custom": 3,
    "dwblock": 3,
    "lenet": 6,
}


def _analysis(bundle, device=None, registry=None):
    ex = codegen.extract_units(bundle, device, registry)
    return ex, codegen.analyze_config(ex)


# -- status search ------------------------------------------------------------

def test_search_prunes_joint_space():
    """Each failed candidate rules out its whole subtree of later unknowns."""
    bundle = fixtures.build_fixture("lenet")
    ex, configs = _analysis(bundle)
    domains = [len(c.unit.layouts) for c in configs if c.unit.layouts]
    pruned = 1 + sum(n - 1 for n in domains)
    result = codegen.search_status(bundle, ex)
    assert pruned == 6 and math.prod(domains) == 32
    assert result.candidates_evaluated <= pruned
    assert result.max_error <= 1e-6


def test_accepted_assignment_matches_runtime_layouts():
    """Weight layouts must come out exactly as the runtime uses them."""
    bundle = fixtures.build_fixture("lenet")
    ex, configs = _analysis(bundle)
    result = codegen.search_status(bundle, ex)
    want = {"CONV_2D": "HWIO", "FULLY_CONNECTED": "transposed"}
    assert result.layouts == [want.get(c.kind) for c in configs]


@pytest.mark.parametrize("seed", [14, 20, 21, 24])
def test_search_sees_layouts_a_saturated_softmax_hides(tmp_path, seed):
    # on these lenet weights a wrong FC layout changes fc3 but not the
    # saturated softmax after it; comparing every tensor still rejects it
    bundle = fixtures.build_fixture("lenet", seed)
    artifact = codegen.pipeline(bundle, tmp_path)
    assert artifact.manifest["candidates_evaluated"] == \
        EXPECTED_CANDIDATES["lenet"]
    assert harness.verify(bundle, artifact).max_error == 0.0


def test_search_counts_are_stable(built):
    for name, (_, artifact) in built.items():
        assert artifact.manifest["candidates_evaluated"] == \
            EXPECTED_CANDIDATES[name], name


def test_search_exhaustion_reports_candidates_and_best_error():
    # narrow the generator's registry so the layout the runtime actually
    # uses is outside every candidate domain; the oracle keeps the stock one
    bundle = fixtures.build_fixture("mlp")
    doctored = build_default_registry()
    unit = doctored.lookup(FULLY_CONNECTED, DataType.F32, DeviceInfo())
    unit.layouts = {"row_major": None}
    ex = codegen.extract_units(bundle, registry=doctored)
    with pytest.raises(codegen.SearchError) as ei:
        codegen.search_status(bundle, ex,
                              runtime=codegen.extract_units(bundle))
    err = ei.value
    assert err.candidates_evaluated == 1
    assert math.isfinite(err.best_error) and err.best_error > 1e-6
    assert "exhausted" in str(err)
    assert "at operator 0 (FULLY_CONNECTED)" in str(err)


def test_walk_carries_past_a_layout_that_passes_its_own_operator():
    # fc1's weights are nearly constant, so its wrong layout stays within
    # delta at fc1; fc2's large weights carry that error past delta. Both of
    # fc2's layouts then fail at fc2, and the walk must carry into fc1
    # rather than give up: all four candidates, the last one accepted.
    b = fixtures._Builder(5)
    x = b.tensor("x", (1, 4))
    w1 = b.weight_array("w1", (0.25 + 1e-4 * b.rng.uniform(-1, 1, (8, 4)))
                        .astype(np.float32))
    h = b.tensor("h", (1, 8))
    b.op(FULLY_CONNECTED, [x, w1, b.bias("b1", 8)], [h],
         {"activation": "NONE"})
    w2 = b.weight("w2", (3, 8), lo=-1000.0, hi=1000.0)
    y = b.tensor("y", (1, 3))
    b.op(FULLY_CONNECTED, [h, w2, b.bias("b2", 3)], [y],
         {"activation": "NONE"})
    bundle = b.bundle([x], [y])
    ex = codegen.extract_units(bundle)
    result = codegen.search_status(bundle, ex,
                                   harness.VerifyConfig(delta=1e-2))
    assert result.candidates_evaluated == 4
    assert result.layouts == ["transposed", "transposed"]


def _two_fc_bundle():
    """x (1, 4) -> FC to 8 -> FC to 3: two unknowns."""
    b = fixtures._Builder(5)
    x = b.tensor("x", (1, 4))
    h = b.tensor("h", (1, 8))
    b.op(FULLY_CONNECTED, [x, b.weight("w1", (8, 4)), b.bias("b1", 8)], [h],
         {"activation": "NONE"})
    y = b.tensor("y", (1, 3))
    b.op(FULLY_CONNECTED, [h, b.weight("w2", (3, 8)), b.bias("b2", 3)], [y],
         {"activation": "NONE"})
    return b.bundle([x], [y])


def _batch_breaking_registry():
    """The default units, but an FC of 3 output features adds 1e-3 to its
    output whenever its buffers hold more than one sample."""
    reg = build_default_registry()
    unit = reg.lookup(FULLY_CONNECTED, DataType.F32, DeviceInfo())
    prep = unit.prep

    def broken(inputs, weights, outputs, *, arena=None, fills=None, **kw):
        calls = prep(inputs, weights, outputs, arena=arena, fills=fills,
                     **kw)
        if kw["out_features"] == 3 and outputs[0].size > 3:
            calls.append((np.add, (outputs[0], np.float32(1e-3)),
                          {"out": outputs[0]}))
        return calls

    unit.prep = broken
    return reg


@pytest.mark.parametrize("n_inputs", [100, 1])
def test_a_candidate_whose_batched_plan_breaches_is_rejected_there(
        n_inputs):
    # the runtime's layouts pass input 0 at one sample, and the plan of
    # BATCH breaches at fc2 on the first sample it runs: input 1, or with
    # one verify input, input 0 copied to fill the call
    bundle = _two_fc_bundle()
    ex = codegen.extract_units(bundle, registry=_batch_breaking_registry())
    batch = codegen._BATCH_BUFFER_BYTES // (4 * (4 + 8 + 3))
    with pytest.raises(codegen.SearchError) as ei:
        codegen.search_status(bundle, ex,
                              harness.VerifyConfig(n_inputs=n_inputs),
                              runtime=codegen.extract_units(bundle))
    err = ei.value
    first = 1 if n_inputs > 1 else 0
    assert err.candidates_evaluated == 3
    assert err.breach == codegen.Breach(err.best_error, 1, first, batch)
    assert err.best_error == pytest.approx(1e-3 * math.sqrt(3), rel=1e-3)
    assert (f"at operator 1 (FULLY_CONNECTED) on input {first} in the plan "
            f"of {batch} sample(s) a call") in str(err)
    # the stock units pass both plans
    ex = codegen.extract_units(bundle)
    result = codegen.search_status(bundle, ex,
                                   harness.VerifyConfig(n_inputs=n_inputs))
    assert result.layouts == ["transposed", "transposed"]
    assert list(result.plans) == [1, batch]


def test_search_distances_are_per_sample_norms_and_nan_breaches():
    rng = np.random.default_rng(3)
    got = rng.uniform(-1, 1, 5 * 7).astype(np.float32)
    want = (got + rng.uniform(-1e-3, 1e-3, got.size)).astype(np.float32)
    want[7:14] = got[7:14]  # sample 1 agrees
    got, want = got.reshape(5, 7)[:4], want.reshape(5, 7)[:4]
    d = np.subtract(got, want, dtype=np.float64)
    norms = [float(np.linalg.norm(r)) for r in d]
    assert harness.distances(got, want) == norms
    assert norms[1] == 0.0 and all(norms[i] > 0 for i in (0, 2, 3))
    assert harness.distances(got, got) == [0.0] * 4
    # a row that is not finite reads inf, whichever side holds it
    for bad in (np.nan, np.inf, -np.inf):
        rows = want.copy()
        rows[2, 3] = bad
        assert harness.distances(got, rows) == [*norms[:2], math.inf,
                                                norms[3]]
        assert harness.distances(rows, got)[2] == math.inf
    # a NaN on both sides is no agreement: a weight of NaN makes every
    # candidate breach at the first operator, with an infinite distance
    bundle = fixtures.build_fixture("mlp")
    key = sorted(bundle.weights.entries)[0]
    arr = bundle.weights.as_array(key).copy()
    arr.flat[0] = np.nan
    del bundle.weights.entries[key]
    bundle.weights.put_array(key, arr)
    ex = codegen.extract_units(bundle)
    with pytest.raises(codegen.SearchError) as ei:
        codegen.search_status(bundle, ex)
    assert ei.value.best_error == math.inf
    assert ei.value.breach == codegen.Breach(math.inf, 0, 0, 1)


def test_the_search_serves_its_inputs_as_the_program_serves_a_file():
    # calls of b, the last ending at the last sample; fewer samples than b
    # are padded with copies of their own rows, and only those are compared
    xs = [[np.float32([[k, -k]])] for k in range(7)]
    calls = codegen._served(xs, 1, 3)
    assert [(first, rows) for first, rows, _ in calls] == [
        (1, 3), (4, 3), (5, 3)]
    assert [x[0].tolist() for _, _, x in calls] == [
        [0, 0, 1, -1, 2, -2], [3, -3, 4, -4, 5, -5], [4, -4, 5, -5, 6, -6]]
    [(first, rows, [x])] = codegen._served(xs[:2], 0, 5)
    assert (first, rows) == (0, 2)
    assert x.tolist() == [0, 0, 1, -1, 0, 0, 1, -1, 0, 0]


def test_the_reference_computes_only_the_rows_it_compares(monkeypatch):
    # the reference plan takes min(BATCH, inputs) samples a call, so 100
    # inputs are not padded to BATCH rows; its rows are, bit for bit, those
    # of a plan of BATCH, and the search accepts what it accepted over those
    cfg = harness.VerifyConfig()
    real_plan, real_reference = interpreter.plan, codegen._reference
    planned = []

    def plan(lowered, samples=1, *args):
        planned.append(samples)
        return real_plan(lowered, samples, *args)

    def batch_reference(runtime, xs, n):
        return real_reference(runtime, xs, codegen._batch(runtime))

    monkeypatch.setattr(interpreter, "plan", plan)
    sizes = {}
    for name in sorted(fixtures.FIXTURES):
        bundle = fixtures.build_fixture(name)
        lowered = codegen.extract_units(bundle)
        batch = codegen._batch(lowered)
        xs = harness.make_inputs(bundle.graph, cfg)
        got = codegen._reference(lowered, xs, min(batch, len(xs)))
        want = codegen._reference(lowered, xs, batch)
        assert got.keys() == want.keys()
        for t in want:
            assert got[t].tobytes() == want[t].tobytes(), (name, t)
        planned.clear()
        new = codegen.search_status(bundle, lowered, cfg)
        sizes[name] = (planned.pop(), batch)
        with monkeypatch.context() as m:
            m.setattr(codegen, "_reference", batch_reference)
            old = codegen.search_status(bundle, lowered, cfg)
        assert (new.layouts, new.candidates_evaluated, new.max_error,
                new.blob.tobytes()) == (old.layouts, old.candidates_evaluated,
                                        old.max_error, old.blob.tobytes())
    # the three with BATCH above 100 plan 100 samples a call, the others
    # BATCH
    assert {n: s for n, (s, b) in sizes.items()} == {
        n: min(b, cfg.n_inputs) for n, (_, b) in sizes.items()}
    assert sorted(n for n, (s, b) in sizes.items() if s < b) == [
        "custom", "identity", "mlp"]


def _deep_chain(seed=7):
    """12 3x3 convs, each with its own (activation, padding, dilation),
    then a reshape and an FC: 13 unknowns, a joint space of 2**13."""
    b = fixtures._Builder(seed)
    x = t_in = b.tensor("x", (1, 12, 12, 4))
    hw = 12
    combos = [(act, "SAME", dil) for dil in (1, 2, 3)
              for act in ("NONE", "RELU", "RELU6")]
    combos += [(act, "VALID", 1) for act in ("NONE", "RELU", "RELU6")]
    for k, (act, padding, dil) in enumerate(combos):
        hw -= 2 if padding == "VALID" else 0
        w, bias = b.weight(f"w{k}", (4, 3, 3, 4)), b.bias(f"b{k}", 4)
        y = b.tensor(f"c{k}", (1, hw, hw, 4))
        b.op(CONV_2D, [x, w, bias], [y],
             {"stride_h": 1, "stride_w": 1, "dilation_h": dil,
              "dilation_w": dil, "padding": padding, "activation": act})
        x = y
    flat = b.tensor("flat", (1, hw * hw * 4))
    b.op(RESHAPE, [x], [flat], {"new_shape": [1, hw * hw * 4]})
    w, bias = b.weight("fc_w", (10, hw * hw * 4)), b.bias("fc_b", 10)
    out = b.tensor("y", (1, 10))
    b.op(FULLY_CONNECTED, [flat, w, bias], [out], {"activation": "NONE"})
    return b.bundle([t_in], [out])


def test_deep_chain_search_stays_linear_in_its_unknowns(tmp_path):
    bundle = _deep_chain()
    ex, configs = _analysis(bundle)
    unknowns = sum(1 for c in configs if c.unit.layouts)
    t0 = time.perf_counter()
    result = codegen.search_status(bundle, ex)
    elapsed = time.perf_counter() - t0
    assert unknowns == 13
    assert result.candidates_evaluated <= 1 + unknowns
    assert result.layouts == [hidden_status_for(c.unit.key) for c in configs]
    assert elapsed < 10.0
    artifact = codegen.pipeline(bundle, tmp_path)
    assert harness.verify(bundle, artifact).max_error == 0.0


# -- lowering -----------------------------------------------------------------

def test_one_lowering_per_build(tmp_path, monkeypatch):
    # shapes are inferred only inside the build's one validate call, and
    # the runtime's reference is planned from the build's own lowering, not
    # loaded again; the search configures each plan it ships once, however
    # many candidates it walks (6 on lenet)
    calls = {"infer_shapes": 0, "lower": 0, "load": 0, "configure": 0}

    def counting(module, name):
        real = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, count)

    counting(graphir, "infer_shapes")
    counting(codegen, "lower")
    counting(interpreter, "load")
    counting(codegen, "configure")
    artifact = codegen.pipeline(fixtures.build_fixture("lenet"), tmp_path)
    assert artifact.manifest["candidates_evaluated"] == 6
    assert calls == {"infer_shapes": 1, "lower": 1, "load": 0,
                     "configure": 2}


def test_lowering_reads_no_status_table(monkeypatch):
    def forbidden(key):
        raise AssertionError(f"status table read for {key}")

    monkeypatch.setattr(interpreter, "hidden_status_for", forbidden)
    _, configs = _analysis(fixtures.build_fixture("lenet"))
    assert [(c.op_index, list(c.unit.layouts)) for c in configs
            if c.unit.layouts] == [
        (0, ["OHWI", "HWIO"]), (2, ["OHWI", "HWIO"]),
        (5, ["row_major", "transposed"]), (6, ["row_major", "transposed"]),
        (7, ["row_major", "transposed"])]


# -- emission -----------------------------------------------------------------

def test_emitted_sources_and_manifest(built):
    _, artifact = built["mlp"]
    out = Path(artifact.out_dir)
    assert artifact.sources == [
        "src/net_weights.bin", "src/net_driver.py", "src/__main__.py"]
    texts = {s: (out / s).read_text(encoding="utf-8")
             for s in artifact.sources[1:]}
    driver = texts["src/net_driver.py"]
    assert "def run(" in driver
    assert "INPUT_SHAPES" in driver
    assert "OUTPUT_SHAPES" not in driver  # nothing reads the output shapes
    assert "_F = np.frombuffer(" in driver
    assert "T = marshal.loads(b" in driver  # the call tables, as data
    # the program holds inference only: no timing loop, no --stats
    assert "--reps" not in texts["src/__main__.py"]
    m = artifact.manifest
    assert m["seed"] == 4242424242424242
    assert m["delta"] == 1e-6
    assert m["n_inputs"] == 100
    assert m["max_diff"] == 0.0
    assert m["device"] == {"threads": 1}


def test_plan_replays_its_table_at_one_sample_and_at_batch_only(built):
    # T holds the plans at 1 and at BATCH, and plan(n) takes no other n;
    # every tensor buffer of T[n] holds n samples, one for a RESHAPE's
    # output and the tensor whose buffer it shares
    for name, (bundle, art) in built.items():
        driver = harness.load_driver(art.executable)
        assert list(driver.T) == list(dict.fromkeys((1, driver.BATCH))), name
        lowered = interpreter.load(bundle).lowered
        for n in driver.T:
            assert driver.T[n][0] == tuple(
                4 * n * b.count for t, b in sorted(lowered.tensors.items())
                if t not in lowered.aliases)
        with pytest.raises(KeyError):
            driver.plan(2 if driver.BATCH != 2 else 3)


_PLANNER_NAMES = ("_prep", "_sum_products", "_scratch", "_pool_windows",
                  "_pad_nhwc", "_contracts", "_unfused", "_PRODUCT_BYTES",
                  "in_shape", "filter_h", "dilation_h")


def test_the_shipped_driver_carries_no_planner(built):
    # the program replays its tables: the inflated driver bytecode names no
    # prepare step, helper, budget or kernel parameter, and still binds
    # every template id that run() calls a step through, that of every
    # operator whose step makes calls
    for name, (bundle, art) in built.items():
        pyc = _members(art.executable)["net_driver.pyc"]
        names = set()
        codes = [marshal.loads(pyc[16:])]
        while codes:
            code = codes.pop()
            names.update(code.co_names, code.co_varnames)
            for c in code.co_consts:
                if isinstance(c, type(code)):
                    codes.append(c)
                elif isinstance(c, str):
                    names.add(c)
        for token in _PLANNER_NAMES:
            assert token.encode() not in pyc, (name, token)
            assert not any(token in n for n in names), (name, token)
        tids = {op.unit.template_id
                for op, calls in interpreter.load(bundle).steps if calls}
        assert tids <= names, name
        driver = harness.load_driver(art.executable)
        assert all(getattr(driver, t) is driver.run_calls for t in tids)


def test_emitted_sources_carry_no_container_traces(built):
    tokens = ("tflite", ".lite", "graph.json", ".params", "MLW0",
              "org.tensorflow", "libtvm")
    for name, (_, artifact) in built.items():
        out = Path(artifact.out_dir)
        blobs = [(s, (out / s).read_bytes()) for s in artifact.sources]
        blobs.append(("program", Path(artifact.executable).read_bytes()))
        for label, blob in blobs:
            low = blob.lower()
            for tok in tokens:
                assert tok.lower().encode() not in low, (name, label, tok)


def test_codegen_never_reads_the_runtime_status_table():
    src = Path(codegen.__file__).read_text(encoding="utf-8")
    assert "live_status" not in src
    assert "hidden_status" not in src


def test_executable_runs_standalone(built):
    _, artifact = built["identity"]
    mode = os.stat(artifact.executable).st_mode
    assert mode & stat.S_IXUSR
    # the program reads raw tensors and writes raw tensors, nothing else
    import tempfile
    x = np.arange(4, dtype="<f4")
    with tempfile.TemporaryDirectory() as td:
        ip, op = Path(td) / "in.raw", Path(td) / "out.raw"
        ip.write_bytes(x.tobytes())
        subprocess.run([artifact.executable, str(ip), str(op)], check=True)
        got = np.frombuffer(op.read_bytes(), dtype="<f4")
    assert np.array_equal(got, x)


@pytest.mark.parametrize("args", [
    ["in.raw", "out.raw", "--reps"],
    ["in.raw", "out.raw", "--reps", "x"],
    ["in.raw", "out.raw", "--reps", "0"],
    ["in.raw", "out.raw", "--stats"],
    ["in.raw"],
    ["missing.raw", "out.raw"],
    ["in.raw", "no-such-dir/out.raw"],
    ["in.raw", "out.raw", "--stats", "no-such-dir/stats.json"],
], ids=["reps-without-value", "reps-not-a-number", "reps-zero",
        "stats-without-value", "one-path", "missing-input",
        "unwritable-output", "unwritable-stats"])
def test_program_rejects_bad_arguments_with_exit_2(built, tmp_path, args):
    # the program takes two paths and no option: --reps and --stats are
    # argv of the wrong length, like one path
    _, artifact = built["identity"]
    (tmp_path / "in.raw").write_bytes(np.zeros(4, dtype="<f4").tobytes())
    proc = subprocess.run([artifact.executable, *args], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()
    if len(args) != 2:
        assert proc.stderr == "usage: program IN.raw OUT.raw\n"


@pytest.mark.parametrize("size", [3, 17, 4 * 4 * 3 + 2])
def test_program_rejects_input_that_is_not_whole_samples(built, tmp_path,
                                                        size):
    # a stray byte or a cut value is no sample: reading whole values alone
    # would drop the tail and run
    _, artifact = built["identity"]
    (tmp_path / "in.raw").write_bytes(b"\x01" * size)
    proc = subprocess.run([artifact.executable, "in.raw", "out.raw"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == (f"input holds {size} bytes, need a multiple "
                           f"of 16\n")
    assert not (tmp_path / "out.raw").exists()


# Run in a `python -S` child with argv PROGRAM ARG...: an atexit hook that
# says teardown ran, and an os._exit that says it was called and with
# what, then ends the process, each saying whether the cyclic collector
# was on; then the program's zip runs in that process, as python runs a
# zip.
_HOW_IT_ENDS_SRC = """\
import atexit, gc, os, runpy, sys
def say(what):
    on = "on" if gc.isenabled() else "off"
    print(f"{what}, collector {on}", file=sys.stderr, flush=True)
atexit.register(say, "teardown ran")
_exit = os._exit
def say_and_exit(code):
    say(f"os._exit({code})")
    _exit(code)
os._exit = say_and_exit
del sys.argv[0]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_program_ends_at_its_last_write_with_the_collector_off(built,
                                                              tmp_path):
    # every exit code main() returns, and an OSError's, ends in os._exit
    # with the collector still off, so no atexit hook runs
    _, artifact = built["mlp"]
    np.zeros(4, "<f4").tofile(tmp_path / "in.raw")
    (tmp_path / "short.raw").write_bytes(b"abc")
    for args, code, lines in (
            (["in.raw", "out.raw"], 0, ""),
            (["in.raw"], 2, "usage: program IN.raw OUT.raw\n"),
            (["short.raw", "out.raw"], 2,
             "input holds 3 bytes, need a multiple of 16\n"),
            (["missing.raw", "out.raw"], 2,
             "missing.raw: No such file or directory\n")):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _HOW_IT_ENDS_SRC,
             artifact.executable, *args],
            cwd=tmp_path, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, "", lines + f"os._exit({code}), collector off\n"), args
    assert np.fromfile(tmp_path / "out.raw", "<f4").size == 3


def test_program_exit_codes_hold_with_stdout_closed_or_broken(built,
                                                             tmp_path):
    # the program prints nothing to stdout, so a stdout that is closed or
    # a pipe whose reader is gone changes no code and no stderr line
    _, artifact = built["mlp"]
    np.zeros(4, "<f4").tofile(tmp_path / "in.raw")
    r, w = os.pipe()
    os.close(r)
    try:
        for stdout in ({"preexec_fn": lambda: os.close(1)},
                       {"stdout": w}):
            for args, code, err in (
                    (["in.raw", "out.raw"], 0, ""),
                    (["in.raw"], 2, "usage: program IN.raw OUT.raw\n")):
                proc = subprocess.run([artifact.executable, *args],
                                      cwd=tmp_path, stderr=subprocess.PIPE,
                                      text=True, **stdout)
                assert (proc.returncode, proc.stderr) == (code, err), args
    finally:
        os.close(w)


def test_program_exit_codes_hold_with_stderr_broken(built, tmp_path):
    # a stderr pipe whose reader is gone cannot take an error line: the
    # line is lost, and the code is the one the line goes with
    _, artifact = built["mlp"]
    np.zeros(4, "<f4").tofile(tmp_path / "in.raw")
    (tmp_path / "short.raw").write_bytes(b"abc")
    r, w = os.pipe()
    os.close(r)
    try:
        for args, code in ((["in.raw", "out.raw"], 0), (["in.raw"], 2),
                           (["short.raw", "out.raw"], 2),
                           (["missing.raw", "out.raw"], 2)):
            proc = subprocess.run([artifact.executable, *args],
                                  cwd=tmp_path, stdout=subprocess.PIPE,
                                  stderr=w)
            assert (proc.returncode, proc.stdout) == (code, b""), args
    finally:
        os.close(w)


def _program_main(artifact):
    """The built program's __main__.main, loaded from its zip.

    Its module code turns the cyclic collector off, extends sys.path, sets
    an environment variable and, under a venv's python, sys.prefix; all are
    put back as they were.
    """
    code = zipimport.zipimporter(artifact.executable).get_code("__main__")
    ns = {"__name__": "program_main"}  # not "__main__": main must not run
    path, environ, prefix = sys.path[:], dict(os.environ), sys.prefix
    collecting = gc.isenabled()
    sys.path.insert(0, artifact.executable)
    try:
        exec(code, ns)
        assert not gc.isenabled()
    finally:
        if collecting:
            gc.enable()
        sys.path[:] = path
        sys.prefix = prefix
        os.environ.clear()
        os.environ.update(environ)
        sys.modules.pop("net_driver", None)
    return ns["main"]


def test_program_argv_fuzz_exits_0_or_2(built, tmp_path, monkeypatch,
                                        capsys):
    # Any argv ends in exit 0 or 2, with an OSError mapped to 2 as the
    # program's entry point does; anything else would be a traceback. Any
    # argv but two paths, the former options --reps and --stats included,
    # exits 2 with the usage line. Junk holds no NUL, which no OS argv
    # carries, and no "/", so a junk path stays in the working directory.
    _, artifact = built["mlp"]
    path, environ, prefix = sys.path[:], dict(os.environ), sys.prefix
    main = _program_main(artifact)
    assert (sys.path, dict(os.environ), sys.prefix) == (path, environ, prefix)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    names = ["in.raw", "short.raw", "empty.raw", "missing.raw", "out.raw",
             "stats.json", "sub/out.raw", "."]
    part = st.one_of(
        st.sampled_from(["--reps", "--stats"]),
        st.integers(-3, 4).map(str),
        st.text(st.characters(exclude_categories=("Cs",),
                              exclude_characters="\x00/"), max_size=8),
        st.sampled_from(names),
        st.sampled_from(names).map(lambda n: str(work / n)))
    outside = sorted(os.listdir(tmp_path.parent))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(part, max_size=6),
        st.builds(lambda i, o, opts: [i, o, *(a for opt in opts for a in opt)],
                  st.sampled_from(["in.raw", str(work / "in.raw"),
                                   "short.raw"]),
                  st.sampled_from(names),
                  st.lists(st.tuples(st.sampled_from(["--reps", "--stats"]),
                                     part), max_size=2))))
    def check(argv):
        (work / "in.raw").write_bytes(np.arange(8, dtype="<f4").tobytes())
        (work / "short.raw").write_bytes(np.ones(3, dtype="<f4").tobytes())
        (work / "empty.raw").write_bytes(b"")
        capsys.readouterr()
        try:
            code = main(argv)
        except OSError:
            code = 2
        assert code in (0, 2), argv
        if len(argv) != 2:
            assert (code, capsys.readouterr().err) == (
                2, "usage: program IN.raw OUT.raw\n"), argv

    check()
    assert sorted(os.listdir(tmp_path.parent)) == outside
    assert sorted(os.listdir(tmp_path)) == ["work"]


def _program_output(artifact, xs, work, env=None) -> bytes:
    """What the program writes for the samples xs, run as an executable."""
    ip, op = work / "in.raw", work / "out.raw"
    np.concatenate([a.reshape(-1) for x in xs for a in x]).astype(
        "<f4").tofile(ip)
    proc = subprocess.run([artifact.executable, str(ip), str(op)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return op.read_bytes()


def _interpreter_output(bundle, xs) -> bytes:
    plan = interpreter.load(bundle)
    return b"".join(o.astype("<f4").tobytes()
                    for x in xs for o in interpreter.invoke(plan, x))


# Run in a `python -S` child with argv PROGRAM IN OUT: runs the program's
# zip in that process, as python runs a zip, with os._exit made to raise
# SystemExit so that the program returns to the child, then reports the
# threads the process holds, where numpy's C core came from (the
# program's numpy package is a bare stand-in, with no file) and the name
# of the module that serves `import datetime`.
_IN_PROCESS_SRC = """\
import json, os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit
del sys.argv[0]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
except SystemExit as e:
    if e.code:
        raise
tasks = "/proc/self/task"
print(json.dumps({
    "tasks": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "core": sys.modules["numpy._core._multiarray_umath"].__file__,
    "datetime": sys.modules["datetime"].__name__}))
"""


def _run_in_process(python, artifact, work, env=None) -> dict:
    proc = subprocess.run(
        [str(python), "-S", "-c", _IN_PROCESS_SRC, artifact.executable,
         str(work / "in.raw"), str(work / "out.raw")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Run in a `python -S` child with argv PROGRAM ARG...: runs the program's
# zip as python runs it, up to main(), wraps net_driver.run to record the
# sample count of each call, then runs main(ARG...) and prints its exit
# code and the counts.
_COUNT_RUNS_SRC = """\
import json, runpy, sys
g = runpy.run_path(sys.argv[1], run_name="program")
driver = g["net_driver"]
run = driver.run
runs = []


def counted(inputs):
    runs.append(len(inputs[0]))
    return run(inputs)


driver.run = counted
code = g["main"](sys.argv[2:])
print(json.dumps({"code": code, "runs": runs}))
"""


def _count_runs(artifact, work, *args) -> dict:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COUNT_RUNS_SRC, artifact.executable,
         *args], cwd=work, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name, count, calls", [
    ("mlp", 4096, 2), ("lenet", 20, 3), ("lenet", 1, 1)])
def test_program_runs_each_call_once(built, tmp_path, name, count, calls):
    # a file of `count` samples goes in as `calls` calls of BATCH samples
    # (mlp's is 3640, lenet's 9), one sample in one call of one, and run()
    # makes each once, with no warm-up call
    _, artifact = built[name]
    driver = harness.load_driver(artifact.executable)
    np.random.default_rng(5).uniform(
        -1, 1, (count, sum(driver.INPUT_SIZES))).astype("<f4").tofile(
            tmp_path / "in.raw")
    b = driver.BATCH if count > 1 else 1
    assert _count_runs(artifact, tmp_path, "in.raw", "out.raw") == \
        {"code": 0, "runs": [b] * calls}


def test_program_runs_no_host_site_code(built, tmp_path):
    # the interpreter line starts the program under -IS: a sitecustomize on
    # the host's path (or a .pth file in its site-packages) never runs, and
    # PYTHONPATH is not searched, so neither a numpy.py there nor a
    # types.py that numpy's core would reach through enum can run inside
    # the program and read its weights; numpy is still found
    site_dir = tmp_path / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text("import os\nos._exit(3)\n")
    env = dict(os.environ, PYTHONPATH=str(site_dir))
    assert subprocess.run([sys.executable, "-c", "pass"],
                          env=env).returncode == 3  # the hook is live
    for mod in ("numpy", "types"):
        (site_dir / f"{mod}.py").write_text("import os\nos._exit(4)\n")
        assert subprocess.run([sys.executable, "-S", "-c", f"import {mod}"],
                              env=env).returncode == 4
    bundle, artifact = built["mlp"]
    xs = [_sample(bundle, s) for s in range(4)]
    assert _program_output(artifact, xs, tmp_path, env) == \
        _interpreter_output(bundle, xs)


def _np_chains(text):
    """Every np.<attr>... chain the code in text names, comments aside."""
    for node in ast.walk(ast.parse(text)):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "np":
            yield tuple(reversed(chain))


def test_every_numpy_name_the_program_calls_is_on_the_c_core(built):
    # the program loads numpy's C core alone, so each name it and the
    # kernel templates call must resolve there; so must each name of the
    # runtime modules, which `mlfuse run` and `mlfuse inspect` load with
    # the core alone
    core = importlib.import_module("numpy._core._multiarray_umath")
    assert ops.np is core
    assert codegen._NP_HEAD in inspect.getsource(ops)
    texts = {}
    for module in (ops, graphir, lowering, interpreter, cli):
        assert module.np is core
        texts[module.__name__] = inspect.getsource(module)
    # the registry names no numpy at all: lowering.lay_out lays weights out
    assert "np" not in vars(registry)
    texts[registry.__name__] = inspect.getsource(registry)
    for name, (_, art) in built.items():
        for rel in art.sources:
            if rel.endswith(".py"):
                texts[f"{name}/{rel}"] = (Path(art.out_dir) / rel).read_text(
                    encoding="utf-8")
    seen = set()
    for where, text in texts.items():
        for chain in _np_chains(text):
            obj = core
            for attr in chain:
                assert hasattr(obj, attr), (where, "np." + ".".join(chain))
                obj = getattr(obj, attr)
            seen.add(chain)
    assert {("c_einsum",), ("frombuffer",), ("fromfile",),
            ("minimum", "reduce")} <= seen


# the modules the C core's own init imports, besides the core itself and
# the three bare modules that stand in for numpy, numpy._core and
# numpy._globals
_CORE_INIT_MODULES = {
    "numpy", "numpy._core", "numpy._core._multiarray_umath",
    "numpy.exceptions", "numpy._globals", "numpy._core._exceptions",
    "numpy._core.printoptions", "numpy.dtypes"}

# what a zip run through runpy, or the real numpy._globals and datetime,
# would load and no kernel needs
_START_UP_MODULES = {"runpy", "enum", "contextlib", "collections",
                     "functools", "datetime"}


def test_program_loads_no_numpy_python_layer(built, tmp_path):
    bundle, artifact = built["lenet"]
    ip, op = tmp_path / "in.raw", tmp_path / "out.raw"
    np.concatenate([a.reshape(-1) for a in _sample(bundle, 0)]).astype(
        "<f4").tofile(ip)
    with open(artifact.executable, "rb") as f:
        interpreter_line = f.readline()[2:].decode().split()
    mods = _imported_modules([*interpreter_line, artifact.executable,
                              str(ip), str(op)])
    loaded = {m for m in mods if m.partition(".")[0] == "numpy"}
    assert "numpy._core._multiarray_umath" in loaded
    assert loaded - _CORE_INIT_MODULES == set()
    assert not {"numpy.linalg", "numpy.lib",
                "numpy._core._add_newdocs"} & loaded
    assert mods & _START_UP_MODULES == set()
    assert "_datetime" in mods
    assert _run_in_process(sys.executable, artifact,
                           tmp_path)["datetime"] == "_datetime"


# The program's set-up up to the core import, then a child that swaps the
# stand-ins' class for one that logs every attribute read, loads the core
# and prints the names read from each module, less the import machinery's
# own dunder names.
_STAND_IN_READS_SRC = """
seen = {}
class Logged(type(sys)):
    def __getattribute__(self, name):
        get = type(sys).__getattribute__
        if not name.startswith("__"):
            seen.setdefault(get(self, "__name__"), set()).add(name)
        return get(self, name)
for name in ("numpy", "numpy._core", "numpy._globals", "datetime"):
    sys.modules[name].__class__ = Logged
from numpy._core import _multiarray_umath
print(sorted((k, sorted(v)) for k, v in seen.items()))
"""


def test_core_reads_only_the_names_its_stand_ins_hold():
    # the bare numpy._globals holds the three names the core's init reads
    # and no more; a numpy that reads another name from a stand-in fails
    # here, before a program or `mlfuse run` fails to start. Both start
    # from corestart.STANDINS.
    assert corestart.STANDINS in codegen._MAIN_SRC
    proc = subprocess.run(
        [sys.executable, "-I", "-c",
         "import os, site, sys\n" + corestart.STANDINS + _STAND_IN_READS_SRC],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [
        ("_datetime", ["datetime_CAPI"]),
        ("numpy", ["dtypes"]),
        ("numpy._core", ["_multiarray_umath"]),
        ("numpy._globals", ["_CopyMode", "_NoValue", "_signature_descriptor"])]


def test_program_without_numpy_says_so_in_one_line(tmp_path):
    # the distribution's python has no numpy here: the build needs none,
    # and the program names the python and what it lacks
    python = "/usr/bin/python%d.%d" % sys.version_info[:2]
    if not os.path.isfile(python):
        pytest.skip(f"no {python}")
    if subprocess.run([python, "-I", "-c", "import numpy"],
                      capture_output=True).returncode == 0:
        pytest.skip(f"{python} has numpy")
    bundle = fixtures.build_fixture("mlp")
    art = codegen.pipeline(bundle, tmp_path / "x",
                           toolchain=codegen.ToolchainConfig(python))
    ip = tmp_path / "in.raw"
    np.zeros(sum(a.size for a in _sample(bundle, 0)), "<f4").tofile(ip)
    proc = subprocess.run([art.executable, str(ip), str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == (f"{python} cannot load numpy's C core: "
                           f"No module named 'numpy'\n")


def test_program_whose_core_fails_part_way_says_so_in_one_line(
        tmp_path, monkeypatch):
    # the stand-ins lose a name the core's init reads, so that init fails
    # part way through: the program ends as it does without numpy
    main = codegen._MAIN_SRC.replace("g._NoValue = object()", "pass")
    assert main != codegen._MAIN_SRC
    monkeypatch.setattr(codegen, "_MAIN_SRC", main)
    bundle = fixtures.build_fixture("mlp")
    art = codegen.pipeline(bundle, tmp_path / "x")
    ip = tmp_path / "in.raw"
    np.zeros(sum(a.size for a in _sample(bundle, 0)), "<f4").tofile(ip)
    proc = subprocess.run([art.executable, str(ip), str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == (f"{sys.executable} cannot load numpy's C core: "
                           f"module 'numpy._globals' has no attribute "
                           f"'_NoValue'\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads in /proc/self/task")
def test_program_starts_no_blas_thread_pool(built, tmp_path):
    # no kernel calls BLAS, so the program holds only its main thread;
    # without the cap OpenBLAS starts a worker per extra CPU at import
    bundle, artifact = built["lenet"]
    xs = [_sample(bundle, s) for s in range(2)]
    want = _program_output(artifact, xs, tmp_path)
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    got = _run_in_process(sys.executable, artifact, tmp_path, env)
    assert got["tasks"] == 1
    assert (tmp_path / "out.raw").read_bytes() == want
    assert want == _interpreter_output(bundle, xs)


# venvs of the running interpreter and of the distribution's python of the
# same version, whose site.getsitepackages Debian and Ubuntu patch: it names
# a venv's site-packages only when sys.prefix is not the base install
@pytest.mark.parametrize("base", [
    sys.executable, "/usr/bin/python%d.%d" % sys.version_info[:2]],
    ids=["running", "distribution"])
def test_program_built_with_a_venv_python_finds_the_venvs_numpy(base,
                                                                tmp_path):
    # under -S a venv's python has the base install as sys.prefix; the
    # program still puts the venv's site-packages first on its path
    if not os.path.isfile(base):
        pytest.skip(f"no {base}")
    venv = tmp_path / "venv"
    made = subprocess.run([base, "-m", "venv", "--without-pip", str(venv)],
                          capture_output=True)
    python = venv / "bin" / "python"
    if made.returncode != 0 or not python.is_file():
        pytest.skip("cannot make a venv with this interpreter")
    purelib = Path(subprocess.run(
        [python, "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        capture_output=True, text=True, check=True).stdout.strip())
    numpy_dir = Path(np.__file__).parent
    for d in (numpy_dir, numpy_dir.with_name("numpy.libs")):
        if d.exists():
            (purelib / d.name).symlink_to(d)
    if subprocess.run([python, "-c", "import numpy"],
                      capture_output=True).returncode != 0:
        pytest.skip("this numpy does not load in that interpreter")
    bundle = fixtures.build_fixture("identity")
    art = codegen.pipeline(bundle, tmp_path / "x",
                           toolchain=codegen.ToolchainConfig(str(python)))
    with open(art.executable, "rb") as f:
        assert f.readline() == (b"#!" + bytes(python) + b" -ISc"
                                + codegen._BOOTSTRAP + b"\n")
    xs = [_sample(bundle, s) for s in range(3)]
    assert _program_output(art, xs, tmp_path) == \
        _interpreter_output(bundle, xs)
    got = _run_in_process(python, art, tmp_path)
    # purelib/numpy/_core/_multiarray_umath.*.so
    assert os.path.samefile(Path(got["core"]).parents[2], purelib)


def test_a_python_path_too_long_for_the_bootstrap_runs_the_zip(tmp_path):
    # Linux reads 256 bytes of a #! line: a python whose path leaves no
    # room for the bootstrap gets the plain -IS line, which runs the same
    # zip through runpy
    long_dir = tmp_path / ("d" * 60) / ("e" * 60)
    long_dir.mkdir(parents=True)
    python = long_dir / "python"
    python.symlink_to(sys.executable)
    assert len(b"#!" + bytes(python) + b" -ISc" + codegen._BOOTSTRAP) > 256
    bundle = fixtures.build_fixture("mlp")
    art = codegen.pipeline(bundle, tmp_path / "x",
                           toolchain=codegen.ToolchainConfig(str(python)))
    with open(art.executable, "rb") as f:
        assert f.readline() == b"#!" + bytes(python) + b" -IS\n"
    xs = [_sample(bundle, s) for s in range(3)]
    assert _program_output(art, xs, tmp_path) == \
        _interpreter_output(bundle, xs)


def test_an_input_the_program_cannot_hold_ends_in_one_line(built, tmp_path):
    # a 2 GiB input under a 1 GiB address space: reading it fails, and the
    # program says so from the file's size, not through a numpy object
    resource = pytest.importorskip("resource")
    ip = tmp_path / "in.raw"
    with open(ip, "wb") as f:
        f.truncate(2 << 30)  # sparse: takes no disk space

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    _, artifact = built["mlp"]
    proc = subprocess.run([artifact.executable, str(ip), str(tmp_path / "o")],
                          preexec_fn=limit, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == (f"input holds {2 << 30} bytes, more than this "
                           f"process can hold\n")
    assert not (tmp_path / "o").exists()


def test_program_writes_every_output_of_every_sample(tmp_path):
    # two inputs and two outputs of different sizes: each input row splits
    # into its fields, and each sample's outputs follow in graph order
    g = ComputationalGraph(
        tensors=[
            TensorSpec(0, "x", DataType.F32, (1, 4)),
            TensorSpec(1, "y", DataType.F32, (1, 6)),
            TensorSpec(2, "c", DataType.F32, (1, 4), weight_ref=0),
            TensorSpec(3, "sum", DataType.F32, (1, 4)),
            TensorSpec(4, "grid", DataType.F32, (2, 3)),
        ],
        operators=[
            OperatorNode(ADD, (0, 2), (3,), {"activation": "RELU"}),
            OperatorNode(RESHAPE, (1,), (4,), {"new_shape": [2, 3]}),
        ],
        inputs=(0, 1), outputs=(4, 3))
    store = WeightStore()
    store.put_array(0, np.array([[0.5, -2.0, 1.0, 0.25]], dtype=np.float32))
    bundle = ModelBundle(g, store)
    art = codegen.pipeline(bundle, tmp_path / "x")
    xs = [_sample(bundle, s) for s in range(3)]
    want = _interpreter_output(bundle, xs)
    assert len(want) == 3 * (6 + 4) * 4
    assert _program_output(art, xs, tmp_path) == want


def test_weights_ship_as_read_only_views_of_one_blob(built):
    # the driver reads the blob member once at import, the accepted
    # layouts' flat weights, and every weight a step reads is a read-only
    # view into it; together the views read all of it
    bundle, artifact = built["lenet"]
    lowered = codegen.extract_units(bundle)
    result = codegen.search_status(bundle, lowered)
    want = codegen.build_emission_plan(lowered, result).blob
    laid, views = lowering.lay_out(lowered, result.layouts)
    assert want.tobytes() == laid.tobytes() == b"".join(
        w.tobytes() for ws in views for w in ws)
    driver = harness.load_driver(artifact.executable)
    blob = driver._F
    assert type(blob.base) is bytes and not blob.flags.writeable
    assert blob.base == want.astype("<f4").tobytes() == (
        Path(artifact.out_dir) / "src/net_weights.bin").read_bytes()
    seen = 0
    for calls in _program_lists(driver):
        for _, args, kw in calls:
            for a in (*args, *kw.values()):
                if isinstance(a, np.ndarray) and np.shares_memory(a, blob):
                    assert not a.flags.writeable
                    seen += 1
    assert seen
    # the views of base 0, the blob, in the tables of both plans, whose
    # fills read the biases of private product tensors
    read = np.zeros(blob.size, bool)
    for table in driver.T.values():
        for shape, _, base, offset, strides in table[2]:
            if base == 0:
                hi = offset + sum((d - 1) * s for d, s in zip(shape, strides))
                read[offset // 4:hi // 4 + 1] = True
    assert read.all()


def test_the_runtime_and_the_program_hold_the_same_weight_bytes(built):
    # the interpreter lays its weights out in the runtime's layouts through
    # the lay_out each candidate of the search takes, which recovers those
    # layouts: its blob is the program's data member, byte for byte
    for name, (bundle, art) in sorted(built.items()):
        blob = interpreter.load(bundle).blob
        member = _members(art.executable).get("net_weights.bin")
        if name == "identity":
            assert blob.size == 0 and member is None
        else:
            assert blob.astype("<f4").tobytes() == member, name


def _numpy_path(f) -> str:
    """The name the program calls f by on numpy's C core."""
    owner = getattr(f, "__self__", None)
    if isinstance(owner, np.ufunc):
        return f"{owner.__name__}.{f.__name__}"
    return f.__name__


@pytest.mark.parametrize("name", ["lenet", "dwblock"])
def test_the_emitter_tabulates_the_plans_the_search_verified(
        built, monkeypatch, name):
    # the emitter prepares nothing: the shipped tables are the plans at one
    # sample and at BATCH that the search ran, over its buffers and its blob
    bundle, art = built[name]
    lowered = codegen.extract_units(bundle)
    result = codegen.search_status(bundle, lowered)
    assert list(result.plans) == [1, result.batch] and result.batch > 1
    prepared = []
    real = lowering.configure

    def counting(*args, **kwargs):
        prepared.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lowering, "configure", counting)
    monkeypatch.setattr(codegen, "configure", counting)
    plan = codegen.build_emission_plan(lowered, result)
    assert prepared == []
    tables = marshal.loads(plan.tables)
    assert harness.load_driver(art.executable).T == tables
    assert list(tables) == list(result.plans)
    # every step but a RESHAPE's, which makes no call in either plan
    assert plan.steps == tuple(op.op_index for op in lowered.ops
                               if op.kind != "RESHAPE")
    for n, p in result.plans.items():
        t = tables[n]
        assert t[0] == tuple(b.nbytes for k, b in sorted(p.buffers.items())
                             if k not in lowered.aliases)
        assert [len(calls) for calls in t[6]] == [len(c) for c in p.calls
                                                  if c]
        assert len(t[5]) == len(p.fills)
        assert [plan.callables[f] for calls in (t[5], *t[6])
                for f, _, _ in calls] == [
            _numpy_path(f) for calls in (p.fills, *p.calls)
            for f, _, _ in calls]
    assert plan.blob is result.blob


def test_the_program_zip_is_what_zipfile_writes(built):
    # the members deflated once, in the bytes zipfile writes when it
    # deflates each at level 9 (stored where that does not shrink it)
    for name, (_, art) in sorted(built.items()):
        with open(art.executable, "rb") as f:
            line = f.readline()
            got = f.read()
        members = _members(art.executable)
        out = io.BytesIO()
        out.write(line)
        with zipfile.ZipFile(out, "w") as z:
            for member, data in sorted(members.items()):
                info = zipfile.ZipInfo(member, date_time=(1980, 1, 1, 0, 0, 0))
                if len(_deflate(data)) < len(data) and not (
                        member == "net_weights.bin" and len(data)
                        >= codegen._DEFLATE_WEIGHTS_BELOW):
                    info.compress_type = zipfile.ZIP_DEFLATED
                z.writestr(info, data, compresslevel=9)
        assert out.getvalue()[len(line):] == got, name


def _members(executable) -> dict:
    """The program's zip members by name."""
    with open(executable, "rb") as f:
        f.readline()  # interpreter line
        with zipfile.ZipFile(f) as z:
            return {n: z.read(n) for n in z.namelist()}


def test_every_program_with_weights_ships_them_as_one_raw_member(built,
                                                                 tmp_path):
    # its two code modules and the blob as emitted, stripped or not, and
    # no weights module
    seen = []
    for name, (bundle, art) in sorted(built.items()):
        if not bundle.weights.entries:
            continue
        plain = codegen.pipeline(
            bundle, tmp_path / name,
            toolchain=codegen.ToolchainConfig(strip=False))
        for a, ext in ((art, ".pyc"), (plain, ".py")):
            members = _members(a.executable)
            assert sorted(members) == sorted([
                f"__main__{ext}", f"net_driver{ext}", "net_weights.bin"]), name
            assert members["net_weights.bin"] == (
                Path(a.out_dir) / "src/net_weights.bin").read_bytes(), name
        seen.append(name)
    assert seen == ["custom", "dwblock", "lenet", "mlp"]


def test_an_unstripped_build_reads_its_weights_from_its_sources(
        built, tmp_path, monkeypatch):
    # the driver's one read serves the zip and src/ alike: imported from an
    # unstripped build's src/, it binds the weights the program does and
    # imports no other module of the build
    bundle, artifact = built["mlp"]
    codegen.pipeline(bundle, tmp_path / "x",
                     toolchain=codegen.ToolchainConfig(strip=False))
    src = tmp_path / "x" / "src"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(src))
    before = set(sys.modules)
    try:
        plain = importlib.import_module("net_driver")
        assert set(sys.modules) - before == {"net_driver"}
    finally:
        sys.modules.pop("net_driver", None)
    assert plain.__file__ == str(src / "net_driver.py")
    shipped = harness.load_driver(artifact.executable)
    assert plain._F.size and plain._F.tobytes() == shipped._F.tobytes()
    assert plain.T == shipped.T


def _sample(bundle, seed):
    cfg = harness.VerifyConfig(seed=seed, n_inputs=1)
    return harness.make_inputs(bundle.graph, cfg)[0]


@pytest.mark.parametrize("at", ["1", "BATCH"])
@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_warm_program_run_allocates_only_its_outputs(built, name, at):
    # Buffers and kernel scratch are made by plan(n); a warm run() makes
    # only the output copies it hands back, which later calls leave alone.
    # numpy's ufunc iterator buffers up to np.getbufsize() elements per
    # operand of a reduction on its own account; shrinking them leaves the
    # program's allocations in the peak.
    bundle, artifact = built[name]
    driver = harness.load_driver(artifact.executable)
    n = 1 if at == "1" else driver.BATCH
    driver.plan(n)
    steps = [(getattr(driver, op.unit.template_id),
              getattr(driver, f"S{op.op_index}"))
             for op, calls in interpreter.load(bundle).steps if calls]
    rng = np.random.default_rng(1)
    x, y = ([rng.uniform(-1, 1, (n, size)).astype(np.float32)
             for size in driver.INPUT_SIZES] for _ in range(2))
    first = driver.run(x)
    kept = [o.copy() for o in first]
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        second = driver.run(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak <= sum(o.nbytes for o in second) + 16384, peak
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))
    assert not any(np.array_equal(a, b) for a, b in zip(first, second))
    # The steps alone, as run() calls them: a temporary a step frees
    # before run() copies the outputs out would hide under those copies.
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        for step, calls in steps:
            step(calls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak <= 4096, peak


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_serving_makes_no_cyclic_garbage(built, name):
    # The program and `mlfuse run` serve with the cyclic collector off for
    # the process's life, which holds only while serving leaves it nothing
    # to find: after one collection of what loading left, repeated program
    # run() calls at one sample and at BATCH, and repeated interpreter
    # invokes, leave no unreachable object behind.
    bundle, artifact = built[name]
    driver = harness.load_driver(artifact.executable)
    plan = interpreter.load(bundle)
    x = _sample(bundle, 3)
    rng = np.random.default_rng(2)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for n in (1, driver.BATCH):
            driver.plan(n)
            inputs = [rng.uniform(-1, 1, (n, size)).astype(np.float32)
                      for size in driver.INPUT_SIZES]
            gc.collect()
            for _ in range(50):
                driver.run(inputs)
            assert gc.collect() == 0, n
        interpreter.invoke(plan, x)
        gc.collect()
        for _ in range(50):
            interpreter.invoke(plan, x)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_no_kernel_code_runs_between_numpy_calls(built, name, monkeypatch):
    # Every step is a list of (f, args, kw) calls that the one run step,
    # run_calls, makes in turn, and every f is a ufunc or a C function or
    # method: in the program's plans at one sample and at BATCH, in the
    # interpreter's plan, and in every reference kernel's case.
    c_callables = (np.ufunc, type(np.add.reduce))
    bundle, artifact = built[name]
    driver = harness.load_driver(artifact.executable)
    steps = interpreter.load(bundle).steps
    # a RESHAPE's step makes no call: its output is a view of its input
    assert all(calls == [] for op, calls in steps if op.kind == "RESHAPE")
    lists = [calls for op, calls in steps if op.kind != "RESHAPE"]
    for n in (1, driver.BATCH):
        driver.plan(n)
        lists += [v for k, v in vars(driver).items()
                  if k[0] == "S" and k[1:].isdigit()]
    for tid in ops.KERNELS:
        if hasattr(driver, tid):
            assert getattr(driver, tid) is driver.run_calls, tid
    assert {u.fn for u in default_registry().units()} == {ops.run_calls}
    if name == "lenet":  # once, beside the largest plan
        def collect(kernel, inputs, weights, outputs, **params):
            calls = kernel_cases.prepare(ops.PREPS[kernel], inputs, weights,
                                         outputs, **params)
            lists.append(calls)
            ops.run_calls(calls)

        monkeypatch.setattr(kernel_cases, "run_kernel", collect)
        for case in kernel_cases.REFERENCE_CASES.values():
            for i in range(kernel_cases.N_CASES):
                case.__wrapped__(i)
    assert lists or name == "identity"  # a lone RESHAPE
    for calls in lists:
        assert calls and type(calls) is list
        for f, args, kw in calls:
            assert isinstance(f, c_callables), f
            assert type(args) is tuple and type(kw) is dict, f


@pytest.mark.parametrize("name, calls", [("mlp", 3), ("lenet", 9)])
def test_kernel_calls_are_looked_up_at_call_time(built, monkeypatch, name,
                                                 calls):
    # a wrapper set on a kernel after import (program) or after load
    # (interpreter) sees every kernel call, as a tracer needs: calls is
    # the interpreter's, one a step of each operator; the program has no
    # step for a RESHAPE, which makes no call
    bundle, artifact = built[name]
    x = _sample(bundle, 1)
    seen = []

    def counting(fn):
        def wrapper(*args):
            seen.append(fn)
            return fn(*args)
        return wrapper

    driver = harness.load_driver(artifact.executable)
    for tid in ops.KERNELS:
        if hasattr(driver, tid):
            monkeypatch.setattr(driver, tid, counting(getattr(driver, tid)))
    want = driver.run(x)
    assert len(seen) == calls - sum(op.kind == "RESHAPE" for op in
                                    codegen.extract_units(bundle).ops)

    seen.clear()
    plan = interpreter.load(bundle)
    for unit in {id(op.unit): op.unit for op in plan.lowered.ops}.values():
        monkeypatch.setattr(unit, "fn", counting(unit.fn))
    got = interpreter.invoke(plan, x)
    assert len(seen) == calls
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_bench_counts_buffers_and_output_copies_and_scratch_apart(built):
    bundle, artifact = built["lenet"]
    driver = harness.load_driver(artifact.executable)
    report = harness.bench(bundle, artifact, repetitions=3)
    scratch = harness.plan_scratch(driver, 1)
    assert report.generated_counters == {
        "load_bytes": 0, "configure_bytes": 0,
        "invoke_bytes": 4 * 10,  # lenet's 10 class scores
        "peak_bytes": driver.BUFFER_BYTES + 4 * 10,
        "scratch_bytes": scratch}
    # one arena, sized to conv1's gathered patches and accumulator (25 x
    # 576 and 6 x 576 floats, 71,424 B), beside fc3's product tensor
    # (3,400 B) and softmax's rows (84 B), which stay private below a
    # page: the one-sample plan's scratch, which the interpreter's plan of
    # the same steps holds too
    assert scratch == 71_424 + 3_400 + 84 == 74_908
    assert report.interpreter_counters["scratch_bytes"] == scratch


def _program_lists(driver):
    return [v for k, v in sorted(vars(driver).items())
            if k[0] == "S" and k[1:].isdigit()]


def test_dwblock_plans_do_not_grow_with_the_sample_count(built):
    # depthwise blocks span whole samples: its step makes 5 calls (the
    # copy into its padded input, the tail row's fill, the gather, the
    # products and their sum) at 1, 2 and 5 samples, and 20 at BATCH, 3
    # blocks of 12 samples whose 9 taps go in 2 chunks. The shipped BATCH
    # table then holds 30 calls, its one fill included.
    bundle, art = built["dwblock"]
    batch = codegen._batch(codegen.extract_units(bundle))
    for n, want in ((1, 5), (2, 5), (5, 5), (batch, 20)):
        plan = interpreter.load(bundle, samples=n)
        [calls] = [c for op, c in plan.steps
                   if op.kind == "DEPTHWISE_CONV_2D"]
        assert len(calls) == want, n
    t = harness.load_driver(art.executable).T[batch]
    assert len(t[5]) + sum(map(len, t[6])) == 30


def test_program_plans_share_one_arena_and_keep_small_steps_as_they_were(
        built):
    # lenet's plan(1) takes the gathered patches and the accumulators of
    # conv1 and conv2 from one arena, and contracts fc1's and fc2's one
    # sample straight into their outputs: 27 calls, no fill. Each conv
    # gathers, contracts, adds its bias and copies out through its RELU
    # (4 calls), each pool takes 3, fc1 and fc2 contract, add and clamp
    # (3), fc3 multiplies and reduces (2) and softmax takes 5. mlp's
    # scratch stays below a page, so its plan(1) makes its 9 calls and no
    # fill; at BATCH, its steps share one arena too, and its FC products,
    # over strided sample lanes, are np.multiply's. Identity has no
    # scratch, and its plan has no arena.
    lenet = harness.load_driver(built["lenet"][1].executable)
    outs = {k: [kw["out"] for f, args, kw in v
                if f is lenet.np.c_einsum and args[0] == "kr,kl->rl"]
            for k, v in vars(lenet).items() if k in ("S0", "S2", "S5", "S6")}
    assert {k: len(v) for k, v in outs.items()} == dict.fromkeys(outs, 1)
    assert len({id(outs[k][0].base) for k in ("S0", "S2")}) == 1
    assert all(outs[k][0].base is not outs["S0"][0].base
               for k in ("S5", "S6"))
    assert [len(calls) for calls in _program_lists(lenet)] == [
        4, 3, 4, 3, 3, 3, 2, 5]
    mlp = harness.load_driver(built["mlp"][1].executable)
    assert sum(map(len, _program_lists(mlp))) == 9
    mlp.plan(mlp.BATCH)
    try:
        assert len({id(args[0].base) for calls in _program_lists(mlp)
                    for f, args, _ in calls if f == np.add.reduce}) == 1
        products = [f for calls in _program_lists(mlp) for f, _, _ in calls
                    if f in (np.multiply, mlp.np.c_einsum)]
        assert products and set(products) == {np.multiply}
    finally:
        mlp.plan(1)
    driver = (Path(built["identity"][1].out_dir) / "src/net_driver.py"
              ).read_text(encoding="utf-8")
    assert "arena" not in driver and "_scratch" not in driver


# -- batched serving ----------------------------------------------------------

def _batch_counts(batch):
    """Sample counts about the program's batch, and 100."""
    return sorted({1, 2, max(1, batch - 1), batch, batch + 1, 2 * batch + 3,
                   100})


def _interpreted(bundle, count, registry=None):
    """count seeded samples, one row each with the graph's inputs end to
    end, and what the per-sample interpreter writes for each of them."""
    plan = interpreter.load(bundle, registry=registry)
    specs = [plan.lowered.tensors[t] for t in plan.lowered.input_ids]
    rows = np.random.default_rng(8).uniform(
        -1, 1, (count, sum(b.count for b in specs))).astype(np.float32)
    want = []
    for row in rows:
        xs, at = [], 0
        for b in specs:
            xs.append(row[at:at + b.count].reshape(b.shape))
            at += b.count
        want.append(b"".join(o.astype("<f4").tobytes()
                             for o in interpreter.invoke(plan, xs)))
    return rows, want


def _served_in_batches(bundle, artifact, counts, work, registry=None):
    """Files of each count of seeded samples through the program, each
    against the per-sample interpreter, bit for bit."""
    rows, want = _interpreted(bundle, max(counts), registry)
    for count in counts:
        rows[:count].astype("<f4").tofile(work / "in.raw")
        proc = subprocess.run([artifact.executable, "in.raw", "out.raw"],
                              cwd=work, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (work / "out.raw").read_bytes() == b"".join(want[:count]), \
            count


@pytest.mark.parametrize("name, batch", [
    ("custom", 2520), ("dwblock", 36), ("identity", 8192), ("lenet", 9),
    ("mlp", 3640)])
def test_program_serves_a_file_in_batches_bit_for_bit(built, tmp_path, name,
                                                      batch):
    # BATCH samples' tensor buffers fit in 256 KiB; the last call of a file
    # overlaps the one before it whenever BATCH does not divide the count
    bundle, artifact = built[name]
    driver = harness.load_driver(artifact.executable)
    assert driver.BATCH == batch == 262144 // driver.BUFFER_BYTES
    _served_in_batches(bundle, artifact, _batch_counts(batch), tmp_path)


def _two_inputs_bundle():
    """Every operator kind that batches only under a condition, met: ADD
    of two activations, CONCATENATION on axis 1 with no weight part, PAD
    with nothing added on axis 0 and a two-row SOFTMAX a sample; the
    outputs, of different sizes, come in another order than the inputs."""
    g = ComputationalGraph(
        tensors=[
            TensorSpec(0, "x", DataType.F32, (1, 4)),
            TensorSpec(1, "y", DataType.F32, (1, 6)),
            TensorSpec(2, "ry", DataType.F32, (1, 6)),
            TensorSpec(3, "xy", DataType.F32, (1, 10)),
            TensorSpec(4, "w", DataType.F32, (3, 10), weight_ref=0),
            TensorSpec(5, "b", DataType.F32, (3,), weight_ref=1),
            TensorSpec(6, "fc", DataType.F32, (1, 3)),
            TensorSpec(7, "grid", DataType.F32, (2, 3)),
            TensorSpec(8, "probs", DataType.F32, (2, 3)),
            TensorSpec(9, "flat", DataType.F32, (1, 6)),
            TensorSpec(10, "sum", DataType.F32, (1, 6)),
            TensorSpec(11, "padded", DataType.F32, (1, 5)),
        ],
        operators=[
            OperatorNode(RELU, (1,), (2,), {}),
            OperatorNode(CONCATENATION, (0, 2), (3,), {"axis": 1}),
            OperatorNode(FULLY_CONNECTED, (3, 4, 5), (6,),
                         {"activation": "NONE"}),
            OperatorNode(RESHAPE, (1,), (7,), {"new_shape": [2, 3]}),
            OperatorNode(SOFTMAX, (7,), (8,), {"beta": 1.0}),
            OperatorNode(RESHAPE, (8,), (9,), {"new_shape": [1, 6]}),
            OperatorNode(ADD, (9, 2), (10,), {"activation": "NONE"}),
            OperatorNode(PAD, (6,), (11,), {"paddings": [0, 0, 1, 1]}),
        ],
        inputs=(0, 1), outputs=(10, 11))
    store = WeightStore()
    rng = np.random.default_rng(4)
    store.put_array(0, rng.uniform(-1, 1, (3, 10)).astype(np.float32))
    store.put_array(1, rng.uniform(-1, 1, 3).astype(np.float32))
    return ModelBundle(g, store)


def _two_rows_bundle():
    """A graph whose every params shape is its own, two rows a sample:
    conv with SAME padding and stride 2, depthwise, both pools (avg-pool's
    count grid takes its border), RESHAPE and FC."""
    b = fixtures._Builder(6)
    x = b.tensor("x", (2, 9, 9, 3))
    conv = b.tensor("conv", (2, 5, 5, 4))
    b.op(CONV_2D, [x, b.weight("cw", (4, 3, 3, 3)), b.bias("cb", 4)], [conv],
         {"stride_h": 2, "stride_w": 2, "dilation_h": 1, "dilation_w": 1,
          "padding": "SAME", "activation": "RELU"})
    dw = b.tensor("dw", (2, 5, 5, 8))
    b.op(DEPTHWISE_CONV_2D, [conv, b.weight("dww", (1, 3, 3, 8)),
                             b.bias("db", 8)], [dw],
         {"stride_h": 1, "stride_w": 1, "dilation_h": 1, "dilation_w": 1,
          "padding": "SAME", "activation": "NONE", "depth_multiplier": 2})
    pool = {"filter_h": 2, "filter_w": 2, "padding": "SAME",
            "activation": "NONE"}
    avg = b.tensor("avg", (2, 5, 5, 8))
    b.op(AVERAGE_POOL_2D, [dw], [avg], dict(pool, stride_h=1, stride_w=1))
    top = b.tensor("max", (2, 3, 3, 8))
    b.op(MAX_POOL_2D, [avg], [top], dict(pool, stride_h=2, stride_w=2))
    flat = b.tensor("flat", (2, 72))
    b.op(RESHAPE, [top], [flat], {"new_shape": [2, 72]})
    y = b.tensor("y", (2, 3))
    b.op(FULLY_CONNECTED, [flat, b.weight("fw", (3, 72)), b.bias("fb", 3)],
         [y], {"activation": "NONE"})
    return b.bundle([x], [y])


def _signed_zeros_bundle():
    """An FC with no bias, whose zero tail row is a fill, and a
    SCALE_SHIFT by -0.0 plus -0.0 after it, whose output's zeros take the
    sign of each FC output: +0.0 where that is negative, -0.0 elsewhere.
    Both are outputs."""
    b = fixtures._Builder(9)
    x = b.tensor("x", (1, 6))
    fc = b.tensor("fc", (1, 4))
    b.op(FULLY_CONNECTED, [x, b.weight("fw", (4, 6))], [fc],
         {"activation": "NONE"})
    y = b.tensor("y", (1, 4))
    b.op("SCALE_SHIFT", [fc], [y], {"scale": -0.0, "shift": -0.0})
    return b.bundle([x], [fc, y])


def _batches_bit_for_bit(bundle, work):
    art = codegen.pipeline(bundle, work / "x")
    driver = harness.load_driver(art.executable)
    assert driver.BATCH == 262144 // driver.BUFFER_BYTES > 1
    _served_in_batches(bundle, art, _batch_counts(driver.BATCH), work)


def test_batches_split_two_inputs_and_join_two_outputs(tmp_path):
    _batches_bit_for_bit(_two_inputs_bundle(), tmp_path)


def test_a_graph_of_two_rows_a_sample_batches_with_one_sample_params(
        tmp_path):
    # each kernel reads how many samples a call stacks from its buffers
    _batches_bit_for_bit(_two_rows_bundle(), tmp_path)


def test_a_zero_constant_keeps_its_sign_in_the_tables(tmp_path):
    # the tables hold the FC reduction's initial +0.0 and SCALE_SHIFT's
    # -0.0 apart, as the interpreter does; as one, every zero the program
    # writes would take one sign
    bundle = _signed_zeros_bundle()
    art = codegen.pipeline(bundle, tmp_path / "x")
    _, want = _interpreted(bundle, 5)
    zeros = np.frombuffer(b"".join(want), "<f4")[-4:]
    assert not zeros.any() and len(set(np.signbit(zeros))) == 2
    _served_in_batches(bundle, art, [1, 5], tmp_path)


class _NaNCore:
    """numpy's C core, but every buffer its empty() makes reads as NaN."""

    def __init__(self, core):
        self.core = core

    def __getattr__(self, name):
        return getattr(self.core, name)

    def empty(self, *args):
        buf = self.core.empty(*args)
        buf.view("u1").fill(255)
        return buf


@pytest.mark.parametrize("graph", [*sorted(fixtures.FIXTURES), "two_inputs",
                                   "two_rows", "signed_zeros"])
def test_a_plan_needs_nothing_of_fresh_memory_but_its_fills(
        built, tmp_path, monkeypatch, graph):
    # the program makes every buffer of a table with np.empty and counts
    # on the fills for whatever must hold before a run: with all of them
    # made NaN, plan(1) and plan(BATCH) still write the interpreter's bits
    if graph in fixtures.FIXTURES:
        bundle, art = built[graph]
    else:
        bundle = globals()[f"_{graph}_bundle"]()
        art = codegen.pipeline(bundle, tmp_path / "x")
    driver = harness.load_driver(art.executable)
    monkeypatch.setattr(driver, "np", _NaNCore(driver.np))
    rows, want = _interpreted(bundle, driver.BATCH)
    for n in dict.fromkeys((1, driver.BATCH)):
        driver.plan(n)
        xs, at = [], 0
        for size in driver.INPUT_SIZES:
            xs.append(rows[:n, at:at + size].copy())
            at += size
        outs = [o.reshape(n, -1) for o in driver.run(xs)]
        got = [b"".join(o[i].astype("<f4").tobytes() for o in outs)
               for i in range(n)]
        assert got == want[:n], n


@pytest.mark.parametrize("graph", [*sorted(fixtures.FIXTURES), "two_inputs",
                                   "two_rows", "signed_zeros"])
def test_fills_made_again_leave_the_next_run_as_it_was(graph):
    # the search configures each plan once and makes its fills again for
    # each candidate, so fills made after a run must hold what they held
    # before it: avg-pool's count grid is zeroed before the fills sum it
    bundle = (fixtures.build_fixture(graph) if graph in fixtures.FIXTURES
              else globals()[f"_{graph}_bundle"]())
    lowered = lowering.lower(bundle)
    _, views = lowering.lay_out(
        lowered, [hidden_status_for(op.unit.key) for op in lowered.ops])
    rng = np.random.default_rng(11)
    for n in dict.fromkeys((1, codegen._batch(lowered))):
        buffers = lowered.allocate(n)
        calls, fills = lowering.configure(lowered, views, buffers)
        for t in lowered.input_ids:
            buffers[t][:] = rng.uniform(-1, 1, buffers[t].size)

        def run():
            for op, k in zip(lowered.ops, calls):
                op.unit.fn(k)
            return [buffers[t].tobytes() for t in lowered.output_ids]

        first = run()
        for _ in range(2):
            ops.run_calls(fills)
            assert run() == first, n


def _one_op_graph(op, in_shapes, out_shape, options, weight=None):
    """Graph inputs for in_shapes, an optional weight input after them, one
    operator and its output."""
    tensors = [TensorSpec(i, f"x{i}", DataType.F32, s)
               for i, s in enumerate(in_shapes)]
    store = WeightStore()
    if weight is not None:
        store.put_array(0, weight)
        tensors.append(TensorSpec(len(tensors), "c", DataType.F32,
                                  weight.shape, weight_ref=0))
    tensors.append(TensorSpec(len(tensors), "y", DataType.F32, out_shape))
    ids = tuple(range(len(tensors) - 1))
    g = ComputationalGraph(
        tensors=tensors,
        operators=[OperatorNode(op, ids, (len(tensors) - 1,), options)],
        inputs=tuple(range(len(in_shapes))), outputs=(len(tensors) - 1,))
    return ModelBundle(g, store)


def _negate_registry():
    """The default units plus a custom NEGATE: SCALE_SHIFT's kernel at
    scale -1, which the batching rule does not know."""
    reg = build_default_registry()
    reg.register_custom(
        "NEGATE",
        ComputingUnit(UnitKey("NEGATE", DataType.F32), "scale_shift_f32",
                      ops.KERNELS["scale_shift_f32"],
                      ops.PREPS["scale_shift_f32"]),
        rule=lambda options, ins, consts: (
            [ins[0]], {"scale": -1.0, "shift": 0.0}))
    return reg


def _prep_registry(prep):
    """The default units plus a custom STEP over one input, whose prepare
    step is prep."""
    reg = build_default_registry()
    reg.register_custom(
        "STEP",
        ComputingUnit(UnitKey("STEP", DataType.F32), "scale_shift_f32",
                      ops.KERNELS["scale_shift_f32"], prep),
        rule=lambda options, ins, consts: ([ins[0]], {}))
    return reg


def test_a_custom_prepare_step_keeps_a_keyword_of_its_own(tmp_path):
    # a plan hands a step only the keywords it shares, arena and fills; a
    # defaulted keyword of the step's own keeps its default
    def prep(inputs, weights, outputs, *, gain=2.0):
        return [(np.multiply, (inputs[0], ops.float32(gain), outputs[0]), {})]

    reg = _prep_registry(prep)
    bundle = _one_op_graph("STEP", [(1, 4)], (1, 4), {})
    x = np.float32([[1, -2, 0.5, 3]])
    [y] = interpreter.invoke(interpreter.load(bundle, registry=reg), [x])
    assert y.tobytes() == (2 * x).tobytes()
    art = codegen.pipeline(bundle, tmp_path / "x", registry=reg)
    assert harness.verify(bundle, art, registry=reg).max_error == 0.0
    _served_in_batches(bundle, art, [1, 3], tmp_path, registry=reg)


def test_a_step_that_writes_over_its_input_is_compared_before_it_does(
        tmp_path):
    # STEP reads h, then writes over it, as an in-place step would; the
    # reference records h right after FC's step, as the candidates compare
    # it, not after the whole run, when h holds STEP's zeros
    reg = _prep_registry(lambda inputs, weights, outputs: [
        (ops.np.multiply, (inputs[0], 2, outputs[0]), {}),
        (ops.np.copyto, (inputs[0], 0.0), {})])
    b = fixtures._Builder(5)
    x = b.tensor("x", (1, 4))
    h, y = b.tensor("h", (1, 8)), b.tensor("y", (1, 8))
    b.op(FULLY_CONNECTED, [x, b.weight("w", (8, 4)), b.bias("b", 8)], [h],
         {"activation": "NONE"})
    b.op("STEP", [h], [y], {})
    bundle = b.bundle([x], [y])
    art = codegen.pipeline(bundle, tmp_path / "x", registry=reg)
    assert art.manifest["max_diff"] == 0.0
    assert harness.verify(bundle, art, registry=reg).max_error == 0.0
    batch = harness.load_driver(art.executable).BATCH
    _served_in_batches(bundle, art, [1, batch + 1], tmp_path, registry=reg)


def _negative(x, out):
    np.negative(x, out=out)


@pytest.mark.parametrize("name", ["negative", "_negative"])
def test_a_callable_the_program_cannot_name_is_a_codegen_error(
        tmp_path, monkeypatch, name):
    # the program calls np.<name> on numpy's C core: a Python function is
    # not that callable, even where the core has one by its name
    monkeypatch.setattr(_negative, "__name__", name)
    reg = _prep_registry(lambda inputs, weights, outputs: [
        (_negative, (inputs[0], outputs[0]), {})])
    bundle = _one_op_graph("STEP", [(1, 4)], (1, 4), {})
    with pytest.raises(codegen.CodegenError, match="numpy's C core"):
        codegen.pipeline(bundle, tmp_path / "x", registry=reg)


_C4 = np.float32([[0.5, -2.0, 1.0, 0.25]])

_UNBATCHED = {
    "softmax-rank-1": lambda: _one_op_graph(SOFTMAX, [(4,)], (4,),
                                            {"beta": 1.0}),
    "add-with-weight": lambda: _one_op_graph(
        ADD, [(1, 4)], (1, 4), {"activation": "NONE"}, _C4),
    "concat-axis-0": lambda: _one_op_graph(
        CONCATENATION, [(1, 4), (1, 4)], (2, 4), {"axis": 0}),
    "concat-weight-part": lambda: _one_op_graph(
        CONCATENATION, [(1, 2)], (1, 6), {"axis": 1}, _C4),
    "pad-axis-0": lambda: _one_op_graph(PAD, [(1, 4)], (2, 5),
                                        {"paddings": [1, 0, 0, 1]}),
    "other-custom": lambda: _one_op_graph("NEGATE", [(1, 4)], (1, 4), {}),
}


@pytest.mark.parametrize("name", sorted(_UNBATCHED))
def test_a_graph_the_batching_rule_excludes_runs_one_sample_a_call(
        tmp_path, name):
    reg = _negate_registry()
    bundle = _UNBATCHED[name]()
    art = codegen.pipeline(bundle, tmp_path / "x", registry=reg)
    driver = harness.load_driver(art.executable)
    assert driver.BATCH == 1
    assert harness.verify(bundle, art, registry=reg).max_error == 0.0
    _served_in_batches(bundle, art, [1, 3], tmp_path, registry=reg)


def test_program_runs_the_batched_plan_a_file_needs(built, tmp_path):
    # lenet's BATCH is 9: 20 samples run as 3 calls of 9, the last
    # overlapping the one before it, and 5 as one call of 9, padded with
    # copies of its own samples
    bundle, artifact = built["lenet"]
    for count, runs in ((20, [9, 9, 9]), (5, [9])):
        xs = [_sample(bundle, s) for s in range(count)]
        np.concatenate([a.reshape(-1) for x in xs for a in x]).astype(
            "<f4").tofile(tmp_path / "in.raw")
        assert _count_runs(artifact, tmp_path, "in.raw", "out.raw") == \
            {"code": 0, "runs": runs}
        assert (tmp_path / "out.raw").read_bytes() == \
            _interpreter_output(bundle, xs)


@pytest.mark.parametrize("name", ["lenet", "mlp"])
def test_a_file_of_batch_plus_one_samples_overlaps_bit_for_bit(
        built, tmp_path, name):
    # two calls of BATCH samples, the second overlapping the first by all
    # but one sample, which it computes again to the same bits; the file
    # is the interpreter's, byte for byte
    bundle, artifact = built[name]
    driver = harness.load_driver(artifact.executable)
    count = driver.BATCH + 1
    rows = np.random.default_rng(9).uniform(
        -1, 1, (count, sum(driver.INPUT_SIZES))).astype(np.float32)
    xs = [[row.reshape(driver.INPUT_SHAPES[0])] for row in rows]
    rows.astype("<f4").tofile(tmp_path / "in.raw")
    assert _count_runs(artifact, tmp_path, "in.raw", "out.raw") == \
        {"code": 0, "runs": [driver.BATCH] * 2}
    assert (tmp_path / "out.raw").read_bytes() == \
        _interpreter_output(bundle, xs)


def test_scratch_of_the_batched_plan(built):
    # mlp serves a file of BATCH samples in one call, whose FC product
    # tensors and softmax rows hold far more scratch than one sample's
    _, artifact = built["mlp"]
    driver = harness.load_driver(artifact.executable)
    scratch = harness.plan_scratch(driver, driver.BATCH)
    # one sample: each FC reduces in one chunk, its product tensor the rows
    # of its taps and its bias and no leading row, (4 + 1) x 8 and
    # (8 + 1) x 3 floats, beside softmax's 3 + 1 + 3
    assert harness.plan_scratch(driver, 1) == 4 * (40 + 27 + 7)
    assert scratch > 100 * harness.plan_scratch(driver, 1)
    # every part of it takes a page or more, so it is all one arena, sized
    # to the largest step: less than half the 655,200 B the three steps
    # held apart, and the 713,440 B of the layout that kept the short axis
    # innermost (FC products with the output features as lanes, in one-tap
    # chunks past the product budget, and softmax's (class, row) sums)
    assert scratch < 655_200 // 2


# -- determinism --------------------------------------------------------------

def test_repeated_builds_are_byte_identical(tmp_path):
    bundle = fixtures.build_fixture("mlp")
    a = codegen.pipeline(bundle, tmp_path / "a")
    b = codegen.pipeline(bundle, tmp_path / "b")
    assert a.plan_digest == b.plan_digest
    for s in a.sources:
        assert (tmp_path / "a" / s).read_bytes() == \
            (tmp_path / "b" / s).read_bytes(), s
    assert Path(a.executable).read_bytes() == Path(b.executable).read_bytes()
    assert (tmp_path / "a" / "build_manifest.json").read_bytes() == \
        (tmp_path / "b" / "build_manifest.json").read_bytes()


def test_digest_tracks_build_configuration(tmp_path):
    bundle = fixtures.build_fixture("identity")
    a = codegen.pipeline(bundle, tmp_path / "a")
    b = codegen.pipeline(bundle, tmp_path / "b",
                         cfg=harness.VerifyConfig(seed=7, n_inputs=3))
    assert a.plan_digest != b.plan_digest


# -- artifacts and toolchain --------------------------------------------------

def test_load_artifact_round_trip(built):
    _, artifact = built["identity"]
    loaded = codegen.load_artifact(artifact.out_dir)
    assert loaded.plan_digest == artifact.plan_digest
    assert loaded.sources == artifact.sources
    assert loaded.executable == artifact.executable
    assert loaded.manifest == artifact.manifest


def test_load_artifact_requires_manifest(tmp_path):
    with pytest.raises(codegen.CodegenError, match="no build manifest"):
        codegen.load_artifact(tmp_path)


def test_missing_toolchain_is_reported(tmp_path):
    bundle = fixtures.build_fixture("identity")
    bad = codegen.ToolchainConfig(command="no-such-interpreter-zz")
    with pytest.raises(codegen.ToolchainError, match="toolchain not found"):
        codegen.pipeline(bundle, tmp_path / "x", toolchain=bad)


def test_toolchain_config_rejects_unknown_fields():
    with pytest.raises(codegen.CodegenError, match="toolchain: unknown field"):
        codegen.ToolchainConfig.from_obj({"command": "python3", "opt": 2})
    # the compile step's strip flags are fixed at -OO
    with pytest.raises(codegen.CodegenError, match="toolchain: unknown field"):
        codegen.ToolchainConfig.from_obj({"strip_flags": ["-OO"]})


def test_toolchain_config_from_obj_normalizes_sequences():
    tc = codegen.ToolchainConfig.from_obj(
        {"command": "python3", "flags": ["-B"], "strip": False})
    assert tc.flags == ("-B",)
    assert not tc.strip


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(["command", "flags", "strip"]),
       value=_JSON)
def test_toolchain_config_takes_any_json_field_or_raises_codegen_error(
        field, value):
    obj = {"command": "python3", "flags": ["-B"], "strip": True, field: value}
    try:
        tc = codegen.ToolchainConfig.from_obj(obj)
    except codegen.CodegenError:
        return
    assert isinstance(tc.command, str) and isinstance(tc.strip, bool)
    assert all(isinstance(a, str) for a in tc.flags)


def test_unstripped_build_ships_plain_sources(tmp_path):
    bundle = fixtures.build_fixture("identity")
    art = codegen.pipeline(bundle, tmp_path / "x",
                           toolchain=codegen.ToolchainConfig(strip=False))
    with open(art.executable, "rb") as f:
        f.readline()  # interpreter line
        names = zipfile.ZipFile(f).namelist()
    assert any(n.endswith(".py") for n in names)
    assert not any(n.endswith(".pyc") for n in names)


@dataclasses.dataclass
class ToolCalls:
    starts: list  # each worker's start command
    steps: list  # (worker pid, request args) of each compile step


@pytest.fixture
def tool_calls(monkeypatch):
    """Record the start command of every toolchain worker a build starts
    and every request it sends, then start and send them. The workers of
    earlier tests are closed first, so each test sees its own start."""
    codegen._close_workers()
    calls = ToolCalls([], [])
    start, step = codegen._Worker.__init__, codegen._Worker.step

    def record_start(self, cmd):
        calls.starts.append(list(cmd))
        start(self, cmd)

    def record_step(self, args):
        calls.steps.append((self.proc.pid, list(args)))
        step(self, args)

    monkeypatch.setattr(codegen._Worker, "__init__", record_start)
    monkeypatch.setattr(codegen._Worker, "step", record_step)
    return calls


def test_stripped_build_runs_one_compile_step(tmp_path, tool_calls):
    bundle = fixtures.build_fixture("identity")
    tc = codegen.ToolchainConfig(flags=("-W", "error"))
    codegen.pipeline(bundle, tmp_path / "x", toolchain=tc)
    (cmd,) = tool_calls.starts
    assert cmd[1] == "-S"
    # the user's flags gate the check, then the strip flags apply
    assert cmd[2:8] == ["-W", "error", "-OO", "-X", "no_debug_ranges", "-c"]
    assert cmd[8:] == [codegen._COMPILE_SRC]
    ((_, args),) = tool_calls.steps
    assert all(os.path.isabs(a) for a in args)


@pytest.mark.parametrize("strip", [True, False], ids=["stripped", "plain"])
def test_toolchain_step_gets_only_the_code(tmp_path, tool_calls, strip):
    # the weights blob goes into the zip as it is
    codegen.pipeline(fixtures.build_fixture("mlp"), tmp_path / "x",
                     toolchain=codegen.ToolchainConfig(strip=strip))
    ((_, args),) = tool_calls.steps
    paths = args[1:]
    assert [Path(p).name for p in paths] == ["net_driver.py", "__main__.py"]
    assert all(os.path.isabs(p) for p in paths)


def test_unstripped_build_runs_one_check_step(tmp_path, tool_calls):
    bundle = fixtures.build_fixture("identity")
    codegen.pipeline(bundle, tmp_path / "x", toolchain=codegen.ToolchainConfig(
        flags=("-W", "error"), strip=False))
    (cmd,) = tool_calls.starts
    # no strip flags, and no pyc directory: the sources compile as a check
    assert cmd[1:] == ["-S", "-W", "error", "-c", codegen._COMPILE_SRC]
    ((_, args),) = tool_calls.steps
    assert args[0] == ""
    assert all(str(a).endswith(".py") for a in args[1:])
    assert not (tmp_path / "x" / "src" / "__pycache__").exists()


def _import_times(cmd, stdin=b""):
    """cmd run under -X importtime: its stdout and the modules it loaded."""
    proc = subprocess.run([cmd[0], "-X", "importtime", *cmd[1:]],
                          input=stdin, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {line.rpartition("|")[2].strip()
                         for line in proc.stderr.decode().splitlines()
                         if line.startswith("import time:")
                         } - {"imported package"}


def _imported_modules(cmd) -> set:
    return _import_times(cmd)[1]


def _request(args) -> bytes:
    """A compile request as the worker reads it: a size line, then the
    pyc directory and the sources, NUL-separated."""
    payload = b"\0".join(map(os.fsencode, args))
    return b"%d\n" % len(payload) + payload


@pytest.mark.parametrize("strip", [True, False], ids=["stripped", "plain"])
def test_toolchain_step_imports_only_what_bare_startup_does(
        tmp_path, tool_calls, strip):
    # the worker is started with the build's exact command and serves the
    # build's exact request; its start-up baseline is the same interpreter
    # and flags running `-c pass`
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("def f():\n    return 1\n")
    (tmp_path / "pycs").mkdir()
    tc = codegen.ToolchainConfig(flags=("-W", "error"), strip=strip)
    codegen.compile_program(tmp_path, ["src/m.py"], tc)
    (cmd,) = tool_calls.starts
    ((_, args),) = tool_calls.steps
    if strip:  # the build's own pyc directory is gone with the build
        args = [str(tmp_path / "pycs"), *args[1:]]
    replies, step = _import_times(cmd, _request(args))
    # the forked step wrote nothing, import times included, and exited 0
    assert replies == b"0 0\n"
    at = cmd.index("-c")
    assert step == _imported_modules([*cmd[:at], "-c", "pass"])


_PY_COMPILE_SRC = """\
import sys
import py_compile
from pathlib import Path

for src in sys.argv[2:]:
    py_compile.compile(
        src, cfile=str(Path(sys.argv[1]) / (Path(src).stem + ".pyc")),
        dfile=Path(src).name, doraise=True,
        invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
"""


def test_shipped_bytecode_is_what_py_compile_writes(built, tmp_path):
    # checked against the stdlib: the header fields importlib defines and
    # the code py_compile compiles under the build's flags
    tc = codegen.ToolchainConfig()
    stored = {}
    for name, (_, art) in sorted(built.items()):
        out = Path(art.out_dir)
        members = _members(art.executable)
        with open(art.executable, "rb") as f:
            f.readline()  # interpreter line
            with zipfile.ZipFile(f) as z:
                packed = {i.filename: i.compress_type for i in z.infolist()}
        # code deflates to well under half; a large float32 weights blob
        # barely does and is stored, and a small one is deflated when that
        # shrinks it
        assert packed == {
            n: zipfile.ZIP_STORED if n == "net_weights.bin" and (
                len(members[n]) >= codegen._DEFLATE_WEIGHTS_BELOW
                or len(_deflate(members[n])) >= len(members[n]))
            else zipfile.ZIP_DEFLATED for n in members}, name
        stored[name] = packed.get("net_weights.bin") == zipfile.ZIP_STORED
        ref = tmp_path / name
        ref.mkdir()
        code = [s for s in art.sources if s.endswith(".py")]
        subprocess.run([tc.command, "-S", *tc.flags, "-OO",
                        "-X", "no_debug_ranges", "-c", _PY_COMPILE_SRC,
                        str(ref), *(str(out / s) for s in code)],
                       check=True)
        stems = [Path(s).stem for s in code]
        assert sorted(set(members) - {"net_weights.bin"}) == sorted(
            f"{m}.pyc" for m in stems), name
        for s, stem in zip(code, stems):
            pyc = members[f"{stem}.pyc"]
            assert pyc[:4] == importlib.util.MAGIC_NUMBER
            assert int.from_bytes(pyc[4:8], "little") == 1  # unchecked hash
            assert pyc[8:16] == \
                importlib.util.source_hash((out / s).read_bytes())
            got = marshal.loads(pyc[16:])
            want = marshal.loads((ref / f"{stem}.pyc").read_bytes()[16:])
            assert got == want, (name, s)
            assert got.co_filename == want.co_filename == Path(s).name
    # no fixture's blob shrinks under deflate, the small ones included
    assert stored == {"custom": True, "dwblock": True, "identity": False,
                      "lenet": True, "mlp": True}


def _deflate(data: bytes) -> bytes:
    """data deflated at level 9, as zipfile deflates a member."""
    z = zlib.compressobj(9, zlib.DEFLATED, -15)
    return z.compress(data) + z.flush()


def test_a_member_deflate_does_not_shrink_is_stored(built, tmp_path):
    # mlp's 268 B blob would deflate to 273 B, so it goes in as it is; a
    # member that deflate shrinks goes in deflated, a weights blob too
    with open(built["mlp"][1].executable, "rb") as f:
        f.readline()  # interpreter line
        with zipfile.ZipFile(f) as z:
            info = z.getinfo("net_weights.bin")
            assert info.compress_type == zipfile.ZIP_STORED
            assert info.compress_size == info.file_size == 268
            assert len(_deflate(z.read(info))) == 273
            assert z.getinfo("net_driver.pyc").compress_type == \
                zipfile.ZIP_DEFLATED
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "net_weights.bin").write_bytes(bytes(1024))
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    exe = codegen.compile_program(tmp_path, ["src/net_weights.bin",
                                             "src/m.py"])
    with open(tmp_path / exe, "rb") as f:
        f.readline()
        with zipfile.ZipFile(f) as z:
            assert z.getinfo("net_weights.bin").compress_type == \
                zipfile.ZIP_DEFLATED


@pytest.mark.parametrize("strip", [True, False], ids=["stripped", "plain"])
def test_failing_toolchain_step_raises_compile_error(tmp_path, strip):
    bundle = fixtures.build_fixture("identity")
    tc = codegen.ToolchainConfig(command=shutil.which("false"), strip=strip)
    with pytest.raises(codegen.CompileError, match="rc=1"):
        codegen.pipeline(bundle, tmp_path / "x", toolchain=tc)


@pytest.mark.parametrize("strip", [True, False], ids=["stripped", "plain"])
def test_toolchain_flags_gate_the_compile_step(tmp_path, strip):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\ny = x is 1\n")
    tc = codegen.ToolchainConfig(strip=strip)
    codegen.compile_program(tmp_path, ["src/m.py"], tc)  # a warning only
    strict = dataclasses.replace(tc, flags=("-W", "error"))
    with pytest.raises(codegen.CompileError, match="SyntaxError"):
        codegen.compile_program(tmp_path, ["src/m.py"], strict)


def test_a_failed_pyc_write_still_fails_the_step(tmp_path, monkeypatch):
    # a step ends in posix._exit only after its last write: the build's
    # own request, given a pyc directory that is a regular file, ends the
    # forked step non-zero with the error it wrote, and compile_program
    # raises
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    not_a_dir = tmp_path / "pycs"
    not_a_dir.write_bytes(b"")
    step = codegen._Worker.step

    def step_into_a_file(self, args):
        step(self, [str(not_a_dir), *args[1:]])

    monkeypatch.setattr(codegen._Worker, "step", step_into_a_file)
    with pytest.raises(codegen.CompileError,
                       match=r"(?s)rc=1\): .*NotADirectoryError"):
        codegen.compile_program(tmp_path, ["src/m.py"])
    assert not_a_dir.read_bytes() == b""


@pytest.mark.parametrize("failure", ["SyntaxError", "NotADirectoryError"])
def test_a_failed_step_leaves_the_worker_serving_the_next_build(
        tmp_path, tool_calls, failure):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "ok.py").write_text("x = 1\n")
    (tmp_path / "src" / "bad.py").write_text("x = 1\ny = x is 1\n")
    not_a_dir = tmp_path / "pycs"
    not_a_dir.write_bytes(b"")
    tc = codegen.ToolchainConfig(flags=("-W", "error"))
    codegen.compile_program(tmp_path, ["src/ok.py"], tc)
    with pytest.raises(codegen.CompileError, match=failure):
        if failure == "SyntaxError":  # a SyntaxWarning, under -W error
            codegen.compile_program(tmp_path, ["src/bad.py"], tc)
        else:
            codegen._compile_step(tool_calls.starts[0], [
                str(not_a_dir), str(tmp_path / "src" / "ok.py")])
    codegen.compile_program(tmp_path, ["src/ok.py"], tc)
    assert len(tool_calls.starts) == 1
    assert len({pid for pid, _ in tool_calls.steps}) == 1


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="needs os.waitid")
def test_a_worker_killed_between_builds_is_replaced(tmp_path, tool_calls):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    codegen.compile_program(tmp_path, ["src/m.py"])
    ((pid, _),) = tool_calls.steps
    os.kill(pid, signal.SIGKILL)
    # dead, and left for the build process to reap
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    codegen.compile_program(tmp_path, ["src/m.py"])
    assert len(tool_calls.starts) == 2
    first, second = (p for p, _ in tool_calls.steps)
    assert second != first


def _running(pid) -> bool:
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


_BUILD_AND_NAME_THE_WORKER = """\
import os, sys
from mlfuse import codegen, fixtures
codegen.pipeline(fixtures.build_fixture("identity"), sys.argv[1])
print(*(w.proc.pid for w in codegen._workers.values()), flush=True)
if sys.argv[2] == "os._exit":
    os._exit(0)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("leave", ["exit", "os._exit"])
def test_no_toolchain_process_outlives_its_build_process(tmp_path, leave):
    # a normal exit closes the worker's requests and waits for it; an exit
    # that skips atexit closes them too, and the worker ends at their EOF
    proc = subprocess.run([sys.executable, "-c", _BUILD_AND_NAME_THE_WORKER,
                           str(tmp_path / "x"), leave],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (pid,) = map(int, proc.stdout.split())
    if leave == "os._exit":
        deadline = time.monotonic() + 10
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
    assert not _running(pid)


def test_builds_through_a_warm_worker_match_a_fresh_process(tmp_path,
                                                            tool_calls):
    # two builds a fixture in this process, the second through the warm
    # worker, give the bytes a build in a fresh process gives
    names = ["lenet", "mlp", "dwblock"]
    script = ("import sys\nfrom mlfuse import codegen, fixtures\n"
              "for n in sys.argv[2:]:\n"
              "    codegen.pipeline(fixtures.build_fixture(n),"
              " f'{sys.argv[1]}/{n}')\n")
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "fresh"),
                    *names], check=True, timeout=300)
    for name in names:
        bundle = fixtures.build_fixture(name)
        for k in range(2):
            art = codegen.pipeline(bundle, tmp_path / f"{name}{k}")
            fresh = tmp_path / "fresh" / name
            assert art.sources == json.loads(
                (fresh / "build_manifest.json").read_text())["sources"]
            for rel in [*art.sources, "program"]:
                assert (Path(art.out_dir) / rel).read_bytes() == \
                    (fresh / rel).read_bytes(), (name, k, rel)
    assert len(tool_calls.starts) == 1
    assert len({pid for pid, _ in tool_calls.steps}) == 1
    assert len(tool_calls.steps) == 2 * len(names)


def _sent(tool_calls) -> list:
    """The file names of the sources each compile step was sent."""
    return [[Path(p).name for p in args[1:]] for _, args in tool_calls.steps]


@pytest.mark.parametrize("strip", [True, False], ids=["stripped", "plain"])
def test_a_warm_worker_compiles_the_entry_point_once(tmp_path, tool_calls,
                                                     strip):
    # every build's __main__.py is the same: the worker's second build is
    # sent only net_driver.py, and ships what a fresh process builds
    tc = codegen.ToolchainConfig(strip=strip)
    script = ("import sys\nfrom mlfuse import codegen, fixtures\n"
              "codegen.pipeline(fixtures.build_fixture('mlp'), sys.argv[1],"
              " toolchain=codegen.ToolchainConfig(strip=sys.argv[2] == '1'))"
              "\n")
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "fresh"),
                    str(int(strip))], check=True, timeout=300)
    codegen.pipeline(fixtures.build_fixture("lenet"), tmp_path / "a",
                     toolchain=tc)
    art = codegen.pipeline(fixtures.build_fixture("mlp"), tmp_path / "b",
                           toolchain=tc)
    assert _sent(tool_calls) == [["net_driver.py", "__main__.py"],
                                 ["net_driver.py"]]
    assert Path(art.executable).read_bytes() == \
        (tmp_path / "fresh" / "program").read_bytes()


def test_an_entry_point_of_other_bytes_is_compiled_again(tmp_path,
                                                         tool_calls,
                                                         monkeypatch):
    # the worker holds the pyc of the exact bytes it compiled: a build
    # whose __main__.py differs sends it again and ships its new pyc, the
    # one a fresh worker writes, and the next build of those bytes reuses
    # it
    bundle = fixtures.build_fixture("mlp")
    first = codegen.pipeline(bundle, tmp_path / "a")
    monkeypatch.setattr(codegen, "_MAIN_SRC",
                        codegen._MAIN_SRC.replace("return 2", "return 3"))
    again = [Path(codegen.pipeline(bundle, tmp_path / d).executable)
             for d in "bc"]
    assert _sent(tool_calls) == [["net_driver.py", "__main__.py"],
                                 ["net_driver.py", "__main__.py"],
                                 ["net_driver.py"]]
    codegen._close_workers()
    fresh = codegen.pipeline(bundle, tmp_path / "fresh").executable
    assert len(tool_calls.starts) == 2
    main = _members(fresh)["__main__.pyc"]
    assert main != _members(first.executable)["__main__.pyc"]
    assert [_members(p)["__main__.pyc"] for p in again] == [main, main]
    assert [p.read_bytes() for p in again] == [Path(fresh).read_bytes()] * 2


@pytest.mark.parametrize("strip", [True, False], ids=["stripped", "plain"])
def test_a_failed_step_leaves_the_worker_holding_what_it_held(
        tmp_path, tool_calls, monkeypatch, strip):
    # an entry point that fails under -W error is not held as compiled: a
    # build of it fails each time, and the entry point held before the
    # failure is still held
    bundle = fixtures.build_fixture("identity")
    tc = codegen.ToolchainConfig(flags=("-W", "error"), strip=strip)
    codegen.pipeline(bundle, tmp_path / "a", toolchain=tc)
    ok = codegen._MAIN_SRC
    monkeypatch.setattr(codegen, "_MAIN_SRC", ok + "\nx = 1 is 1\n")
    for d in "bc":
        with pytest.raises(codegen.CompileError, match="SyntaxError"):
            codegen.pipeline(bundle, tmp_path / d, toolchain=tc)
    (worker,) = codegen._workers.values()
    assert list(worker.held) == [ok.encode()]
    monkeypatch.setattr(codegen, "_MAIN_SRC", ok)
    codegen.pipeline(bundle, tmp_path / "d", toolchain=tc)
    assert _sent(tool_calls) == [["net_driver.py", "__main__.py"],
                                 ["net_driver.py", "__main__.py"],
                                 ["net_driver.py", "__main__.py"],
                                 ["net_driver.py"]]
    assert (tmp_path / "d" / "program").read_bytes() == \
        (tmp_path / "a" / "program").read_bytes()


def test_threads_building_at_once_share_one_worker(tmp_path, tool_calls):
    # the lock keeps each request and its reply together: without it two
    # threads interleave their writes and reads on the worker's pipes
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("def f():\n    return 1\n")
    want = (tmp_path / codegen.compile_program(tmp_path, ["src/m.py"])
            ).read_bytes()
    errors, outs = [], []

    def build(k):
        try:
            for j in range(8):
                out = tmp_path / f"t{k}-{j}"
                shutil.copytree(tmp_path / "src", out / "src")
                outs.append(out / codegen.compile_program(out, ["src/m.py"]))
        except Exception as e:  # reported below, with the thread's number
            errors.append((k, e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(outs) == 64 and {p.read_bytes() for p in outs} == {want}
    assert len(tool_calls.starts) == 1


def test_stray_output_of_toolchain_flags_leaves_the_build_as_it_was(
        tmp_path):
    # -v writes every import, and -X importtime its times, to the worker's
    # stderr; neither reaches its replies
    bundle = fixtures.build_fixture("identity")
    plain = codegen.pipeline(bundle, tmp_path / "a")
    noisy = codegen.pipeline(bundle, tmp_path / "b", toolchain=(
        codegen.ToolchainConfig(flags=("-v", "-X", "importtime"))))
    assert Path(plain.executable).read_bytes() == \
        Path(noisy.executable).read_bytes()


@pytest.mark.parametrize("strip", [True, False], ids=["stripped", "plain"])
def test_build_host_site_code_stays_out_of_the_toolchain(tmp_path, monkeypatch,
                                                         strip):
    site_dir = tmp_path / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text("import os\nos._exit(3)\n")
    monkeypatch.setenv("PYTHONPATH", str(site_dir))
    bundle = fixtures.build_fixture("identity")
    art = codegen.pipeline(bundle, tmp_path / "x",
                           toolchain=codegen.ToolchainConfig(strip=strip))
    assert Path(art.executable).is_file()


# -- input contract -----------------------------------------------------------

def test_pipeline_rejects_non_f32_io(tmp_path):
    g = ComputationalGraph(
        tensors=[TensorSpec(0, "x", DataType.I32, (4,)),
                 TensorSpec(1, "y", DataType.I32, (4,))],
        operators=[OperatorNode(RESHAPE, (0,), (1,), {"new_shape": [4]})],
        inputs=(0,), outputs=(1,))
    bundle = ModelBundle(g, WeightStore())
    with pytest.raises(codegen.CodegenError, match="F32"):
        codegen.pipeline(bundle, tmp_path / "x")


def test_extract_units_rejects_an_invalid_bundle():
    # an FC output declared (1, 9) for its 8 features would otherwise be
    # lowered to a buffer of 9 floats
    b = fixtures._Builder(5)
    x = b.tensor("x", (1, 4))
    y = b.tensor("y", (1, 9))
    b.op(FULLY_CONNECTED, [x, b.weight("w", (8, 4)), b.bias("b", 8)], [y],
         {"activation": "NONE"})
    with pytest.raises(graphir.GraphError, match="invalid bundle"):
        codegen.extract_units(b.bundle([x], [y]))


def test_pipeline_validates_the_bundle_first(tmp_path):
    g = ComputationalGraph(
        tensors=[TensorSpec(0, "x", DataType.F32, (4,)),
                 TensorSpec(1, "y", DataType.F32, (5,))],
        operators=[OperatorNode(RESHAPE, (0,), (1,), {"new_shape": [5]})],
        inputs=(0,), outputs=(1,))
    bundle = ModelBundle(g, WeightStore())
    with pytest.raises(graphir.GraphError, match="invalid bundle"):
        codegen.pipeline(bundle, tmp_path / "x")
