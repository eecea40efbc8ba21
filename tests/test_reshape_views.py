"""RESHAPE as a view: its output shares its input's buffer in every plan.

The lowering records each RESHAPE's output as an alias of the tensor whose
buffer it shares, and every plan gives the two one buffer: the
interpreter's at one sample and at n, the plans the search accepts, and
the program's plan(1) and plan(BATCH). Also held here: the accounting that
still counts every tensor's declared bytes, the bit count beside the l2 in
verify, and special values through identity, which copies its input.
"""

import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlfuse import cli, codegen, fixtures, graphir, harness, interpreter
from mlfuse.graphir import (
    ADD, FULLY_CONNECTED, RELU, RESHAPE, ComputationalGraph, DataType,
    ModelBundle, OperatorNode, TensorSpec, WeightStore,
)
from mlfuse.kernels import ops


def _bundle(tensors, operators, inputs, outputs, weights=()):
    store = WeightStore()
    rng = np.random.default_rng(5)
    for key, shape in weights:
        store.put_array(key, rng.uniform(-1, 1, shape).astype(np.float32))
    specs = [TensorSpec(i, f"t{i}", dtype, shape, ref)
             for i, (dtype, shape, ref) in enumerate(tensors)]
    return ModelBundle(ComputationalGraph(specs, operators, inputs, outputs),
                       store)


F32 = DataType.F32


def _chain():
    """RELU, then two RESHAPEs in a row, then an FC of the second."""
    return _bundle(
        [(F32, (1, 6), None), (F32, (1, 6), None), (F32, (1, 2, 3), None),
         (F32, (1, 6), None), (F32, (3, 6), 0), (F32, (1, 3), None)],
        [OperatorNode(RELU, (0,), (1,), {}),
         OperatorNode(RESHAPE, (1,), (2,), {"new_shape": [1, 2, 3]}),
         OperatorNode(RESHAPE, (2,), (3,), {"new_shape": [1, 6]}),
         OperatorNode(FULLY_CONNECTED, (3, 4), (5,), {"activation": "NONE"})],
        (0,), (5,), weights=[(0, (3, 6))])


def _input_is_an_output():
    """A RESHAPE whose input is a graph output too: both are outputs."""
    return _bundle(
        [(F32, (1, 6), None), (F32, (1, 6), None), (F32, (1, 2, 3), None)],
        [OperatorNode(RELU, (0,), (1,), {}),
         OperatorNode(RESHAPE, (1,), (2,), {"new_shape": [1, 2, 3]})],
        (0,), (1, 2))


def _two_consumers():
    """A RESHAPE of the graph input feeding a RELU and an ADD."""
    return _bundle(
        [(F32, (1, 2, 3), None), (F32, (1, 6), None), (F32, (1, 6), None),
         (F32, (1, 6), None)],
        [OperatorNode(RESHAPE, (0,), (1,), {"new_shape": [1, 6]}),
         OperatorNode(RELU, (1,), (2,), {}),
         OperatorNode(ADD, (1, 2), (3,), {"activation": "NONE"})],
        (0,), (3,))


CASES = {
    "chain": _chain,
    "input_is_an_output": _input_is_an_output,
    "two_consumers": _two_consumers,
    "identity": fixtures.build_identity,
}


def _reshapes(lowered):
    return [op for op in lowered.ops if op.kind == "RESHAPE"]


def _check_aliases(lowered, buffers):
    """Each RESHAPE's output is a view of its input's buffer."""
    assert _reshapes(lowered)
    for op in _reshapes(lowered):
        x, y = buffers[op.act_ids[0]], buffers[op.output_ids[0]]
        assert np.shares_memory(x, y) and x.nbytes == y.nbytes


def _per_sample(bundle, rows):
    """What the one-sample interpreter writes for each row, as bytes."""
    plan = interpreter.load(bundle)
    shape = plan.lowered.tensors[plan.lowered.input_ids[0]].shape
    return [b"".join(o.astype("<f4").tobytes()
                     for o in interpreter.invoke(plan, row.reshape(shape)))
            for row in rows]


def test_the_lowering_records_each_alias_through_chains():
    lowered = codegen.extract_units(_chain())
    assert lowered.aliases == {2: 1, 3: 1}
    buffers = lowered.allocate(3)
    assert buffers[3] is buffers[2] is buffers[1]
    assert buffers[1] is not buffers[0] and buffers[1].size == 18
    assert codegen.extract_units(fixtures.build_fixture("mlp")).aliases == {}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_reshape_shares_its_input_buffer_in_every_plan(case, tmp_path):
    bundle = CASES[case]()
    lowered = codegen.extract_units(bundle)
    result = codegen.search_status(bundle, lowered)
    batch = result.batch
    assert batch > 1 and list(result.plans) == [1, batch]
    for n in (1, batch):
        plan = interpreter.load(bundle, samples=n)
        _check_aliases(lowered, plan.buffers)
        # one step an operator still, a RESHAPE's making no call
        assert [op.op_index for op, _ in plan.steps] == [
            op.op_index for op in lowered.ops]
        assert all(calls == [] for op, calls in plan.steps
                   if op.kind == "RESHAPE")
        _check_aliases(lowered, result.plans[n].buffers)

    art = codegen.pipeline(bundle, tmp_path / "build")
    driver = harness.load_driver(art.executable)
    assert driver.BATCH == batch
    # the program's tensor buffers: one a tensor that is no alias, in id
    # order; a step that reads an alias reads its tensor's buffer
    own = sorted(t for t in lowered.tensors if t not in lowered.aliases)
    for n in (1, batch):
        driver.plan(n)
        assert [b.nbytes for b in driver.B] == [
            4 * n * lowered.tensors[t].count for t in own]
        for op in lowered.ops:
            for t in op.act_ids if op.kind != "RESHAPE" else ():
                if t in lowered.aliases:
                    base = driver.B[own.index(lowered.aliases[t])]
                    args = [a for _, xs, kw in getattr(
                        driver, f"S{op.op_index}") for a in (*xs, *kw.values())
                        if isinstance(a, np.ndarray)]
                    assert any(np.shares_memory(a, base) for a in args)
        # an input or output that is an alias goes by its tensor's name
        for t in (*lowered.input_ids, *lowered.output_ids):
            root = lowered.aliases.get(t, t)
            assert np.shares_memory(getattr(driver, f"t{root}"),
                                    driver.B[own.index(root)])
            if t in lowered.aliases:
                assert not hasattr(driver, f"t{t}")
    driver.plan(1)
    # no step, step name or template id of a RESHAPE is bound
    for op in _reshapes(lowered):
        assert not hasattr(driver, f"S{op.op_index}")
    assert not hasattr(driver, "reshape")
    assert not any("reshape" in k for k in vars(driver))

    # served at 1 and at BATCH samples, bit for bit as the interpreter
    size = lowered.tensors[lowered.input_ids[0]].count
    rows = np.random.default_rng(9).uniform(
        -1, 1, (batch, size)).astype(np.float32)
    want = _per_sample(bundle, rows)
    for count in (1, batch):
        rows[:count].astype("<f4").tofile(tmp_path / "in.raw")
        proc = subprocess.run([art.executable, "in.raw", "out.raw"],
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.raw").read_bytes() == b"".join(want[:count])


def test_identity_runs_copy_in_copy_out(built):
    # its driver binds no template id, no step and no run_calls alias line
    _, artifact = built["identity"]
    plain = codegen.pipeline(fixtures.build_fixture("identity"),
                             artifact.out_dir + "-plain",
                             toolchain=codegen.ToolchainConfig(strip=False))
    src = (Path(plain.out_dir) / "src/net_driver.py").read_text()
    assert " = run_calls" not in src and "L[1:]" not in src
    assert src.endswith("def run(inputs):\n"
                        "    np.copyto(t0, inputs[0].reshape(-1))\n"
                        "    return (t0.copy(),)\n")
    driver = harness.load_driver(artifact.executable)
    assert not any(hasattr(driver, tid) for tid in ops.KERNELS)
    x = np.arange(4, dtype=np.float32)
    assert driver.run([x])[0].tobytes() == x.tobytes()


def test_an_i32_reshape_into_add_shares_its_buffer():
    # the program takes F32 only, so an I32 chain runs in the interpreter:
    # at one sample and at three, bit for bit as numpy's sum
    i32 = DataType.I32
    bundle = _bundle(
        [(i32, (1, 4), None), (i32, (1, 2, 2), None), (i32, (1, 2, 2), None),
         (i32, (1, 2, 2), None)],
        [OperatorNode(RESHAPE, (0,), (1,), {"new_shape": [1, 2, 2]}),
         OperatorNode(ADD, (1, 2), (3,), {"activation": "NONE"})],
        (0, 2), (3,))
    rng = np.random.default_rng(2)
    for n in (1, 3):
        plan = interpreter.load(bundle, samples=n)
        _check_aliases(plan.lowered, plan.buffers)
        x = rng.integers(-1000, 1000, (n, 4), dtype=np.int32)
        y = rng.integers(-1000, 1000, (n, 2, 2), dtype=np.int32)
        out = interpreter.invoke(plan, [x, y])[0]
        assert out.dtype == np.int32
        assert out.tobytes() == (x.reshape(n, 2, 2) + y).tobytes()
    with pytest.raises(codegen.CodegenError, match="F32"):
        codegen.pipeline(bundle, Path("unused"))


def test_a_reshape_that_changes_dtype_is_invalid():
    # its output would be its input's bits read as another type
    bundle = _bundle([(F32, (1, 4), None), (DataType.I32, (4,), None)],
                     [OperatorNode(RESHAPE, (0,), (1,), {"new_shape": [4]})],
                     (0,), (1,))
    assert graphir.validate(bundle) == [
        "operator 0 (RESHAPE): output dtype I32 differs from input dtype F32"]
    with pytest.raises(graphir.GraphError, match="output dtype I32"):
        interpreter.load(bundle)


# -- accounting: every tensor's declared bytes, as at the parent ---------------

# name -> (BATCH, BUFFER_BYTES, plan_scratch at 1, plan_scratch at BATCH)
_ACCOUNTS = {
    "custom": (2520, 104, 296, 322_560),
    "dwblock": (36, 7168, 45_184, 508_416),
    "identity": (8192, 32, 0, 0),
    "lenet": (9, 27_456, 74_908, 214_668),
    "mlp": (3640, 72, 296, 305_760),
}


def test_batch_and_accounting_count_every_tensor_declared_bytes(built):
    # counting each buffer once would make identity's BATCH 16,384
    for name, (bundle, artifact) in sorted(built.items()):
        driver = harness.load_driver(artifact.executable)
        assert (driver.BATCH, driver.BUFFER_BYTES,
                harness.plan_scratch(driver, 1),
                harness.plan_scratch(driver, driver.BATCH)) == \
            _ACCOUNTS[name], name
        lowered = codegen.extract_units(bundle)
        assert driver.BUFFER_BYTES == sum(
            4 * b.count for b in lowered.tensors.values())
    plan = interpreter.load(built["lenet"][0])
    interpreter.invoke(plan, np.zeros((1, 28, 28, 1), np.float32))
    c = interpreter.counters(plan)
    assert c.configure_bytes == plan.lowered.buffer_bytes + plan.blob.nbytes
    assert (c.load_bytes, c.configure_bytes, c.peak_bytes) == (
        179_984, 205_160, 385_144)


# -- bits beside the l2 in verify ----------------------------------------------

def test_every_fixture_verifies_with_no_bit_differing(built, tmp_path,
                                                     capsys):
    for name, (bundle, artifact) in sorted(built.items()):
        report = harness.verify(bundle, artifact)
        assert report.bits_differing == 0 and report.max_error == 0.0, name
    bundle, artifact = built["mlp"]
    graphir.save_bundle(bundle, tmp_path / "m.mlg", tmp_path / "m.mlw")
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "m.mlg"),
                     str(tmp_path / "m.mlw"), artifact.out_dir,
                     "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bits_differing"] == 0


# a program that writes RELU of its input, as the interpreter does, but
# the first +0.0 as -0.0
_FORGED = """\
import array, sys
x = array.array("f", open(sys.argv[1], "rb").read())
y = array.array("f", (max(v, 0.0) for v in x))
y[list(y).index(0.0)] = -0.0
open(sys.argv[2], "wb").write(y.tobytes())
"""


def test_a_flipped_zero_sign_is_one_bit_differing_where_l2_reads_0(
        tmp_path):
    bundle = _bundle([(F32, (1, 4), None), (F32, (1, 4), None)],
                     [OperatorNode(RELU, (0,), (1,), {})], (0,), (1,))
    program = tmp_path / "program"
    program.write_text(f"#!{sys.executable}\n{_FORGED}")
    program.chmod(0o755)
    artifact = codegen.GeneratedArtifact(str(tmp_path), [], str(program), {},
                                         "")
    report = harness.verify(bundle, artifact, harness.VerifyConfig(
        n_inputs=5))
    assert report.max_error == 0.0 and report.passed
    assert report.bits_differing == 1


# -- special values through identity -------------------------------------------

# NaNs with payloads (quiet and signalling, either sign), -0.0 and +0.0,
# +-inf, subnormals and +-FLT_MAX, as bit patterns
_SPECIAL = [0x7FC00000, 0x7FC00001, 0xFFC12345, 0x7F800001, 0x7FBFFFFF,
            0xFFA00001, 0x80000000, 0x00000000, 0x7F800000, 0xFF800000,
            0x00000001, 0x807FFFFF, 0x00400000, 0x7F7FFFFF, 0xFF7FFFFF]


def _special_file(path, samples):
    words = [_SPECIAL[i % len(_SPECIAL)] for i in range(4 * samples)]
    data = struct.pack(f"<{len(words)}I", *words)
    path.write_bytes(data)
    return data


def test_special_values_pass_through_identity_untouched(built, tmp_path):
    bundle, artifact = built["identity"]
    batch = harness.load_driver(artifact.executable).BATCH
    graphir.save_bundle(bundle, tmp_path / "i.mlg", tmp_path / "i.mlw")
    for samples in (1, 2, batch + 1):
        data = _special_file(tmp_path / "in.raw", samples)
        proc = subprocess.run([artifact.executable, "in.raw", "out.raw"],
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.raw").read_bytes() == data, samples
        assert cli.main(["run", str(tmp_path / "i.mlg"),
                         str(tmp_path / "i.mlw"), str(tmp_path / "in.raw"),
                         str(tmp_path / "run.raw")]) == 0
        assert (tmp_path / "run.raw").read_bytes() == data, samples
