import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles

from mlfuse import fixtures, graphir, harness, interpreter
from mlfuse.graphir import (
    ADD,
    AVERAGE_POOL_2D,
    CONCATENATION,
    CONV_2D,
    DEPTHWISE_CONV_2D,
    MAX_POOL_2D,
    PAD,
    ComputationalGraph,
    DataType,
    ModelBundle,
    OperatorNode,
    TensorSpec,
    WeightStore,
    graph_to_json,
    weights_to_bytes,
)
from mlfuse.interpreter import InterpreterError
from mlfuse.kernels import ParamError


@pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
def test_fixture_runs_and_output_shapes(name):
    bundle = fixtures.build_fixture(name)
    plan = interpreter.load(bundle)
    shapes = graphir.infer_shapes(
        bundle.graph,
        custom_rules=None if name != "custom" else
        __import__("mlfuse.kernels", fromlist=["default_registry"])
        .default_registry().custom_shape_rules())
    rng = np.random.default_rng(5)
    xs = [rng.uniform(-1, 1, shapes[t]).astype(np.float32)
          for t in bundle.graph.inputs]
    outs = interpreter.invoke(plan, xs)
    assert [o.shape for o in outs] == [shapes[t]
                                       for t in bundle.graph.outputs]
    assert all(o.dtype == np.float32 for o in outs)


def test_invoke_accepts_bare_array_for_single_input():
    plan = interpreter.load(fixtures.build_fixture("identity"))
    x = np.arange(4, dtype=np.float32).reshape(1, 4)
    out = interpreter.invoke(plan, x)[0]
    assert np.array_equal(out, x.reshape(4))


def test_invoke_is_deterministic():
    bundle = fixtures.build_fixture("lenet")
    a = interpreter.load(bundle)
    b = interpreter.load(bundle)
    x = np.random.default_rng(9).uniform(-1, 1, (1, 28, 28, 1)).astype(
        np.float32)
    oa = interpreter.invoke(a, x)[0]
    ob = interpreter.invoke(b, x)[0]
    assert oracles.bitwise_equal(oa, ob)


@pytest.mark.parametrize("name", ["dwblock", "identity", "lenet", "mlp"])
def test_a_plan_of_n_samples_writes_each_sample_as_one_sample_plans_do(name):
    # load(samples=n) stacks n samples along axis 0 of every buffer; each
    # sample's outputs are the one-sample plan's, bit for bit
    bundle = fixtures.build_fixture(name)
    one = interpreter.load(bundle)
    rng = np.random.default_rng(9)
    specs = [one.lowered.tensors[t] for t in one.lowered.input_ids]
    xs = [[rng.uniform(-1, 1, b.shape).astype(np.float32) for b in specs]
          for _ in range(3)]
    want = [[o.tobytes() for o in interpreter.invoke(one, x)] for x in xs]
    plan = interpreter.load(bundle, samples=3)
    assert all(plan.buffers[t].size == 3 * b.count
               for t, b in plan.lowered.tensors.items())
    outs = interpreter.invoke(
        plan, [np.concatenate([x[j] for x in xs]) for j in range(len(specs))])
    for k, o in enumerate(outs):
        assert o.shape[0] == 3 * one.lowered.tensors[
            one.lowered.output_ids[k]].shape[0]
        rows = o.reshape(3, -1)
        assert [r.tobytes() for r in rows] == [w[k] for w in want]
    with pytest.raises(InterpreterError, match="x"):
        interpreter.invoke(plan, xs[0])


def test_softmax_output_is_distribution():
    plan = interpreter.load(fixtures.build_fixture("mlp"))
    x = np.random.default_rng(11).uniform(-1, 1, (1, 4)).astype(np.float32)
    out = interpreter.invoke(plan, x)[0]
    assert out.shape == (1, 3)
    assert np.all(out > 0)
    assert abs(float(out.sum()) - 1.0) < 1e-5


# -- phase counters -----------------------------------------------------------

def test_counters_unavailable_before_first_invoke():
    plan = interpreter.load(fixtures.build_fixture("mlp"))
    with pytest.raises(InterpreterError, match="invoke"):
        interpreter.counters(plan)


def test_lenet_counters_match_accounting():
    bundle = fixtures.build_fixture("lenet")
    plan = interpreter.load(bundle)
    interpreter.invoke(plan, np.zeros((1, 28, 28, 1), dtype=np.float32))
    c = interpreter.counters(plan)

    # load phase: the container itself (canonical graph text + weight payloads)
    graph_bytes = len(graph_to_json(bundle.graph).encode("utf-8"))
    weight_bytes = sum(len(e.data) for e in bundle.weights.entries.values())
    assert c.load_bytes == graph_bytes + weight_bytes

    # configure phase: activation buffers + the weights blob, which holds
    # every weight payload, each in the layout its kernel reads: the conv
    # filters and fc matrices transposed, the biases as stored
    shapes = graphir.infer_shapes(bundle.graph)
    weight_ids = {t.id for t in bundle.graph.tensors
                  if t.weight_ref is not None}
    buf = sum(4 * int(np.prod(shapes[t.id]))
              for t in bundle.graph.tensors if t.id not in weight_ids)
    assert buf == plan.lowered.buffer_bytes
    assert plan.blob.nbytes == weight_bytes
    assert c.configure_bytes == buf + plan.blob.nbytes

    assert c.invoke_bytes == 0
    assert c.peak_bytes == c.load_bytes + c.configure_bytes

    # regression anchors for the fixture as shipped; the plan's scratch,
    # kept apart from the counters, is conv1's patches and accumulator in
    # the arena, fc3's product tensor and softmax's rows
    assert (c.load_bytes, c.configure_bytes, c.peak_bytes) == (
        179984, 205160, 385144)
    assert harness.interpreter_scratch(plan) == 71_424 + 3_400 + 84


def test_the_lowering_reads_the_weights_in_the_container_bytes():
    # every weight a read-only view of its entry's bytes: a plan keeps its
    # lowering, and with it no second copy beside the container and blob
    bundle = fixtures.build_fixture("lenet")
    plan = interpreter.load(bundle)
    owned = 0
    for key, arr in plan.lowered.weights.items():
        data = np.frombuffer(bundle.weights.entries[key].data, np.uint8)
        assert np.shares_memory(arr, data), key
        assert not arr.flags.writeable, key
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owned += arr.nbytes if arr.flags.owndata else 0
    assert owned == 0


def test_identity_counters():
    plan = interpreter.load(fixtures.build_fixture("identity"))
    interpreter.invoke(plan, np.zeros((1, 4), dtype=np.float32))
    c = interpreter.counters(plan)
    assert (c.load_bytes, c.configure_bytes, c.invoke_bytes, c.peak_bytes) == (
        229, 32, 0, 261)


# -- input validation ---------------------------------------------------------

def test_invoke_wrong_input_count():
    plan = interpreter.load(fixtures.build_fixture("mlp"))
    with pytest.raises(InterpreterError, match="expected 1 input"):
        interpreter.invoke(plan, [np.zeros((1, 4), dtype=np.float32)] * 2)


def test_invoke_wrong_dtype():
    plan = interpreter.load(fixtures.build_fixture("mlp"))
    with pytest.raises(InterpreterError, match="input tensor 0"):
        interpreter.invoke(plan, np.zeros((1, 4), dtype=np.float64))


def test_invoke_wrong_size():
    plan = interpreter.load(fixtures.build_fixture("mlp"))
    with pytest.raises(InterpreterError, match="input tensor 0"):
        interpreter.invoke(plan, np.zeros((1, 5), dtype=np.float32))


# -- operators without fixture coverage ---------------------------------------

def _add_concat_pad_bundle():
    g = ComputationalGraph(
        tensors=[
            TensorSpec(0, "x", DataType.F32, (1, 4)),
            TensorSpec(1, "c", DataType.F32, (1, 4), weight_ref=0),
            TensorSpec(2, "sum", DataType.F32, (1, 4)),
            TensorSpec(3, "cat", DataType.F32, (1, 8)),
            TensorSpec(4, "padded", DataType.F32, (1, 10)),
        ],
        operators=[
            OperatorNode(ADD, (0, 1), (2,), {"activation": "RELU"}),
            OperatorNode(CONCATENATION, (2, 1), (3,), {"axis": 1}),
            OperatorNode(PAD, (3,), (4,), {"paddings": [0, 0, 1, 1]}),
        ],
        inputs=(0,), outputs=(4,))
    store = WeightStore()
    store.put_array(0, np.array([[0.5, -2.0, 1.0, 0.25]], dtype=np.float32))
    return ModelBundle(g, store)


def test_add_concat_pad_chain():
    bundle = _add_concat_pad_bundle()
    assert graphir.validate(bundle) == []
    plan = interpreter.load(bundle)
    x = np.array([[1.0, 1.0, -3.0, 0.5]], dtype=np.float32)
    out = interpreter.invoke(plan, x)[0]
    const = np.array([[0.5, -2.0, 1.0, 0.25]], dtype=np.float32)
    summed = np.maximum(x + const, 0.0)
    cat = np.concatenate([summed, const], axis=1)
    want = np.pad(cat, ((0, 0), (1, 1)))
    assert out.shape == (1, 10)
    assert oracles.bitwise_equal(out, want.astype(np.float32))


def test_operator_errors_carry_index():
    # a fused activation on I32 ADD passes the container's option schema but
    # no registered unit accepts it, so configuration fails with the op index
    g = ComputationalGraph(
        tensors=[
            TensorSpec(0, "x", DataType.I32, (4,)),
            TensorSpec(1, "c", DataType.I32, (4,), weight_ref=0),
            TensorSpec(2, "y", DataType.I32, (4,)),
        ],
        operators=[OperatorNode(ADD, (0, 1), (2,), {"activation": "RELU"})],
        inputs=(0,), outputs=(2,))
    store = WeightStore()
    store.put_array(0, np.arange(4, dtype=np.int32))
    bad = ModelBundle(g, store)
    assert graphir.validate(bad) == []
    with pytest.raises(ParamError, match="operator 0"):
        interpreter.load(bad)


def test_invocation_counter():
    plan = interpreter.load(fixtures.build_fixture("identity"))
    x = np.zeros((1, 4), dtype=np.float32)
    interpreter.invoke(plan, x)
    interpreter.invoke(plan, x)
    assert plan.invocations == 2


# -- windowed operators: what validate accepts, the kernels run exactly -------

_CLAMPS = {"NONE": (None, None), "RELU": (0.0, None), "RELU6": (0.0, 6.0)}


def _window_out(size, eff, stride, padding):
    """Output size and (before, after) pads, from the operator definitions."""
    if padding == "SAME":
        out = -(-size // stride)
        total = max(0, (out - 1) * stride + eff - size)
        return out, (total // 2, total - total // 2)
    return max(1, -(-(size - eff + 1) // stride)), (0, 0)


@st.composite
def _windowed_cases(draw):
    op = draw(st.sampled_from(
        [CONV_2D, DEPTHWISE_CONV_2D, MAX_POOL_2D, AVERAGE_POOL_2D]))
    h, w, cin = draw(st.integers(1, 7)), draw(st.integers(1, 7)), \
        draw(st.integers(1, 3))
    fh, fw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    opts = {"stride_h": draw(st.integers(1, 3)),
            "stride_w": draw(st.integers(1, 3)),
            "padding": draw(st.sampled_from(["SAME", "VALID"])),
            "activation": draw(st.sampled_from(sorted(_CLAMPS)))}
    if op in (MAX_POOL_2D, AVERAGE_POOL_2D):
        opts.update(filter_h=fh, filter_w=fw)
        return op, (h, w, cin), None, False, opts
    opts.update(dilation_h=draw(st.integers(1, 3)),
                dilation_w=draw(st.integers(1, 3)))
    if op == CONV_2D:
        wshape = (draw(st.integers(1, 3)), fh, fw, cin)
    else:
        opts["depth_multiplier"] = draw(st.integers(1, 2))
        wshape = (1, fh, fw, cin * opts["depth_multiplier"])
    return op, (h, w, cin), wshape, draw(st.booleans()), opts


@settings(max_examples=60, deadline=None)
@given(_windowed_cases(), st.integers(0, 2 ** 32 - 1))
def test_validated_windowed_operators_match_oracles(case, seed):
    op, (h, w, cin), wshape, has_bias, opts = case
    pool = wshape is None
    cout = cin if pool else wshape[3] if op == DEPTHWISE_CONV_2D else wshape[0]
    dh, dw = (1, 1) if pool else (opts["dilation_h"], opts["dilation_w"])
    fh, fw = (opts["filter_h"], opts["filter_w"]) if pool else wshape[1:3]
    oh, (pt, pb) = _window_out(h, (fh - 1) * dh + 1, opts["stride_h"],
                               opts["padding"])
    ow, (pl, pr) = _window_out(w, (fw - 1) * dw + 1, opts["stride_w"],
                               opts["padding"])

    rng = np.random.default_rng(seed)
    tensors = [TensorSpec(0, "x", DataType.F32, (1, h, w, cin))]
    store = WeightStore()
    weights = []
    for shape in ([] if pool else [wshape]) + ([(cout,)] if has_bias else []):
        arr = rng.uniform(-1, 1, shape).astype(np.float32)
        store.put_array(len(weights), arr)
        tensors.append(TensorSpec(len(tensors), f"w{len(weights)}",
                                  DataType.F32, shape,
                                  weight_ref=len(weights)))
        weights.append(arr)
    out_id = len(tensors)
    tensors.append(TensorSpec(out_id, "y", DataType.F32, (1, oh, ow, cout)))
    g = ComputationalGraph(
        tensors=tensors,
        operators=[OperatorNode(op, tuple(range(out_id)), (out_id,), opts)],
        inputs=(0,), outputs=(out_id,))
    bundle = ModelBundle(g, store)
    assume(graphir.validate(bundle) == [])

    x = rng.uniform(-1, 1, (1, h, w, cin)).astype(np.float32)
    got = interpreter.invoke(interpreter.load(bundle), x)[0]
    pads = (pt, pb, pl, pr)
    strides = (opts["stride_h"], opts["stride_w"])
    clamp = _CLAMPS[opts["activation"]]
    bias = weights[1] if has_bias else None
    if op == CONV_2D:
        want = oracles.conv2d(x, weights[0], bias, strides, (dh, dw), pads,
                              clamp)
    elif op == DEPTHWISE_CONV_2D:
        want = oracles.depthwise_conv2d(x, weights[0], bias, strides,
                                        (dh, dw), pads,
                                        opts["depth_multiplier"], clamp)
    elif op == MAX_POOL_2D:
        want = oracles.max_pool2d(x, (fh, fw), strides, pads, clamp)
    else:
        want = oracles.avg_pool2d(x, (fh, fw), strides, pads, clamp)
    assert oracles.bitwise_equal(got, want)
