import tracemalloc

import numpy as np
import pytest

import kernel_cases
import oracles
from kernel_cases import N_CASES, REFERENCE_CASES

from mlfuse import fixtures, graphir, interpreter
from mlfuse.graphir import CONV_2D, DataType, OperatorNode
from mlfuse.kernels import (
    DeviceInfo,
    ParamError,
    ParamRecord,
    RegistryError,
    StatusError,
    class_signature,
    default_registry,
    layout_weight_arrays,
    ops,
)


# -- kernel vs oracle ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_reference_kernel_matches_oracle_bitwise(name):
    fn = REFERENCE_CASES[name]
    for i in range(N_CASES):
        got, want = fn(i)
        assert oracles.bitwise_equal(got, want), f"{name} case {i}"


_PADS = ("pad_before_h", "pad_after_h", "pad_before_w", "pad_after_w")


def _chunk_lengths(kernel, state):
    """Taps per chunk of the reduction a conv or FC state holds."""
    if kernel == "fully_connected_f32":
        chunks = state[0][0]
    else:  # the state every block of the conv shares
        chunks = state[2][0]
    return [len(lhs) for _, lhs, *_ in chunks]


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_prepared_state_follows_its_buffers(name, monkeypatch):
    # A state prepared once and run on input A, then on input B written
    # into the same input buffers, must give exactly what a fresh prepare
    # and run on B gives: the state binds views of the activations, never
    # copies. Running A again restores the case's own oracle check.
    rng = np.random.default_rng(7)
    seen = []
    biased_chunks = []

    def run_stale(kernel, inputs, weights, outputs, **params):
        prep, run = ops.PREPS[kernel], ops.KERNELS[kernel]
        state = prep(inputs, weights, outputs, **params)
        first = [x.copy() for x in inputs]
        run(*state)
        second = [rng.uniform(-1, 1, x.shape).astype(x.dtype)
                  if x.dtype == np.float32
                  else rng.integers(-1000, 1000, x.shape, dtype=x.dtype)
                  for x in inputs]
        for buf, x in zip(inputs, second):
            np.copyto(buf, x)
        run(*state)
        got = [o.tobytes() for o in outputs]
        fresh = [np.empty_like(o) for o in outputs]
        run(*prep([x.copy() for x in second], weights, fresh, **params))
        assert got == [o.tobytes() for o in fresh], (kernel, params)
        for buf, x in zip(inputs, first):
            np.copyto(buf, x)
        run(*state)
        seen.append(params)
        if kernel in ("conv2d_f32", "fully_connected_f32") \
                and len(weights) > 1:
            biased_chunks.append(_chunk_lengths(kernel, state))

    monkeypatch.setattr(kernel_cases, "run_kernel", run_stale)
    case = REFERENCE_CASES[name].__wrapped__
    for i in range(N_CASES):
        got, want = case(i)
        assert oracles.bitwise_equal(got, want), f"{name} case {i}"
    # the cases a prepared state could get wrong: a padded border and a
    # single lane with its twin
    if name in ("conv2d", "depthwise_conv2d", "average_pool_2d",
                "max_pool_2d"):
        assert any(sum(p[k] for k in _PADS) for p in seen)  # SAME padding
    if name == "fully_connected_edge":  # a single lane, with its twin
        assert any(p["out_features"] == 1 for p in seen)
    if name == "conv2d_edge":
        assert any(p["out_shape"][1:] == (1, 1, 1) for p in seen)
    if name.endswith(("_edge", "_tail")):  # the bias as a last chunk's tail
        assert any(len(c) > 1 for c in biased_chunks)


@pytest.mark.parametrize("name", ["conv2d_edge", "fully_connected_edge",
                                  "conv2d_tail", "fully_connected_tail"])
def test_edge_cases_match_oracle_sign_of_zero_included(name):
    # stricter than bitwise_equal, which lets -0.0 pass for +0.0: every sum
    # starts from +0.0 on both sides, so even zero signs must agree
    fn = REFERENCE_CASES[name]
    for i in range(N_CASES):
        got, want = fn(i)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
            f"{name} case {i}"


def test_sum_products_is_the_scalar_loop_order():
    # terms whose sum depends on the order: 1e8 + 1 - 1e8 is 0 in float32
    # when added left to right, 1 when pairwise. 10000 terms overrun a
    # 64 KiB product tensor for 1 to 3 lanes, so the taps go in chunks, the
    # short one first; the tail is the last term of every lane.
    rng = np.random.default_rng(5)
    k = 10000
    values = np.float32([1e8, -1e8, 1, 3e-8])
    for lanes in (1, 2, 3):
        lhs = rng.choice(values, (k, lanes))
        rhs = rng.uniform(0.5, 2, (k, 1)).astype(np.float32)
        tail = rng.choice(values, lanes)
        acc = np.empty(lanes, dtype=np.float32)
        state = ops._sum_products_prep(lhs, rhs, acc, tail)
        sizes = [len(c[1]) for c in state[0]]
        assert len(sizes) > 1 and sizes[0] < sizes[-1], (lanes, sizes)
        ops._sum_products(*state, acc)
        want = np.zeros(lanes, dtype=np.float32)
        for t in range(k):
            # float32 lanes added one term at a time, each lane on its own
            want = want + lhs[t] * rhs[t]
        want = want + tail
        assert np.array_equal(acc.view(np.uint32), want.view(np.uint32)), \
            lanes


def _special_terms(rng, k, lhs_rows, rhs_lanes, special):
    """(k, rows, 1) and (k, 1, lanes) factors of order-sensitive terms.

    Output lane (0, 0) gets the special terms: all -0.0 products, one
    0 * inf, or one -NaN factor. Only lane 0 of rhs holds them, so every
    other lane stays finite.
    """
    values = np.float32([1e8, -1e8, 1, 3e-8])
    lhs = rng.choice(values, (k, lhs_rows, 1))
    rhs = rng.uniform(0.5, 2, (k, 1, rhs_lanes)).astype(np.float32)
    if special == "negative_zero":
        lhs[:, 0, 0] = np.abs(lhs[:, 0, 0])
        rhs[:, 0, 0] = np.float32(-0.0)
    elif special == "inf_times_zero":
        lhs[k // 2, 0, 0], rhs[k // 2, 0, 0] = 0.0, np.inf
    else:
        rhs[k // 3, 0, 0] = -np.float32(np.nan)
    return lhs, rhs


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("special", ["negative_zero", "inf_times_zero",
                                     "nan"])
@pytest.mark.parametrize("path", ["outer", "fc_batch_1", "twin"])
def test_both_product_paths_are_the_scalar_loop_order(path, special):
    # conv's einsum outer products into a transposed (cout, lanes) view,
    # and np.multiply for FC at batch 1 and for a single lane beside its
    # twin, against the scalar loop bit for bit, zero signs included. Each
    # reduction runs in several chunks; lane (0, 0) gets the special terms
    # and a -0.0 tail, which only a sum begun at +0.0 turns into +0.0.
    rng = np.random.default_rng(11)
    rows, lanes = {"outer": (3, 5), "fc_batch_1": (1, 7),
                   "twin": (1, 1)}[path]
    lhs, rhs = _special_terms(rng, 10000, rows, lanes, special)
    if path == "outer":
        acc = np.empty((lanes, rows), np.float32).T
    elif path == "fc_batch_1":  # the input row, viewed as FC's prep does
        lhs = lhs.reshape(1, -1).T[:, :, None]
        acc = np.empty((1, lanes), np.float32)
    else:
        acc = np.empty((1, 1), np.float32)
    tail = rng.choice(np.float32([1e8, -1e8, 1, 3e-8]), (rows, lanes))
    tail[0, 0] = np.float32(-0.0)
    chunks, twin = ops._sum_products_prep(lhs, rhs, acc, tail)
    assert len(chunks) > 1 and (twin is not None) == (path == "twin")
    assert all(c[0] is np.multiply for c in chunks)
    if path == "outer":  # as conv2d_f32_prep swaps them in
        chunks = [(ops._outer_products, a[:, :, 0], b[:, 0], prod, part)
                  for _, a, b, prod, part in chunks]
    ops._sum_products(chunks, twin, acc)
    want = np.zeros((rows, lanes), np.float32)
    for t in range(len(lhs)):
        want = want + lhs[t] * rhs[t]
    want = want + tail
    if special == "negative_zero":
        assert want[0, 0].tobytes() == np.float32(0.0).tobytes()
    else:
        assert np.isnan(want[0, 0])
    assert np.isfinite(want[:, 1:]).all()
    assert np.array_equal(acc.view(np.uint32), want.view(np.uint32))


def test_lenet_states_take_the_product_call_their_kernel_names():
    # lenet's conv chunks all hold 8192 products or more, so every one goes
    # through einsum's outer products; FC chunks stay with np.multiply.
    # A silent fallback to the broadcast multiply fails here.
    plan = interpreter.load(fixtures.build_fixture("lenet"))
    products = {}
    for step in plan.steps:
        tid = step.unit.template_id
        chunks = (step.state[2][0] if tid == "conv2d_f32"
                  else step.state[0][0] if tid == "fully_connected_f32"
                  else ())
        products.setdefault(tid, []).extend(c[0] for c in chunks)
    assert len(products["conv2d_f32"]) == 1 + 10  # conv1 1, conv2 10
    assert set(products["conv2d_f32"]) == {ops._outer_products}
    assert len(products["fully_connected_f32"]) >= 3
    assert set(products["fully_connected_f32"]) == {np.multiply}


@pytest.mark.parametrize("kind", kernel_cases.TAIL_KINDS)
def test_tail_cases_take_the_shapes_their_kind_names(kind, monkeypatch):
    # the bias-tail cases of each kind, FC and conv, reduce in the chunks
    # or over the lanes that the kind names
    seen = []

    def keep(kernel, inputs, weights, outputs, **params):
        state = ops.PREPS[kernel](inputs, weights, outputs, **params)
        ops.KERNELS[kernel](*state)
        batch = params.get("batch") or params["out_shape"][0]
        seen.append((_chunk_lengths(kernel, state), batch,
                     outputs[0].size // batch))

    monkeypatch.setattr(kernel_cases, "run_kernel", keep)
    i = kernel_cases.TAIL_KINDS.index(kind)
    kernel_cases.case_fully_connected_tail.__wrapped__(i)
    kernel_cases.case_conv2d_tail.__wrapped__(i)
    assert len(seen) == 2
    for sizes, batch, lanes in seen:
        if kind == "one_chunk":
            assert len(sizes) == 1
        elif kind == "exact_multiple":
            assert len(sizes) > 1 and len(set(sizes)) == 1
        elif kind.startswith("single_lane"):
            assert lanes == 1 and (batch > 1) == kind.endswith("batched")
        else:  # the short remainder first, then full chunks
            assert len(sizes) > 2 and sizes[0] < sizes[1] == sizes[-1]


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_softmax_sums_the_classes_left_to_right(beta):
    # exponentials from 1 down to 1e-8: added left to right, each small one
    # is lost against the running sum, while a pairwise sum gathers them
    # first, so the two orders give different sums and different outputs
    classes = 1000
    x = np.float32(np.log(np.float32(1e-8)) / beta) * np.linspace(
        0, 1, classes, dtype=np.float32)
    x = np.stack([x, x[::-1], np.roll(x, 300)])
    out = np.empty(x.size, dtype=np.float32)
    kernel_cases.run_kernel("softmax_f32", [x.ravel().copy()], [], [out],
                            in_shape=x.shape, beta=beta)
    want = oracles.softmax(x, beta)
    assert np.array_equal(out.view(np.uint32),
                          want.reshape(-1).view(np.uint32))
    for row in x:
        e = np.exp((row - row.max()) * np.float32(beta))
        assert e.max() == 1 and e.min() < 2e-8
        assert np.add.reduce(e) != np.add.accumulate(e)[-1]


@pytest.mark.parametrize("shape", [
    # (h, w, cin, f, cout): lenet conv1 and conv2, one row's products over
    # 64 KiB, and a 1x1 conv with cout far above its taps
    (28, 28, 1, 5, 6), (12, 12, 6, 5, 16), (6, 10, 8, 5, 16),
    (32, 32, 16, 1, 64)])
def test_conv_scratch_stays_within_the_bound(shape):
    # gathered patches and products take at most 64 KiB each, prepared
    # scratch and run temporaries together. numpy's ufunc iterator buffers
    # up to np.getbufsize() elements per operand on its own account;
    # shrinking them leaves the kernel's scratch in the peak.
    h, w, cin, f, cout = shape
    oh, ow = h - f + 1, w - f + 1
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, h * w * cin).astype(np.float32)
    wt = rng.uniform(-1, 1, f * f * cin * cout).astype(np.float32)
    out = np.empty(oh * ow * cout, dtype=np.float32)
    kwargs = dict(in_shape=(1, h, w, cin), out_shape=(1, oh, ow, cout),
                  filter_h=f, filter_w=f, stride_h=1, stride_w=1,
                  dilation_h=1, dilation_w=1, pad_before_h=0, pad_after_h=0,
                  pad_before_w=0, pad_after_w=0, activation_min=None,
                  activation_max=None)
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        ops.conv2d_f32(*ops.conv2d_f32_prep([x], [wt], [out], **kwargs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak <= 2 * 65536 + 4096, peak


def test_helper_deps_follow_the_template_bodies():
    # helpers named by either step of a template, each step of a split
    # helper by its own name
    assert set(ops.HELPER_DEPS) == set(ops.KERNELS) == set(ops.PREPS)
    assert ops.HELPER_DEPS["conv2d_f32"] == (
        "_apply_clamp", "_outer_products", "_pad_nhwc_prep", "_sum_products",
        "_sum_products_prep")
    assert ops.HELPER_DEPS["fully_connected_f32"] == (
        "_apply_clamp", "_sum_products", "_sum_products_prep")
    assert ops.HELPER_DEPS["max_pool2d_f32"] == (
        "_apply_clamp", "_pad_nhwc_prep", "_pool_windows_prep")
    assert ops.HELPER_DEPS["softmax_f32"] == ()


# -- registry lookup ----------------------------------------------------------

def test_lookup_falls_back_to_reference():
    # one unit per operator kind and dtype serves every device
    from mlfuse.graphir import SOFTMAX
    reg = default_registry()
    unit = reg.lookup(SOFTMAX, DataType.F32, DeviceInfo(threads=4))
    assert unit is reg.lookup(SOFTMAX, DataType.F32, DeviceInfo())


def test_lookup_unsupported_op():
    reg = default_registry()
    with pytest.raises(RegistryError, match="unsupported operation"):
        reg.lookup(999, DataType.F32, DeviceInfo())


def test_lookup_unsupported_dtype():
    reg = default_registry()
    with pytest.raises(RegistryError, match="unsupported operation"):
        reg.lookup(CONV_2D, DataType.I32, DeviceInfo())


def test_duplicate_registration_rejected():
    reg = default_registry()
    unit = reg.lookup(CONV_2D, DataType.F32, DeviceInfo())
    with pytest.raises(RegistryError, match="duplicate registration"):
        reg.register_builtin(unit)


# -- class signatures ---------------------------------------------------------

def test_class_signature_ignores_shape_keys():
    a = ParamRecord("FULLY_CONNECTED", {
        "batch": 1, "in_features": 4, "out_features": 8,
        "activation_min": None, "activation_max": None})
    b = ParamRecord("FULLY_CONNECTED", {
        "batch": 1, "in_features": 8, "out_features": 3,
        "activation_min": None, "activation_max": None})
    assert class_signature(a) == class_signature(b)


def test_class_signature_separates_activations():
    a = ParamRecord("FULLY_CONNECTED", {
        "batch": 1, "in_features": 4, "out_features": 8,
        "activation_min": 0.0, "activation_max": None})
    b = ParamRecord("FULLY_CONNECTED", {
        "batch": 1, "in_features": 4, "out_features": 8,
        "activation_min": None, "activation_max": None})
    assert class_signature(a) != class_signature(b)


def test_class_signature_ignores_conv_filter_dims():
    base = {"in_shape": (1, 8, 8, 3), "out_shape": (1, 8, 8, 4),
            "stride_h": 1, "stride_w": 1, "dilation_h": 1, "dilation_w": 1,
            "pad_before_h": 0, "pad_after_h": 0, "pad_before_w": 0,
            "pad_after_w": 0, "activation_min": None, "activation_max": None}
    a = ParamRecord("CONV_2D", {**base, "filter_h": 3, "filter_w": 3})
    b = ParamRecord("CONV_2D", {**base, "filter_h": 5, "filter_w": 5,
                               "in_shape": (1, 9, 9, 3)})
    assert class_signature(a) == class_signature(b)


# -- weight payload layouts ---------------------------------------------------

def _unit(op):
    return default_registry().lookup(op, DataType.F32, DeviceInfo())


def test_layout_conv_weights_hwio():
    unit = _unit(CONV_2D)
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, (3, 1, 1, 2)).astype(np.float32)  # OHWI
    flats, copied = layout_weight_arrays(unit, "HWIO", [w])
    assert copied == w.nbytes
    assert np.array_equal(flats[0],
                          np.ascontiguousarray(w.transpose(1, 2, 3, 0)).ravel())
    flats2, copied2 = layout_weight_arrays(unit, "OHWI", [w])
    assert copied2 == 0
    assert np.array_equal(flats2[0], w.ravel())


def test_layout_fc_weights_transposed():
    from mlfuse.graphir import FULLY_CONNECTED
    w = np.arange(6, dtype=np.float32).reshape(3, 2)
    flats, copied = layout_weight_arrays(_unit(FULLY_CONNECTED),
                                         "transposed", [w])
    assert copied == w.nbytes
    assert np.array_equal(flats[0], np.ascontiguousarray(w.T).ravel())


def test_layout_unknown_layout_rejected():
    w = np.zeros((3, 1, 1, 2), dtype=np.float32)
    with pytest.raises(StatusError, match="no weight layout 'NCHW'"):
        layout_weight_arrays(_unit(CONV_2D), "NCHW", [w])


def test_validate_status_out_of_domain():
    # a layout another unit lists is still outside this unit's domain
    from mlfuse.graphir import FULLY_CONNECTED
    unit = _unit(FULLY_CONNECTED)
    assert "HWIO" in _unit(CONV_2D).layouts
    w = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(StatusError, match="no weight layout 'HWIO'"):
        layout_weight_arrays(unit, "HWIO", [w])


def test_layout_none_rejected_on_unit_with_layouts():
    w = np.zeros((3, 1, 1, 2), dtype=np.float32)
    with pytest.raises(StatusError, match="no weight layout None"):
        layout_weight_arrays(_unit(CONV_2D), None, [w])


def test_layout_rejected_on_unit_without_layouts():
    from mlfuse.graphir import DEPTHWISE_CONV_2D
    unit = _unit(DEPTHWISE_CONV_2D)
    assert unit.layouts == {}
    w = np.zeros((1, 3, 3, 2), dtype=np.float32)
    with pytest.raises(StatusError, match="no weight layout 'HWIO'"):
        layout_weight_arrays(unit, "HWIO", [w])
    flats, copied = layout_weight_arrays(unit, None, [w])
    assert copied == 0 and np.array_equal(flats[0], w.ravel())


def test_layout_bias_slots_pass_through_flat():
    w = np.zeros((3, 1, 1, 2), dtype=np.float32)
    bias = np.arange(3, dtype=np.float32)
    flats, _ = layout_weight_arrays(_unit(CONV_2D), "HWIO", [w, bias])
    assert np.array_equal(flats[1], bias)


# -- parameter checking -------------------------------------------------------

class _ReadKeys(dict):
    """Node options that record every key looked up in them."""

    def __init__(self, options, seen: set):
        super().__init__(options)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.seen.add(key)
        return super().__contains__(key)


# builtin operators no fixture uses, with the shapes of their tensors
_UNCOVERED = [
    (OperatorNode(graphir.AVERAGE_POOL_2D, (0,), (1,), {
        "filter_h": 2, "filter_w": 2, "stride_h": 2, "stride_w": 2,
        "padding": "SAME", "activation": "RELU6"}),
     {0: (1, 3, 3, 1), 1: (1, 2, 2, 1)}),
    (OperatorNode(graphir.ADD, (0, 0), (1,), {"activation": "RELU"}),
     {0: (1, 4), 1: (1, 4)}),
    (OperatorNode(graphir.CONCATENATION, (0, 0), (1,), {"axis": 1}),
     {0: (1, 4), 1: (1, 8)}),
    (OperatorNode(graphir.PAD, (0,), (1,), {"paddings": [0, 0, 1, 1]}),
     {0: (1, 4), 1: (1, 6)}),
]


def test_registry_reads_only_options_validation_checks():
    # graphir.validate owns the builtin option rules and the registry reads
    # node.options unchecked, so a key outside OPTION_SCHEMAS would reach
    # a kernel without any check
    reg = default_registry()
    cases = list(_UNCOVERED)
    for name in sorted(fixtures.FIXTURES):
        graph = fixtures.build_fixture(name).graph
        shapes = {t.id: t.shape for t in graph.tensors}
        cases += [(node, shapes) for node in graph.operators]
    read: dict = {}
    for node, shapes in cases:
        if node.is_custom:
            continue
        seen = read.setdefault(node.op_id, set())
        node = OperatorNode(node.op_id, node.inputs, node.outputs,
                            _ReadKeys(node.options, seen))
        reg.map_options_to_params(node, shapes)
    assert set(read) == set(graphir.OPTION_SCHEMAS)
    for op, keys in read.items():
        assert keys <= set(graphir.OPTION_SCHEMAS[op]), \
            (graphir.OPCODE_NAMES[op], keys)


def test_add_i32_rejects_fused_activation():
    from mlfuse.graphir import ADD
    reg = default_registry()
    unit = reg.lookup(ADD, DataType.I32, DeviceInfo())
    params = ParamRecord("ADD", {"count": 4, "activation_min": 0.0,
                                 "activation_max": None})
    from mlfuse.kernels import check_unit_params
    with pytest.raises(ParamError, match="only NONE activation"):
        check_unit_params(unit, params)
