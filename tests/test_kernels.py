import dis
import math
import tracemalloc

import numpy as np
import pytest

import kernel_cases
import oracles
from kernel_cases import N_CASES, REFERENCE_CASES

from mlfuse import fixtures, graphir, interpreter, lowering
from mlfuse.graphir import CONV_2D, DataType, OperatorNode
from mlfuse.kernels import (
    DeviceInfo,
    ParamError,
    ParamRecord,
    RegistryError,
    StatusError,
    default_registry,
    ops,
    splits_along_axis_0,
)
from mlfuse.kernels.live_status import hidden_status_for


# -- kernel vs oracle ---------------------------------------------------------

@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_reference_kernel_matches_oracle_bitwise(name):
    fn = REFERENCE_CASES[name]
    for i in range(N_CASES):
        got, want = fn(i)
        assert oracles.bitwise_equal(got, want), f"{name} case {i}"


_PADS = ("pad_before_h", "pad_after_h", "pad_before_w", "pad_after_w")


def _product_calls(calls):
    """The call that forms each chunk's terms, in a conv or FC call list:
    np.multiply or np.c_einsum into a product tensor's rows, once a chunk,
    though every block of rows or lanes runs the same chunks."""
    seen = {}
    for f, args, kw in calls:
        if f is np.multiply or f is ops.np.c_einsum:
            seen.setdefault(id(kw.get("out", args[-1])), (f, args, kw))
    return list(seen.values())


def _chunk_lengths(calls):
    """Taps per chunk of the reduction a conv or FC call list makes."""
    return [len(kw.get("out", args[-1])) for _, args, kw
            in _product_calls(calls)]


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_prepared_state_follows_its_buffers(name, monkeypatch):
    # A call list prepared once and run on input A, then on input B
    # written into the same input buffers, must give exactly what a fresh
    # prepare and run on B gives: the calls bind views of the activations,
    # never copies. Running A again restores the case's own oracle check.
    rng = np.random.default_rng(7)
    seen = []
    biased_chunks = []

    def run_stale(kernel, inputs, weights, outputs, **params):
        prep, run = ops.PREPS[kernel], ops.KERNELS[kernel]
        calls = kernel_cases.prepare(prep, inputs, weights, outputs, **params)
        first = [x.copy() for x in inputs]
        run(calls)
        second = [rng.uniform(-1, 1, x.shape).astype(x.dtype)
                  if x.dtype == np.float32
                  else rng.integers(-1000, 1000, x.shape, dtype=x.dtype)
                  for x in inputs]
        for buf, x in zip(inputs, second):
            np.copyto(buf, x)
        run(calls)
        got = [o.tobytes() for o in outputs]
        fresh = [np.empty_like(o) for o in outputs]
        run(kernel_cases.prepare(prep, [x.copy() for x in second], weights,
                                 fresh, **params))
        assert got == [o.tobytes() for o in fresh], (kernel, params)
        for buf, x in zip(inputs, first):
            np.copyto(buf, x)
        run(calls)
        seen.append(params)
        if kernel in ("conv2d_f32", "fully_connected_f32") \
                and len(weights) > 1:
            biased_chunks.append(_chunk_lengths(calls))

    monkeypatch.setattr(kernel_cases, "run_kernel", run_stale)
    case = REFERENCE_CASES[name].__wrapped__
    for i in range(N_CASES):
        got, want = case(i)
        assert oracles.bitwise_equal(got, want), f"{name} case {i}"
    # the cases a prepared call list could get wrong: a padded border and a
    # single lane with its twin
    if name in ("conv2d", "depthwise_conv2d", "average_pool_2d",
                "max_pool_2d", "max_pool_2d_edge"):
        assert any(sum(p[k] for k in _PADS) for p in seen)  # SAME padding
    if name == "fully_connected_edge":  # a single lane, with its twin
        assert any(p["out_features"] == 1 for p in seen)
    if name == "conv2d_edge":
        assert any(p["out_shape"] == (1, 1, 1) for p in seen)
    if name.endswith(("_edge", "_tail")) and name != "max_pool_2d_edge":
        # the bias as a last chunk's tail
        assert any(len(c) > 1 for c in biased_chunks)


@pytest.mark.parametrize("name", ["conv2d_edge", "fully_connected_edge",
                                  "conv2d_tail", "fully_connected_tail",
                                  "fully_connected_lanes",
                                  "max_pool_2d_edge", "clamp_negative_zero"])
def test_edge_cases_match_oracle_sign_of_zero_included(name):
    # stricter than bitwise_equal, which lets -0.0 pass for +0.0: every sum
    # starts from +0.0 on both sides, a maximum keeps the earlier of tied
    # cells on both, and a lower clamp keeps a -0.0 that ties it, so even
    # zero signs must agree
    fn = REFERENCE_CASES[name]
    for i in range(N_CASES):
        got, want = fn(i)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), \
            f"{name} case {i}"


@pytest.fixture
def case_budget(monkeypatch):
    """The kernels' product budget at the one the kernel cases are sized
    for, so a few thousand taps go in several chunks."""
    monkeypatch.setattr(ops, "_PRODUCT_BYTES",
                        kernel_cases.CASE_PRODUCT_BYTES)


def test_sum_products_is_the_scalar_loop_order(case_budget):
    # terms whose sum depends on the order: 1e8 + 1 - 1e8 is 0 in float32
    # when added left to right, 1 when pairwise. 10001 terms overrun the
    # case budget's product tensor for 1 to 3 lanes, so the taps are split
    # evenly into chunks, the smaller one first; the tail is the last term
    # of every lane.
    rng = np.random.default_rng(5)
    k = 10001
    values = np.float32([1e8, -1e8, 1, 3e-8])
    for lanes in (1, 2, 3):
        lhs = rng.choice(values, (k, lanes))
        rhs = rng.uniform(0.5, 2, (k, 1)).astype(np.float32)
        tail = rng.choice(values, lanes)
        acc = np.empty(lanes, dtype=np.float32)
        fills = []
        blocks, own, fill = ops._sum_products_prep(lhs, rhs, acc, tail,
                                                   fills=fills)
        # with no arena, the product tensor is private: its tail row is
        # filled once
        assert fill == [] and len(fills) == 1
        calls = ops._sum_products_calls(blocks, own, acc)
        sizes = _chunk_lengths(calls)
        assert len(sizes) > 1 and sizes[0] < sizes[-1], (lanes, sizes)
        ops.run_calls(fills + calls)
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
@pytest.mark.parametrize("path", ["outer", "fc_batch_1", "fc_batch_3",
                                  "strided", "twin"])
def test_both_product_paths_are_the_scalar_loop_order(path, special,
                                                     case_budget):
    # the product call _sum_products_prep picks, against the scalar loop
    # bit for bit, zero signs included: einsum's outer products for conv
    # (into a transposed (cout, lanes) view) and for FC's feature lanes at
    # one sample and at a few, each chunk 8192 products or more; and
    # np.multiply for strided sample lanes, as FC's at mlp's BATCH, and
    # for a single lane beside its twin. Each reduction runs in several
    # chunks; lane (0, 0) gets the special terms and a -0.0 tail, which
    # only a sum begun at +0.0 turns into +0.0.
    rng = np.random.default_rng(11)
    rows, lanes = {"outer": (3, 5), "fc_batch_1": (1, 7),
                   "fc_batch_3": (3, 7), "strided": (3, 7),
                   "twin": (1, 1)}[path]
    lhs, rhs = _special_terms(rng, 10000, rows, lanes, special)
    if path == "outer":
        acc = np.empty((lanes, rows), np.float32).T
    elif path.startswith("fc_"):  # the input rows, viewed as FC's prep does
        lhs = lhs[:, :, 0].T.copy().T[:, :, None]
        acc = np.empty((rows, lanes), np.float32)
    elif path == "strided":  # the samples' transposed view, and the output's
        rhs = rhs[:, 0].T.copy().T[:, None]
        acc = np.empty((lanes, rows), np.float32).T
    else:
        acc = np.empty((1, 1), np.float32)
    tail = rng.choice(np.float32([1e8, -1e8, 1, 3e-8]), (rows, lanes))
    tail[0, 0] = np.float32(-0.0)
    # one block of lanes in several chunks; strided lanes reduce into a
    # contiguous accumulator, the lone lane into its twin pair
    fills = []
    [(lanes_in, chunks)], own, fill = ops._sum_products_prep(
        lhs, rhs, acc, tail, fills=fills)
    assert len(chunks) > 1 and fill == [] and len(fills) == 1
    ops.run_calls(fills)
    assert (own is None) == path.startswith("fc_")
    einsum = path in ("outer", "fc_batch_1", "fc_batch_3")
    assert {f for (f, _, _), _ in chunks} == {
        ops.np.c_einsum if einsum else np.multiply}
    if einsum:
        assert min(kw["out"].size for (_, _, kw), _ in chunks) >= 8192
    ops.run_calls(ops._sum_products_calls([(lanes_in, chunks)], own, acc))
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
    # lenet's conv chunks and fc1's and fc2's one chunk each hold 8192
    # products or more over contiguous lanes, so they go through einsum's
    # outer products; fc3's 840 stay with np.multiply. A silent fallback
    # to the broadcast multiply fails here.
    plan = interpreter.load(fixtures.build_fixture("lenet"))
    products = {}
    for op, calls in plan.steps:
        tid = op.unit.template_id
        products.setdefault(tid, []).append(
            [f for f, _, _ in _product_calls(calls)])
    c_einsum = ops.np.c_einsum
    # conv1 2 chunks, conv2 3
    assert products["conv2d_f32"] == [[c_einsum] * 2, [c_einsum] * 3]
    assert products["fully_connected_f32"] == [[c_einsum], [c_einsum],
                                               [np.multiply]]


def test_lenet_blocking():
    # lenet's plan at the kernels' own product budget: each conv is one
    # block of all its output rows, so no row is computed twice, with its
    # taps split evenly, conv1's 25 as 12 + 13 and conv2's 150 as 3 x 50;
    # each FC reduces in one chunk. A change to the blocking rule shows
    # here first.
    plan = interpreter.load(fixtures.build_fixture("lenet"))
    convs, fcs = [], []
    for op, calls in plan.steps:
        tid = op.unit.template_id
        if tid == "conv2d_f32":
            # a block starts with the copy that gathers its patches, the
            # (kh, kw, ci, rows, ow) windows of its output rows
            blocks = [args[1] for f, args, _ in calls
                      if f is ops.np.copyto and args[0].ndim == 5]
            convs.append((len(blocks), blocks[0].shape[-2],
                          op.params.values["out_shape"][0],
                          _chunk_lengths(calls)))
        elif tid == "fully_connected_f32":
            fcs.append(_chunk_lengths(calls))
    assert convs == [(1, 24, 24, [12, 13]), (1, 8, 8, [50, 50, 50])]
    assert fcs == [[256], [120], [84]]


def _roots(calls) -> set:
    """The id of the array at the end of the chain of bases of every array
    a call list names, keywords included."""
    roots = set()
    for _, args, kw in calls:
        for a in (*args, *kw.values()):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                roots.add(id(a))
    return roots


def test_lenet_plan_holds_one_arena_that_no_other_plan_shares():
    # conv1, conv2, fc1 and fc2 take their product tensors from the plan's
    # one arena, sized to conv1's patches, product tensor and accumulator;
    # fc3's product tensor stays below a page, its own: 3,400 B, the rows
    # of its 84 taps and its bias, reduced in one chunk with no leading
    # row. Two plans share no array.
    plans = [interpreter.load(fixtures.build_fixture("lenet"))
             for _ in range(2)]
    for plan in plans:
        bases = [_product_bases(calls) for _, calls in plan.steps]
        [arena] = bases[0].values()
        assert [b.keys() == {id(arena)} for b in bases] == [
            True, False, True, False, False, True, True, False, False]
        assert bases[7] and id(arena) not in bases[7]
        assert [b.nbytes for b in bases[7].values()] == [4 * 85 * 10]
        assert arena.nbytes == 278_784
    a, b = ({r for _, calls in plan.steps for r in _roots(calls)}
            for plan in plans)
    assert a and not a & b


def test_lenet_steps_over_the_arena_write_what_private_scratch_does():
    # each run fills the tail rows other steps wrote over: every lenet
    # tensor, after each of two runs in a row on each of three samples,
    # holds the bits of the same steps prepared with scratch of their own
    plan = interpreter.load(fixtures.build_fixture("lenet"))
    lowered = plan.lowered
    private = lowered.allocate()
    _, views = lowering.lay_out(
        lowered, [hidden_status_for(op.unit.key) for op in lowered.ops])
    steps = [kernel_cases.prepare(op.unit.prep,
                                  [private[t] for t in op.act_ids], ws,
                                  [private[t] for t in op.output_ids],
                                  **op.params.values)
             for op, ws in zip(lowered.ops, views)]
    rng = np.random.default_rng(17)
    for _ in range(3):
        x = rng.uniform(-1, 1, (1, 28, 28, 1)).astype(np.float32)
        np.copyto(private[lowered.input_ids[0]], x.reshape(-1))
        for calls in steps:
            ops.run_calls(calls)
        for _ in range(2):
            interpreter.invoke(plan, x)
            for t, buf in plan.buffers.items():
                assert buf.tobytes() == private[t].tobytes(), t


def test_conv_and_pool_shapes_leave_the_sample_axis_out():
    # the steps read the sample count from their buffers, so conv, pool
    # and pad take one sample's shapes without axis 0; softmax keeps its
    # rank, which says whether rows stack beside the class axis
    plan = interpreter.load(fixtures.build_fixture("lenet"))
    shapes = [(op.unit.template_id, op.params.values["in_shape"],
               op.params.values.get("out_shape"))
              for op in plan.lowered.ops if "in_shape" in op.params.values]
    assert shapes == [
        ("conv2d_f32", (28, 28, 1), (24, 24, 6)),
        ("max_pool2d_f32", (24, 24, 6), (12, 12, 6)),
        ("conv2d_f32", (12, 12, 6), (8, 8, 16)),
        ("max_pool2d_f32", (8, 8, 16), (4, 4, 16)),
        ("softmax_f32", (1, 10), None)]


def test_lenet_shapes_match_oracle_at_the_kernels_budget():
    # the kernel cases chunk at a smaller budget; lenet's conv and first FC
    # shapes take the kernels' own plan (two and three chunks, the smaller
    # first and an exact multiple, and one 256-tap chunk) bit for bit,
    # zero signs included
    rng = np.random.default_rng(13)
    got_want = []
    for h, cin, cout in ((28, 1, 6), (12, 6, 16)):
        x = rng.uniform(-1, 1, (1, h, h, cin)).astype(np.float32)
        wt = rng.uniform(-1, 1, (cout, 5, 5, cin)).astype(np.float32)
        bias = rng.uniform(-0.5, 0.5, cout).astype(np.float32)
        got_want.append(kernel_cases._run_conv2d(
            x, wt, bias, (1, 1), (1, 1), (0, 0, 0, 0), (0.0, None)))
    x = rng.uniform(-1, 1, (1, 256)).astype(np.float32)
    wt = rng.uniform(-1, 1, (120, 256)).astype(np.float32)
    got_want.append(kernel_cases._run_fully_connected(
        x, wt, rng.uniform(-0.5, 0.5, 120).astype(np.float32), (0.0, None)))
    for got, want in got_want:
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("kind", kernel_cases.TAIL_KINDS)
def test_tail_cases_take_the_shapes_their_kind_names(kind, monkeypatch):
    # the bias-tail cases of each kind, FC and conv, reduce in the chunks
    # or over the lanes that the kind names
    seen = []

    def keep(kernel, inputs, weights, outputs, **params):
        calls = kernel_cases.prepare(ops.PREPS[kernel], inputs, weights,
                                     outputs, **params)
        ops.KERNELS[kernel](calls)
        # no kernel takes a batch: the rows stacked in its input buffer
        # say it
        batch = inputs[0].size // (math.prod(params["in_shape"])
                                   if "in_shape" in params
                                   else params["in_features"])
        seen.append((_chunk_lengths(calls), batch,
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
        else:  # an even split, the smaller chunk first
            assert len(sizes) > 2 and sizes[0] < sizes[1] == sizes[-1]


@pytest.mark.parametrize("kind", kernel_cases.FC_LANE_KINDS)
def test_fc_lane_cases_take_the_layout_their_kind_names(kind, monkeypatch):
    # every case of each kind has more samples than output features, so
    # the samples are the lanes of (tap, out, sample) products: one block
    # of them all, in several chunks of taps but for a lone feature's, or
    # two overlapping blocks
    seen = []

    def keep(kernel, inputs, weights, outputs, **params):
        calls = kernel_cases.prepare(ops.PREPS[kernel], inputs, weights,
                                     outputs, **params)
        ops.KERNELS[kernel](calls)
        # each block's multiplies read its samples through the input's
        # transposed view, from its first sample on
        at = inputs[0].__array_interface__["data"][0]
        reads = [args[1] for f, args, _ in calls if f is np.multiply]
        starts = {(r.__array_interface__["data"][0] - at)
                  // (4 * params["in_features"]) for r in reads}
        seen.append((inputs[0].size // params["in_features"],
                     params["out_features"], reads, len(starts),
                     len(reads) // len(starts)))

    monkeypatch.setattr(kernel_cases, "run_kernel", keep)
    k = kernel_cases.FC_LANE_KINDS.index(kind)
    for i in range(k, kernel_cases.N_CASES, len(kernel_cases.FC_LANE_KINDS)):
        kernel_cases.case_fully_connected_lanes.__wrapped__(i)
    assert seen
    for batch, nout, reads, blocks, chunks in seen:
        lanes = reads[0].shape[-1]
        assert batch > nout and all(r.shape[1:] == (1, lanes) for r in reads)
        assert (nout == 1) == (kind == "single_feature")
        if kind == "lane_blocks":
            assert blocks == 2 and 2 * lanes == batch + 1
        else:
            assert blocks == 1 and lanes == batch
            assert (chunks > 1) == (kind != "single_feature")


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


# -- samples stacked along axis 0 ---------------------------------------------

def _run_singles_and_stacked(kernel, samples, weights, outputs, params):
    """Each sample through its own prepared calls, then all of them through
    one call list prepared for the stack with the same params, which give
    the shapes of one sample; the output bytes of both ways."""
    prep, run = ops.PREPS[kernel], ops.KERNELS[kernel]
    singles = []
    for xs in samples:
        outs = [np.empty_like(o) for o in outputs]
        run(kernel_cases.prepare(prep, [x.copy() for x in xs], weights, outs,
                                 **params))
        singles.append(outs)
    stacked = [np.empty(len(samples) * o.size, o.dtype) for o in outputs]
    run(kernel_cases.prepare(prep, [*map(np.concatenate, zip(*samples))],
                             weights, stacked, **params))
    want = [b"".join(outs[j].tobytes() for outs in singles)
            for j in range(len(outputs))]
    return [o.tobytes() for o in stacked], want


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_a_state_prepared_for_three_samples_runs_three_single_ones(
        name, monkeypatch):
    # Wherever the batching rule lets an operator batch, its kernel
    # prepared for three stacked samples writes the bytes of three
    # single-sample runs, the sign of every zero included. The case's own
    # input is the middle sample, beside a fresh one and its negation, so
    # the -0.0 of the sign-of-zero cases turn up as +0.0 and back.
    kinds = {u.template_id: graphir.OPCODE_NAMES.get(u.key.op_id, u.key.op_id)
             for u in default_registry().units()}
    rng = np.random.default_rng(3)
    batched = []

    def run_stacked(kernel, inputs, weights, outputs, **params):
        ops.KERNELS[kernel](kernel_cases.prepare(
            ops.PREPS[kernel], inputs, weights, outputs, **params))
        if not splits_along_axis_0(ParamRecord(kinds[kernel], params),
                                   len(weights)):
            return
        fresh = [rng.uniform(-1, 1, x.shape).astype(x.dtype)
                 if x.dtype == np.float32
                 else rng.integers(-1000, 1000, x.shape, dtype=x.dtype)
                 for x in inputs]
        got, want = _run_singles_and_stacked(
            kernel, [fresh, inputs, [-x for x in inputs]], weights, outputs,
            params)
        assert got == want, (kernel, params)
        batched.append(params)

    monkeypatch.setattr(kernel_cases, "run_kernel", run_stacked)
    case = REFERENCE_CASES[name].__wrapped__
    for i in range(N_CASES):
        got, want = case(i)
        assert oracles.bitwise_equal(got, want), f"{name} case {i}"
    assert batched


def test_softmax_prepared_for_three_rows_runs_three_single_ones_inf_included():
    inf = np.inf
    rows = np.float32([[1.0, inf, 2.0, -0.0], [-inf, 0.0, 1.0, 2.0],
                       [0.5, -0.0, 0.0, -inf]])
    for beta in (1.0, 0.5):
        with np.errstate(invalid="ignore"):  # inf - inf is the NaN we want
            got, want = _run_singles_and_stacked(
                "softmax_f32", [[r.copy()] for r in rows], [],
                [np.empty(4, np.float32)], {"in_shape": (1, 4), "beta": beta})
        assert got == want, beta
    assert np.isnan(np.frombuffer(want[0], np.float32)[:4]).any()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fc_and_softmax_prepared_for_40_samples_run_40_single_ones():
    # 40 samples outnumber the output features and classes, so the stacked
    # call takes the sample-lane layouts (FC products in (tap, out, sample)
    # order, softmax over a contiguous (class, row) buffer) and every
    # single one keeps the feature-lane layouts; both write the same
    # bytes, -0.0, +-inf and NaN included
    rng = np.random.default_rng(17)
    specials = np.float32([-0.0, np.inf, -np.inf, np.nan])
    for nin, nout, bias in ((5, 3, True), (300, 4, True), (7, 1, False)):
        xs = rng.uniform(-1, 1, (40, nin)).astype(np.float32)
        xs[::3, 0] = np.float32(-0.0)
        xs[1::7, -1] = rng.choice(specials, len(xs[1::7]))
        weights = [rng.uniform(-1, 1, nin * nout).astype(np.float32)]
        if bias:
            weights.append(np.float32([-0.0, np.inf] * nout)[:nout])
        got, want = _run_singles_and_stacked(
            "fully_connected_f32", [[x] for x in xs], weights,
            [np.empty(nout, np.float32)],
            {"in_features": nin, "out_features": nout,
             "activation_min": None, "activation_max": None})
        assert got == want, (nin, nout)
    for beta in (1.0, 0.5):
        xs = rng.uniform(-4, 4, (40, 6)).astype(np.float32)
        xs[::2, 1] = rng.choice(specials, 20)
        got, want = _run_singles_and_stacked(
            "softmax_f32", [[x] for x in xs], [], [np.empty(6, np.float32)],
            {"in_shape": (1, 6), "beta": beta})
        assert got == want, beta
        assert np.isnan(np.frombuffer(want[0], np.float32)).any()


def _product_lanes(calls):
    """The lanes of each product call's product tensor, in call order."""
    return [kw.get("out", args[-1]).shape[-1] for f, args, kw in calls
            if f is np.multiply or f is ops.np.c_einsum]


@pytest.mark.parametrize("bias", [True, False])
def test_fc_feature_lanes_past_the_budget_stay_in_one_block(bias):
    # 128 samples of a 256 -> 256 FC (a hidden layer that wide batches
    # 125): the samples do not outnumber the output features, so those are
    # the lanes, and a one-tap chunk of them overruns the product budget.
    # The bias differs along them (an absent one is zeros), so they stay
    # in one block of one-tap chunks, as at one sample, and the stacked
    # call writes the bytes of 128 single ones
    n, nin, nout = 128, 256, 256
    assert 12 * n * nout > ops._PRODUCT_BYTES
    rng = np.random.default_rng(23)
    xs = rng.uniform(-1, 1, (n, nin)).astype(np.float32)
    weights = [rng.uniform(-1, 1, nin * nout).astype(np.float32)]
    if bias:
        weights.append(rng.uniform(-1, 1, nout).astype(np.float32))
    params = {"in_features": nin, "out_features": nout,
              "activation_min": None, "activation_max": None}
    calls = kernel_cases.prepare(
        ops.fully_connected_f32_prep, [xs.reshape(-1)], weights,
        [np.empty(n * nout, np.float32)], **params)
    assert _product_lanes(calls) == [nout] * nin
    got, want = _run_singles_and_stacked(
        "fully_connected_f32", [[x] for x in xs], weights,
        [np.empty(nout, np.float32)], params)
    assert got == want


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("budget", ["kernels", "case"])
def test_one_sample_fc_wider_than_the_budget_matches_the_oracle(
        budget, bias, monkeypatch):
    # one sample of 21,846 output features: a one-tap chunk of them
    # overruns the kernels' product budget and the case budget alike, and
    # they stay in one block, against the scalar loop bit for bit
    if budget == "case":
        monkeypatch.setattr(ops, "_PRODUCT_BYTES",
                            kernel_cases.CASE_PRODUCT_BYTES)
    rng = np.random.default_rng(29)
    nin, nout = 3, 21_846
    assert 12 * nout > ops._PRODUCT_BYTES
    x = rng.uniform(-1, 1, (1, nin)).astype(np.float32)
    x[0, 0] = np.float32(-0.0)
    wt = rng.uniform(-1, 1, (nout, nin)).astype(np.float32)
    b = rng.uniform(-0.5, 0.5, nout).astype(np.float32) if bias else None
    got, want = kernel_cases._run_fully_connected(x, wt, b, (None, None))
    assert oracles.bitwise_equal(got, want)
    calls = kernel_cases.prepare(
        ops.fully_connected_f32_prep, [x.reshape(-1)],
        [wt.T.copy().reshape(-1)], [np.empty(nout, np.float32)],
        in_features=nin, out_features=nout, activation_min=None,
        activation_max=None)
    assert _product_lanes(calls) == [nout] * nin


@pytest.mark.parametrize("shape", [
    # (in, out) at a batch: mlp's fc1 and fc2 at its BATCH of 3640, lenet's
    # fc1 at its BATCH of 9, and a lone output feature at 40 samples
    (3640, 4, 8), (3640, 8, 3), (9, 256, 120), (40, 3, 1)])
def test_fc_scratch_stays_within_the_bound(shape):
    # the product tensor takes at most the product budget, beside the
    # accumulator of one block of sample lanes, prepared scratch and run
    # temporaries together (see test_conv_scratch_stays_within_the_bound
    # on numpy's own buffers)
    n, nin, nout = shape
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, n * nin).astype(np.float32)
    weights = [rng.uniform(-1, 1, nin * nout).astype(np.float32),
               rng.uniform(-1, 1, nout).astype(np.float32)]
    out = np.empty(n * nout, dtype=np.float32)
    lanes = min(n, ops._PRODUCT_BYTES // (12 * nout))
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        calls = kernel_cases.prepare(
            ops.fully_connected_f32_prep, [x], weights, [out],
            in_features=nin, out_features=nout, activation_min=None,
            activation_max=None)
        ops.run_calls(calls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak <= ops._PRODUCT_BYTES + 4 * nout * lanes + 4096, peak
    for f, args, _ in calls:
        if f == np.add.reduce:  # the rows of a product tensor
            assert args[0].base.nbytes <= ops._PRODUCT_BYTES


@pytest.mark.parametrize("shape", [
    # (h, w, cin, f, cout): lenet conv1 and conv2 (two and three chunks of
    # taps), a short image of 200 taps, a 1x1 conv with cout far above its
    # taps (four row blocks, taps 2 at a time), and 800 taps in 3 chunks
    (28, 28, 1, 5, 6), (12, 12, 6, 5, 16), (6, 10, 8, 5, 16),
    (32, 32, 16, 1, 64), (6, 10, 32, 5, 16)])
def test_conv_scratch_stays_within_the_bound(shape):
    # the product tensor and the gathered patches take at most the product
    # budget each, prepared scratch and run temporaries together. numpy's
    # ufunc iterator buffers up to np.getbufsize() elements per operand on
    # its own account; shrinking them leaves the kernel's scratch in the
    # peak.
    h, w, cin, f, cout = shape
    oh, ow = h - f + 1, w - f + 1
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, h * w * cin).astype(np.float32)
    wt = rng.uniform(-1, 1, f * f * cin * cout).astype(np.float32)
    out = np.empty(oh * ow * cout, dtype=np.float32)
    kwargs = dict(in_shape=(h, w, cin), out_shape=(oh, ow, cout),
                  filter_h=f, filter_w=f, stride_h=1, stride_w=1,
                  dilation_h=1, dilation_w=1, pad_before_h=0, pad_after_h=0,
                  pad_before_w=0, pad_after_w=0, activation_min=None,
                  activation_max=None)
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        ops.run_calls(kernel_cases.prepare(ops.conv2d_f32_prep, [x], [wt],
                                           [out], **kwargs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak <= 2 * ops._PRODUCT_BYTES + 4096, peak


def _arena_lists(steps, arena=None):
    """Each (kernel, inputs, weights, outputs, params) step prepared over
    one arena, in the two passes lowering.prepare makes, the last one's
    fills made."""
    arena = [np.empty(0, np.float32)] if arena is None else arena
    for _ in 0, 1:
        lists = [kernel_cases.prepare(ops.PREPS[kernel], ins, ws, outs,
                                      arena=arena, **params)
                 for kernel, ins, ws, outs, params in steps]
    return lists, arena


def _product_bases(calls) -> dict:
    """The base array of every product tensor a call list reduces, by id."""
    return {id(args[0].base): args[0].base for f, args, _ in calls
            if f == np.add.reduce and args[0].base is not None}


def test_reference_cases_take_turns_in_one_arena(monkeypatch):
    # A conv and an FC case with their bias as a last chunk's tail row, at
    # the case budget, prepared over one arena: where both product tensors
    # take a page or more, they are views of it, each over rows the other
    # writes. Run in turn, each writes its oracle's bits every time, zero
    # signs included, which takes its tail row filled again before it
    # reduces.
    monkeypatch.setattr(ops, "_PRODUCT_BYTES",
                        kernel_cases.CASE_PRODUCT_BYTES)
    names = ("conv2d_tail", "fully_connected_tail")
    shared = 0
    for i in range(N_CASES):
        steps = []
        monkeypatch.setattr(
            kernel_cases, "run_kernel",
            lambda kernel, ins, ws, outs, **params: steps.append(
                (kernel, ins, ws, outs, params)))
        cases = [REFERENCE_CASES[name].__wrapped__(i) for name in names]
        lists, arena = _arena_lists(steps)
        shared += all(_product_bases(calls).keys() == {id(arena[0])}
                      for calls in lists)
        for _ in range(3):
            for calls, (got, want) in zip(lists, cases):
                ops.run_calls(calls)
                assert np.array_equal(got.view(np.uint32),
                                      want.view(np.uint32)), i
    assert shared >= N_CASES // 2, shared


@pytest.mark.parametrize("bias", [True, False])
def test_one_sample_fc_wider_than_the_budget_runs_through_the_arena(bias):
    # a one-tap chunk of 21,846 output features overruns the product
    # budget; the arena grows to hold it, and the sum is the oracle's
    rng = np.random.default_rng(31)
    nin, nout = 3, 21_846
    x = rng.uniform(-1, 1, (1, nin)).astype(np.float32)
    x[0, 0] = np.float32(-0.0)
    wt = rng.uniform(-1, 1, (nout, nin)).astype(np.float32)
    b = rng.uniform(-0.5, 0.5, nout).astype(np.float32) if bias else None
    out = np.empty(nout, np.float32)
    step = ("fully_connected_f32", [x.reshape(-1)],
            [wt.T.copy().reshape(-1)] + ([b] if bias else []), [out],
            {"in_features": nin, "out_features": nout,
             "activation_min": None, "activation_max": None})
    [calls], arena = _arena_lists([step])
    assert _product_bases(calls).keys() == {id(arena[0])}
    assert arena[0].nbytes == 4 * 3 * nout > ops._PRODUCT_BYTES
    for _ in range(2):
        ops.run_calls(calls)
        want = oracles.fully_connected(x, wt, b, (None, None))
        assert np.array_equal(out.view(np.uint32),
                              want.reshape(-1).view(np.uint32))


def test_scratch_below_a_page_stays_private():
    # scratch of fewer than 4096 B takes no view of the arena and no fill
    # call, so a small step's run() is the one it makes without an arena
    params = {"in_features": 8, "out_features": 3, "activation_min": None,
              "activation_max": None}
    step = ("fully_connected_f32", [np.ones(8, np.float32)],
            [np.ones(24, np.float32), np.ones(3, np.float32)],
            [np.empty(3, np.float32)], params)
    [calls], arena = _arena_lists([step])
    assert arena[0].size == 0
    assert len(calls) == len(kernel_cases.prepare(
        ops.fully_connected_f32_prep, *step[1:4], **params))


def _names_read(code) -> set:
    """Every local and cell name that code or code nested in it reads."""
    read = set()
    codes = [code]
    while codes:
        code = codes.pop()
        for ins in dis.get_instructions(code):
            if ins.opname.startswith("LOAD_FAST") \
                    or ins.opname == "LOAD_DEREF":
                read.update(ins.argval if isinstance(ins.argval, tuple)
                            else (ins.argval,))
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return read


@pytest.mark.parametrize("tid", sorted(ops.PREPS))
def test_every_prepare_step_reads_every_keyword_it_declares(tid):
    # a keyword no step reads is a parameter the lowering resolves and the
    # emitter writes into every program for nothing
    code = ops.PREPS[tid].__code__
    declared = code.co_varnames[
        code.co_argcount:code.co_argcount + code.co_kwonlyargcount]
    assert set(declared) - _names_read(code) == set()


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


# -- weight payload layouts ---------------------------------------------------

def _unit(op):
    return default_registry().lookup(op, DataType.F32, DeviceInfo())


def _lay_out(op, layout, arrays):
    """lowering.lay_out of a lowering of one operator, of op's unit, whose
    weights are arrays: the blob and the operator's flat views of it."""
    unit = _unit(op)
    one = lowering.Lowering(
        ops=[lowering.LoweredOp(
            op_index=0, kind=unit.template_id, unit=unit, params=None,
            act_ids=(), weight_keys=tuple(range(len(arrays))),
            output_ids=())],
        tensors={}, weights=dict(enumerate(arrays)), input_ids=(),
        output_ids=(), aliases={})
    blob, views = lowering.lay_out(one, [layout])
    assert all(np.shares_memory(v, blob) for v in views[0])
    return views[0]


def test_layout_conv_weights_hwio():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1, 1, (3, 1, 1, 2)).astype(np.float32)  # OHWI
    flats = _lay_out(CONV_2D, "HWIO", [w])
    assert np.array_equal(flats[0],
                          np.ascontiguousarray(w.transpose(1, 2, 3, 0)).ravel())
    flats2 = _lay_out(CONV_2D, "OHWI", [w])
    assert np.array_equal(flats2[0], w.ravel())


def test_layout_fc_weights_transposed():
    from mlfuse.graphir import FULLY_CONNECTED
    w = np.arange(6, dtype=np.float32).reshape(3, 2)
    flats = _lay_out(FULLY_CONNECTED, "transposed", [w])
    assert np.array_equal(flats[0], np.ascontiguousarray(w.T).ravel())


def test_layout_unknown_layout_rejected():
    w = np.zeros((3, 1, 1, 2), dtype=np.float32)
    with pytest.raises(StatusError, match=r"^operator 0: conv2d_f32: no "
                       r"weight layout 'NCHW', expected one of "
                       r"\['OHWI', 'HWIO'\]$"):
        _lay_out(CONV_2D, "NCHW", [w])


def test_validate_status_out_of_domain():
    # a layout another unit lists is still outside this unit's domain
    from mlfuse.graphir import FULLY_CONNECTED
    assert "HWIO" in _unit(CONV_2D).layouts
    w = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(StatusError, match="no weight layout 'HWIO'"):
        _lay_out(FULLY_CONNECTED, "HWIO", [w])


def test_layout_none_rejected_on_unit_with_layouts():
    w = np.zeros((3, 1, 1, 2), dtype=np.float32)
    with pytest.raises(StatusError, match="no weight layout None"):
        _lay_out(CONV_2D, None, [w])


def test_layout_rejected_on_unit_without_layouts():
    from mlfuse.graphir import DEPTHWISE_CONV_2D
    assert _unit(DEPTHWISE_CONV_2D).layouts == {}
    w = np.zeros((1, 3, 3, 2), dtype=np.float32)
    with pytest.raises(StatusError, match="no weight layout 'HWIO'"):
        _lay_out(DEPTHWISE_CONV_2D, "HWIO", [w])
    flats = _lay_out(DEPTHWISE_CONV_2D, None, [w])
    assert np.array_equal(flats[0], w.ravel())


def test_layout_int32_weight_keeps_its_bits():
    # an int32 weight's slice of the float32 blob holds its bits
    from mlfuse.graphir import ADD
    w = np.array([1, -2, 2**31 - 1, -2**31], dtype=np.int32)
    flats = _lay_out(ADD, None, [w])
    assert flats[0].dtype == np.int32 and flats[0].tobytes() == w.tobytes()


def test_layout_bias_slots_pass_through_flat():
    w = np.zeros((3, 1, 1, 2), dtype=np.float32)
    bias = np.arange(3, dtype=np.float32)
    flats = _lay_out(CONV_2D, "HWIO", [w, bias])
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
    params = ParamRecord("ADD", {"activation_min": 0.0,
                                 "activation_max": None})
    from mlfuse.kernels import check_unit_params
    with pytest.raises(ParamError, match="only NONE activation"):
        check_unit_params(unit, params)


# -- the batching rule ----------------------------------------------------------

def _params(op, inputs, out_shape, options, weight_ids=frozenset()):
    node = OperatorNode(op, tuple(range(len(inputs))), (len(inputs),),
                        options)
    shapes = dict(enumerate([*inputs, out_shape]))
    return default_registry().map_options_to_params(node, shapes, weight_ids)


# each exclusion of the rule, beside the twin that differs from it only there
_EXCLUSIONS = {
    "softmax-rank-1": (
        (_params(graphir.SOFTMAX, [(4,)], (4,), {"beta": 1.0}), 0),
        (_params(graphir.SOFTMAX, [(1, 4)], (1, 4), {"beta": 1.0}), 0)),
    "add-with-weight": (
        (_params(graphir.ADD, [(1, 4), (1, 4)], (1, 4),
                 {"activation": "NONE"}, {1}), 1),
        (_params(graphir.ADD, [(1, 4), (1, 4)], (1, 4),
                 {"activation": "NONE"}), 0)),
    "concat-axis-0": (
        (_params(graphir.CONCATENATION, [(1, 4), (1, 4)], (2, 4),
                 {"axis": 0}), 0),
        (_params(graphir.CONCATENATION, [(1, 4), (1, 4)], (1, 8),
                 {"axis": 1}), 0)),
    "concat-weight-part": (
        (_params(graphir.CONCATENATION, [(1, 4), (1, 2)], (1, 6),
                 {"axis": 1}, {1}), 1),
        (_params(graphir.CONCATENATION, [(1, 4), (1, 2)], (1, 6),
                 {"axis": 1}), 0)),
    "pad-axis-0": (
        (_params(graphir.PAD, [(1, 4)], (2, 5),
                 {"paddings": [1, 0, 0, 1]}), 0),
        (_params(graphir.PAD, [(1, 4)], (1, 5),
                 {"paddings": [0, 0, 0, 1]}), 0)),
    "other-custom": (
        (ParamRecord("NEGATE", {"scale": -1.0, "shift": 0.0}), 0),
        (ParamRecord("SCALE_SHIFT", {"scale": 2.0, "shift": 0.0}), 0)),
}


@pytest.mark.parametrize("name", sorted(_EXCLUSIONS))
def test_batching_rule_excludes_what_mixes_or_sizes_along_axis_0(name):
    (excluded, weights), (twin, twin_weights) = _EXCLUSIONS[name]
    assert not splits_along_axis_0(excluded, weights)
    assert splits_along_axis_0(twin, twin_weights)


def test_batching_rule_takes_every_fixture_operator():
    reg = default_registry()
    for name in sorted(fixtures.FIXTURES):
        graph = fixtures.build_fixture(name).graph
        shapes = {t.id: t.shape for t in graph.tensors}
        weight_ids = {t.id for t in graph.tensors if t.weight_ref is not None}
        for node in graph.operators:
            params = reg.map_options_to_params(node, shapes, weight_ids)
            weights = sum(t in weight_ids for t in node.inputs)
            # conv, depthwise and FC carry weights and batch all the same
            assert splits_along_axis_0(params, weights), (name, node)
