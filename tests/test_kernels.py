import dis
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """Taps per chunk of the reduction a conv or FC call list makes, on the
    products path; a contraction's one chunk counts its output rows."""
    return [len(kw.get("out", args[-1])) for _, args, kw
            in _product_calls(calls)]


def _contractions(calls):
    """The np.c_einsum("kr,kl->rl") calls of a call list, each the sum of
    all a block's taps."""
    return [(args, kw) for f, args, kw in calls
            if f is ops.np.c_einsum and args[0] == "kr,kl->rl"]


def _scalar_loop(lhs, rhs, tail):
    """The scalar loop's sum of lhs[t] * rhs[t] over t, then tail, in
    float32, one term at a time onto +0.0 in every lane."""
    want = np.float32(0.0)
    for t in range(len(lhs)):
        want = want + lhs[t] * rhs[t]
    return want + tail


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
    # of every lane. (rows, lanes) sums of two or more, from taps outermost
    # in both operands, are one contraction of all 10001 taps, into the
    # output or a contiguous accumulator copied out to a transposed one.
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
        assert not _contractions(calls)
        ops.run_calls(fills + calls)
        want = _scalar_loop(lhs, rhs, tail)
        assert np.array_equal(acc.view(np.uint32), want.view(np.uint32)), \
            lanes
    for rows, lanes, transposed in ((1, 2, False), (3, 5, True),
                                    (120, 1, False), (2, 3, True)):
        lhs = rng.choice(values, (k, rows, 1))
        rhs = rng.uniform(0.5, 2, (k, 1, lanes)).astype(np.float32)
        tail = rng.choice(values, (rows, lanes))
        acc = (np.empty((lanes, rows), np.float32).T if transposed
               else np.empty((rows, lanes), np.float32))
        fills = []
        blocks, own, fill = ops._sum_products_prep(lhs, rhs, acc, tail,
                                                   fills=fills)
        assert fill == fills == [] and (own is None) == (not transposed)
        calls = ops._sum_products_calls(blocks, own, acc)
        assert len(_contractions(calls)) == 1
        assert not [f for f, _, _ in calls if f == np.add.reduce]
        ops.run_calls(calls)
        want = _scalar_loop(lhs, rhs, tail)
        assert np.array_equal(acc.view(np.uint32), want.view(np.uint32)), \
            (rows, lanes)


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
                                  "strided", "twin", "contract",
                                  "contract_fc"])
def test_both_product_paths_are_the_scalar_loop_order(path, special,
                                                     case_budget,
                                                     monkeypatch):
    # the product call _sum_products_prep picks, against the scalar loop
    # bit for bit, zero signs included: einsum's outer products for conv
    # (into a transposed (cout, lanes) view, as with a fused einsum) and
    # for FC's feature lanes at one sample and at a few, read through the
    # transposed view of their inputs, each chunk 8192 products or more;
    # np.multiply for strided sample lanes, as FC's at mlp's BATCH, and
    # for a single lane beside its twin; and the contraction of all the
    # taps, into conv's transposed view through a contiguous accumulator
    # and straight into FC's output from its inputs copied transposed.
    # Each products path reduces in several chunks; lane (0, 0) gets the
    # special terms and a -0.0 tail, which only a sum begun at +0.0 turns
    # into +0.0.
    if path == "outer":
        monkeypatch.setattr(ops, "_unfused", lambda: False)
    rng = np.random.default_rng(11)
    rows, lanes = {"outer": (3, 5), "fc_batch_1": (1, 7),
                   "fc_batch_3": (3, 7), "strided": (3, 7),
                   "twin": (1, 1), "contract": (3, 5),
                   "contract_fc": (3, 7)}[path]
    lhs, rhs = _special_terms(rng, 10000, rows, lanes, special)
    if path in ("outer", "contract"):
        acc = np.empty((lanes, rows), np.float32).T
    elif path.startswith("fc_"):  # the input rows, viewed as FC's prep does
        lhs = lhs[:, :, 0].T.copy().T[:, :, None]
        acc = np.empty((rows, lanes), np.float32)
    elif path == "strided":  # the samples' transposed view, and the output's
        rhs = rhs[:, 0].T.copy().T[:, None]
        acc = np.empty((lanes, rows), np.float32).T
    elif path == "contract_fc":
        acc = np.empty((rows, lanes), np.float32)
    else:
        acc = np.empty((1, 1), np.float32)
    tail = rng.choice(np.float32([1e8, -1e8, 1, 3e-8]), (rows, lanes))
    tail[0, 0] = np.float32(-0.0)
    # one block of lanes in several chunks; strided lanes reduce into a
    # contiguous accumulator, the lone lane into its twin pair
    fills = []
    [(lanes_in, chunks, add)], own, fill = ops._sum_products_prep(
        lhs, rhs, acc, tail, fills=fills)
    ops.run_calls(fills)
    calls = ops._sum_products_calls([(lanes_in, chunks, add)], own, acc)
    if path.startswith("contract"):
        # one chunk, np.c_einsum into the lanes, and the tail added after
        [((f, args, _), part)] = chunks
        assert f is ops.np.c_einsum and args[0] == "kr,kl->rl"
        assert part is None
        assert add is tail and fill == fills == []
        assert (own is None) == (path == "contract_fc")
        assert len(_contractions(calls)) == 1
    else:
        assert len(chunks) > 1 and fill == [] and len(fills) == 1
        assert add is None and not _contractions(calls)
        assert (own is None) == path.startswith("fc_")
        einsum = path in ("outer", "fc_batch_1", "fc_batch_3")
        assert {f for (f, _, _), _ in chunks} == {
            ops.np.c_einsum if einsum else np.multiply}
        if einsum:
            assert min(kw["out"].size for (_, _, kw), _ in chunks) >= 8192
    ops.run_calls(calls)
    want = _scalar_loop(lhs, rhs, tail)
    if special == "negative_zero":
        assert want[0, 0].tobytes() == np.float32(0.0).tobytes()
    else:
        assert np.isnan(want[0, 0])
    assert np.isfinite(want[:, 1:]).all()
    assert np.array_equal(acc.view(np.uint32), want.view(np.uint32))


def _laid_out(rng, taps, width, layout):
    """(taps, width) order-sensitive terms: contiguous, a transposed view
    (the taps innermost), or a view of rows padded by three floats."""
    a = (rng.choice(np.float32([1e8, -1e8, 1, 3e-8]), (taps, width))
         * rng.uniform(0.5, 2, (taps, width)).astype(np.float32))
    if layout == "transposed":
        return a.T.copy().T
    if layout == "padded":
        buf = np.zeros((taps, width + 3), np.float32)
        buf[:, :width] = a
        return buf[:, :width]
    return a


_LAYOUTS = st.sampled_from(["contiguous", "transposed", "padded"])


@settings(max_examples=60, deadline=None)
@given(taps=st.sampled_from([1, 7, 300, 1000, 4000]),
       rows=st.integers(1, 6), lanes=st.integers(1, 40),
       lhs_layout=_LAYOUTS, rhs_layout=_LAYOUTS,
       transposed_acc=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_the_contraction_is_taken_only_where_it_is_exact(
        taps, rows, lanes, lhs_layout, rhs_layout, transposed_acc, seed):
    # _sum_products_prep contracts a 2-D reduction only where einsum sums
    # it in tap order, the tap axis of the largest stride in both operands
    # and two outputs or more, and only where it pays, 8192 products or
    # more over contiguous lanes; either path gives the scalar loop's bits
    rng = np.random.default_rng(seed)
    lhs = _laid_out(rng, taps, rows, lhs_layout)
    rhs = _laid_out(rng, taps, lanes, rhs_layout)
    tail = rng.uniform(-1, 1, (rows, lanes)).astype(np.float32)
    acc = (np.empty((lanes, rows), np.float32).T if transposed_acc
           else np.empty((rows, lanes), np.float32))
    fills = []
    blocks, own, fill = ops._sum_products_prep(
        lhs[:, :, None], rhs[:, None], acc, tail, fills=fills)
    calls = ops._sum_products_calls(blocks, own, acc)
    exact = (rows * lanes >= 2 and all(
        a.strides[0] >= max(a.strides[1:]) for a in (lhs, rhs)))
    pays = taps * rows * lanes >= 8192 and rhs.strides[-1] == 4
    assert bool(_contractions(calls)) == (exact and pays)
    ops.run_calls(fills + fill + calls)
    want = _scalar_loop(lhs[:, :, None], rhs[:, None], tail)
    assert np.array_equal(acc.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("case", ["one_output", "taps_innermost"])
def test_the_sums_einsum_reorders_take_the_products_path(case):
    # the two layouts where numpy's contraction reorders a sum: a single
    # 1 x 1 output of 1000 taps or more, which it sums as a dot product,
    # and both operands with the tap axis innermost. Each holds 8192
    # products or more, yet takes the products path and the scalar loop's
    # bits.
    rng = np.random.default_rng(41)
    if case == "one_output":
        lhs = _laid_out(rng, 10_001, 1, "contiguous")
        rhs = _laid_out(rng, 10_001, 1, "contiguous")
        acc = np.empty((1, 1), np.float32)
    else:
        lhs = _laid_out(rng, 1000, 3, "transposed")
        rhs = _laid_out(rng, 1000, 5, "transposed")
        acc = np.empty((3, 5), np.float32)
    tail = np.zeros(acc.shape, np.float32)
    fills = []
    blocks, own, fill = ops._sum_products_prep(
        lhs[:, :, None], rhs[:, None], acc, tail, fills=fills)
    calls = ops._sum_products_calls(blocks, own, acc)
    assert not _contractions(calls)
    assert [f for f, _, _ in calls if f == np.add.reduce]
    ops.run_calls(fills + fill + calls)
    want = _scalar_loop(lhs[:, :, None], rhs[:, None], tail)
    assert np.array_equal(acc.view(np.uint32), want.view(np.uint32))


def test_this_numpy_rounds_each_product_before_it_adds_it():
    # the check itself, uncached, reads unfused here, and its sum would
    # read 2**-24 where the square's product is kept exact
    assert ops._unfused.__wrapped__() is True
    a = 1 + 2.0 ** -12
    assert np.float32(-(1 + 2.0 ** -11) + a * a) == 2.0 ** -24


def test_a_fused_einsum_keeps_every_reduction_on_the_products_path(
        monkeypatch):
    # with the check read as fused, lenet's plan makes no contraction and
    # reduces every conv and FC through products, to the same bits; and
    # the check is lazy: mlp's plan, whose reductions are all below 8192
    # products, never takes it
    rng = np.random.default_rng(43)
    x = rng.uniform(-1, 1, (1, 28, 28, 1)).astype(np.float32)
    lenet = fixtures.build_fixture("lenet")
    want = interpreter.invoke(interpreter.load(lenet), x)
    taken = []
    monkeypatch.setattr(ops, "_unfused", lambda: taken.append(1) or False)
    interpreter.load(fixtures.build_fixture("mlp"), samples=3)
    assert taken == []
    plan = interpreter.load(lenet)
    assert taken
    for op, calls in plan.steps:
        assert not _contractions(calls), op.unit.template_id
        if op.unit.template_id in ("conv2d_f32", "fully_connected_f32"):
            assert [f for f, _, _ in calls if f == np.add.reduce]
    got = interpreter.invoke(plan, x)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_lenet_states_take_the_product_call_their_kernel_names():
    # lenet's convs, fc1 and fc2 hold 8192 products or more over contiguous
    # lanes, so each block sums all its taps in one contraction: one a
    # conv at one sample, three blocks of conv1 and two of conv2 at its
    # BATCH of 9, one an FC. fc3's 840 products, and its 7,560 at 9
    # samples, stay with np.multiply. A silent fallback to the products
    # path fails here.
    bundle = fixtures.build_fixture("lenet")
    c_einsum = ops.np.c_einsum
    for n, convs in ((1, [1, 1]), (9, [3, 2])):
        plan = interpreter.load(bundle, samples=n)
        products, contractions = {}, {}
        for op, calls in plan.steps:
            tid = op.unit.template_id
            products.setdefault(tid, []).append(
                [f for f, _, _ in _product_calls(calls)])
            contractions.setdefault(tid, []).append(
                len(_contractions(calls)))
        assert products["conv2d_f32"] == [[c_einsum]] * 2
        assert products["fully_connected_f32"] == [[c_einsum], [c_einsum],
                                                   [np.multiply]]
        assert contractions["conv2d_f32"] == convs
        assert contractions["fully_connected_f32"] == [1, 1, 0]


def test_lenet_blocking():
    # lenet's plans at the kernels' own budget. At one sample each conv is
    # one block of all its output rows, so no row is computed twice. At
    # its BATCH of 9, a block spans whole samples, as many as keep its
    # patches within the budget, split evenly: conv1's 25 x 576 patches a
    # sample fit 4 samples, so 3 blocks of 3; conv2's 150 x 64 fit 6, so 2
    # blocks of 5, the second from sample 4 on, overlapping the first by
    # one sample. fc1 and fc2 read more than one sample's inputs from a
    # transposed copy, its taps outermost; fc3 reduces in one chunk. A
    # change to the blocking rule shows here first.
    bundle = fixtures.build_fixture("lenet")
    want = {1: ([(24, 1, 24, [0]), (8, 1, 8, [0])], [[], [], []]),
            9: ([(24, 3, 24, [0, 3, 6]), (8, 5, 8, [0, 4])],
                [[(256, 9)], [(120, 9)], []])}
    for n, (want_convs, want_copies) in want.items():
        plan = interpreter.load(bundle, samples=n)
        convs, copies = [], []
        for op, calls in plan.steps:
            tid = op.unit.template_id
            if tid == "conv2d_f32":
                # a block starts with the copy that gathers its patches,
                # the (kh, kw, ci, samples, rows, ow) windows of its
                # output rows
                x = plan.buffers[op.act_ids[0]]
                at = x.__array_interface__["data"][0]
                blocks = [args[1] for f, args, _ in calls
                          if f is ops.np.copyto and args[0].ndim == 6]
                convs.append((
                    op.params.values["out_shape"][0],
                    blocks[0].shape[3], blocks[0].shape[4],
                    [(b.__array_interface__["data"][0] - at)
                     // (x.nbytes // n) for b in blocks]))
            elif tid == "fully_connected_f32":
                x = plan.buffers[op.act_ids[0]]
                copies.append([args[0].shape for f, args, _ in calls
                               if f is ops.np.copyto
                               and np.shares_memory(args[1], x)])
        assert convs == want_convs, n
        assert copies == want_copies, n
    plan = interpreter.load(bundle)
    fc3 = [calls for op, calls in plan.steps
           if op.unit.template_id == "fully_connected_f32"][-1]
    assert _chunk_lengths(fc3) == [84]


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


def _scratch_roots(plan, calls) -> dict:
    """The root array of every array a step's calls name that is none of
    the plan's tensor buffers and not its weights blob, by id."""
    held = _roots([(None, (*plan.buffers.values(), plan.blob), {})])
    roots = {}
    for _, args, kw in calls:
        for a in (*args, *kw.values()):
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                if id(a) not in held:
                    roots[id(a)] = a
    return roots


def test_lenet_plan_holds_one_arena_that_no_other_plan_shares():
    # conv1 and conv2 take their gathered patches and their accumulators
    # from the plan's one arena, sized to conv1's: 25 x 576 patches and
    # 6 x 576 sums, 71,424 B. fc1 and fc2 contract one sample's inputs
    # straight into their outputs and take no scratch. fc3's product
    # tensor stays below a page, its own: 3,400 B, the rows of its 84
    # taps and its bias, reduced in one chunk with no leading row; so do
    # softmax's rows. Two plans share no array.
    plans = [interpreter.load(fixtures.build_fixture("lenet"))
             for _ in range(2)]
    for plan in plans:
        scratch = [_scratch_roots(plan, calls) for _, calls in plan.steps]
        [arena] = scratch[0].values()
        assert [s.keys() == {id(arena)} for s in scratch] == [
            True, False, True, False, False, False, False, False, False]
        assert [sorted(a.nbytes for a in s.values()) for s in scratch[1:]
                if id(arena) not in s] == [[], [], [], [], [], [4 * 85 * 10],
                                           [4, 40, 40]]
        assert arena.nbytes == 4 * (25 + 6) * 576 == 71_424
    a, b = ({r for _, calls in plan.steps for r in _roots(calls)}
            for plan in plans)
    assert a and not a & b


def test_lenet_steps_over_the_arena_write_what_private_scratch_does(
        monkeypatch):
    # every lenet tensor, after each of two runs in a row on each of three
    # samples, holds the bits of the same steps prepared with scratch of
    # their own: the convs' patches and sums are written before they are
    # read, and on the products path (as with a fused einsum) each run
    # fills the tail rows other steps wrote over
    for path in ("contraction", "products"):
        if path == "products":
            monkeypatch.setattr(ops, "_unfused", lambda: False)
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
                    assert buf.tobytes() == private[t].tobytes(), (path, t)


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
    # the kernel cases block at a smaller budget; lenet's conv and first FC
    # shapes take the kernels' own plan (one contraction of all their taps
    # each) bit for bit, zero signs included
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
    # or over the lanes that the kind names on the products path, which
    # the second half of the cases takes; in the first half, the kinds of
    # 8192 products or more over two outputs or more are one contraction
    # of all their taps instead, the bias added after
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
        seen.append((_chunk_lengths(calls), len(_contractions(calls)),
                     batch, outputs[0].size // batch))

    monkeypatch.setattr(kernel_cases, "run_kernel", keep)
    i = kernel_cases.TAIL_KINDS.index(kind)
    products = i + len(kernel_cases.TAIL_KINDS) * 2
    assert products >= N_CASES // 2 > i
    for j in (products, i):
        kernel_cases.case_fully_connected_tail.__wrapped__(j)
        kernel_cases.case_conv2d_tail.__wrapped__(j)
    assert len(seen) == 4
    for at, (sizes, contractions, batch, lanes) in enumerate(seen):
        if at >= 2 and kind not in ("one_chunk", "single_lane",
                                    "single_lane_batched"):
            assert len(sizes) == 1 and contractions == 1
            continue
        assert contractions == 0
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_conv_blocks_that_span_samples_match_the_oracle(case_budget,
                                                        monkeypatch):
    # At the case budget: 5 samples of 100 x 64 patches, 2 of which fit,
    # go in 3 blocks of 2 from samples 0, 2 and 3, so the last writes
    # sample 3 again; 3 samples of 18 x 64 go in one block. Inputs of
    # -0.0, +-inf and NaN, a -0.0 and an inf bias, with and without a
    # lower clamp: the stacked call writes the oracle's bits, the sign of
    # every zero included.
    rng = np.random.default_rng(47)
    starts = []

    def run(kernel, inputs, weights, outputs, **params):
        calls = kernel_cases.prepare(ops.PREPS[kernel], inputs, weights,
                                     outputs, **params)
        ops.run_calls(calls)
        at = inputs[0].__array_interface__["data"][0]
        sample = 4 * math.prod(params["in_shape"])
        blocks = [(args[1].__array_interface__["data"][0] - at) // sample
                  for f, args, _ in calls
                  if f is ops.np.copyto and args[0].ndim == 6]
        assert len(_contractions(calls)) == len(blocks)
        starts.append(blocks)

    monkeypatch.setattr(kernel_cases, "run_kernel", run)
    for n, h, cin, f, cout, clamp in ((5, 12, 4, 5, 8, (0.0, None)),
                                      (3, 10, 2, 3, 5, (None, None))):
        x = rng.uniform(-1, 1, (n, h, h, cin)).astype(np.float32)
        x.reshape(-1)[::7] = np.float32(-0.0)
        x[0, 3, 3, 0], x[1, 5, 5, 0], x[-1, 0, 0, 0] = (np.inf, -np.inf,
                                                       np.nan)
        wt = rng.uniform(-1, 1, (cout, f, f, cin)).astype(np.float32)
        bias = rng.uniform(-0.5, 0.5, cout).astype(np.float32)
        bias[0], bias[1] = np.float32(-0.0), np.inf
        got, want = kernel_cases._run_conv2d(x, wt, bias, (1, 1), (1, 1),
                                             (0, 0, 0, 0), clamp)
        assert np.array_equal(got.view(np.uint32),
                              np.asarray(want, np.float32).view(np.uint32))
    assert starts == [[0, 2, 3], [0]]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_depthwise_blocks_that_span_samples_match_the_oracle(case_budget):
    # At the case budget: 7 samples of 10 x 10 outputs over 4 channels, 4
    # of which fit, go in 2 blocks of 4 from samples 0 and 3, so the last
    # writes sample 3 again; 5 samples of 13 x 13 outputs at stride and
    # dilation 2, depth multiplier 2, 3 of which fit, go in 2 blocks of 3
    # from samples 0 and 2. Inputs of -0.0, +-inf and NaN, a -0.0 and an
    # inf bias, with and without a clamp: the stacked call writes the
    # oracle's bits, the sign of every zero included.
    rng = np.random.default_rng(53)
    for n, h, cin, mult, s, clamp, starts in (
            (7, 12, 4, 1, 1, (0.0, 6.0), [0, 3]),
            (5, 30, 3, 2, 2, (None, None), [0, 2])):
        oh = (h - 2 * s - 1) // s + 1
        x = rng.uniform(-1, 1, (n, h, h, cin)).astype(np.float32)
        x.reshape(-1)[::7] = np.float32(-0.0)
        x[0, 3, 3, 0], x[1, 5, 5, 0], x[-1, 0, 0, 0] = (np.inf, -np.inf,
                                                       np.nan)
        wt = rng.uniform(-1, 1, (1, 3, 3, cin * mult)).astype(np.float32)
        bias = rng.uniform(-0.5, 0.5, cin * mult).astype(np.float32)
        bias[0], bias[1] = np.float32(-0.0), np.inf
        kwargs = kernel_cases._conv_kwargs((h, h, cin), (oh, oh, cin * mult),
                                           3, 3, s, s, s, s, (0, 0, 0, 0),
                                           clamp)
        xs = x.reshape(-1)
        out = np.empty(n * oh * oh * cin * mult, np.float32)
        calls = kernel_cases.prepare(
            ops.depthwise_conv2d_f32_prep, [xs], [wt.reshape(-1), bias],
            [out], depth_multiplier=mult, **kwargs)
        ops.run_calls(calls)
        at, sample = xs.__array_interface__["data"][0], 4 * h * h * cin
        assert [(args[1].__array_interface__["data"][0] - at) // sample
                for f, args, _ in calls
                if f is ops.np.copyto and args[0].ndim == 6] == starts
        want = oracles.depthwise_conv2d(x, wt, bias, (s, s), (s, s),
                                        (0, 0, 0, 0), mult, clamp)
        assert np.array_equal(out.view(np.uint32),
                              np.asarray(want, np.float32).reshape(-1)
                              .view(np.uint32))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("contract", [True, False])
@pytest.mark.parametrize("shape", [
    (1, 300, 64), (1, 3, 5), (7, 16, 4), (9, 256, 120), (128, 256, 256),
    (1, 1, 1), (2, 8, 1)])
def test_a_bias_less_fc_sums_onto_a_plus_zero_tail(shape, contract,
                                                   monkeypatch):
    # With no bias, FC's tail is +0.0, as conv's is: a sum begun at +0.0
    # is never -0.0, so adding it changes no bit, and no buffer of zeros
    # is filled for it. A one-sample 300 -> 64 FC that contracts is then
    # one np.c_einsum, with no fill and no np.add after it. On either
    # path, -0.0 and +-inf inputs included, the bits are the scalar
    # loop's.
    if not contract:
        monkeypatch.setattr(ops, "_unfused", lambda: False)
    n, nin, nout = shape
    rng = np.random.default_rng(61)
    x = rng.uniform(-1, 1, (n, nin)).astype(np.float32)
    x.reshape(-1)[::3] = np.float32(-0.0)
    x.reshape(-1)[1::97] = np.inf
    x.reshape(-1)[2::89] = -np.inf
    w = rng.uniform(-1, 1, (nin, nout)).astype(np.float32)
    out = np.empty(n * nout, np.float32)
    fills = []
    calls = ops.fully_connected_f32_prep(
        [x.reshape(-1)], [w.reshape(-1)], [out], in_features=nin,
        out_features=nout, activation_min=None, activation_max=None,
        fills=fills)
    if contract and shape == (1, 300, 64):
        assert ([f for f, _, _ in calls], fills) == ([ops.np.c_einsum], [])
    ops.run_calls(fills)
    ops.run_calls(calls)
    want = _scalar_loop(x.T[:, :, None], w[:, None], np.float32(0.0))
    assert np.array_equal(out.view(np.uint32), want.reshape(-1).view(
        np.uint32))


@pytest.mark.parametrize("bias", [True, False])
def test_fc_feature_lanes_past_the_budget_stay_in_one_block(bias,
                                                           monkeypatch):
    # 128 samples of a 256 -> 256 FC (a hidden layer that wide batches
    # 125): the samples do not outnumber the output features, so those are
    # the lanes. They are one contraction of all 256 taps, straight into
    # the output, from the samples' inputs copied transposed into 128 KiB
    # of scratch, no product tensor; a bias is added after. On the
    # products path a one-tap chunk of those lanes overruns the product
    # budget, and a bias differs along them, so they stay in one block of
    # one-tap chunks, as at one sample; with no bias the tail is +0.0 along
    # them all, so they go in two blocks of 128 lanes, in chunks of 2 taps
    # within the budget. Either way the stacked call writes the bytes of
    # 128 single ones.
    n, nin, nout = 128, 256, 256
    assert 12 * n * nout > ops._PRODUCT_BYTES
    rng = np.random.default_rng(23)
    xs = rng.uniform(-1, 1, (n, nin)).astype(np.float32)
    weights = [rng.uniform(-1, 1, nin * nout).astype(np.float32)]
    if bias:
        weights.append(rng.uniform(-1, 1, nout).astype(np.float32))
    params = {"in_features": nin, "out_features": nout,
              "activation_min": None, "activation_max": None}
    out = np.empty(n * nout, np.float32)
    products = [nout] * nin if bias else [nout // 2] * nin
    for contract, lanes in ((True, [nout]), (False, products)):
        if not contract:
            monkeypatch.setattr(ops, "_unfused", lambda: False)
        calls = kernel_cases.prepare(
            ops.fully_connected_f32_prep, [xs.reshape(-1)], weights, [out],
            **params)
        assert _product_lanes(calls) == lanes
        assert len(_contractions(calls)) == contract
        if contract:
            [(_, _, kw)] = _product_calls(calls)
            assert kw["out"].base is out
            assert [args[0].shape for f, args, _ in calls
                    if f is ops.np.copyto] == [(nin, n)]
        got, want = _run_singles_and_stacked(
            "fully_connected_f32", [[x] for x in xs], weights,
            [np.empty(nout, np.float32)], params)
        assert got == want


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("budget", ["kernels", "case"])
def test_one_sample_fc_wider_than_the_budget_matches_the_oracle(
        budget, bias, monkeypatch):
    # one sample of 21,846 output features, against the scalar loop bit
    # for bit: one contraction of its 3 taps straight into the output; on
    # the products path a one-tap chunk of them overruns the kernels'
    # product budget and the case budget alike, and with a bias they stay
    # in one block; with none, they go in blocks of lanes within either
    # budget (2 blocks of one 3-tap chunk, 5 of three one-tap chunks)
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
    products = ([nout] * nin if bias else
                {"kernels": [10_923] * 2, "case": [4_370] * 15}[budget])
    for contract, lanes in ((True, [nout]), (False, products)):
        if not contract:
            monkeypatch.setattr(ops, "_unfused", lambda: False)
        got, want = kernel_cases._run_fully_connected(x, wt, b, (None, None))
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        calls = kernel_cases.prepare(
            ops.fully_connected_f32_prep, [x.reshape(-1)],
            [wt.T.copy().reshape(-1)] + ([b] if bias else []),
            [np.empty(nout, np.float32)], in_features=nin, out_features=nout,
            activation_min=None, activation_max=None)
        assert _product_lanes(calls) == lanes
        assert len(_contractions(calls)) == contract


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
    # (h, w, cin, f, cout): lenet conv1 and conv2, a short image of 200
    # taps, a 1x1 conv with cout far above its taps, and 800 taps; each
    # one contraction of all its output rows (on the products path: two
    # and three chunks of taps, one chunk, four row blocks of taps 2 at a
    # time, and 3 chunks)
    (28, 28, 1, 5, 6), (12, 12, 6, 5, 16), (6, 10, 8, 5, 16),
    (32, 32, 16, 1, 64), (6, 10, 32, 5, 16)])
def test_conv_scratch_stays_within_the_bound(shape, monkeypatch):
    # The gathered patches and the accumulator take at most the product
    # budget each, prepared scratch and run temporaries together: here
    # exactly the (taps + cout) x lanes floats of one block of every
    # output row, with no product tensor, and 8 KiB for the prepared
    # call list's objects and numpy's iterators; on the products path,
    # the product tensor and the patches take at most the budget each.
    # numpy's ufunc iterator buffers up to np.getbufsize() elements per
    # operand on its own account; shrinking them leaves the kernel's
    # scratch in the peak.
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
    scratch = 4 * (f * f * cin + cout) * oh * ow
    assert scratch <= 2 * ops._PRODUCT_BYTES
    for contract, bound in ((True, scratch + 4096),
                            (False, 2 * ops._PRODUCT_BYTES)):
        if not contract:
            monkeypatch.setattr(ops, "_unfused", lambda: False)
        bufsize = np.setbufsize(16)
        tracemalloc.start()
        try:
            calls = kernel_cases.prepare(ops.conv2d_f32_prep, [x], [wt],
                                         [out], **kwargs)
            ops.run_calls(calls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert len(_contractions(calls)) == contract
        assert peak <= bound + 4096, (peak, bound)


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
    # reduces. As in the cases themselves, the second half takes the
    # products path; in the first, the kinds of 8192 products or more
    # contract, and run in turn over the arena to the same bits.
    monkeypatch.setattr(ops, "_PRODUCT_BYTES",
                        kernel_cases.CASE_PRODUCT_BYTES)
    unfused = ops._unfused
    names = ("conv2d_tail", "fully_connected_tail")
    # below a page, the FC product tensors of these kinds are their own
    private = ("one_chunk", "single_lane", "single_lane_batched")
    shared = contracted = 0
    for i in range(N_CASES):
        steps = []
        monkeypatch.setattr(
            kernel_cases, "run_kernel",
            lambda kernel, ins, ws, outs, **params: steps.append(
                (kernel, ins, ws, outs, params)))
        cases = [REFERENCE_CASES[name].__wrapped__(i) for name in names]
        fused = i >= N_CASES // 2
        monkeypatch.setattr(ops, "_unfused",
                            (lambda: False) if fused else unfused)
        lists, arena = _arena_lists(steps)
        shared += all(_product_bases(calls).keys() == {id(arena[0])}
                      for calls in lists)
        contracted += sum(map(bool, map(_contractions, lists)))
        if fused:
            assert not any(map(_contractions, lists))
        for _ in range(3):
            for calls, (got, want) in zip(lists, cases):
                ops.run_calls(calls)
                assert np.array_equal(got.view(np.uint32),
                                      want.view(np.uint32)), i
    kinds = [kernel_cases.TAIL_KINDS[i % len(kernel_cases.TAIL_KINDS)]
             for i in range(N_CASES)]
    half = N_CASES // 2
    assert shared == sum(k not in private for k in kinds[half:])
    assert contracted == 2 * sum(k not in private for k in kinds[:half])


@pytest.mark.parametrize("bias", [True, False])
def test_one_sample_fc_wider_than_the_budget_runs_through_the_arena(
        bias, monkeypatch):
    # one sample of 21,846 output features contracts straight into its
    # output and takes no scratch: the arena stays empty. On the products
    # path a one-tap chunk of them with a bias overruns the product
    # budget, and the arena grows to hold it; with none, two blocks of
    # 10,923 lanes take one 3-tap chunk each, within the budget. Either
    # way the sum is the oracle's.
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
    for arena_bytes in (0, 4 * 3 * nout if bias else 4 * 4 * 10_923):
        if arena_bytes:
            monkeypatch.setattr(ops, "_unfused", lambda: False)
        [calls], arena = _arena_lists([step])
        assert arena[0].nbytes == arena_bytes
        if arena_bytes:
            assert (arena_bytes > ops._PRODUCT_BYTES) == bias
            assert _product_bases(calls).keys() == {id(arena[0])}
        else:
            assert not _product_bases(calls) and _contractions(calls)
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

def _resolve(node, shapes, weight_ids=frozenset()):
    """A node's parameters, from its kind's rule, over the tensor shapes."""
    _, values = graphir.apply_rule(
        0, node, [shapes[t] for t in node.inputs],
        [t in weight_ids for t in node.inputs],
        default_registry().custom_shape_rules())
    return ParamRecord(graphir.op_kind(node), values)


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
    # graphir.validate owns the builtin option rules and each builtin's
    # rule reads node.options unchecked, so a key outside OPTION_SCHEMAS
    # would reach a kernel without any check
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
        _resolve(node, shapes)
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
    return _resolve(node, shapes, weight_ids)


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
    for name in sorted(fixtures.FIXTURES):
        graph = fixtures.build_fixture(name).graph
        shapes = {t.id: t.shape for t in graph.tensors}
        weight_ids = {t.id for t in graph.tensors if t.weight_ref is not None}
        for node in graph.operators:
            params = _resolve(node, shapes, weight_ids)
            weights = sum(t in weight_ids for t in node.inputs)
            # conv, depthwise and FC carry weights and batch all the same
            assert splits_along_axis_0(params, weights), (name, node)
