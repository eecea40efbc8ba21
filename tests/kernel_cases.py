"""Seeded random cases pairing each production kernel with its oracle.

Each case_* function builds one randomized invocation (shapes, options,
activation, bias presence), runs the production kernel on flat buffers the
way the runtime does, runs the scalar oracle on shaped arrays, and returns
(got, want). Results are cached so the acceptance suite can re-check the
same cases without paying for the scalar loops twice.

SAME padding is computed here from its definition (output ceil(in/stride),
total pad max(0, (out-1)*stride + effective_filter - in), split
before = total // 2) rather than imported from the package.
"""

import math
from functools import lru_cache, wraps

import numpy as np

from mlfuse.kernels import ops

import oracles

N_CASES = 30

# The product budget the edge and tail cases are sized for, a quarter of the
# kernels' own: chunked taps and several row blocks then come from shapes
# small enough for the scalar oracles. Only the constant differs; the same
# code plans the chunks and the blocks.
CASE_PRODUCT_BYTES = 65536


def _at_case_budget(case):
    """case, run with the kernels' product budget at CASE_PRODUCT_BYTES.

    Cases from N_CASES // 2 on run as where numpy's einsum fuses its
    multiply and add (ops._unfused reads False), so conv and FC reduce
    through products there, and the contraction takes the first half:
    every kind of case checks both paths."""
    @wraps(case)
    def run(i):
        saved = ops._PRODUCT_BYTES, ops._unfused
        ops._PRODUCT_BYTES = CASE_PRODUCT_BYTES
        if i >= N_CASES // 2:
            ops._unfused = lambda: False
        try:
            return case(i)
        finally:
            ops._PRODUCT_BYTES, ops._unfused = saved
    return run


def prepare(prep, inputs, weights, outputs, **params):
    """prep's calls on the given flat buffers, the one-time fills it hands
    back made at once, as a prepared plan makes them (lowering.configure)."""
    fills = []
    if "fills" in (prep.__kwdefaults__ or ()):
        params["fills"] = fills
    calls = prep(inputs, weights, outputs, **params)
    ops.run_calls(fills)
    return calls


def run_kernel(name, inputs, weights, outputs, **params):
    """Prepare kernel `name` on the given flat buffers, then run it once."""
    ops.KERNELS[name](prepare(ops.PREPS[name], inputs, weights, outputs,
                              **params))


def _same_pads(in_dim, eff_k, stride):
    out_dim = math.ceil(in_dim / stride)
    total = max(0, (out_dim - 1) * stride + eff_k - in_dim)
    return total // 2, total - total // 2


def _clamp_for(act):
    return {"NONE": (None, None), "RELU": (0.0, None),
            "RELU6": (0.0, 6.0)}[act]


def _conv_geometry(rng, with_dilation=True):
    n = int(rng.integers(1, 3))
    h = int(rng.integers(4, 9))
    w = int(rng.integers(4, 9))
    fh = int(rng.integers(1, 4))
    fw = int(rng.integers(1, 4))
    sh = int(rng.integers(1, 3))
    sw = int(rng.integers(1, 3))
    dh = int(rng.integers(1, 3)) if with_dilation else 1
    dw = int(rng.integers(1, 3)) if with_dilation else 1
    eh = (fh - 1) * dh + 1
    ew = (fw - 1) * dw + 1
    if eh > h:
        dh, eh = 1, fh
    if ew > w:
        dw, ew = 1, fw
    if rng.random() < 0.5:
        pt, pb = _same_pads(h, eh, sh)
        pl, pr = _same_pads(w, ew, sw)
    else:
        pt = pb = pl = pr = 0
    oh = (h + pt + pb - eh) // sh + 1
    ow = (w + pl + pr - ew) // sw + 1
    act = ("NONE", "RELU", "RELU6")[int(rng.integers(0, 3))]
    return n, h, w, fh, fw, sh, sw, dh, dw, (pt, pb, pl, pr), oh, ow, act


def _conv_kwargs(in_shape, out_shape, fh, fw, sh, sw, dh, dw, pads, clamp):
    pt, pb, pl, pr = pads
    return dict(in_shape=in_shape, out_shape=out_shape, filter_h=fh,
                filter_w=fw, stride_h=sh, stride_w=sw, dilation_h=dh,
                dilation_w=dw, pad_before_h=pt, pad_after_h=pb,
                pad_before_w=pl, pad_after_w=pr, activation_min=clamp[0],
                activation_max=clamp[1])


def _run_conv2d(x, wt, bias, stride, dilation, pads, clamp):
    """Reference conv kernel on flat buffers against the oracle.

    x: (n, h, w, cin); wt: (cout, fh, fw, cin), delivered in HWIO order.
    """
    n, h, w, cin = x.shape
    cout, fh, fw, _ = wt.shape
    (sh, sw), (dh, dw) = stride, dilation
    pt, pb, pl, pr = pads
    oh = (h + pt + pb - (fh - 1) * dh - 1) // sh + 1
    ow = (w + pl + pr - (fw - 1) * dw - 1) // sw + 1
    kwargs = _conv_kwargs((h, w, cin), (oh, ow, cout),
                          fh, fw, sh, sw, dh, dw, pads, clamp)
    out = np.empty(n * oh * ow * cout, dtype=np.float32)
    flat_w = np.ascontiguousarray(wt.transpose(1, 2, 3, 0)).ravel()
    run_kernel("conv2d_f32", [x.ravel().copy()],
               [flat_w] + ([bias] if bias is not None else []), [out],
               **kwargs)
    want = oracles.conv2d(x, wt, bias, stride, dilation, pads, clamp)
    return out.reshape(n, oh, ow, cout), want


@lru_cache(maxsize=None)
def case_conv2d(i):
    # (101, 0, 1, i) draws the same cases criterion 2 has always checked
    rng = np.random.default_rng((101, 0, 1, i))
    n, h, w, fh, fw, sh, sw, dh, dw, pads, oh, ow, act = _conv_geometry(rng)
    cin = int(rng.integers(1, 5))
    cout = int(rng.integers(1, 6))
    x = rng.uniform(-1, 1, (n, h, w, cin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (cout, fh, fw, cin)).astype(np.float32)
    bias = (rng.uniform(-0.5, 0.5, cout).astype(np.float32)
            if rng.random() < 0.5 else None)
    clamp = _clamp_for(act)
    return _run_conv2d(x, wt, bias, (sh, sw), (dh, dw), pads, clamp)


@lru_cache(maxsize=None)
def case_depthwise(i):
    rng = np.random.default_rng((102, i))
    n, h, w, fh, fw, sh, sw, dh, dw, pads, oh, ow, act = _conv_geometry(rng)
    cin = int(rng.integers(1, 4))
    mult = int(rng.integers(1, 3))
    cout = cin * mult
    x = rng.uniform(-1, 1, (n, h, w, cin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (1, fh, fw, cout)).astype(np.float32)
    bias = (rng.uniform(-0.5, 0.5, cout).astype(np.float32)
            if rng.random() < 0.5 else None)
    clamp = _clamp_for(act)
    kwargs = _conv_kwargs((h, w, cin), (oh, ow, cout),
                          fh, fw, sh, sw, dh, dw, pads, clamp)
    out = np.empty(n * oh * ow * cout, dtype=np.float32)
    run_kernel(
        "depthwise_conv2d_f32", [x.ravel().copy()],
        [wt.ravel().copy()] + ([bias] if bias is not None else []), [out],
        depth_multiplier=mult, **kwargs)
    want = oracles.depthwise_conv2d(x, wt, bias, (sh, sw), (dh, dw), pads,
                                    mult, clamp)
    return out.reshape(n, oh, ow, cout), want


def _pool_case(i, tag, kernel, oracle_fn):
    rng = np.random.default_rng((tag, i))
    n, h, w, fh, fw, sh, sw, _, _, pads, oh, ow, act = _conv_geometry(
        rng, with_dilation=False)
    c = int(rng.integers(1, 5))
    x = rng.uniform(-1, 1, (n, h, w, c)).astype(np.float32)
    clamp = _clamp_for(act)
    pt, pb, pl, pr = pads
    out = np.empty(n * oh * ow * c, dtype=np.float32)
    run_kernel(kernel, [x.ravel().copy()], [], [out],
               in_shape=(h, w, c), out_shape=(oh, ow, c),
               filter_h=fh, filter_w=fw, stride_h=sh, stride_w=sw,
               pad_before_h=pt, pad_after_h=pb, pad_before_w=pl,
               pad_after_w=pr, activation_min=clamp[0],
               activation_max=clamp[1])
    want = oracle_fn(x, (fh, fw), (sh, sw), pads, clamp)
    return out.reshape(n, oh, ow, c), want


@lru_cache(maxsize=None)
def case_avg_pool(i):
    return _pool_case(i, 103, "avg_pool2d_f32", oracles.avg_pool2d)


@lru_cache(maxsize=None)
def case_max_pool(i):
    return _pool_case(i, 104, "max_pool2d_f32", oracles.max_pool2d)


MAX_POOL_EDGE_KINDS = ("zero_ties", "negative_inf", "padded", "one_tap")


@lru_cache(maxsize=None)
def case_max_pool_edge(i):
    # the cells a maximum begun from the first two windows could get
    # wrong: windows whose maximum is +0.0 tied with -0.0 (the oracle's
    # strict > keeps the earlier cell's sign), -inf cells and whole -inf
    # windows, SAME padding around cells of -inf, -0.0 and below (a border
    # that won would show), and one-tap pools, strided. No clamp: a
    # clamp's zero is not the pool's.
    rng = np.random.default_rng((114, i))
    kind = MAX_POOL_EDGE_KINDS[i % len(MAX_POOL_EDGE_KINDS)]
    n = int(rng.integers(1, 3))
    h, w, c = (int(d) for d in rng.integers(3, 8, 3))
    if kind == "one_tap":
        fh = fw = 1
    else:
        fh, fw = (int(d) for d in rng.integers(2, 4, 2))
    sh, sw = (int(d) for d in rng.integers(1, 3, 2))
    if kind == "padded" or kind != "one_tap" and rng.random() < 0.5:
        pt, pb = _same_pads(h, fh, sh)
        pl, pr = _same_pads(w, fw, sw)
    else:
        pt = pb = pl = pr = 0
    oh = (h + pt + pb - fh) // sh + 1
    ow = (w + pl + pr - fw) // sw + 1
    values = {"zero_ties": [0.0, -0.0, -0.0, -1.0],
              "negative_inf": [-np.inf, -np.inf, -0.0, 0.0, -2.0],
              "padded": [-np.inf, -0.0, 0.0, -3.0],
              "one_tap": [-np.inf, -0.0, 0.0, 0.5]}[kind]
    x = rng.choice(np.float32(values), (n, h, w, c))
    out = np.empty(n * oh * ow * c, dtype=np.float32)
    run_kernel("max_pool2d_f32", [x.ravel().copy()], [], [out],
               in_shape=(h, w, c), out_shape=(oh, ow, c), filter_h=fh,
               filter_w=fw, stride_h=sh, stride_w=sw, pad_before_h=pt,
               pad_after_h=pb, pad_before_w=pl, pad_after_w=pr,
               activation_min=None, activation_max=None)
    want = oracles.max_pool2d(x, (fh, fw), (sh, sw), (pt, pb, pl, pr),
                              (None, None))
    return out.reshape(n, oh, ow, c), want


@lru_cache(maxsize=None)
def case_clamp_negative_zero(i):
    # a lower clamp at +0.0 of a -0.0 result: the oracle's clamp, like
    # TFLite's std::max(x, lo), replaces x only when x < lo, so -0.0 stays.
    # Even cases max pool windows of -0.0 (and below) under RELU or RELU6;
    # odd ones ADD two -0.0 (among other zeros and signs) under the same.
    rng = np.random.default_rng((115, i))
    clamp = _clamp_for(("RELU", "RELU6")[int(rng.integers(0, 2))])
    if i % 2:
        count = int(rng.integers(1, 64))
        a, b = (rng.choice(np.float32([-0.0, -0.0, 0.0, -0.5, 0.5]), count)
                for _ in range(2))
        out = np.empty(count, dtype=np.float32)
        run_kernel("add", [a.copy(), b.copy()], [], [out],
                   activation_min=clamp[0], activation_max=clamp[1])
        return out, oracles.add(a, b, clamp)
    n = int(rng.integers(1, 3))
    h, w, c = (int(d) for d in rng.integers(2, 6, 3))
    fh, fw = (int(d) for d in rng.integers(1, 3, 2))
    oh, ow = h - fh + 1, w - fw + 1
    x = rng.choice(np.float32([-0.0, -0.0, -0.0, -1.0]), (n, h, w, c))
    out = np.empty(n * oh * ow * c, dtype=np.float32)
    run_kernel("max_pool2d_f32", [x.ravel().copy()], [], [out],
               in_shape=(h, w, c), out_shape=(oh, ow, c), filter_h=fh,
               filter_w=fw, stride_h=1, stride_w=1, pad_before_h=0,
               pad_after_h=0, pad_before_w=0, pad_after_w=0,
               activation_min=clamp[0], activation_max=clamp[1])
    want = oracles.max_pool2d(x, (fh, fw), (1, 1), clamp=clamp)
    return out.reshape(n, oh, ow, c), want


def _run_fully_connected(x, wt, bias, clamp):
    """Reference FC kernel on flat buffers against the oracle.

    x: (batch, in); wt: (out, in), delivered transposed.
    """
    batch, nin = x.shape
    nout = wt.shape[0]
    out = np.empty(batch * nout, dtype=np.float32)
    run_kernel(
        "fully_connected_f32", [x.ravel().copy()],
        [np.ascontiguousarray(wt.T).ravel()]
        + ([bias] if bias is not None else []), [out],
        in_features=nin, out_features=nout,
        activation_min=clamp[0], activation_max=clamp[1])
    return out.reshape(batch, nout), oracles.fully_connected(x, wt, bias, clamp)


@lru_cache(maxsize=None)
def case_fully_connected(i):
    # (105, 0, 1, i) draws the same cases criterion 2 has always checked
    rng = np.random.default_rng((105, 0, 1, i))
    batch = int(rng.integers(1, 4))
    nin = int(rng.integers(1, 9))
    nout = int(rng.integers(1, 7))
    act = ("NONE", "RELU", "RELU6")[int(rng.integers(0, 3))]
    clamp = _clamp_for(act)
    x = rng.uniform(-1, 1, (batch, nin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (nout, nin)).astype(np.float32)
    bias = (rng.uniform(-0.5, 0.5, nout).astype(np.float32)
            if rng.random() < 0.5 else None)
    return _run_fully_connected(x, wt, bias, clamp)


def _with_negative_zeros(rng, a, share):
    """a with the given share of its elements (all for share=1) set to -0.0."""
    a = a.copy()
    a[rng.random(a.shape) < share] = np.float32(-0.0)
    return a


# Edge shapes and values where numpy could change the summation order of a
# vectorized reduction, or lose the sign of a zero: a single output lane
# (which numpy sums pairwise), a lone lane per batch row, inputs of -0.0,
# and reductions long enough to be split into chunks.
FC_EDGE_KINDS = ("single_lane", "single_lane_batched", "all_negative_zero",
                 "some_negative_zero", "large_k")


@lru_cache(maxsize=None)
@_at_case_budget
def case_fully_connected_edge(i):
    rng = np.random.default_rng((114, i))
    kind = FC_EDGE_KINDS[i % len(FC_EDGE_KINDS)]
    batch, nin, nout = 1, int(rng.integers(8, 41)), int(rng.integers(1, 7))
    if kind == "single_lane":
        nin, nout = int(rng.integers(8, 300)), 1
    elif kind == "single_lane_batched":
        batch, nout = int(rng.integers(2, 4)), 1
    elif kind == "large_k":
        # K x N past the case budget's product tensor: several chunks
        nin, nout = int(rng.integers(256, 321)), int(rng.integers(56, 65))
    x = rng.uniform(-1, 1, (batch, nin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (nout, nin)).astype(np.float32)
    bias = (rng.uniform(-0.5, 0.5, nout).astype(np.float32)
            if rng.random() < 0.5 else None)
    clamp = _clamp_for(("NONE", "RELU", "RELU6")[int(rng.integers(0, 3))])
    if kind == "all_negative_zero":
        # every product is -0.0; only a sum started from +0.0 ends at +0.0
        x, bias, clamp = _with_negative_zeros(rng, x, 1.0), None, (None, None)
        wt = np.abs(wt)
    elif kind == "some_negative_zero":
        x = _with_negative_zeros(rng, x, 0.5)
        wt = _with_negative_zeros(rng, wt, 0.3)
    return _run_fully_connected(x, wt, bias, clamp)


CONV_EDGE_KINDS = ("single_output", "single_output_batched",
                   "all_negative_zero", "some_negative_zero", "chunked_taps",
                   "row_blocks", "wide_cout")


@lru_cache(maxsize=None)
@_at_case_budget
def case_conv2d_edge(i):
    rng = np.random.default_rng((115, i))
    kind = CONV_EDGE_KINDS[i % len(CONV_EDGE_KINDS)]
    n, cout = 1, int(rng.integers(1, 5))
    f = int(rng.integers(2, 4))
    h = w = f + int(rng.integers(0, 4))
    cin = int(rng.integers(1, 4))
    if kind in ("single_output", "single_output_batched"):
        # the filter covers the whole image: one output element, 8+ taps
        h = w = f = int(rng.integers(3, 5))
        cout = 1
        n = 2 if kind == "single_output_batched" else 1
    elif kind == "chunked_taps":
        # 200 taps over 6 or 12 lanes of 16 channels overrun the case
        # budget: the taps go in chunks
        f, cin, cout = 5, 8, 16
        h, w = int(rng.integers(5, 7)), 10
    elif kind == "row_blocks":
        # a one-tap chunk of 42 output rows fills the case budget, so 43,
        # 45 or 47 rows go in two blocks, the last one overlapping the one
        # before by a row; 4 taps go 2 at a time
        f, cin, cout = 2, 1, 8
        h, w = 2 * int(rng.integers(22, 25)), 17
    elif kind == "wide_cout":
        # cout far above the taps: a one-tap chunk of one row's products,
        # with its leading and bias rows, nearly fills the case budget, so
        # each of the 3 rows is a block, and 4 taps go 2 at a time
        f, cin, cout = 1, 4, 64
        h, w = 3, 64
    x = rng.uniform(-1, 1, (n, h, w, cin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (cout, f, f, cin)).astype(np.float32)
    bias = (rng.uniform(-0.5, 0.5, cout).astype(np.float32)
            if rng.random() < 0.5 else None)
    clamp = _clamp_for(("NONE", "RELU", "RELU6")[int(rng.integers(0, 3))])
    if kind == "all_negative_zero":
        # every product is -0.0; only a sum started from +0.0 ends at +0.0
        x, bias, clamp = _with_negative_zeros(rng, x, 1.0), None, (None, None)
        wt = np.abs(wt)
    elif kind == "some_negative_zero":
        x = _with_negative_zeros(rng, x, 0.5)
        wt = _with_negative_zeros(rng, wt, 0.3)
    return _run_conv2d(x, wt, bias, (1, 1), (1, 1), (0, 0, 0, 0), clamp)


# FC calls whose samples outnumber their output features, so the samples
# are the lanes, products in (tap, out, sample) order: inputs of -0.0, a
# -0.0 bias on an all -0.0 product sum, +-inf biases, a lone output
# feature, and a batch in lane blocks that do not divide it
FC_LANE_KINDS = ("negative_zero", "negative_zero_bias", "inf_bias",
                 "single_feature", "lane_blocks")


@lru_cache(maxsize=None)
@_at_case_budget
def case_fully_connected_lanes(i):
    rng = np.random.default_rng((118, i))
    kind = FC_LANE_KINDS[i % len(FC_LANE_KINDS)]
    # 280 to 320 taps over 60 to 240 lanes overrun the case budget: the
    # taps go in chunks, summed in the contiguous accumulator
    batch, nout = int(rng.integers(20, 41)), int(rng.integers(3, 7))
    nin = int(rng.integers(280, 321))
    if kind == "single_feature":  # one chunk, straight into out.T
        nout = 1
    elif kind == "lane_blocks":
        # a one-tap chunk of 682 samples of 8 features fills the case
        # budget, so an odd batch of 683 to 1361 goes in two blocks, the
        # last one overlapping the one before it by a sample
        batch = 2 * int(rng.integers(342, 682)) - 1
        nin, nout = int(rng.integers(3, 5)), 8
    x = rng.uniform(-1, 1, (batch, nin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (nout, nin)).astype(np.float32)
    bias = (rng.uniform(-0.5, 0.5, nout).astype(np.float32)
            if rng.random() < 0.5 else None)
    clamp = _clamp_for(("NONE", "RELU", "RELU6")[int(rng.integers(0, 3))])
    if kind == "negative_zero":
        # every product is -0.0; only a sum started from +0.0 ends at +0.0
        x, bias, clamp = _with_negative_zeros(rng, x, 1.0), None, (None, None)
        wt = np.abs(wt)
    elif kind.endswith("_bias"):
        x, wt, bias, clamp = _tail_case(rng, kind, x, wt, nout)
    return _run_fully_connected(x, wt, bias, clamp)


# Fixed shapes for the bias, which ends each conv and FC sum as the tail row
# of the product tensor: one chunk of taps, taps split evenly into several
# chunks with the smaller remainder first, an exact multiple of the chunk
# size, a single output lane
# (alone and batched), and biases of -0.0 (on an all -0.0 product sum),
# +-inf and +-NaN over several chunks.
TAIL_KINDS = ("one_chunk", "remainder_first", "exact_multiple", "single_lane",
              "single_lane_batched", "negative_zero_bias", "inf_bias",
              "nan_bias")
# (batch, in, out) by kind, the special biases on the remainder_first shape:
# 64 output lanes leave room for 254 taps a chunk at the case budget, so
# 610 go in three chunks, as 202, 204, 204, and 510 as 170, 170, 170
FC_TAIL_SHAPES = {"one_chunk": (2, 40, 5), "remainder_first": (1, 610, 64),
                  "exact_multiple": (1, 510, 64), "single_lane": (1, 300, 1),
                  "single_lane_batched": (3, 40, 1)}
# (n, h, w, cin, f, cout) by kind, likewise: 200 taps over 192 lanes go as
# 66, 67, 67, and the exact multiple's 90 over 352 lanes as 30, 30, 30
CONV_TAIL_SHAPES = {"one_chunk": (2, 6, 6, 2, 3, 4),
                    "remainder_first": (1, 6, 10, 8, 5, 16),
                    "exact_multiple": (1, 3, 13, 10, 3, 32),
                    "single_lane": (1, 4, 4, 2, 4, 1),
                    "single_lane_batched": (2, 4, 4, 2, 4, 1)}


def _tail_case(rng, kind, x, wt, nout):
    """The inputs, bias and clamp of one tail-row case of kind `kind`."""
    bias = rng.uniform(-0.5, 0.5, nout).astype(np.float32)
    clamp = _clamp_for(("NONE", "RELU", "RELU6")[int(rng.integers(0, 3))])
    if kind == "negative_zero_bias":
        # every product is -0.0: their sum is +0.0, and +0.0 + -0.0 is +0.0
        x, wt = _with_negative_zeros(rng, x, 1.0), np.abs(wt)
        bias[:], clamp = np.float32(-0.0), (None, None)
    elif kind == "inf_bias":
        bias[0::3], bias[1::3] = np.inf, -np.inf
    elif kind == "nan_bias":
        bias[0::3], bias[1::3] = np.nan, -np.float32(np.nan)
    return x, wt, bias, clamp


@lru_cache(maxsize=None)
@_at_case_budget
def case_fully_connected_tail(i):
    rng = np.random.default_rng((116, i))
    kind = TAIL_KINDS[i % len(TAIL_KINDS)]
    batch, nin, nout = FC_TAIL_SHAPES.get(kind,
                                          FC_TAIL_SHAPES["remainder_first"])
    x = rng.uniform(-1, 1, (batch, nin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (nout, nin)).astype(np.float32)
    return _run_fully_connected(*_tail_case(rng, kind, x, wt, nout))


@lru_cache(maxsize=None)
@_at_case_budget
def case_conv2d_tail(i):
    rng = np.random.default_rng((117, i))
    kind = TAIL_KINDS[i % len(TAIL_KINDS)]
    n, h, w, cin, f, cout = CONV_TAIL_SHAPES.get(
        kind, CONV_TAIL_SHAPES["remainder_first"])
    x = rng.uniform(-1, 1, (n, h, w, cin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (cout, f, f, cin)).astype(np.float32)
    x, wt, bias, clamp = _tail_case(rng, kind, x, wt, cout)
    return _run_conv2d(x, wt, bias, (1, 1), (1, 1), (0, 0, 0, 0), clamp)


@lru_cache(maxsize=None)
def case_softmax(i):
    rng = np.random.default_rng((106, i))
    rows = int(rng.integers(1, 5))
    classes = int(rng.integers(2, 11))
    beta = (1.0, 0.5, 2.0)[int(rng.integers(0, 3))]
    x = rng.uniform(-4, 4, (rows, classes)).astype(np.float32)
    out = np.empty(rows * classes, dtype=np.float32)
    run_kernel("softmax_f32", [x.ravel().copy()], [], [out],
               in_shape=(rows, classes), beta=beta)
    return out.reshape(rows, classes), oracles.softmax(x, beta)


@lru_cache(maxsize=None)
def case_softmax_rows(i):
    # many rows, so the classes are summed over a contiguous (class, row)
    # buffer; every other row holds one of +-inf, +-0.0 or +-NaN
    rng = np.random.default_rng((119, i))
    rows = int(rng.integers(5, 61))
    classes = int(rng.integers(2, 11))
    beta = (1.0, 0.5, 2.0)[int(rng.integers(0, 3))]
    x = rng.uniform(-4, 4, (rows, classes)).astype(np.float32)
    specials = np.float32([np.inf, -np.inf, 0.0, -0.0, np.nan,
                           -np.float32(np.nan)])
    for r in range(0, rows, 2):
        x[r, rng.integers(0, classes)] = rng.choice(specials)
    out = np.empty(rows * classes, dtype=np.float32)
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN we want
        run_kernel("softmax_f32", [x.ravel().copy()], [], [out],
                   in_shape=(1, classes), beta=beta)
        want = oracles.softmax(x, beta)
    return out.reshape(rows, classes), want


@lru_cache(maxsize=None)
def case_relu(i):
    rng = np.random.default_rng((107, i))
    count = int(rng.integers(1, 64))
    x = rng.uniform(-1, 1, count).astype(np.float32)
    out = np.empty(count, dtype=np.float32)
    run_kernel("relu_f32", [x.copy()], [], [out])
    return out, oracles.relu(x)


@lru_cache(maxsize=None)
def case_add_f32(i):
    rng = np.random.default_rng((108, i))
    count = int(rng.integers(1, 64))
    act = ("NONE", "RELU", "RELU6")[int(rng.integers(0, 3))]
    clamp = _clamp_for(act)
    a = rng.uniform(-4, 4, count).astype(np.float32)
    b = rng.uniform(-4, 4, count).astype(np.float32)
    out = np.empty(count, dtype=np.float32)
    run_kernel("add", [a.copy(), b.copy()], [], [out],
               activation_min=clamp[0], activation_max=clamp[1])
    return out, oracles.add(a, b, clamp)


@lru_cache(maxsize=None)
def case_add_i32(i):
    rng = np.random.default_rng((109, i))
    count = int(rng.integers(1, 64))
    a = rng.integers(-1000, 1000, count, dtype=np.int32)
    b = rng.integers(-1000, 1000, count, dtype=np.int32)
    out = np.empty(count, dtype=np.int32)
    run_kernel("add", [a.copy(), b.copy()], [], [out],
               activation_min=None, activation_max=None)
    return out, a + b


@lru_cache(maxsize=None)
def case_concat(i):
    rng = np.random.default_rng((111, i))
    rank = int(rng.integers(1, 4))
    axis = int(rng.integers(0, rank))
    base = [int(rng.integers(1, 4)) for _ in range(rank)]
    k = int(rng.integers(2, 4))
    parts = []
    shapes = []
    for _ in range(k):
        shape = list(base)
        shape[axis] = int(rng.integers(1, 4))
        shapes.append(tuple(shape))
        parts.append(rng.uniform(-1, 1, shape).astype(np.float32))
    out_shape = list(base)
    out_shape[axis] = sum(s[axis] for s in shapes)
    out_shape = tuple(out_shape)
    weight_slots = tuple(s for s in range(k) if rng.random() < 0.3)
    ins = [parts[s].ravel().copy() for s in range(k) if s not in weight_slots]
    ws = [parts[s].ravel().copy() for s in range(k) if s in weight_slots]
    total = 1
    for d in out_shape:
        total *= d
    out = np.empty(total, dtype=np.float32)
    run_kernel("concat_f32", ins, ws, [out], axis=axis,
               in_shapes=tuple(shapes), out_shape=out_shape,
               weight_slots=weight_slots)
    return out.reshape(out_shape), oracles.concat(parts, axis)


@lru_cache(maxsize=None)
def case_pad(i):
    rng = np.random.default_rng((112, i))
    rank = int(rng.integers(1, 5))
    in_shape = tuple(int(rng.integers(1, 4)) for _ in range(rank))
    paddings = tuple((int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                     for _ in range(rank))
    out_shape = tuple(d + b + a for d, (b, a) in zip(in_shape, paddings))
    x = rng.uniform(-1, 1, in_shape).astype(np.float32)
    total = 1
    for d in out_shape:
        total *= d
    out = np.empty(total, dtype=np.float32)
    run_kernel("pad_f32", [x.ravel().copy()], [], [out],
               in_shape=in_shape[1:], out_shape=out_shape[1:],
               paddings=paddings)
    return out.reshape(out_shape), oracles.pad(x, paddings)


@lru_cache(maxsize=None)
def case_scale_shift(i):
    rng = np.random.default_rng((113, i))
    count = int(rng.integers(1, 64))
    scale = float(rng.uniform(-2, 2))
    shift = float(rng.uniform(-1, 1))
    x = rng.uniform(-1, 1, count).astype(np.float32)
    out = np.empty(count, dtype=np.float32)
    run_kernel("scale_shift_f32", [x.copy()], [], [out], scale=scale,
               shift=shift)
    return out, oracles.scale_shift(x, scale, shift)


# each entry is a cached case function; __wrapped__ reruns a case uncached
REFERENCE_CASES = {
    "conv2d": case_conv2d,
    "depthwise_conv2d": case_depthwise,
    "average_pool_2d": case_avg_pool,
    "max_pool_2d": case_max_pool,
    "max_pool_2d_edge": case_max_pool_edge,
    "clamp_negative_zero": case_clamp_negative_zero,
    "fully_connected":case_fully_connected,
    "fully_connected_edge": case_fully_connected_edge,
    "conv2d_edge": case_conv2d_edge,
    "fully_connected_tail": case_fully_connected_tail,
    "fully_connected_lanes": case_fully_connected_lanes,
    "conv2d_tail": case_conv2d_tail,
    "softmax": case_softmax,
    "softmax_rows": case_softmax_rows,
    "relu": case_relu,
    "add_f32": case_add_f32,
    "add_i32": case_add_i32,
    "concatenation": case_concat,
    "pad": case_pad,
    "scale_shift": case_scale_shift,
}
