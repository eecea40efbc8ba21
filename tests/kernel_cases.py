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
from functools import lru_cache

import numpy as np

from mlfuse.kernels import ops

import oracles

N_CASES = 30


def run_kernel(name, inputs, weights, outputs, **params):
    """Prepare kernel `name` on the given flat buffers, then run it once."""
    ops.KERNELS[name](*ops.PREPS[name](inputs, weights, outputs, **params))


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
    kwargs = _conv_kwargs((n, h, w, cin), (n, oh, ow, cout),
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
    kwargs = _conv_kwargs((n, h, w, cin), (n, oh, ow, cout),
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
               in_shape=(n, h, w, c), out_shape=(n, oh, ow, c),
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
        batch=batch, in_features=nin, out_features=nout,
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
def case_fully_connected_edge(i):
    rng = np.random.default_rng((114, i))
    kind = FC_EDGE_KINDS[i % len(FC_EDGE_KINDS)]
    batch, nin, nout = 1, int(rng.integers(8, 41)), int(rng.integers(1, 7))
    if kind == "single_lane":
        nin, nout = int(rng.integers(8, 300)), 1
    elif kind == "single_lane_batched":
        batch, nout = int(rng.integers(2, 4)), 1
    elif kind == "large_k":
        # K x N past the kernel's 64 KiB product tensor: several chunks
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
        # one output row's products exceed 64 KiB: the taps go in chunks
        f, cin, cout = 5, 8, 16
        h, w = int(rng.integers(5, 7)), 10
    elif kind == "row_blocks":
        # a product tensor of 20 or 25 output rows fills 64 KiB: several
        # blocks, the last one overlapping the one before
        f, cin, cout = 3, 1, int(rng.integers(4, 6))
        h, w = int(rng.integers(28, 34)), 18
    elif kind == "wide_cout":
        # cout far above the taps: one row's products exceed 64 KiB, and
        # two-row chunks of them cap the block at 2 of 3 rows
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


# Fixed shapes for the bias, which ends each conv and FC sum as the tail row
# of the product tensor: one chunk of taps, several chunks with the short
# remainder first, an exact multiple of the chunk size, a single output lane
# (alone and batched), and biases of -0.0 (on an all -0.0 product sum),
# +-inf and +-NaN over several chunks.
TAIL_KINDS = ("one_chunk", "remainder_first", "exact_multiple", "single_lane",
              "single_lane_batched", "negative_zero_bias", "inf_bias",
              "nan_bias")
# (batch, in, out) by kind, the special biases on the remainder_first shape:
# 64 output lanes take the taps 255 at a time, so 610 go as 100, 255, 255
FC_TAIL_SHAPES = {"one_chunk": (2, 40, 5), "remainder_first": (1, 610, 64),
                  "exact_multiple": (1, 510, 64), "single_lane": (1, 300, 1),
                  "single_lane_batched": (3, 40, 1)}
# (n, h, w, cin, f, cout) by kind, likewise: 200 taps go as 32, 84, 84, and
# the exact multiple's 90 as 45, 45
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
def case_fully_connected_tail(i):
    rng = np.random.default_rng((116, i))
    kind = TAIL_KINDS[i % len(TAIL_KINDS)]
    batch, nin, nout = FC_TAIL_SHAPES.get(kind,
                                          FC_TAIL_SHAPES["remainder_first"])
    x = rng.uniform(-1, 1, (batch, nin)).astype(np.float32)
    wt = rng.uniform(-1, 1, (nout, nin)).astype(np.float32)
    return _run_fully_connected(*_tail_case(rng, kind, x, wt, nout))


@lru_cache(maxsize=None)
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
def case_relu(i):
    rng = np.random.default_rng((107, i))
    count = int(rng.integers(1, 64))
    x = rng.uniform(-1, 1, count).astype(np.float32)
    out = np.empty(count, dtype=np.float32)
    run_kernel("relu_f32", [x.copy()], [], [out], count=count)
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
    run_kernel("add_f32", [a.copy(), b.copy()], [], [out], count=count,
               activation_min=clamp[0], activation_max=clamp[1])
    return out, oracles.add(a, b, clamp)


@lru_cache(maxsize=None)
def case_add_i32(i):
    rng = np.random.default_rng((109, i))
    count = int(rng.integers(1, 64))
    a = rng.integers(-1000, 1000, count, dtype=np.int32)
    b = rng.integers(-1000, 1000, count, dtype=np.int32)
    out = np.empty(count, dtype=np.int32)
    run_kernel("add_i32", [a.copy(), b.copy()], [], [out], count=count,
               activation_min=None, activation_max=None)
    return out, a + b


@lru_cache(maxsize=None)
def case_reshape(i):
    rng = np.random.default_rng((110, i))
    count = int(rng.integers(1, 64))
    if i % 2 == 0:
        x = rng.uniform(-1, 1, count).astype(np.float32)
        out = np.empty(count, dtype=np.float32)
    else:
        x = rng.integers(-50, 50, count, dtype=np.int32)
        out = np.empty(count, dtype=np.int32)
    run_kernel("reshape_copy", [x.copy()], [], [out], count=count,
               out_shape=(count,))
    return out, x.copy()


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
    run_kernel("pad_f32", [x.ravel().copy()], [], [out], in_shape=in_shape,
               out_shape=out_shape, paddings=paddings)
    return out.reshape(out_shape), oracles.pad(x, paddings)


@lru_cache(maxsize=None)
def case_scale_shift(i):
    rng = np.random.default_rng((113, i))
    count = int(rng.integers(1, 64))
    scale = float(rng.uniform(-2, 2))
    shift = float(rng.uniform(-1, 1))
    x = rng.uniform(-1, 1, count).astype(np.float32)
    out = np.empty(count, dtype=np.float32)
    run_kernel("scale_shift_f32", [x.copy()], [], [out], count=count,
               scale=scale, shift=shift)
    return out, oracles.scale_shift(x, scale, shift)


# each entry is a cached case function; __wrapped__ reruns a case uncached
REFERENCE_CASES = {
    "conv2d": case_conv2d,
    "depthwise_conv2d": case_depthwise,
    "average_pool_2d": case_avg_pool,
    "max_pool_2d": case_max_pool,
    "fully_connected": case_fully_connected,
    "fully_connected_edge": case_fully_connected_edge,
    "conv2d_edge": case_conv2d_edge,
    "fully_connected_tail": case_fully_connected_tail,
    "conv2d_tail": case_conv2d_tail,
    "softmax": case_softmax,
    "relu": case_relu,
    "add_f32": case_add_f32,
    "add_i32": case_add_i32,
    "reshape": case_reshape,
    "concatenation": case_concat,
    "pad": case_pad,
    "scale_shift": case_scale_shift,
}
