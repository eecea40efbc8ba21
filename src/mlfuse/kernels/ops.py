"""Kernel template bodies shared by the runtime and generated programs.

Every kernel comes in two steps. The prepare step,
<template>_prep(inputs, weights, outputs, **params), runs once per operator:
it reshapes the flat buffers into views, builds strided windows, plans the
reduction chunks and allocates scratch, and returns the kernel's state as a
tuple. The run step, <template>(*state), only issues the ufunc calls. A
state binds views of the activation buffers, never copies of them, so one
prepared state computes on whatever those buffers hold when it runs. Where
a kernel needs its input in another layout (a padded border), the state
holds a prepared buffer whose border is filled once, and the run step
copies in the interior.

Every function here is a self-contained template: it may use numpy and the
helpers below, nothing else. The emitter copies function source verbatim
into generated programs, so the same bytes execute on both paths.

Float32 discipline: every reduction is summed in one fixed order, term by
term onto +0.0, so results are bit-identical to a naive scalar loop nest.
Filter taps go in (kh, kw, ci) order, input features in index order, softmax
classes in class order, and a bias is the last term of its sum.

Conv and FC reductions are vectorized without giving that order up
(_sum_products). The terms land in a product tensor whose reduced axis is
the outermost one, behind a leading row of +0.0 (so the result does not
depend on whether numpy starts a reduction from its identity or from the
first row) and ahead of a trailing row that holds the bias, or +0.0 when
there is none (a sum begun at +0.0 is never -0.0, so adding +0.0 changes
no bit). One np.add.reduce over that axis adds whole rows in index order.
This holds only while the reduced axis is outermost and at least two
output lanes run beside it: numpy sums a lone lane pairwise, so a
single-lane reduction runs beside a twin lane. matmul, dot, einsum and
np.sum reorder the sum and are not used for reductions. Softmax sums its
classes with np.add.accumulate, which is sequential by definition; its
first element is e[0] itself, as +0.0 + e[0] would be, since exp never
returns -0.0. Depthwise conv and pooling still loop over their reduction
axes, with vectorization over independent output lanes only.

Weight buffers arrive flat, and may be read-only. Each kernel reshapes them
according to the data layout its body was written against; callers are
responsible for delivering payload bytes in that layout.
"""

import numpy as np


def _apply_clamp(buf, lo, hi):
    if lo is not None:
        np.maximum(buf, np.float32(lo), out=buf)
    if hi is not None:
        np.minimum(buf, np.float32(hi), out=buf)


def _pad_nhwc_prep(x, ph0, ph1, pw0, pw1, value):
    # (x, None) when nothing is padded; else a buffer whose border holds
    # value for good, and the (interior, x) pair each run copies
    if ph0 == 0 and ph1 == 0 and pw0 == 0 and pw1 == 0:
        return x, None
    n, h, w, c = x.shape
    xp = np.full((n, h + ph0 + ph1, w + pw0 + pw1, c), value, np.float32)
    return xp, (xp[:, ph0:ph0 + h, pw0:pw0 + w], x)


def _sum_products_prep(lhs, rhs, acc, tail):
    # acc = ((((0 + lhs[0]*rhs[0]) + lhs[1]*rhs[1]) + ...) + tail), where
    # lhs[k] * rhs[k] and tail broadcast to acc's shape. Taps go through a
    # product tensor of at most 64 KiB (or two of acc's rows, if more) plus
    # its tail row, in chunks, each a view of the tensor's leading rows;
    # each chunk after the first starts from the running sum as its row 0,
    # and a run leaves row 0 at +0.0. The short remainder chunk goes first,
    # so only the last chunk, always a full one, reaches the tail row, and
    # no multiply writes over it. The state leaves acc out: the run step
    # takes it after the state, so reductions of one shape into other
    # accumulators can share the state.
    lanes = twin = acc
    if acc.size == 1:
        # numpy would sum a lone lane pairwise: reduce a twin pair instead,
        # both lanes computed from the same terms
        lanes = twin = np.empty(2, np.float32)
        lhs = lhs.reshape(-1, 1)
        rhs = rhs.reshape(-1, 1)
    k = len(lhs)
    step = max(1, 65536 // (4 * lanes.size) - 1)
    terms = np.zeros((min(step, k) + 2,) + lanes.shape, np.float32)
    terms[-1] = tail
    chunks = []
    k0 = 0
    for k1 in range((k - 1) % step + 1, k + 1, step):
        part = terms[:k1 - k0 + 1 + (k1 == k)]
        chunks.append((lhs[k0:k1], rhs[k0:k1], terms[1:k1 - k0 + 1], part))
        k0 = k1
    return chunks, None if twin is acc else twin


def _sum_products(chunks, twin, acc):
    lanes = acc if twin is None else twin
    for k, (lhs, rhs, prod, part) in enumerate(chunks):
        if k:
            part[0] = lanes
        np.multiply(lhs, rhs, out=prod)
        np.add.reduce(part, axis=0, out=lanes)
    if k:  # more than one chunk: row 0 holds a sum, not +0.0
        part[0] = 0.0
    if twin is not None:
        acc[...] = twin[0]


def _pool_windows_prep(x, out, filter_h, filter_w, stride_h, stride_w):
    # per batch, the output plane and every tap's input window
    oh, ow = out.shape[1], out.shape[2]
    return tuple(
        (out[b], tuple(x[b, kh:kh + (oh - 1) * stride_h + 1:stride_h,
                         kw:kw + (ow - 1) * stride_w + 1:stride_w]
                       for kh in range(filter_h) for kw in range(filter_w)))
        for b in range(len(out)))


def conv2d_f32_prep(inputs, weights, outputs, *, in_shape, out_shape,
                    filter_h, filter_w, stride_h, stride_w, dilation_h,
                    dilation_w, pad_before_h, pad_after_h, pad_before_w,
                    pad_after_w, activation_min, activation_max):
    # filter buffer is read in height/width/in/out order
    n, h, w, cin = in_shape
    oh, ow, cout = out_shape[1], out_shape[2], out_shape[3]
    x, pad = _pad_nhwc_prep(inputs[0].reshape(in_shape), pad_before_h,
                            pad_after_h, pad_before_w, pad_after_w, 0.0)
    taps = filter_h * filter_w * cin
    wk = weights[0].reshape(taps, cout, 1)
    out = outputs[0].reshape(n, oh, ow, cout)
    # blocks of whole output rows whose product tensor, its bias row aside,
    # fits in 64 KiB; when one row's does not, as many rows as keep both
    # the gathered patches and a two-row chunk of products within it, with
    # the taps chunked
    rows = (min(oh, 65536 // (4 * (taps + 1) * cout * ow))
            or max(1, min(oh, 65536 // (4 * taps * ow),
                          65536 // (8 * cout * ow))))
    cols = np.empty((filter_h, filter_w, cin, rows, ow), dtype=np.float32)
    # every (kh, kw, ci) tap's strided input plane, as one view
    sn, sy, sx, sc = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, filter_h, filter_w, cin, oh, ow),
        (sn, dilation_h * sy, dilation_w * sx, sc, stride_h * sy,
         stride_w * sx))
    # Every block gathers into cols and reduces with one shared state. The
    # last block ends at the last row, so it overlaps the one before it
    # when rows does not divide oh; the overlapped rows come out the same.
    sums = _sum_products_prep(wk, cols.reshape(taps, 1, rows * ow),
                              out[0, :rows].reshape(-1, cout).T,
                              weights[1][:, None] if len(weights) > 1
                              else 0.0)
    blocks = tuple(
        (cols, win[b, :, :, :, r0:r0 + rows],
         sums + (out[b, r0:r0 + rows].reshape(-1, cout).T,))
        for b in range(n)
        for r0 in [*range(0, oh - rows, rows), oh - rows])
    return pad, blocks, (out, activation_min, activation_max)


def conv2d_f32(pad, blocks, clamp):
    if pad:
        np.copyto(*pad)
    for blk, src, sums in blocks:
        np.copyto(blk, src)
        _sum_products(*sums)
    _apply_clamp(*clamp)


def depthwise_conv2d_f32_prep(inputs, weights, outputs, *, in_shape,
                              out_shape, filter_h, filter_w, stride_h,
                              stride_w, dilation_h, dilation_w, pad_before_h,
                              pad_after_h, pad_before_w, pad_after_w,
                              depth_multiplier, activation_min,
                              activation_max):
    # output channel c * depth_multiplier + m reads input channel c: the
    # output and filter are viewed as (..., cin, depth_multiplier) and each
    # input window broadcasts over the last axis, so no input is repeated
    n, h, w, cin = in_shape
    oh, ow = out_shape[1], out_shape[2]
    x, pad = _pad_nhwc_prep(inputs[0].reshape(in_shape), pad_before_h,
                            pad_after_h, pad_before_w, pad_after_w, 0.0)
    wk = weights[0].reshape(filter_h, filter_w, cin, depth_multiplier)
    out = outputs[0].reshape(n, oh, ow, cin, depth_multiplier)
    batches = tuple(
        (out[b], tuple(
            (x[b, kh * dilation_h:
               kh * dilation_h + (oh - 1) * stride_h + 1:stride_h,
               kw * dilation_w:
               kw * dilation_w + (ow - 1) * stride_w + 1:stride_w, :, None],
             wk[kh, kw])
            for kh in range(filter_h) for kw in range(filter_w)))
        for b in range(n))
    bias = (weights[1].reshape(cin, depth_multiplier) if len(weights) > 1
            else None)
    return (pad, batches, np.empty(out.shape[1:], np.float32), bias,
            (out, activation_min, activation_max))


def depthwise_conv2d_f32(pad, batches, prod, bias, clamp):
    if pad:
        np.copyto(*pad)
    for ob, taps in batches:
        ob.fill(0.0)
        for patch, wk in taps:
            np.multiply(patch, wk, out=prod)
            ob += prod
        if bias is not None:
            ob += bias
    _apply_clamp(*clamp)


def avg_pool2d_f32_prep(inputs, weights, outputs, *, in_shape, out_shape,
                        filter_h, filter_w, stride_h, stride_w, pad_before_h,
                        pad_after_h, pad_before_w, pad_after_w,
                        activation_min, activation_max):
    n, h, w, c = in_shape
    oh, ow = out_shape[1], out_shape[2]
    x, pad = _pad_nhwc_prep(inputs[0].reshape(in_shape), pad_before_h,
                            pad_after_h, pad_before_w, pad_after_w, 0.0)
    # padded cells contribute zero to the sum and are excluded from the count
    mask = np.pad(np.ones((h, w), dtype=np.float32),
                  ((pad_before_h, pad_after_h), (pad_before_w, pad_after_w)))
    cnt = np.zeros((oh, ow), dtype=np.float32)
    for kh in range(filter_h):
        for kw in range(filter_w):
            cnt += mask[kh:kh + (oh - 1) * stride_h + 1:stride_h,
                        kw:kw + (ow - 1) * stride_w + 1:stride_w]
    out = outputs[0].reshape(n, oh, ow, c)
    return (pad, _pool_windows_prep(x, out, filter_h, filter_w, stride_h,
                                    stride_w),
            cnt[:, :, None],
            (out, activation_min, activation_max))


def avg_pool2d_f32(pad, batches, cnt, clamp):
    if pad:
        np.copyto(*pad)
    for ob, wins in batches:
        ob.fill(0.0)
        for win in wins:
            ob += win
        np.divide(ob, cnt, out=ob)
    _apply_clamp(*clamp)


def max_pool2d_f32_prep(inputs, weights, outputs, *, in_shape, out_shape,
                        filter_h, filter_w, stride_h, stride_w, pad_before_h,
                        pad_after_h, pad_before_w, pad_after_w,
                        activation_min, activation_max):
    n, h, w, c = in_shape
    oh, ow = out_shape[1], out_shape[2]
    x, pad = _pad_nhwc_prep(inputs[0].reshape(in_shape), pad_before_h,
                            pad_after_h, pad_before_w, pad_after_w,
                            float("-inf"))
    out = outputs[0].reshape(n, oh, ow, c)
    return (pad, _pool_windows_prep(x, out, filter_h, filter_w, stride_h,
                                    stride_w),
            (out, activation_min, activation_max))


def max_pool2d_f32(pad, batches, clamp):
    if pad:
        np.copyto(*pad)
    for ob, wins in batches:
        ob.fill(float("-inf"))
        for win in wins:
            np.maximum(ob, win, out=ob)
    _apply_clamp(*clamp)


def fully_connected_f32_prep(inputs, weights, outputs, *, batch, in_features,
                             out_features, activation_min, activation_max):
    # weight buffer is read with input features as the major axis
    x = inputs[0].reshape(batch, in_features)
    out = outputs[0].reshape(batch, out_features)
    sums = _sum_products_prep(
        x.T[:, :, None], weights[0].reshape(in_features, 1, out_features), out,
        weights[1] if len(weights) > 1 else 0.0)
    return sums + (out,), (out, activation_min, activation_max)


def fully_connected_f32(sums, clamp):
    _sum_products(*sums)
    _apply_clamp(*clamp)


def softmax_f32_prep(inputs, weights, outputs, *, in_shape, beta):
    # one (input row, output row) pair per row, the row of exponentials and
    # the row of their running sums; beta 1.0 scales by nothing, bit for bit
    c = in_shape[-1]
    return (tuple(zip(inputs[0].reshape(-1, c), outputs[0].reshape(-1, c))),
            np.empty(c, np.float32), np.empty(c, np.float32),
            None if beta == 1.0 else np.float32(beta))


def softmax_f32(rows, e, sums, beta):
    for xr, outr in rows:
        np.subtract(xr, np.maximum.reduce(xr), out=e)
        if beta is not None:
            np.multiply(e, beta, out=e)
        np.exp(e, out=e)
        np.add.accumulate(e, out=sums)
        np.divide(e, sums[-1], out=outr)


def relu_f32_prep(inputs, weights, outputs, *, count):
    return inputs[0].reshape(-1), np.float32(0.0), outputs[0].reshape(-1)


def relu_f32(x, zero, out):
    np.maximum(x, zero, out=out)


def reshape_copy_prep(inputs, weights, outputs, *, count, out_shape):
    return outputs[0].reshape(-1), inputs[0].reshape(-1)


def reshape_copy(dst, src):
    np.copyto(dst, src)


def add_f32_prep(inputs, weights, outputs, *, count, activation_min,
                 activation_max):
    a, b = list(inputs) + list(weights)
    return (a.reshape(-1), b.reshape(-1), outputs[0].reshape(-1),
            (outputs[0], activation_min, activation_max))


def add_f32(a, b, out, clamp):
    np.add(a, b, out=out)
    _apply_clamp(*clamp)


def add_i32_prep(inputs, weights, outputs, *, count, activation_min,
                 activation_max):
    a, b = list(inputs) + list(weights)
    return a.reshape(-1), b.reshape(-1), outputs[0].reshape(-1)


def add_i32(a, b, out):
    np.add(a, b, out=out)


def concat_f32_prep(inputs, weights, outputs, *, axis, in_shapes, out_shape,
                    weight_slots):
    # one (slice of the output, source) pair per part, in part order
    out = outputs[0].reshape(out_shape)
    ai = iter(inputs)
    wi = iter(weights)
    copies = []
    pos = 0
    for k, shape in enumerate(in_shapes):
        src = next(wi) if k in weight_slots else next(ai)
        sl = [slice(None)] * len(out_shape)
        sl[axis] = slice(pos, pos + shape[axis])
        copies.append((out[tuple(sl)], src.reshape(shape)))
        pos += shape[axis]
    return (tuple(copies),)


def concat_f32(copies):
    for dst, src in copies:
        np.copyto(dst, src)


def pad_f32_prep(inputs, weights, outputs, *, in_shape, out_shape, paddings):
    out = outputs[0].reshape(out_shape)
    region = tuple(slice(b, b + d) for (b, _), d in zip(paddings, in_shape))
    return out, out[region], inputs[0].reshape(in_shape)


def pad_f32(out, interior, x):
    out.fill(0.0)
    np.copyto(interior, x)


def scale_shift_f32_prep(inputs, weights, outputs, *, count, scale, shift):
    return (inputs[0].reshape(-1), np.float32(scale), np.float32(shift),
            outputs[0].reshape(-1))


def scale_shift_f32(x, scale, shift, out):
    np.multiply(x, scale, out=out)
    np.add(out, shift, out=out)


HELPERS = {fn.__name__: fn for fn in (
    _apply_clamp, _pad_nhwc_prep, _sum_products_prep,
    _sum_products, _pool_windows_prep,
)}

# run steps, by template id
KERNELS = {
    fn.__name__: fn for fn in (
        conv2d_f32, depthwise_conv2d_f32, avg_pool2d_f32, max_pool2d_f32,
        fully_connected_f32, softmax_f32, relu_f32, reshape_copy, add_f32,
        add_i32, concat_f32, pad_f32, scale_shift_f32,
    )
}

# prepare steps, by template id
PREPS = {name: globals()[name + "_prep"] for name in KERNELS}


def _helper_deps(*fns) -> tuple:
    # every helper the bodies name, nested functions and helpers' own calls
    # included, for the emitter's dependency closure
    deps = set()
    codes = [fn.__code__ for fn in fns]
    while codes:
        code = codes.pop()
        for name in (set(code.co_names) & HELPERS.keys()) - deps:
            deps.add(name)
            codes.append(HELPERS[name].__code__)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return tuple(sorted(deps))


HELPER_DEPS = {name: _helper_deps(PREPS[name], fn)
               for name, fn in KERNELS.items()}
