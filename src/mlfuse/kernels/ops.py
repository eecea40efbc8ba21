"""Kernel template bodies shared by the runtime and generated programs.

Every function here is a self-contained template: it may use numpy and the
helpers below, nothing else. The emitter copies function source verbatim
into generated programs, so the same bytes execute on both paths.

Float32 discipline: every reduction is summed in one fixed order, term by
term onto +0.0, so results are bit-identical to a naive scalar loop nest.
Filter taps go in (kh, kw, ci) order, input features in index order, softmax
classes in class order.

Conv and FC reductions are vectorized without giving that order up
(_sum_products). The terms land in a product tensor whose reduced axis is
the outermost one, behind a leading row of +0.0 (so the result does not
depend on whether numpy starts a reduction from its identity or from the
first row), and one np.add.reduce over that axis adds whole rows in index
order. This holds only while the reduced axis is outermost and at least two
output lanes run beside it: numpy sums a lone lane pairwise, so a
single-lane reduction is padded to two lanes first. matmul, dot, einsum and
np.sum reorder the sum and are not used for reductions. Depthwise conv,
pooling, softmax and the tiled variants still loop over their reduction
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


def _pad_nhwc(x, ph0, ph1, pw0, pw1, value):
    if ph0 == 0 and ph1 == 0 and pw0 == 0 and pw1 == 0:
        return x
    return np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)),
                  constant_values=value)


def _sum_products(lhs, rhs, acc):
    # acc = (((0 + lhs[0]*rhs[0]) + lhs[1]*rhs[1]) + ...), where lhs[k] *
    # rhs[k] broadcasts to acc's shape. Taps go through a product tensor of
    # at most 64 KiB (or two of acc's rows, if more) in chunks, each
    # starting from the running sum as its row 0.
    if acc.size == 1:
        # numpy would sum a lone lane pairwise: reduce a twin pair instead
        twin = np.empty(2, np.float32)
        _sum_products(lhs.reshape(-1, 1).repeat(2, 1), rhs.reshape(-1, 1),
                      twin)
        acc[...] = twin[0]
        return
    step = max(1, 65536 // (4 * acc.size) - 1)
    terms = np.zeros((min(step, len(lhs)) + 1,) + acc.shape, np.float32)
    for k0 in range(0, len(lhs), step):
        part = terms[:min(step, len(lhs) - k0) + 1]
        np.multiply(lhs[k0:k0 + step], rhs[k0:k0 + step], out=part[1:])
        np.add.reduce(part, axis=0, out=acc)
        terms[0] = acc


def conv2d_f32(inputs, weights, outputs, *, in_shape, out_shape, filter_h,
               filter_w, stride_h, stride_w, dilation_h, dilation_w,
               pad_before_h, pad_after_h, pad_before_w, pad_after_w,
               activation_min, activation_max):
    # filter buffer is read in height/width/in/out order
    n, h, w, cin = in_shape
    oh, ow, cout = out_shape[1], out_shape[2], out_shape[3]
    x = _pad_nhwc(inputs[0].reshape(in_shape), pad_before_h, pad_after_h,
                  pad_before_w, pad_after_w, 0.0)
    taps = filter_h * filter_w * cin
    wk = weights[0].reshape(taps, cout, 1)
    out = outputs[0].reshape(n, oh, ow, cout)
    # blocks of whole output rows whose product tensor fits in 64 KiB; when
    # one row's does not, as many rows as keep both the gathered patches and
    # a two-row chunk of products within it, with the taps chunked
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
    for b in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(r0 + rows, oh)
            blk = cols[:, :, :, :r1 - r0]
            np.copyto(blk, win[b, :, :, :, r0:r1])
            _sum_products(wk, blk.reshape(taps, 1, (r1 - r0) * ow),
                          out[b, r0:r1].reshape((r1 - r0) * ow, cout).T)
    if len(weights) > 1:
        out += weights[1]
    _apply_clamp(out, activation_min, activation_max)


def conv2d_f32_tiled(inputs, weights, outputs, *, in_shape, out_shape,
                     filter_h, filter_w, stride_h, stride_w, dilation_h,
                     dilation_w, pad_before_h, pad_after_h, pad_before_w,
                     pad_after_w, activation_min, activation_max, threads,
                     im2col, row_tile=8):
    # filter buffer is read in out/height/width/in order
    n, h, w, cin = in_shape
    oh, ow, cout = out_shape[1], out_shape[2], out_shape[3]
    x = _pad_nhwc(inputs[0].reshape(in_shape), pad_before_h, pad_after_h,
                  pad_before_w, pad_after_w, 0.0)
    wk = weights[0].reshape(cout, filter_h, filter_w, cin)
    out = outputs[0].reshape(n, oh, ow, cout)

    def one_tile(b, r0, r1):
        ob = out[b, r0:r1]
        ob.fill(0.0)
        if im2col:
            patches = np.empty((r1 - r0, ow, filter_h, filter_w, cin),
                               dtype=np.float32)
            for kh in range(filter_h):
                ih = kh * dilation_h + r0 * stride_h
                for kw in range(filter_w):
                    iw = kw * dilation_w
                    patches[:, :, kh, kw, :] = x[
                        b, ih:ih + (r1 - r0 - 1) * stride_h + 1:stride_h,
                        iw:iw + (ow - 1) * stride_w + 1:stride_w, :]
            for kh in range(filter_h):
                for kw in range(filter_w):
                    for ci in range(cin):
                        ob += patches[:, :, kh, kw, ci, None] * wk[:, kh, kw, ci]
        else:
            for kh in range(filter_h):
                ih = kh * dilation_h + r0 * stride_h
                for kw in range(filter_w):
                    iw = kw * dilation_w
                    patch = x[b, ih:ih + (r1 - r0 - 1) * stride_h + 1:stride_h,
                              iw:iw + (ow - 1) * stride_w + 1:stride_w, :]
                    for ci in range(cin):
                        ob += patch[:, :, ci, None] * wk[:, kh, kw, ci]
        if len(weights) > 1:
            ob += weights[1]

    tiles = [(b, r0, min(r0 + row_tile, oh))
             for b in range(n) for r0 in range(0, oh, row_tile)]
    if threads > 1 and len(tiles) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda t: one_tile(*t), tiles))
    else:
        for t in tiles:
            one_tile(*t)
    _apply_clamp(out, activation_min, activation_max)


def depthwise_conv2d_f32(inputs, weights, outputs, *, in_shape, out_shape,
                         filter_h, filter_w, stride_h, stride_w, dilation_h,
                         dilation_w, pad_before_h, pad_after_h, pad_before_w,
                         pad_after_w, depth_multiplier, activation_min,
                         activation_max):
    n, h, w, cin = in_shape
    oh, ow, cout = out_shape[1], out_shape[2], out_shape[3]
    x = _pad_nhwc(inputs[0].reshape(in_shape), pad_before_h, pad_after_h,
                  pad_before_w, pad_after_w, 0.0)
    wk = weights[0].reshape(filter_h, filter_w, cout)
    out = outputs[0].reshape(n, oh, ow, cout)
    for b in range(n):
        ob = out[b]
        ob.fill(0.0)
        for kh in range(filter_h):
            ih = kh * dilation_h
            for kw in range(filter_w):
                iw = kw * dilation_w
                patch = x[b, ih:ih + (oh - 1) * stride_h + 1:stride_h,
                          iw:iw + (ow - 1) * stride_w + 1:stride_w, :]
                if depth_multiplier == 1:
                    ob += patch * wk[kh, kw]
                else:
                    ob += np.repeat(patch, depth_multiplier, axis=2) * wk[kh, kw]
        if len(weights) > 1:
            ob += weights[1]
    _apply_clamp(out, activation_min, activation_max)


def avg_pool2d_f32(inputs, weights, outputs, *, in_shape, out_shape, filter_h,
                   filter_w, stride_h, stride_w, pad_before_h, pad_after_h,
                   pad_before_w, pad_after_w, activation_min, activation_max):
    n, h, w, c = in_shape
    oh, ow = out_shape[1], out_shape[2]
    x = _pad_nhwc(inputs[0].reshape(in_shape), pad_before_h, pad_after_h,
                  pad_before_w, pad_after_w, 0.0)
    # padded cells contribute zero to the sum and are excluded from the count
    mask = np.pad(np.ones((h, w), dtype=np.float32),
                  ((pad_before_h, pad_after_h), (pad_before_w, pad_after_w)))
    cnt = np.zeros((oh, ow), dtype=np.float32)
    for kh in range(filter_h):
        for kw in range(filter_w):
            cnt += mask[kh:kh + (oh - 1) * stride_h + 1:stride_h,
                        kw:kw + (ow - 1) * stride_w + 1:stride_w]
    out = outputs[0].reshape(n, oh, ow, c)
    for b in range(n):
        ob = out[b]
        ob.fill(0.0)
        for kh in range(filter_h):
            for kw in range(filter_w):
                ob += x[b, kh:kh + (oh - 1) * stride_h + 1:stride_h,
                        kw:kw + (ow - 1) * stride_w + 1:stride_w, :]
        np.divide(ob, cnt[:, :, None], out=ob)
    _apply_clamp(out, activation_min, activation_max)


def max_pool2d_f32(inputs, weights, outputs, *, in_shape, out_shape, filter_h,
                   filter_w, stride_h, stride_w, pad_before_h, pad_after_h,
                   pad_before_w, pad_after_w, activation_min, activation_max):
    n, h, w, c = in_shape
    oh, ow = out_shape[1], out_shape[2]
    x = _pad_nhwc(inputs[0].reshape(in_shape), pad_before_h, pad_after_h,
                  pad_before_w, pad_after_w, float("-inf"))
    out = outputs[0].reshape(n, oh, ow, c)
    for b in range(n):
        ob = out[b]
        ob.fill(float("-inf"))
        for kh in range(filter_h):
            for kw in range(filter_w):
                np.maximum(ob, x[b, kh:kh + (oh - 1) * stride_h + 1:stride_h,
                                 kw:kw + (ow - 1) * stride_w + 1:stride_w, :],
                           out=ob)
    _apply_clamp(out, activation_min, activation_max)


def fully_connected_f32(inputs, weights, outputs, *, batch, in_features,
                        out_features, activation_min, activation_max,
                        lhs_cacheable):
    # weight buffer is read with input features as the major axis
    x = inputs[0].reshape(batch, in_features)
    wt = weights[0].reshape(in_features, out_features)
    out = outputs[0].reshape(batch, out_features)
    if lhs_cacheable:
        x = np.ascontiguousarray(x)
    _sum_products(x.T[:, :, None], wt[:, None, :], out)
    if len(weights) > 1:
        out += weights[1]
    _apply_clamp(out, activation_min, activation_max)


def fully_connected_f32_tiled(inputs, weights, outputs, *, batch, in_features,
                              out_features, activation_min, activation_max,
                              lhs_cacheable, threads, col_tile=64):
    # weight buffer is read with input features as the major axis
    x = inputs[0].reshape(batch, in_features)
    wt = weights[0].reshape(in_features, out_features)
    out = outputs[0].reshape(batch, out_features)
    if lhs_cacheable:
        x = np.ascontiguousarray(x)

    def one_tile(c0, c1):
        blk = out[:, c0:c1]
        blk.fill(0.0)
        wb = wt[:, c0:c1]
        for b in range(batch):
            row = blk[b]
            xr = x[b]
            for i in range(in_features):
                row += xr[i] * wb[i]
            if len(weights) > 1:
                row += weights[1][c0:c1]

    tiles = [(c0, min(c0 + col_tile, out_features))
             for c0 in range(0, out_features, col_tile)]
    if threads > 1 and len(tiles) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda t: one_tile(*t), tiles))
    else:
        for t in tiles:
            one_tile(*t)
    _apply_clamp(out, activation_min, activation_max)


def softmax_f32(inputs, weights, outputs, *, in_shape, beta):
    classes = in_shape[-1]
    rows = 1
    for d in in_shape[:-1]:
        rows *= d
    x = inputs[0].reshape(rows, classes)
    out = outputs[0].reshape(rows, classes)
    bf = np.float32(beta)
    for r in range(rows):
        xr = x[r]
        e = np.exp((xr - np.max(xr)) * bf)
        s = np.float32(0.0)
        for c in range(classes):
            s += e[c]
        np.divide(e, s, out=out[r])


def relu_f32(inputs, weights, outputs, *, count):
    np.maximum(inputs[0].reshape(-1), np.float32(0.0),
               out=outputs[0].reshape(-1))


def reshape_copy(inputs, weights, outputs, *, count, out_shape):
    np.copyto(outputs[0].reshape(-1), inputs[0].reshape(-1))


def add_f32(inputs, weights, outputs, *, count, activation_min,
            activation_max):
    a, b = list(inputs) + list(weights)
    np.add(a.reshape(-1), b.reshape(-1), out=outputs[0].reshape(-1))
    _apply_clamp(outputs[0], activation_min, activation_max)


def add_i32(inputs, weights, outputs, *, count, activation_min,
            activation_max):
    a, b = list(inputs) + list(weights)
    np.add(a.reshape(-1), b.reshape(-1), out=outputs[0].reshape(-1))


def concat_f32(inputs, weights, outputs, *, axis, in_shapes, out_shape,
               weight_slots):
    parts = []
    ai = iter(inputs)
    wi = iter(weights)
    for k in range(len(in_shapes)):
        src = next(wi) if k in weight_slots else next(ai)
        parts.append(src.reshape(in_shapes[k]))
    out = outputs[0].reshape(out_shape)
    pos = 0
    for part in parts:
        span = part.shape[axis]
        sl = [slice(None)] * len(out_shape)
        sl[axis] = slice(pos, pos + span)
        np.copyto(out[tuple(sl)], part)
        pos += span


def pad_f32(inputs, weights, outputs, *, in_shape, out_shape, paddings):
    out = outputs[0].reshape(out_shape)
    out.fill(0.0)
    x = inputs[0].reshape(in_shape)
    region = tuple(slice(b, b + d) for (b, _), d in zip(paddings, in_shape))
    out[region] = x


def scale_shift_f32(inputs, weights, outputs, *, count, scale, shift):
    out = outputs[0].reshape(-1)
    np.multiply(inputs[0].reshape(-1), np.float32(scale), out=out)
    np.add(out, np.float32(shift), out=out)


HELPERS = {
    "_apply_clamp": _apply_clamp,
    "_pad_nhwc": _pad_nhwc,
    "_sum_products": _sum_products,
}

KERNELS = {
    fn.__name__: fn for fn in (
        conv2d_f32, conv2d_f32_tiled, depthwise_conv2d_f32, avg_pool2d_f32,
        max_pool2d_f32, fully_connected_f32, fully_connected_f32_tiled,
        softmax_f32, relu_f32, reshape_copy, add_f32, add_i32, concat_f32,
        pad_f32, scale_shift_f32,
    )
}


def _helper_deps(fn) -> tuple:
    # every helper the body names, nested functions and helpers' own calls
    # included, for the emitter's dependency closure
    deps = set()
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        for name in (set(code.co_names) & HELPERS.keys()) - deps:
            deps.add(name)
            codes.append(HELPERS[name].__code__)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return tuple(sorted(deps))


HELPER_DEPS = {name: _helper_deps(fn) for name, fn in KERNELS.items()}
