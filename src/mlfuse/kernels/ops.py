"""Kernel prepare steps, shared by the interpreter, the status search and
the emitter.

Every kernel is one prepare step, <template>_prep(inputs, weights, outputs,
**params), which runs once per operator: it reshapes the flat buffers into
views, builds strided windows, plans the reduction chunks and takes its
scratch, and returns the kernel's work as a list of calls (f, args, kw).
Each f is a numpy C callable (a ufunc, a ufunc method, np.copyto or
np.c_einsum) bound to the prepared views and scratch; kw is {} but for an
out= that np.maximum and np.minimum take only by keyword and np.c_einsum
after its variadic operands. One run step serves every template:
run_calls(calls) makes the calls in order, so no kernel code runs between
them. A list binds views of the activation buffers, never copies, so it
computes on whatever they hold when it runs. Every tensor has a buffer of
its own but a RESHAPE's output, a view of its input's buffer
(lowering.py), so reshape_prep returns no calls. The emitter writes the
lists as data, so the program makes these same calls and ships no prepare
step (codegen._call_table). np is numpy's C core, the one module of numpy
the program loads.

What a private buffer must hold for good (a padded border, avg-pool's
count grid, a private product tensor's tail row) a step does not write at
prepare time: it appends the calls that write it to the keyword fills,
a list, which lowering.configure makes once it has prepared the plan.
The copy of an input's interior into a padded buffer is the first call
of its list.

The params give every shape at one sample a call; only the buffers say how
many samples a call stacks along axis 0 of every activation. Conv, pool
and pad shapes leave axis 0 out, and a step views its input as
inputs[0].reshape(-1, *in_shape) (concat as reshape(-1, *shape[1:]), FC as
reshape(-1, in_features)) and its output the same way, or reads it flat.

Float32 discipline: every reduction is summed in one fixed order, term by
term onto +0.0, so results are bit-identical to a naive scalar loop nest.
Filter taps go in (kh, kw, ci) order, input features in index order, softmax
classes in class order, and a bias is the last term of its sum.

Conv, depthwise conv and FC reductions are vectorized without giving that
order up (_sum_products_prep), on one of two paths. A conv or FC reduction
of 8192 products or more whose operands allow it is one contraction:
np.c_einsum("kr,kl->rl", w, x, out=acc), the taps of (taps, rows) by
(taps, lanes) over contiguous lanes summed into a contiguous accumulator,
then one np.add of the bias. With this numpy's C core, c_einsum zero-fills
out and then adds each rounded product onto it in tap order, the scalar
loop's sum, on two conditions (_contracts): the tap axis has the largest
stride in both operands, and out has two elements or more. Else it
reorders the sum: a lone output is a dot product, and taps innermost are
summed in SIMD partial sums. So the prepare step checks both, and FC
copies more than one sample's inputs, transposed, into scratch. A numpy
whose baseline has a fused multiply-add (aarch64, x86-64-v3 builds) may
fuse the contraction's multiply and add, which would keep each product
unrounded: _unfused checks that once, the first time a reduction
qualifies, and on a fused result every reduction takes the products path.

Every other reduction takes the products path: smaller ones, FC's over
strided sample lanes, a lone output lane's and depthwise's. The terms land
in a product tensor whose reduced axis is the outermost one, ahead of a
tail row that holds the bias, or +0.0 (a sum begun at +0.0 is never -0.0,
so adding +0.0 changes no bit). One np.add.reduce over that axis adds
whole rows in index order onto an explicit initial +0.0. This holds only
while at least two output lanes run beside the reduced axis: numpy sums a
lone lane pairwise, so it runs beside a twin lane. Softmax sums one row's
classes with np.add.accumulate, sequential by definition, and more rows in
a contiguous (class, row) buffer with one np.add.reduce over its outer
axis; exp never returns -0.0, so either start gives the same bits.
Pooling makes one call per tap over independent output lanes. Max pool
starts from its first two windows, np.maximum(win1, win0), with no -inf
fill; np.maximum returns its second operand on a +0.0/-0.0 tie, so the
earlier window goes second and a tie keeps the earlier cell's sign, as
the oracle's strict > does. A lower clamp puts lo first, np.maximum(lo,
x), so a -0.0 under a clamp at +0.0 stays -0.0, as the oracle's (and
TFLite's std::max(x, lo)) does.

matmul, dot and np.sum reorder a sum and are not used; c_einsum takes no
optimize argument and never calls BLAS. On the products path einsum forms
one-term products only: a chunk of 8192 products or more that is an outer
product, (taps, rows) by (taps, lanes) over contiguous lanes with no twin,
gets them from np.c_einsum("kr,kl->krl"), which writes each as +0.0 + w *
x. np.multiply forms the rest. A -0.0 product lands as +0.0 through
einsum, which no sum begun at +0.0 can show.

numpy pays a fixed cost per call, per chunk and per inner row, so these
reductions are planned for long lanes and few blocks. One budget,
_PRODUCT_BYTES (256 KiB, sized for a level-2 cache), bounds each part of a
block's scratch. A conv or depthwise block gathers its patches, taps by
lanes, into one buffer from _windows, one strided view of every tap's
input window, which the pools read tap by tap. On the products path the
budget bounds a product tensor, its leading row (a running sum, when there
is more than one chunk) and tail row included. A block covers as many
whole output rows of one sample, or as many whole samples, as keep its
patches and its accumulator (a contraction) or a one-tap chunk (else) each
within the budget; a conv block on the products path takes one sample,
where more measured slower. Depthwise broadcasts each tap's window over
its depth multiplier. Blocks are split evenly, rows = ceil(oh / ceil(oh /
rows_max)), and samples the same way. FC's lanes are its output features
while a call's samples do not outnumber them, else its samples, through
transposed views; so its transposed inputs never outgrow its weights.
_sum_products_prep blocks a product path's lanes the same way where the
tail row is the same along them (FC's bias is not, so a biased FC's
features stay one block), then puts a block's taps in the fewest chunks
that fit, split evenly, the smaller first. A last block of samples, rows
or lanes ends at the last one, so it may overlap the one before it, to the
same values. A contraction into strided lanes, or a product path's
reduction of more than one chunk, runs in a contiguous accumulator, copied
out once a block; conv's lower clamp rides that copy-out.

Steps run one at a time, so every step of a plan takes its scratch from
one arena, sized to the largest step's need: a step that takes scratch
takes the keyword arena, a list whose arena[0] is the arena (None: all its
scratch is its own), and asks _scratch for each part, end to end from
element 0. A part of a page (4096 B) or more is a view of the arena, which
grows to fit it; a smaller part is a buffer of its own. Views taken before
the arena last grew are of one given up, so a plan prepares its steps
again over the one it grew to (lowering.configure). Patches,
accumulators, FC's transposed inputs, product rows and softmax rows are
written before they are read every run; a product tensor's tail row is
not, and the steps that share the arena write over it, so one in the arena
gets its tail row filled at the start of every run of its step, and a
private one once, through fills.

Weight buffers arrive flat, as views of one blob (lowering.lay_out), and
may be read-only. Each kernel reshapes them according to the data layout
its body was written against; callers are responsible for delivering
payload bytes in that layout.
"""

import functools
import math

from numpy._core import _multiarray_umath as np

float32 = np.dtype("<f4").type

# the budget of each part of a conv or FC block's scratch: its gathered
# patches, its accumulator, a product tensor with its leading and tail rows
# (see above)
_PRODUCT_BYTES = 262144


def run_calls(calls):
    for f, args, kw in calls:
        f(*args, **kw)


def _clamp_calls(buf, lo, hi):
    calls = []
    if lo is not None:
        calls.append((np.maximum, (float32(lo), buf), {"out": buf}))
    if hi is not None:
        calls.append((np.minimum, (buf, float32(hi)), {"out": buf}))
    return calls


def _filled(shape, value, fills):
    # a private buffer that holds value for good, once the plan's fills
    # are made (see above)
    buf = np.empty(shape, float32)
    fills.append((np.copyto, (buf, float32(value)), {}))
    return buf


def _pad_nhwc_prep(x, ph0, ph1, pw0, pw1, value, fills):
    # (x, []) when nothing is padded; else a buffer whose border holds
    # value for good, and the call that copies x into its interior
    if ph0 == 0 and ph1 == 0 and pw0 == 0 and pw1 == 0:
        return x, []
    n, h, w, c = x.shape
    xp = _filled((n, h + ph0 + ph1, w + pw0 + pw1, c), value, fills)
    return xp, [(np.copyto, (xp[:, ph0:ph0 + h, pw0:pw0 + w], x), {})]


def _scratch(arena, shape, at=0):
    # float32 scratch of shape that every run writes before it reads it:
    # from a page (4096 B) up, a view of the plan's arena, arena[0], from
    # element at, which gives way to a larger arena when it does not fit
    # there (see above); below a page, or with no arena, a buffer of its
    # own
    size = math.prod(shape)
    if arena is None or size < 1024:
        return np.empty(shape, float32)
    if arena[0].size < at + size:
        arena[0] = np.empty(at + size, float32)
    return arena[0][at:at + size].reshape(shape)


@functools.cache
def _unfused():
    # whether np.c_einsum rounds each product before it adds it, as the
    # scalar loop does: -(1 + 2**-11) + (1 + 2**-12)**2 then sums to +0.0,
    # where a multiply-add fused onto the running sum keeps the square's
    # last 2**-24. Taken once, when a reduction first qualifies for a
    # contraction (_contracts), over lanes enough for its SIMD loop.
    a = 1 + 2.0 ** -12
    w = np.array([[-(1 + 2.0 ** -11)] * 2, [a] * 2], float32)
    x = np.array([[1.0] * 64, [a] * 64], float32)
    return np.c_einsum("kr,kl->rl", w, x).tobytes() == bytes(512)


def _contracts(k, size, *operands):
    # whether np.c_einsum("kr,kl->rl") over operands of k taps sums them
    # into size outputs exactly in tap order, and pays (see above): 8192
    # products or more, two outputs or more, the tap axis of every operand
    # (its first) of the largest stride, and an unfused einsum
    return (k * size >= 8192 and size >= 2
            and all(a.strides[0] >= max(a.strides[1:]) for a in operands)
            and _unfused())


def _sum_products_prep(lhs, rhs, acc, tail, arena=None, at=0, fills=None):
    # acc = ((((0 + lhs[0]*rhs[0]) + lhs[1]*rhs[1]) + ...) + tail), where
    # lhs[k] * rhs[k] and tail broadcast to acc's shape. acc's last axis
    # holds its lanes. A 2-D acc, (rows, lanes), takes lhs[k] as a (rows,
    # 1) column and rhs[k] as a (1, lanes) row. Where lhs[..., 0] and
    # rhs[:, 0] contract (_contracts) over contiguous lanes, the one block
    # of them all is one chunk, (the np.c_einsum call, None), whose out= is
    # the lanes, and its tail is added after (see above). Else, where tail
    # is the same along the lanes (lhs always is), they go in blocks (see
    # above), and rhs is sliced along them; a tail that differs along
    # them, as FC's bias over its output features does, keeps them in one
    # block. Every block's taps go through one product tensor in chunks,
    # each a view of the tensor's leading rows: the fewest chunks whose
    # terms, with a leading and the tail row, fit _PRODUCT_BYTES (or one
    # tap, if more), split evenly. With more than one chunk, each after
    # the first starts from the running sum, copied into row 0, and the
    # first one's rows start at row 1; one chunk has no leading row. The
    # smaller chunk goes first, so only the last chunk, always a full one,
    # reaches the tail row, and no product writes over it. A chunk is
    # (product, part): the call that forms its terms, and the rows its
    # reduction adds. A chunk of 8192 products or more whose lanes are
    # contiguous and have no twin forms them as one outer product through
    # np.c_einsum; any other, through np.multiply (see above). Returns the
    # blocks, each (first lane, chunks, the tail to add after them or
    # None), the lanes the reductions write when they are not acc's own
    # (else None): a twin pair for a lone lane, or a contiguous
    # accumulator for strided lanes contracted or reduced in more than one
    # chunk, and the call that fills the tail row, which a step makes once
    # a run before its first reduction when the product tensor is a view
    # of the arena (else [], and the call goes to fills). Neither holds
    # acc, which _sum_products_calls takes, so reductions of one shape
    # into other outputs can share them. The product tensor and the
    # accumulator are the _scratch at element at and after it.
    n = acc.shape[-1]
    rows = acc.size // n
    k = len(lhs)
    if (acc.ndim == 2 and rhs.strides[-1] == 4
            and _contracts(k, acc.size, lhs[..., 0], rhs[:, 0])):
        own = None
        if not acc.flags.c_contiguous:
            own = _scratch(arena, acc.shape, at)
        # a number is conv's +0.0, which adds no bit
        if not hasattr(tail, "shape"):
            tail = None
        product = np.c_einsum, ("kr,kl->rl", lhs[..., 0], rhs[:, 0]), {}
        return [(0, [(product, None)], tail)], own, []
    b = n
    if getattr(tail, "shape", (1,))[-1] < 2:
        b = -(-n // -(-n // (_PRODUCT_BYTES // (12 * rows) or 1)))
    # numpy would sum a lone lane pairwise: it goes beside a twin lane,
    # computed from the same terms
    shape = acc.shape[:-1] + (b + (acc.size == 1),)
    step = max(1, _PRODUCT_BYTES // (4 * rows * shape[-1]) - 2)
    step = -(-k // -(-k // step))
    lead = step < k
    terms = _scratch(arena, (step + 1 + lead,) + shape, at)
    own = None
    if acc.size == 1 or lead and not acc.flags.c_contiguous:
        own = _scratch(arena, shape, at + terms.size)
    fill = [(np.copyto, (terms[-1], tail), {})]
    if terms.base is None:  # private: its tail row holds for good
        fills += fill
        fill = []
    blocks = []
    for s in [*range(0, n - b, b), n - b]:
        chunks = []
        k0 = 0
        for k1 in range((k - 1) % step + 1, k + 1, step):
            x, y = lhs[k0:k1], rhs[k0:k1, ..., s:s + b]
            p = terms[lead:k1 - k0 + lead]
            product = np.multiply, (x, y, p), {}
            if (p.size >= 8192 and p.ndim == 3 and y.strides[-1] == 4
                    and b == shape[-1]):
                product = (np.c_einsum, ("kr,kl->krl", x[..., 0], y[:, 0]),
                           {"out": p})
            chunks.append((product, terms[lead and not k0:
                                          k1 - k0 + lead + (k1 == k)]))
            k0 = k1
        blocks.append((s, chunks, None))
    return blocks, own, fill


def _sum_products_calls(blocks, own, acc, lo=None):
    # one reduction into acc, from _sum_products_prep's blocks and own
    # lanes; where they are its own, the copy out of them clamps at lo
    calls = []
    for s, chunks, tail in blocks:
        part = chunks[0][1]
        dst = acc if part is None else acc[..., s:s + part.shape[-1]]
        into = dst if own is None else own
        for k, (product, part) in enumerate(chunks):
            if part is None:  # a contraction, into the lanes
                calls.append((*product[:2], {"out": into}))
                continue
            if k:
                calls.append((np.copyto, (part[0], into), {}))
            calls += [product, (np.add.reduce, (part, 0, None, into, False,
                                                float32(0.0)), {})]
        if tail is not None:
            calls.append((np.add, (into, tail, into), {}))
        if own is not None:  # a view: a twin pair's lane 0 is copied now
            into = own[..., :dst.shape[-1]]
            calls.append((np.copyto, (dst, into), {}) if lo is None else
                         (np.maximum, (float32(lo), into), {"out": dst}))
    return calls


def _windows(x, out, fh, fw, sh, sw, dh=1, dw=1):
    # every (kh, kw) tap's strided input window over the whole batch, as
    # one (fh, fw, n, oh, ow, c) view of x
    sn, sy, sx, sc = x.strides
    return np.ndarray((fh, fw, len(x), *out.shape[1:3], x.shape[3]), x.dtype,
                      x, 0, (dh * sy, dw * sx, sn, sh * sy, sw * sx, sc))


def _blocks(n, oh, rows, samples=True):
    # (samples a block, rows a block, each block's first sample and row):
    # at most rows whole output rows of one sample (one, if rows is 0), or
    # where samples holds and rows covers a sample, whole samples, each
    # split evenly; the last ends at the last sample and row (see above)
    nb = -(-n // -(-n // max(1, min(n, rows // oh)))) if samples else 1
    rows = -(-oh // -(-oh // max(1, min(oh, rows))))
    return nb, rows, [(b, r0) for b in [*range(0, n - nb, nb), n - nb]
                      for r0 in [*range(0, oh - rows, rows), oh - rows]]


def conv2d_f32_prep(inputs, weights, outputs, *, in_shape, out_shape,
                    filter_h, filter_w, stride_h, stride_w, dilation_h,
                    dilation_w, pad_before_h, pad_after_h, pad_before_w,
                    pad_after_w, activation_min, activation_max, arena=None,
                    fills=None):
    # filter buffer is read in height/width/in/out order
    cin = in_shape[2]
    oh, ow, cout = out_shape
    x, calls = _pad_nhwc_prep(inputs[0].reshape(-1, *in_shape),
                              pad_before_h, pad_after_h, pad_before_w,
                              pad_after_w, 0.0, fills)
    taps = filter_h * filter_w * cin
    out = outputs[0].reshape(-1, *out_shape)
    w = weights[0].reshape(taps, cout)
    # Blocks of whole output rows, or of whole samples where it contracts,
    # whose patches and sums (a contraction's) or one-tap chunk of products
    # each fit _PRODUCT_BYTES, split evenly (see above); one row, if more.
    contract = _contracts(taps, out.size, w)
    nb, rows, starts = _blocks(len(x), oh, _PRODUCT_BYTES // (4 * ow * max(
        taps, cout if contract else 3 * cout)), contract)
    cols = _scratch(arena, (filter_h, filter_w, cin, nb, rows, ow))
    # every (kh, kw, ci) tap's strided input plane
    win = _windows(x, out, filter_h, filter_w, stride_h, stride_w,
                   dilation_h, dilation_w).transpose(0, 1, 5, 2, 3, 4)
    # a block's output rows are a transposed view, strides (4, 4 * cout),
    # which holds the lanes of its reduction
    blocks, own, fill = _sum_products_prep(
        w[:, :, None], cols.reshape(taps, 1, -1),
        out[:nb, :rows].reshape(-1, cout).T,
        weights[1][:, None] if len(weights) > 1 else 0.0, arena, cols.size,
        fills)
    calls += fill
    # every block gathers into cols and reduces with the same chunks
    for b, r0 in starts:
        calls.append((np.copyto, (cols, win[:, :, :, b:b + nb,
                                             r0:r0 + rows]), {}))
        calls += _sum_products_calls(
            blocks, own, out[b:b + nb, r0:r0 + rows].reshape(-1, cout).T,
            activation_min)
    # a reduction into lanes of its own took the lower clamp on the way out
    if own is not None:
        activation_min = None
    return calls + _clamp_calls(out, activation_min, activation_max)


def depthwise_conv2d_f32_prep(inputs, weights, outputs, *, in_shape,
                              out_shape, filter_h, filter_w, stride_h,
                              stride_w, dilation_h, dilation_w, pad_before_h,
                              pad_after_h, pad_before_w, pad_after_w,
                              depth_multiplier, activation_min,
                              activation_max, arena=None, fills=None):
    # output channel c * depth_multiplier + m reads input channel c: the
    # output and filter are viewed as (..., cin, depth_multiplier), and
    # each tap's gathered window broadcasts over the last axis (see above)
    cin = in_shape[2]
    oh, ow = out_shape[0], out_shape[1]
    x, calls = _pad_nhwc_prep(inputs[0].reshape(-1, *in_shape),
                              pad_before_h, pad_after_h, pad_before_w,
                              pad_after_w, 0.0, fills)
    taps = filter_h * filter_w
    out = outputs[0].reshape(-1, oh, ow, cin, depth_multiplier)
    acc = out.reshape(-1, ow, cin, depth_multiplier)  # every output row
    # blocks of whole samples or rows (see above), each a run of acc's rows
    nb, rows, starts = _blocks(len(x), oh, min(
        _PRODUCT_BYTES // (12 * acc[0].size),
        _PRODUCT_BYTES // (4 * taps * ow * cin)))
    cols = _scratch(arena, (filter_h, filter_w, nb, rows, ow, cin))
    win = _windows(x, out, filter_h, filter_w, stride_h, stride_w,
                   dilation_h, dilation_w)
    blocks, own, fill = _sum_products_prep(
        cols.reshape(taps, nb * rows, ow, cin, 1),
        weights[0].reshape(taps, 1, 1, cin, depth_multiplier),
        acc[:nb * rows], weights[1].reshape(cin, depth_multiplier)
        if len(weights) > 1 else 0.0, arena, cols.size, fills)
    calls += fill
    for b, r0 in starts:
        calls.append((np.copyto, (cols, win[:, :, b:b + nb, r0:r0 + rows]),
                      {}))
        calls += _sum_products_calls(blocks, own,
                                     acc[b * oh + r0:][:nb * rows])
    return calls + _clamp_calls(out, activation_min, activation_max)


def avg_pool2d_f32_prep(inputs, weights, outputs, *, in_shape, out_shape,
                        filter_h, filter_w, stride_h, stride_w, pad_before_h,
                        pad_after_h, pad_before_w, pad_after_w,
                        activation_min, activation_max, fills=None):
    h, w = in_shape[0], in_shape[1]
    oh, ow = out_shape[0], out_shape[1]
    x, calls = _pad_nhwc_prep(inputs[0].reshape(-1, *in_shape),
                              pad_before_h, pad_after_h, pad_before_w,
                              pad_after_w, 0.0, fills)
    # padded cells contribute zero to the sum and are excluded from the
    # count, which the fills sum tap by tap
    mask = _filled((1, h + pad_before_h + pad_after_h,
                    w + pad_before_w + pad_after_w, 1), 0.0, fills)
    cnt = _filled((1, oh, ow, 1), 0.0, fills)
    fills.append((np.copyto, (mask[:, pad_before_h:pad_before_h + h,
                                   pad_before_w:pad_before_w + w],
                              float32(1.0)), {}))
    fills += [(np.add, (cnt, m, cnt), {}) for ms in _windows(
        mask, cnt, filter_h, filter_w, stride_h, stride_w) for m in ms]
    out = outputs[0].reshape(-1, *out_shape)
    calls.append((np.copyto, (out, float32(0.0)), {}))
    calls += [(np.add, (out, win, out), {}) for ws in _windows(
        x, out, filter_h, filter_w, stride_h, stride_w) for win in ws]
    calls.append((np.divide, (out, cnt, out), {}))
    return calls + _clamp_calls(out, activation_min, activation_max)


def max_pool2d_f32_prep(inputs, weights, outputs, *, in_shape, out_shape,
                        filter_h, filter_w, stride_h, stride_w, pad_before_h,
                        pad_after_h, pad_before_w, pad_after_w,
                        activation_min, activation_max, fills=None):
    x, calls = _pad_nhwc_prep(inputs[0].reshape(-1, *in_shape),
                              pad_before_h, pad_after_h, pad_before_w,
                              pad_after_w, float("-inf"), fills)
    out = outputs[0].reshape(-1, *out_shape)
    # from the first two windows, the earlier one second (see above)
    wins = [win for ws in _windows(x, out, filter_h, filter_w, stride_h,
                                   stride_w) for win in ws]
    if len(wins) < 2:
        calls.append((np.copyto, (out, wins[0]), {}))
    else:
        calls.append((np.maximum, (wins[1], wins[0]), {"out": out}))
    calls += [(np.maximum, (win, out), {"out": out}) for win in wins[2:]]
    return calls + _clamp_calls(out, activation_min, activation_max)


def fully_connected_f32_prep(inputs, weights, outputs, *, in_features,
                             out_features, activation_min, activation_max,
                             arena=None, fills=None):
    # out = x @ w + bias, the weight buffer read with input features as the
    # major axis: a sum over the input features of (rows, 1) x (1, lanes)
    # products. The output features are the lanes while a call's samples
    # do not outnumber them (every one-sample call); else the samples are,
    # and the sum is taken transposed, out.T = w.T @ x.T, through
    # transposed views (see above).
    x = inputs[0].reshape(-1, in_features)
    w = weights[0].reshape(in_features, out_features)
    out = outputs[0].reshape(-1, out_features)
    tail = weights[1] if len(weights) > 1 else 0.0
    calls, at = [], 0
    if len(x) > out_features:
        x, w, out = w.T, x.T, out.T
        tail = tail[:, None] if len(weights) > 1 else 0.0
    elif _contracts(in_features, out.size, w):
        # a contraction's rows, with the taps outermost: one sample's as a
        # column, more copied transposed into scratch (see above)
        if len(x) > 1:
            xt = _scratch(arena, (in_features, len(x)))
            calls.append((np.copyto, (xt, x.T), {}))
            x, at = xt.T, xt.size
        else:
            x = x.reshape(-1, 1).T
    blocks, own, fill = _sum_products_prep(
        x.T[:, :, None], w[:, None], out, tail, arena, at, fills)
    return (calls + fill + _sum_products_calls(blocks, own, out)
            + _clamp_calls(out, activation_min, activation_max))


def softmax_f32_prep(inputs, weights, outputs, *, in_shape, beta,
                     arena=None):
    # A single row is a 1-D row, and sums[-1:] holds its total, a view
    # (sums[-1] would be a scalar copied now). More rows are gathered from
    # their (class, row) view into a contiguous buffer, which then holds
    # the exponentials, so each reduction over axis 0 adds whole rows of
    # samples, class after class, into a one-row buffer. beta 1.0 scales by
    # nothing, bit for bit.
    c = in_shape[-1]
    x = inputs[0].reshape(-1, c)
    out = outputs[0].reshape(-1, c)
    calls = []
    if len(x) == 1:
        x, out = x[0], out[0]
        e = _scratch(arena, (c,))
    else:
        e = _scratch(arena, (c, len(x)))
        calls.append((np.copyto, (e, x.T), {}))
        x, out = e, out.T
    top = _scratch(arena, x.shape[1:], e.size)
    calls += [(np.maximum.reduce, (x, 0, None, top), {}),
              (np.subtract, (x, top, e), {})]
    if beta != 1.0:
        calls.append((np.multiply, (e, float32(beta), e), {}))
    calls.append((np.exp, (e, e), {}))
    if e.ndim > 1:
        return calls + [(np.add.reduce, (e, 0, None, top), {}),
                        (np.divide, (e, top, out), {})]
    sums = _scratch(arena, (c,), e.size + top.size)
    return calls + [(np.add.accumulate, (e, 0, None, sums), {}),
                    (np.divide, (e, sums[-1:], out), {})]


def relu_f32_prep(inputs, weights, outputs):
    out = outputs[0].reshape(-1)
    return [(np.maximum, (inputs[0].reshape(-1), float32(0.0)), {"out": out})]


def reshape_prep(inputs, weights, outputs):
    # the output is a view of the input's buffer (lowering.py): nothing to
    # compute
    return []


def add_prep(inputs, weights, outputs, *, activation_min, activation_max):
    # F32 and I32 alike: an I32 unit takes no clamp (its param_check)
    a, b = list(inputs) + list(weights)
    return ([(np.add, (a.reshape(-1), b.reshape(-1), outputs[0].reshape(-1)),
              {})] + _clamp_calls(outputs[0], activation_min, activation_max))


def concat_f32_prep(inputs, weights, outputs, *, axis, in_shapes, out_shape,
                    weight_slots):
    # one copy into a slice of the output per part, in part order
    out = outputs[0].reshape(-1, *out_shape[1:])
    ai = iter(inputs)
    wi = iter(weights)
    calls = []
    pos = 0
    for k, shape in enumerate(in_shapes):
        src = next(wi) if k in weight_slots else next(ai)
        sl = [slice(None)] * len(out_shape)
        sl[axis] = slice(pos, pos + shape[axis])
        calls.append((np.copyto, (out[tuple(sl)],
                                  src.reshape(-1, *shape[1:])), {}))
        pos += shape[axis]
    return calls


def pad_f32_prep(inputs, weights, outputs, *, in_shape, out_shape, paddings):
    x = inputs[0].reshape(-1, *in_shape)
    out = outputs[0].reshape(-1, *out_shape)
    region = tuple(slice(b, b + d) for (b, _), d in zip(paddings, x.shape))
    return [(np.copyto, (out, float32(0.0)), {}),
            (np.copyto, (out[region], x), {})]


def scale_shift_f32_prep(inputs, weights, outputs, *, scale, shift):
    out = outputs[0].reshape(-1)
    return [(np.multiply, (inputs[0].reshape(-1), float32(scale), out), {}),
            (np.add, (out, float32(shift), out), {})]


# prepare steps, by template id
PREPS = {fn.__name__[:-len("_prep")]: fn for fn in (
    conv2d_f32_prep, depthwise_conv2d_f32_prep, avg_pool2d_f32_prep,
    max_pool2d_f32_prep, fully_connected_f32_prep, softmax_f32_prep,
    relu_f32_prep, reshape_prep, add_prep, concat_f32_prep,
    pad_f32_prep, scale_shift_f32_prep,
)}

# run steps, by template id: run_calls serves every template
KERNELS = dict.fromkeys(PREPS, run_calls)
