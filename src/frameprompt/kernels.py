"""Conv/pool forward and backward kernels in pure numpy.

Shared shape conventions: images are (B, C, H, W) float64, conv weights are
(Cout, Cin, k, k) with k odd. The encoder's convs are same-padded and
stride 1, so one stride-1 correlation, `_correlate`, serves all three conv
directions:

- forward correlates x with w, zero-padded by k // 2;
- backward-input is the transposed convolution, which at stride 1 is a
  correlation of dy with the kernel rotated by 180 degrees and its channel
  axes swapped, padded by k - 1 - k // 2 = k // 2;
- backward-weight correlates x with dy once batch and channels swap roles:
  each input channel is an "image" over the batch, each output channel of dy
  a (H, W) "kernel", and the k×k result is the weight gradient.

The correlation is one GEMM per block of images: the (O, C·kh·kw) weight
matrix times the (C·kh·kw, images·Ho·Wo) column matrix, copied from a
(C, kh, kw, B, Ho, Wo) window view of the zero-padded input, written into
the block's columns of one (O, B·Ho·Wo) output. The batch is cut into a
multiple of LANES balanced blocks, and lane j pads, copies and multiplies
blocks j, j + LANES, ... (see lanes below). COLUMN_BYTES (16 MiB) bounds
the column scratch of one call, all lanes' blocks together, so a conv's
transient memory is its padded input and output plus at most 16 MiB
whatever the batch: conv2's backward-input at batch 61,
whose column matrix is 34 MiB, runs as six blocks of 10 or 11 images on two
lanes. Each block's GEMM is single-threaded and the lanes run side by side,
so a larger budget buys no parallelism, only fewer, wider GEMMs. 24 MiB
took the same time on adapt-8mode, but the larger scratch stayed in the
heap after prompt training, and the chain's peak resident memory, set by
eval's dataset split, read 221.8 against 217.6 MiB.

OpenBLAS (scipy-openblas 0.3.31 on an AVX-512 host) sums a product of up
to about 10^6 multiply-adds in an order that depends on the product's
width, through its small-matrix path; above that, it sums each output
element in the same order whatever the block. So a product is split
across lanes only into blocks of at least GEMM_MIN (2^20) multiply-adds,
and fewer lanes take it otherwise: the blocks at several lanes are no
wider than at one, so they are summed as one lane sums them, and results
do not depend on the lane count. At the encoder's shapes they do not
depend on COLUMN_BYTES or the batch either (test_kernels checks conv1 and
conv2 bit for bit). A budget so small that one block at one lane is such a
product, as a one-channel backward-weight block of a tiny image, may be
summed in another order, within 1e-12.

The pool forward is the whole rest of an encoder stage after its conv, in
one lane pass: each image's prompt map and the bias are added in place into
the conv output (or, when other passes share that output, into a fresh
array that the first add writes), then 2x2 max pooling, then relu. The pool
works on the four strided views x[:, :, i::2, j::2] of its input, one per
window offset n = 2i + j, with no reshaped copy: it takes their elementwise
max in place and finds each window's offset by equality tests in offset
order, so ties go to the lowest offset by construction. idx records where
relu zeroed y as offset + 4, so the backward applies relu's mask and the
pool's scatter from one int8 array: it writes dy's bits, masked to zero
where relu zeroed y or another offset won, into the view of each offset.
Untaped, the forward computes no offsets and adds the bias after the max,
an exact reordering (see maxpool2_forward). Both pools cut the batch into
LANES contiguous slices.

Lanes. Importing this module pins numpy's bundled OpenBLAS to one thread
(through ctypes, as scipy_openblas_set_num_threads64_ or
openblas_set_num_threads) and starts a ThreadPoolExecutor: LANES is the
number of CPUs this process may run on (os.sched_getaffinity), and a call
runs lane 0 itself and the other lanes on the pool. If no setter is found,
LANES is 1 and every kernel runs in its caller. Three rules hold:

- Lanes allocate nothing large. The caller allocates every array a lane
  writes: the output, the padded input, the (LANES, k·widest·n) column
  scratch, the pools' y, idx, flag, g, offset and mask arrays, and the pool
  epilogue's per-image views and its fresh array for a shared conv output.
  A worker thread that allocated its own column blocks would get its own
  malloc arena and keep its freed pages there: the adapt-8mode chain
  (adapt, then eval in one process) peaked at 236 MiB that way, against
  219 MiB with caller-owned scratch.
- Workers call nothing outside this module's private helpers. A tracer
  that wraps the public kernels (perfbench's spans.Tracer keeps one span
  stack for all threads) sees each kernel as one call from its caller's
  thread, so the threading stays inside the wrapped kernels.
- Every output element comes from the same GEMM row on the same columns,
  or the same ufuncs on the same operands, at any lane count: runs
  reproduce bit for bit wherever numpy and its BLAS are the same, whatever
  the CPU count (tests/test_cli.py checks it across processes).

All functions are vectorized. This is the only kernel set; BACKEND names it
in run manifests.
"""

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.lib.stride_tricks import as_strided

BACKEND = "numpy"
COLUMN_BYTES = 16 << 20  # all lanes' column blocks of one _correlate, in bytes
GEMM_MIN = 1 << 20  # fewest multiply-adds in a product split across lanes


def _pin_blas() -> bool:
    """Pin numpy's bundled OpenBLAS to one thread; False if no setter is found."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                    "openblas_set_num_threads"):
            setter = getattr(lib, sym, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return True
    return False


# one lane per CPU this process may run on, once BLAS no longer threads itself
LANES = len(os.sched_getaffinity(0)) if _pin_blas() else 1
_POOL = ThreadPoolExecutor(LANES - 1) if LANES > 1 else None


def _run_lanes(lane, lanes):
    """lane(0), ..., lane(lanes - 1): lane 0 in the caller, the rest on the
    pool; returns once all have finished."""
    futures = [_POOL.submit(lane, j) for j in range(1, lanes)]
    try:
        lane(0)
    finally:
        for f in futures:
            f.result()


def _split(b, parts):
    """parts + 1 ascending bounds cutting range(b) into balanced slices."""
    return [b * i // parts for i in range(parts + 1)]


def _pad_into(dst, src, pad):
    """src framed by pad zeros on every side of its last two axes, into dst."""
    dst[:, :, :pad] = 0.0
    dst[:, :, -pad:] = 0.0
    dst[:, :, pad:-pad, :pad] = 0.0
    dst[:, :, pad:-pad, -pad:] = 0.0
    dst[:, :, pad:-pad, pad:-pad] = src


def _correlate(x, w, pad):
    """Stride-1 cross-correlation of (B, C, H, W) with (O, C, kh, kw), x
    zero-padded by pad on every side: (B, O, H + 2·pad − kh + 1, ...), a
    transposed view of one (O, B, Ho, Wo) array."""
    b, c, h, wd = x.shape
    # each lane pads its own blocks' images into this caller-owned buffer
    padded = np.empty((b, c, h + 2 * pad, wd + 2 * pad)) if pad else x
    o, _, kh, kw = w.shape
    ho, wo = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
    sb, sc, sh, sw = padded.strides
    # view of every (kh, kw) patch: (C, kh, kw, B, Ho, Wo)
    win = as_strided(padded, shape=(c, kh, kw, b, ho, wo),
                     strides=(sc, sh, sw, sb, sh, sw), writeable=False)
    k, n = c * kh * kw, ho * wo
    rows = w.reshape(o, k)
    out = np.empty((o, b * n))
    lanes = min(LANES, b) or 1
    while True:
        per = max(1, COLUMN_BYTES // max(1, lanes * k * n * 8))  # images per block
        blocks = lanes * max(1, -(-b // (lanes * per)))
        # split across lanes only into blocks of at least GEMM_MIN multiply-adds
        if lanes == 1 or o * k * n * (b // blocks) >= GEMM_MIN:
            break
        lanes -= 1
    ends = _split(b, blocks)
    cols = np.empty((lanes, k * n * -(-b // blocks)))  # each lane's widest block

    def lane(j):
        for lo, hi in zip(ends[j::lanes], ends[j + 1::lanes]):
            if pad:
                _pad_into(padded[lo:hi], x[lo:hi], pad)
            # the block's (C·kh·kw, images·Ho·Wo) columns, copied into scratch
            block = cols[j, :k * (hi - lo) * n].reshape(c, kh, kw, hi - lo, ho, wo)
            block[...] = win[:, :, :, lo:hi]
            np.matmul(rows, block.reshape(k, (hi - lo) * n), out=out[:, lo * n:hi * n])

    _run_lanes(lane, lanes)
    return out.reshape(o, b, ho, wo).transpose(1, 0, 2, 3)


def conv2d_forward(x, w):
    return _correlate(x, w, w.shape[2] // 2)


def conv2d_backward_input(dy, w):
    """d loss / d x given d loss / d y; same shape as dy but Cin channels."""
    return _correlate(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), w.shape[2] // 2)


def conv2d_backward_weight(x, dy, k):
    """d loss / d w for a k×k kernel: (Cout, Cin, k, k)."""
    return _correlate(x.transpose(1, 0, 2, 3), dy.transpose(1, 0, 2, 3),
                      k // 2).transpose(1, 0, 2, 3)


def _windows(x):
    """The four (B, C, H/2, W/2) strided views of a (B, C, H, W) array, one
    per offset of the 2x2 window in row-major order."""
    return (x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2],
            x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2])


def _pool_lanes(lane, b):
    """lane(lo, hi) over LANES contiguous slices of a batch of b."""
    lanes = min(LANES, b) or 1
    ends = _split(b, lanes)
    _run_lanes(lambda j: lane(ends[j], ends[j + 1]), lanes)


def maxpool2_forward(x, bias, *, maps=None, route=None, index=True, shared=False):
    """The rest of an encoder stage after its conv: prompt maps, bias, 2x2
    stride-2 max pool and relu over a (B, C, H, W) conv output, H and W
    even. Returns (y, idx): y (B, C, H/2, W/2) float64, C-contiguous, and
    idx int8, the row-major offset in each window that the max came from,
    lowest offset on ties, plus 4 where relu zeroed y.

    Given (T, C, H, W) maps and (B,) routes into them, each lane adds
    maps[route] and then the (C,) bias in place into its slice of x, which
    the caller must own (the stage's fresh conv output); it pools, and sets
    y to np.where(y > 0, y, 0.0) bit for bit: +0.0 for -0.0 and for NaN.
    With shared true, x is a conv output that other passes read too, and it
    stays unwritten: the first add reads x and writes a fresh array, and the
    later adds go in place into that one, the same ufuncs on the same
    operands. Untaped with a finite bias and no maps, nothing is added
    before the max, so no fresh array is made.

    With index False (inference, no tape) idx is empty, and a finite bias
    is added after the max rather than before. The values are the same:
    rounding v + b is monotone in v, so max(v + b) = max(v) + b, and relu
    then maps every zero, whatever its sign, to +0.0. An infinite bias
    would turn a -inf in a window into NaN before the max and not after,
    so it is added first.

    The max of the four window views a, b, c, d (offsets 0-3) is taken in
    place. idx = na · (1 + nb · (1 + nc)) over the 0/1 flags na = (a != m),
    nb = (b != m), nc = (c != m) against the max m: 0 if a == m, else 1 if
    b == m, else 2 if c == m, else 3, so the tie rule holds by construction.
    relu ANDs y's bits with the flag y > 0 widened to all ones or all
    zeros, and adds 4 to idx where the flag is clear. A window holding NaN
    gives a NaN max (0 after relu) and an unspecified offset."""
    bsz, ch, h, wd = x.shape
    y = np.empty((bsz, ch, h // 2, wd // 2))
    idx = np.empty(y.shape if index else 0, np.int8)
    flag = np.empty(y.shape, bool)
    col = bias[:, None, None]
    late = not index and bool(np.isfinite(bias).all())
    # z takes the adds and is pooled: x itself unless x is shared and
    # something is added before the max
    z = np.empty(x.shape) if shared and (maps is not None or not late) else x
    src = x if maps is None else z  # what the bias add reads
    # each image's (conv output, map, destination) views, made here: views
    # that a lane makes are small allocations in its worker's own malloc
    # arena, and with them the vp-8mode chain peaked 1 MiB higher (212.1
    # against 211.1 MiB)
    views = [] if maps is None else [(x[i], maps[r], z[i]) for i, r in enumerate(route)]

    def lane(lo, hi):
        for xi, mi, zi in views[lo:hi]:
            np.add(xi, mi, out=zi)
        if not late:
            np.add(src[lo:hi], col, out=z[lo:hi])
        a, b, c, d = _windows(z[lo:hi])
        yl, il, fl = y[lo:hi], idx[lo:hi], flag[lo:hi]
        np.maximum(b, a, out=yl)
        np.maximum(c, yl, out=yl)
        np.maximum(d, yl, out=yl)
        # bool arrays are 0/1 bytes, so each flag reads as int8 in place
        f8 = fl.view(np.int8)
        if index:
            np.not_equal(c, yl, out=fl)
            np.add(f8, 1, out=il)
            np.not_equal(b, yl, out=fl)
            il *= f8
            il += 1
            np.not_equal(a, yl, out=fl)
            il *= f8
        if late:
            yl += col
        np.greater(yl, 0.0, out=fl)
        np.negative(f8, out=f8)  # -1, all ones, where relu keeps y
        ybits = yl.view(np.int64)
        np.bitwise_and(ybits, f8, out=ybits)
        if index:
            np.left_shift(f8, 2, out=f8)  # -4 where kept, else 0
            il += f8
            il += 4

    _pool_lanes(lane, bsz)
    return y, idx


def maxpool2_backward(dy, idx):
    """d loss / d x of maxpool2_forward: g = dy · (idx < 4), relu's mask,
    at each window's offset idx mod 4 and +0.0 at the other three, written
    as four strided (B, C, H/2, W/2) slices of a (B, C, H, W) output. g keeps
    dy's sign where relu zeroed y (dy · 0.0 is ±0.0). Each slice is g's
    bits ANDed with a mask of all ones where the offset is its own and all
    zeros elsewhere: np.where(off == n, g, 0.0) bit for bit, with no
    temporary. dy may have any strides."""
    b, c, ho, wo = dy.shape
    dx = np.empty((b, c, 2 * ho, 2 * wo))
    g = np.empty(dy.shape)
    off = np.empty(dy.shape, np.int8)
    mask = np.empty(dy.shape, np.int64)
    gbits, dxbits = g.view(np.int64), dx.view(np.int64)

    def lane(lo, hi):
        m, o = mask[lo:hi], off[lo:hi]
        np.less(idx[lo:hi], 4, out=o)
        np.multiply(dy[lo:hi], o, out=g[lo:hi])
        np.bitwise_and(idx[lo:hi], 3, out=o)
        for n, view in enumerate(_windows(dxbits[lo:hi])):
            np.equal(o, n, out=m)
            np.negative(m, out=m)
            np.bitwise_and(gbits[lo:hi], m, out=view)

    _pool_lanes(lane, b)
    return dx
