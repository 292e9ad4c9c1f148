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

2x2 max pooling works on the four strided views x[:, :, i::2, j::2] of
its input, one per window offset n = 2i + j, with no reshaped copy: the
forward takes their elementwise max and finds each window's offset by
equality tests in offset order, so ties go to the lowest offset by
construction and a ±0.0 maximum carries the sign of the lowest offset that
attains it. The backward writes dy into the view of the chosen offset and
+0.0 into the other three. A NaN in a window makes its max NaN and its
offset unspecified; in training the NaN reaches the loss, and
tensor.require_finite stops the run.

All functions are allocation-heavy but vectorized. This is the only kernel
set: runs reproduce bit for bit wherever numpy and its BLAS are the same.
BACKEND names it in run manifests.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

BACKEND = "numpy"


def _correlate(x, w, pad):
    """Stride-1 cross-correlation of (B, C, H, W) with (O, C, kh, kw), x
    zero-padded by pad on every side: (B, O, H + 2·pad − kh + 1, ...)."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    b, c, h, wd = x.shape
    kh, kw = w.shape[2], w.shape[3]
    sb, sc, sh, sw = x.strides
    # view of every (kh, kw) patch: (B, C, Ho, Wo, kh, kw)
    win = as_strided(x, shape=(b, c, h - kh + 1, wd - kw + 1, kh, kw),
                     strides=(sb, sc, sh, sw, sh, sw), writeable=False)
    return np.einsum("bihwkl,oikl->bohw", win, w, optimize=True)


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


def maxpool2_forward(x):
    """2x2 stride-2 max pool of (B, C, H, W), H and W even. Returns (y, idx):
    y (B, C, H/2, W/2) float64, C-contiguous, and idx int8 in [0, 4), the
    row-major offset in each window that y came from, lowest offset on ties.

    y is the elementwise max of the four window views a, b, c, d (offsets
    0-3). np.maximum(p, q) returns q when the two compare equal (the kernel
    tests pin this through the signs of zero), so every pair puts its lower
    offset second and the lowest offset decides the sign of a ±0.0 maximum. idx = na · (1 + nb · (1 + nc)) over the 0/1 flags
    na = (a != y), nb = (b != y), nc = (c != y): 0 if a == y, else 1 if
    b == y, else 2 if c == y, else 3, so the tie rule holds by construction.
    A window holding NaN gives y NaN and an unspecified idx."""
    a, b, c, d = _windows(x)
    y = np.maximum(b, a)
    np.maximum(np.maximum(d, c), y, out=y)
    # bool arrays are 0/1 bytes, so each flag is an int8 view, not a copy
    idx = np.not_equal(c, y).view(np.int8)
    idx += 1
    idx *= np.not_equal(b, y).view(np.int8)
    idx += 1
    idx *= np.not_equal(a, y).view(np.int8)
    return y, idx


def maxpool2_backward(dy, idx):
    """d loss / d x of maxpool2_forward: dy at each window's idx offset and
    +0.0 at the other three, written as four strided (B, C, H/2, W/2)
    slices of a (B, C, H, W) output."""
    b, c, ho, wo = dy.shape
    dx = np.empty((b, c, 2 * ho, 2 * wo))
    for n, view in enumerate(_windows(dx)):
        view[...] = np.where(idx == n, dy, 0.0)
    return dx
