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


def maxpool2_forward(x):
    """2x2 stride-2 max pool. Returns (y, idx) with idx in [0,4) per window,
    ties resolved to the lowest linear offset (row-major within the window)."""
    b, c, h, w = x.shape
    win = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(b, c, h // 2, w // 2, 4)
    idx = np.argmax(flat, axis=-1).astype(np.int8)
    y = np.take_along_axis(flat, idx[..., None].astype(np.int64), axis=-1)[..., 0]
    return np.ascontiguousarray(y), idx


def maxpool2_backward(dy, idx):
    b, c, ho, wo = dy.shape
    flat = np.zeros((b, c, ho, wo, 4), dtype=np.float64)
    np.put_along_axis(flat, idx[..., None].astype(np.int64), dy[..., None], axis=-1)
    win = flat.reshape(b, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(win.reshape(b, c, ho * 2, wo * 2))
