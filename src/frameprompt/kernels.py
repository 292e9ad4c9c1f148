"""Conv/pool forward and backward kernels in pure numpy.

Shared shape conventions: images are (B, C, H, W) float64 C-contiguous,
conv weights are (Cout, Cin, kh, kw). All functions are allocation-heavy but
vectorized. This is the only kernel set: runs reproduce bit for bit wherever
numpy and its BLAS are the same. BACKEND names it in run manifests.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

BACKEND = "numpy"


def _windows(x, kh, kw, stride):
    # view of every (kh, kw) patch: (B, C, Ho, Wo, kh, kw)
    b, c, h, w = x.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    sb, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(b, c, ho, wo, kh, kw),
        strides=(sb, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _pad(x, pad):
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def conv2d_forward(x, w, stride, pad):
    xp = _pad(x, pad)
    win = _windows(xp, w.shape[2], w.shape[3], stride)
    return np.einsum("bihwkl,oikl->bohw", win, w, optimize=True)


def conv2d_backward_input(dy, w, stride, pad, in_h, in_w):
    """d loss / d x given d loss / d y. Output shape (B, Cin, in_h, in_w)."""
    b, co, ho, wo = dy.shape
    _, ci, kh, kw = w.shape
    # dilate dy by the stride, then full-correlate with the rotated kernel
    dil_h = (ho - 1) * stride + 1
    dil_w = (wo - 1) * stride + 1
    dil = np.zeros((b, co, dil_h, dil_w), dtype=np.float64)
    dil[:, :, ::stride, ::stride] = dy
    full = np.pad(dil, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    win = _windows(full, kh, kw, 1)
    w_rot = w[:, :, ::-1, ::-1]
    span = np.einsum("bohwkl,oikl->bihw", win, w_rot, optimize=True)
    # windows that never reached the padded tail contribute nothing there
    dxp = np.zeros((b, ci, in_h + 2 * pad, in_w + 2 * pad), dtype=np.float64)
    dxp[:, :, : span.shape[2], : span.shape[3]] = span
    if pad == 0:
        return dxp
    return np.ascontiguousarray(dxp[:, :, pad : pad + in_h, pad : pad + in_w])


def conv2d_backward_weight(x, dy, stride, pad, kh, kw):
    xp = _pad(x, pad)
    win = _windows(xp, kh, kw, stride)
    return np.einsum("bihwkl,bohw->oikl", win, dy, optimize=True)


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
