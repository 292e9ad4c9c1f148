"""Kernel contracts: the numpy kernels must agree with direct-loop oracles
to float64 working precision, and the discrete pooling choices must match
exactly."""

import numpy as np
import pytest

import _helpers as H
from frameprompt import kernels

# same-padded, as every conv of the encoder: the oracles run at stride 1 and
# pad k // 2, and the output keeps the input's height and width
CASES = [
    dict(x=(2, 3, 8, 8), w=(4, 3, 3, 3)),
    dict(x=(1, 2, 9, 9), w=(3, 2, 3, 3)),
    dict(x=(2, 4, 7, 5), w=(2, 4, 3, 3)),
    dict(x=(1, 1, 5, 5), w=(1, 1, 5, 5)),
]


@pytest.mark.parametrize("case", CASES)
def test_conv_kernels_match_oracle(case):
    rng = np.random.default_rng(42)
    x = rng.standard_normal(case["x"])
    w = rng.standard_normal(case["w"])
    k = w.shape[2]
    ya = kernels.conv2d_forward(x, w)
    yb = H.oracle_conv2d_forward(x, w, 1, k // 2)
    assert ya.shape == yb.shape == x.shape[:1] + w.shape[:1] + x.shape[2:]
    assert np.allclose(ya, yb, rtol=1e-12, atol=1e-12)
    dy = rng.standard_normal(ya.shape)
    dxa = kernels.conv2d_backward_input(dy, w)
    dxb = H.oracle_conv2d_backward_input(dy, w, 1, k // 2, x.shape[2], x.shape[3])
    assert dxa.shape == dxb.shape
    assert np.allclose(dxa, dxb, rtol=1e-12, atol=1e-12)
    dwa = kernels.conv2d_backward_weight(x, dy, k)
    dwb = H.oracle_conv2d_backward_weight(x, dy, 1, k // 2, k, k)
    assert dwa.shape == dwb.shape
    assert np.allclose(dwa, dwb, rtol=1e-12, atol=1e-12)


def _conv_all(x, w, dy):
    return (kernels.conv2d_forward(x, w), kernels.conv2d_backward_input(dy, w),
            kernels.conv2d_backward_weight(x, dy, w.shape[2]))


@pytest.mark.parametrize("batch", [7, 1])
@pytest.mark.parametrize("budget", [1, 55296])
def test_conv_blocks_match_one_block(monkeypatch, batch, budget):
    """A column budget below one image's columns runs every image alone; one
    of 55296 bytes (four forward images, three backward-input ones) splits a
    batch of 7 into uneven blocks: forward 4 + 3, backward-input 3 + 3 + 1.
    Those equal the one-block run bit for bit. Backward-weight blocks over
    the 3 input channels, one per block, so each block is a product only
    9 columns wide, which OpenBLAS may sum in another order: it must match
    the one-block run to 1e-12 (about 4e-14 apart here). All three match
    the oracles to 1e-12."""
    rng = np.random.default_rng(46)
    x = rng.standard_normal((batch, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    dy = rng.standard_normal((batch, 4, 8, 8))
    whole = _conv_all(x, w, dy)
    monkeypatch.setattr(kernels, "COLUMN_BYTES", budget)
    blocked = _conv_all(x, w, dy)
    oracles = (H.oracle_conv2d_forward(x, w, 1, 1),
               H.oracle_conv2d_backward_input(dy, w, 1, 1, 8, 8),
               H.oracle_conv2d_backward_weight(x, dy, 1, 1, 3, 3))
    for i, (got, want, oracle) in enumerate(zip(blocked, whole, oracles)):
        assert got.shape == oracle.shape
        assert np.allclose(got, oracle, rtol=1e-12, atol=1e-12)
        if i < 2:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 3 << 20, None])
@pytest.mark.parametrize("shape", [(61, 16, 32, 16), (13, 3, 16, 32)])
def test_conv_blocks_are_bit_identical_at_encoder_shapes(monkeypatch, budget, shape):
    """conv2 at batch 61 and conv1 at batch 13, as prompt training runs
    them: every image alone, 3 MiB blocks (conv2 forward 6 × 10 + 1 images,
    backward-input 12 × 5 + 1, backward-weight 8 × 2 channels) and the
    default budget (conv2 backward-input 42 + 19) give the same bits as one
    block."""
    b, c, o, hw = shape
    rng = np.random.default_rng(47)
    x = rng.standard_normal((b, c, hw, hw))
    w = rng.standard_normal((o, c, 3, 3))
    dy = rng.standard_normal((b, o, hw, hw))
    default = kernels.COLUMN_BYTES
    monkeypatch.setattr(kernels, "COLUMN_BYTES", 1 << 40)
    whole = _conv_all(x, w, dy)
    monkeypatch.setattr(kernels, "COLUMN_BYTES", budget or default)
    for got, want in zip(_conv_all(x, w, dy), whole):
        assert np.array_equal(got, want)


def test_maxpool_kernels_match_oracle_exactly():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((3, 5, 8, 6))
    # inject exact ties to exercise the lowest-offset rule
    x[0, 0, 0:2, 0:2] = 1.5
    x[1, 2, 4:6, 2:4] = -0.25
    ya, ia = kernels.maxpool2_forward(x)
    yb, ib = H.oracle_maxpool2_forward(x)
    assert np.array_equal(ya, yb)
    assert np.array_equal(ia, ib)
    assert ib[0, 0, 0, 0] == 0 and ib[1, 2, 2, 1] == 0
    dy = rng.standard_normal(ya.shape)
    assert np.array_equal(kernels.maxpool2_backward(dy, ia),
                          H.oracle_maxpool2_backward(dy, ib))


def test_maxpool_kernels_keep_tie_rule_and_zero_signs():
    """Ties go to the lowest row-major offset, and a ±0.0 maximum carries the
    sign of that offset, as in the oracle's scan. The first plane holds all
    16 sign patterns of an all-zero window, then windows that are all equal,
    all negative, and tied at zero with mixed signs; the rest are
    integer-grid values that tie often. dy holds ±0.0 too, so the
    backward's signs are checked as well as its values."""
    rng = np.random.default_rng(45)
    grid = np.array([-2.0, -1.0, -0.0, 0.0, 1.0])
    x = rng.choice(grid, size=(3, 4, 8, 10))
    signs = (np.arange(16)[:, None] >> np.arange(4)) & 1
    windows = list(np.where(signs == 1, -0.0, 0.0).reshape(16, 2, 2))
    windows += [np.full((2, 2), 1.5),                    # all equal
                np.full((2, 2), -2.0),                   # all equal, negative
                np.array([[-3.0, -1.0], [-1.0, -2.0]]),  # negative, tie at 1, 2
                np.array([[-1.0, -0.0], [0.0, -5.0]])]   # -0.0 ties +0.0
    for k, win in enumerate(windows):
        x[0, 0, 2 * (k // 5):2 * (k // 5) + 2, 2 * (k % 5):2 * (k % 5) + 2] = win
    ya, ia = kernels.maxpool2_forward(x)
    yb, ib = H.oracle_maxpool2_forward(x)
    assert ia.dtype == np.int8 and ia.shape == ya.shape == (3, 4, 4, 5)
    assert ya.dtype == np.float64 and ya.flags.c_contiguous
    assert np.array_equal(ya, yb) and np.array_equal(ia, ib)
    assert np.array_equal(np.signbit(ya), np.signbit(yb))
    # the first plane's windows in the order they were placed
    i0, y0 = ia[0, 0].reshape(-1), ya[0, 0].reshape(-1)
    assert np.all(i0[:18] == 0) and i0[18] == 1 and i0[19] == 1
    assert np.array_equal(np.signbit(y0[:16]), signs[:, 0] == 1)
    assert y0[18] == -1.0 and np.signbit(y0[19])
    dy = rng.choice(grid, size=ya.shape)
    dxa = kernels.maxpool2_backward(dy, ia)
    dxb = H.oracle_maxpool2_backward(dy, ib)
    assert dxa.dtype == np.float64 and dxa.flags.c_contiguous
    assert np.array_equal(dxa, dxb)
    assert np.array_equal(np.signbit(dxa), np.signbit(dxb))


def test_conv_forward_matches_direct_sum():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    y = kernels.conv2d_forward(x, w)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.zeros_like(y)
    for o in range(3):
        for oy in range(5):
            for ox in range(5):
                want[0, o, oy, ox] = (xp[0, :, oy:oy + 3, ox:ox + 3] * w[o]).sum()
    assert np.allclose(y, want, rtol=1e-12, atol=1e-12)


def test_default_backend_exported():
    assert kernels.BACKEND == "numpy"
    have = {"conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight",
            "maxpool2_forward", "maxpool2_backward"}
    assert have <= set(dir(kernels))
