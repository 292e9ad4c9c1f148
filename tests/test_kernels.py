"""Kernel contracts: the numpy kernels must agree with direct-loop oracles
to float64 working precision, and the discrete pooling choices must match
exactly."""

import numpy as np
import pytest

import _helpers as H
from frameprompt import kernels

CASES = [
    dict(x=(2, 3, 8, 8), w=(4, 3, 3, 3), stride=1, pad=1),
    dict(x=(1, 2, 9, 9), w=(3, 2, 3, 3), stride=2, pad=0),
    dict(x=(2, 4, 7, 5), w=(2, 4, 3, 3), stride=2, pad=2),
    dict(x=(1, 1, 5, 5), w=(1, 1, 5, 5), stride=1, pad=0),
]


@pytest.mark.parametrize("case", CASES)
def test_conv_kernels_match_oracle(case):
    rng = np.random.default_rng(42)
    x = rng.standard_normal(case["x"])
    w = rng.standard_normal(case["w"])
    s, p = case["stride"], case["pad"]
    ya = kernels.conv2d_forward(x, w, s, p)
    yb = H.oracle_conv2d_forward(x, w, s, p)
    assert ya.shape == yb.shape
    assert np.allclose(ya, yb, rtol=1e-12, atol=1e-12)
    dy = rng.standard_normal(ya.shape)
    dxa = kernels.conv2d_backward_input(dy, w, s, p, x.shape[2], x.shape[3])
    dxb = H.oracle_conv2d_backward_input(dy, w, s, p, x.shape[2], x.shape[3])
    assert dxa.shape == dxb.shape
    assert np.allclose(dxa, dxb, rtol=1e-12, atol=1e-12)
    dwa = kernels.conv2d_backward_weight(x, dy, s, p, w.shape[2], w.shape[3])
    dwb = H.oracle_conv2d_backward_weight(x, dy, s, p, w.shape[2], w.shape[3])
    assert dwa.shape == dwb.shape
    assert np.allclose(dwa, dwb, rtol=1e-12, atol=1e-12)


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


def test_conv_forward_matches_direct_sum():
    rng = np.random.default_rng(44)
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    y = kernels.conv2d_forward(x, w, 1, 1)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.zeros_like(y)
    for o in range(3):
        for oy in range(5):
            for ox in range(5):
                want[0, o, oy, ox] = (xp[0, :, oy:oy + 3, ox:ox + 3] * w[o]).sum()
    assert np.allclose(y, want, rtol=1e-12, atol=1e-12)


def test_backward_input_zeroes_dead_tail():
    # with stride 2 on a 10-wide input the last row/column is never touched
    rng = np.random.default_rng(45)
    x = rng.standard_normal((1, 1, 10, 10))
    w = rng.standard_normal((1, 1, 3, 3))
    y = kernels.conv2d_forward(x, w, 2, 0)
    dy = np.ones_like(y)
    dx = kernels.conv2d_backward_input(dy, w, 2, 0, 10, 10)
    assert np.all(dx[:, :, 9, :] == 0.0)
    assert np.all(dx[:, :, :, 9] == 0.0)


def test_default_backend_exported():
    assert kernels.BACKEND == "numpy"
    have = {"conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight",
            "maxpool2_forward", "maxpool2_backward"}
    assert have <= set(dir(kernels))
