"""Kernel contracts: the numpy kernels must agree with direct-loop oracles
to float64 working precision, and the discrete pooling choices must match
exactly."""

import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    dict(x=(3, 4, 6, 6), w=(5, 4, 1, 1)),
    dict(x=(0, 3, 8, 8), w=(4, 3, 3, 3)),
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
    H.same_bits(kernels.conv2d_backward_weight(x, _channel_major(dy), k), dwa)
    if len(x) == 0:
        assert not dwa.any()


def _channel_major(a):
    """a's values in (C, B, H, W) memory, as the (B, C, H, W) view that
    maxpool2_backward returns with channel_major true."""
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


def _conv_all(x, w, dy):
    """The three conv directions; the weight gradient from a channel-major
    dy must have the same bits."""
    dw = kernels.conv2d_backward_weight(x, dy, w.shape[2])
    H.same_bits(kernels.conv2d_backward_weight(x, _channel_major(dy), w.shape[2]), dw)
    return kernels.conv2d_forward(x, w), kernels.conv2d_backward_input(dy, w), dw


@pytest.mark.parametrize("batch", [7, 1])
@pytest.mark.parametrize("budget", [1, 55296])
def test_conv_blocks_match_one_block(monkeypatch, batch, budget):
    """With GEMM_MIN at 1, so that even these small products are cut, a
    column budget below one image's columns runs every image alone (seven
    blocks: an even count would need a block of two); one of 55296 bytes
    (four forward images, three backward-input ones) splits a batch of 7
    into uneven blocks: forward 3 + 4, backward-input 1 + 2 + 2 + 2. Those
    equal the one-block run bit for bit. Backward-weight cuts its 27 output
    columns into three blocks of 9 whatever the budget, as a block holds at
    least twice dy's 4 rows. Those products are far under OpenBLAS's
    small-matrix size, which may sum in another order: they must match the
    one-block run to 1e-12. All three match the oracles to 1e-12."""
    rng = np.random.default_rng(46)
    x = rng.standard_normal((batch, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    dy = rng.standard_normal((batch, 4, 8, 8))
    whole = _conv_all(x, w, dy)
    monkeypatch.setattr(kernels, "BLOCK_BYTES", budget)
    monkeypatch.setattr(kernels, "GEMM_MIN", 1)
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


def _unbiased(x):
    """A copy of x, since the pool forward adds its bias in place, and a
    bias of -0.0, which adds nothing, not even to a -0.0: the pool sees x's
    own bits."""
    return x.copy(), np.full(x.shape[1], -0.0)


def _pool_both(x, dy):
    """Both pools; the backward written channel-major must have the same
    bits, in (C, B, H, W) memory."""
    y, idx = kernels.maxpool2_forward(*_unbiased(x))
    dx = kernels.maxpool2_backward(dy, idx)
    major = kernels.maxpool2_backward(dy, idx, channel_major=True)
    assert major.transpose(1, 0, 2, 3).flags.c_contiguous
    H.same_bits(major, dx)
    return y, idx, dx


@pytest.mark.parametrize("budget", [1, 3 << 20, None])
@pytest.mark.parametrize("shape", [(16, 32, 16), (3, 16, 32)])
def test_conv_blocks_are_bit_identical_at_encoder_shapes(monkeypatch, budget, shape):
    """conv2 and conv1 as the encoder runs them, at batches 0 to 64, and both
    pools on the conv output and on the tie and signed-zero input, give the
    same bits at two lanes, and at five (more than the cores, switching
    threads as often as the interpreter can), as at one, and as one block at
    one lane (GEMM_MIN beyond any product). The weight gradient from a
    channel-major dy and the channel-major pool backward match too. The
    budgets run every image alone, or as few together as hold GEMM_MIN
    multiply-adds (conv1 forward at batch 13: 3, 3, 3, 4), in 3 MiB blocks
    (conv2 forward at batch 61: 7 or 8 images in 8 blocks) and at the
    defaults (conv2 forward at 61: 22 blocks of 2 or 3 images, its
    backward-input 61 blocks of one). Backward-weight cuts its output
    columns whatever the budget: at 64, conv1's 27 are one block and
    conv2's 144 two of 72. No block holds fewer than GEMM_MIN multiply-adds
    unless it is the only one, so each is summed as the whole product.
    Batch 0 gives empty (0, O, H, W) maps and a zero weight gradient."""
    c, o, hw = shape
    rng = np.random.default_rng(47)
    w = rng.standard_normal((o, c, 3, 3))
    tie, grid = H.tie_input(rng)
    tie_dy = rng.choice(grid, size=(3, 4, 4, 5))
    default = kernels.BLOCK_BYTES, kernels.GEMM_MIN
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for b in (0, 1, 13, 16, 61, 64):
                x = rng.standard_normal((b, c, hw, hw))
                dy = rng.standard_normal((b, o, hw, hw))
                pool_dy = rng.standard_normal((b, o, hw // 2, hw // 2))
                pool_dy[:, ::2] *= -0.0
                monkeypatch.setattr(kernels, "GEMM_MIN", 1 << 62)
                monkeypatch.setattr(kernels, "LANES", 1)
                whole = _conv_all(x, w, dy)
                whole += _pool_both(whole[0], pool_dy) + _pool_both(tie, tie_dy)
                assert whole[0].shape == (b, o, hw, hw) and whole[1].shape == (b, c, hw, hw)
                if b == 0:
                    assert whole[2].shape == w.shape and not whole[2].any()
                monkeypatch.setattr(kernels, "GEMM_MIN", default[1])
                monkeypatch.setattr(kernels, "BLOCK_BYTES", budget or default[0])
                monkeypatch.setattr(kernels, "_POOL", pool)
                runs = []
                for lanes in (1, 2, 5):
                    monkeypatch.setattr(kernels, "LANES", lanes)
                    got = _conv_all(x, w, dy)
                    runs.append(got + _pool_both(got[0], pool_dy) + _pool_both(tie, tie_dy))
                for one, two, five, want in zip(*runs, whole):
                    H.same_bits(two, one)
                    H.same_bits(five, one)
                    H.same_bits(one, want)
    finally:
        sys.setswitchinterval(switch)


def _gemms(monkeypatch, call):
    """(first output column, operand shapes) of every GEMM that call() makes,
    in column order, whichever thread makes it."""
    seen = []
    matmul = np.matmul

    def record(a, b, out):
        seen.append(((out.ctypes.data - out.base.ctypes.data) // 8, a.shape, b.shape))
        return matmul(a, b, out=out)

    with monkeypatch.context() as m:
        m.setattr(kernels.np, "matmul", record)
        call()
    return sorted(seen)


@pytest.mark.parametrize("shape", [(16, 32, 16), (3, 16, 32)])
def test_conv_block_geometry_ignores_the_lane_count(monkeypatch, shape):
    """Each conv direction cuts the same blocks and makes the same GEMMs at
    one, two and five lanes, so its bits cannot depend on the lane count.
    The blocks tile the output's columns in order, each holds at least
    GEMM_MIN multiply-adds unless it is the only one, and a count of
    several is even, so that two lanes get equal shares, unless an even
    count would need a wider block than the widest (conv2's backward-input
    at 13 and 61, one image per block). The batches include conv1's
    backward-input on prompt stacks of 1, 13 and 16 (four blocks of four
    images)."""
    c, o, hw = shape
    rng = np.random.default_rng(48)
    w = rng.standard_normal((o, c, 3, 3))
    with ThreadPoolExecutor(4) as pool:
        monkeypatch.setattr(kernels, "_POOL", pool)
        for b in (1, 13, 16, 61, 64):
            x = rng.standard_normal((b, c, hw, hw))
            dy = rng.standard_normal((b, o, hw, hw))
            for call in (lambda: kernels.conv2d_forward(x, w),
                         lambda: kernels.conv2d_backward_input(dy, w),
                         lambda: kernels.conv2d_backward_weight(x, dy, 3)):
                runs = []
                for lanes in (1, 2, 5):
                    monkeypatch.setattr(kernels, "LANES", lanes)
                    runs.append(_gemms(monkeypatch, call))
                assert runs[1] == runs[0] and runs[2] == runs[0]
                start = 0
                for first, (rows, k), (k2, width) in runs[0]:
                    assert first == start and k == k2
                    assert rows * k * width >= kernels.GEMM_MIN or len(runs[0]) == 1
                    start += width
                count, widest = len(runs[0]), max(g[2][1] for g in runs[0])
                assert count == 1 or count % 2 == 0 or -(-start // (count - 1)) > widest


def _traced_peak(call):
    """Bytes that call() allocates at its peak, traced by tracemalloc; it
    runs once untraced first, so that the lanes' threads start outside the
    traced window."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("direction, shape", [("fwd", (3, 16, 32)), ("fwd", (16, 32, 16)),
                                              ("bwd_input", (16, 32, 16))])
def test_conv_scratch_is_one_block_per_lane(direction, shape):
    """At the encoder's shapes and batch 64, a conv allocates its output,
    its padded input and, per lane, one block of about 1 MiB of columns,
    whatever the batch: the traced peak stays within those plus 256 KiB.
    (conv1's backward-input runs only on prompt stacks, not on batches.)"""
    c, o, hw = shape
    b, block = 64, 1 << 20
    rng = np.random.default_rng(49)
    w = rng.standard_normal((o, c, 3, 3))
    if direction == "fwd":
        x = rng.standard_normal((b, c, hw, hw))
        call, cin, cout = lambda: kernels.conv2d_forward(x, w), c, o
    else:
        dy = rng.standard_normal((b, o, hw, hw))
        call, cin, cout = lambda: kernels.conv2d_backward_input(dy, w), o, c
    peak = _traced_peak(call)
    out, padded = b * cout * hw * hw * 8, b * cin * (hw + 2) ** 2 * 8
    assert peak <= out + padded + kernels.LANES * block + (256 << 10)


def test_odd_batch_scratch_stays_one_image_per_lane():
    """conv2's backward-input at batch 61 runs one image per block, an odd
    count: an even one would need a block of two images and double each
    lane's scratch. The traced peak stays within the output, the padded
    input and one image's columns per lane, plus 256 KiB."""
    b, c, o, hw = 61, 16, 32, 16
    rng = np.random.default_rng(51)
    w = rng.standard_normal((o, c, 3, 3))
    dy = rng.standard_normal((b, o, hw, hw))
    peak = _traced_peak(lambda: kernels.conv2d_backward_input(dy, w))
    out, padded, image = b * c * hw * hw * 8, b * o * (hw + 2) ** 2 * 8, o * 9 * hw * hw * 8
    assert peak <= out + padded + kernels.LANES * image + (256 << 10)


@pytest.mark.parametrize("shape", [(16, 32, 16), (3, 16, 32)])
def test_weight_gradient_scratch_is_padded_input_and_columns(shape):
    """At the encoder's shapes and batch 64, the weight gradient from a
    channel-major dy, as pretraining hands it over, allocates its padded
    input, the (Cin·9, 64·H·W) columns and its output, and no copy of dy:
    the traced peak stays within those plus 256 KiB."""
    c, o, hw = shape
    b = 64
    rng = np.random.default_rng(50)
    x = rng.standard_normal((b, c, hw, hw))
    dy = _channel_major(rng.standard_normal((b, o, hw, hw)))
    peak = _traced_peak(lambda: kernels.conv2d_backward_weight(x, dy, 3))
    padded, cols, out = b * c * (hw + 2) ** 2 * 8, c * 9 * b * hw * hw * 8, o * c * 9 * 8
    assert peak <= padded + cols + out + (256 << 10)
    assert o * b * hw * hw * 8 > 256 << 10  # a copy of dy would break the bound


def _check_pool(x, dy):
    """The pool kernels on x with a zero bias against the oracle: y is its
    max after relu, idx its offset plus 4 where relu zeroed y, and the
    backward its scatter of dy · (y > 0), byte for byte (where relu zeroed
    y, dy · 0.0 keeps dy's sign). Returns idx."""
    ya, ia = kernels.maxpool2_forward(*_unbiased(x))
    yb, ib = H.oracle_maxpool2_forward(x)
    assert ia.dtype == np.int8 and ia.shape == ya.shape == yb.shape
    assert ya.dtype == np.float64 and ya.flags.c_contiguous
    H.same_bits(ya, np.where(yb > 0, yb, 0.0))
    assert np.array_equal(ia & 3, ib)
    assert np.array_equal(ia, ib + 4 * (yb <= 0))
    dxa = kernels.maxpool2_backward(dy, ia)
    assert dxa.dtype == np.float64 and dxa.flags.c_contiguous
    H.same_bits(dxa, H.oracle_maxpool2_backward(dy * (yb > 0), ib))
    return ia


def test_maxpool_kernels_match_oracle_exactly():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((3, 5, 8, 6))
    # inject exact ties to exercise the lowest-offset rule
    x[0, 0, 0:2, 0:2] = 1.5
    x[1, 2, 4:6, 2:4] = -0.25
    ia = _check_pool(x, rng.standard_normal((3, 5, 4, 3)))
    assert ia[0, 0, 0, 0] == 0 and ia[1, 2, 2, 1] == 4


def test_maxpool_kernels_keep_tie_rule_and_zero_signs():
    """Ties go to the lowest row-major offset, as in the oracle's scan. The
    first plane holds all 16 sign patterns of an all-zero window, then
    windows that are all equal, all negative, and tied at zero with mixed
    signs; the rest are integer-grid values that tie often. dy holds ±0.0
    too, so the backward's signs are checked as well as its values."""
    rng = np.random.default_rng(45)
    x, grid = H.tie_input(rng)
    ia = _check_pool(x, rng.choice(grid, size=(3, 4, 4, 5)))
    # the first plane's windows in the order they were placed
    i0 = ia[0, 0].reshape(-1)
    assert np.all(i0[:16] == 4) and i0[16] == 0 and i0[17] == 4
    assert i0[18] == 5 and i0[19] == 5


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


# ----------------------------------------------------------------- map_lanes

class _CountingPool:
    """A thread pool that records the thread each submit comes from."""

    def __init__(self, pool):
        self.pool, self.submitters = pool, []

    def submit(self, fn, *args):
        self.submitters.append(threading.get_ident())
        return self.pool.submit(fn, *args)


@pytest.fixture
def lane_counts(monkeypatch):
    """Yields (lanes, pool) for one, two and five lanes, with kernels'
    LANES and _POOL patched to them."""
    def counts():
        with ThreadPoolExecutor(4) as pool:
            for lanes in (1, 2, 5):
                counting = _CountingPool(pool)
                monkeypatch.setattr(kernels, "LANES", lanes)
                monkeypatch.setattr(kernels, "_POOL", counting)
                yield lanes, counting
    return counts


def test_map_lanes_keeps_item_order_and_lanes(lane_counts):
    """[fn(x) for x in items] for 0, 1, LANES and 2·LANES + 1 items, and
    for 200 with threads switching as often as the interpreter can; item i
    runs on lane i % lanes, lane 0 in the caller, and map_lanes submits
    one job per other lane."""
    caller = threading.get_ident()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for lanes, pool in lane_counts():
            for n in (0, 1, lanes, 2 * lanes + 1, 200):
                del pool.submitters[:]
                threads = {}

                def fn(i):
                    threads[i] = threading.get_ident()
                    return 10 * i

                assert kernels.map_lanes(fn, iter(range(n))) == [10 * i for i in range(n)]
                used = max(1, min(lanes, n))
                assert pool.submitters == [caller] * (used - 1)
                for i in range(n):
                    assert threads[i] == threads[i % used]
                    assert (threads[i] == caller) == (i % used == 0) or used == 1
    finally:
        sys.setswitchinterval(switch)


def test_map_lanes_items_run_kernels_and_nested_maps_inline(lane_counts):
    """A kernel called inside an item never submits to the pool, and a
    nested map_lanes runs every item in the outer item's thread. The
    kernels' bits are those of a plain call."""
    rng = np.random.default_rng(49)
    xs = [rng.standard_normal((16, 3, 32, 32)) for _ in range(3)]
    w = rng.standard_normal((16, 3, 3, 3))
    bias = rng.standard_normal(16)
    want = [kernels.maxpool2_forward(kernels.conv2d_forward(x, w), bias) for x in xs]

    def item(x):
        outer = threading.get_ident()
        inner = kernels.map_lanes(lambda _: threading.get_ident(), range(4))
        assert inner == [outer] * 4
        return kernels.maxpool2_forward(kernels.conv2d_forward(x, w), bias)

    for lanes, pool in lane_counts():
        del pool.submitters[:]
        got = kernels.map_lanes(item, xs)
        assert len(pool.submitters) == min(lanes, len(xs)) - 1
        for (y, idx), (y0, idx0) in zip(got, want):
            H.same_bits(y, y0)
            H.same_bits(idx, idx0)
        # outside map_lanes the kernels use every lane again
        del pool.submitters[:]
        kernels.conv2d_forward(xs[0], w)
        assert bool(pool.submitters) == (lanes > 1)


def test_map_lanes_raises_the_lowest_failing_item(lane_counts):
    """Items 2, 3 and 6 fail: map_lanes raises item 2's error, the one a
    serial loop raises, at every lane count, and only after every lane has
    finished, the slow item 1 included."""
    for lanes, _ in lane_counts():
        done = []

        def fn(i):
            if i == 1:
                time.sleep(0.05)
                done.append(i)
            if i in (2, 3, 6):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as e:
            kernels.map_lanes(fn, range(8))
        assert e.value.args == (2,)
        assert done == [1]


def test_map_lanes_waits_for_every_lane_before_it_raises(lane_counts):
    """Item 0, on lane 0 in the caller, raises a KeyboardInterrupt, which
    the lanes do not catch: it reaches the caller only once the other
    lanes' items have finished, each after a sleep."""
    for lanes, _ in lane_counts():
        done = []

        def fn(i):
            if i == 0:
                raise KeyboardInterrupt
            time.sleep(0.05)
            done.append(i)

        with pytest.raises(KeyboardInterrupt):
            kernels.map_lanes(fn, range(2 * lanes))
        assert sorted(done) == [i for i in range(2 * lanes) if i % lanes]
