import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import _helpers as H
from frameprompt import kernels, tensor as T
from frameprompt.errors import ShapeError

from _helpers import assert_gradcheck, project

EYE3 = np.eye(3)[:, :, None, None]  # a 1x1 conv that copies 3 channels
ZERO3 = np.zeros(3)


def _upsample(y):
    return np.repeat(np.repeat(y, 2, axis=2), 2, axis=3)


def test_add_grads():
    # conv_block's prompt-map add; a repeated route sums its samples' gradients
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    route = np.array([2, 0, 2, 2, 1])
    r = rng.standard_normal((5, 3, 2, 2))
    assert_gradcheck(lambda tape, m: project(T.conv_block(x, w, b, m, route), r),
                     rng.standard_normal((3, 3, 4, 4)))


def test_linear_matches_matmul_plus_bias():
    """The value is x @ w + b and the x, w and b rules give g @ w.T, x.T @ g
    and g.sum(axis=0), byte for byte; untaped, a plain ndarray comes back.
    x must be 2-d, w's rows must match x's columns and b w's columns."""
    rng = np.random.default_rng(3)
    x, w, b, g = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (3,), (5, 3)))
    tape = T.Tape()
    leaves = [tape.var(a, requires_grad=True) for a in (x, w, b)]
    y = T.linear(*leaves)
    H.same_bits(y.value, x @ w + b)
    grads = {parent: fn(g) for parent, fn in tape.rules[y.node_id]}
    for leaf, want in zip(leaves, (g @ w.T, x.T @ g, g.sum(axis=0))):
        H.same_bits(grads[leaf.node_id], want)
    plain = T.linear(x, w, b)
    assert type(plain) is np.ndarray
    H.same_bits(plain, x @ w + b)
    for bad in ((x[0], w, b), (x, w[1:], b), (x, w, b[1:]), (x, w, b[None])):
        with pytest.raises(ShapeError):
            T.linear(*bad)


def test_matmul_grad_both_sides():
    # linear's x @ w: gradients reach both operands
    rng = np.random.default_rng(3)
    x, w, b, r = (rng.standard_normal(s) for s in ((3, 4), (4, 2), (2,), (3, 2)))
    assert_gradcheck(lambda tape, v: project(T.linear(v, w, b), r), x)
    assert_gradcheck(lambda tape, v: project(T.linear(x, v, b), r), w)


def test_bias_add_grads():
    # linear's + b: the bias gradient sums the batch's rows
    rng = np.random.default_rng(4)
    x, w, b, r = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (3,), (5, 3)))
    assert_gradcheck(lambda tape, v: project(T.linear(x, w, v), r), b)
    assert_gradcheck(lambda tape, v: project(T.linear(x, w, v), T.linear(x, w, v)), b)


def test_relu_grad_and_idempotence():
    # conv_block over a copying 1x1 conv is relu(maxpool(x))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4, 4))
    x += np.sign(x) * 0.2  # keep entries off the kink
    x[:, 1] = -np.abs(x[:, 1])  # relu zeroes every window of channel 1
    assert_gradcheck(lambda tape, v: project(T.conv_block(v, EYE3, ZERO3),
                                             T.conv_block(v, EYE3, ZERO3)), x)
    tape = T.Tape()
    once = T.conv_block(tape.var(x), EYE3, ZERO3).value
    assert np.all(once >= 0) and not np.all(once > 0)
    # a block applied to its own output's upsampling changes nothing
    twice = T.conv_block(tape.var(_upsample(once)), EYE3, ZERO3).value
    assert np.array_equal(once, twice)


def test_maxpool_grad():
    # on positive inputs relu keeps every window, so this checks the pool's
    # gradient at each of them
    rng = np.random.default_rng(6)
    x = np.abs(rng.standard_normal((2, 3, 4, 4))) + 0.1
    assert_gradcheck(lambda tape, v: project(T.conv_block(v, EYE3, ZERO3),
                                             T.conv_block(v, EYE3, ZERO3)), x)


def test_maxpool_tie_lowest_index():
    x = np.ones((1, 1, 2, 2))
    tape = T.Tape()
    xv = tape.var(x, requires_grad=True)
    T.backward(project(T.conv_block(xv, np.ones((1, 1, 1, 1)), np.zeros(1))))
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 0, 0] = 1.0  # all four tie; the first wins
    assert np.array_equal(xv.grad, expect)


def test_maxpool_idempotent_on_pooled_signal():
    # pooling an image rebuilt from its own pooled maxima changes nothing
    rng = np.random.default_rng(7)
    x = np.abs(rng.standard_normal((2, 3, 8, 8)))
    tape = T.Tape()
    y = T.conv_block(tape.var(x), EYE3, ZERO3).value
    y2 = T.conv_block(tape.var(_upsample(y)), EYE3, ZERO3).value
    assert np.array_equal(y, y2)


def test_pool_then_relu_equals_relu_then_pool():
    """The pool kernel with a zero bias, relu(maxpool(z)), is maxpool(relu(z)):
    equal values with equal sign bits, and input gradients equal under ==.
    The gradients may differ only in where a -0.0 sits: where a window's max
    is <= 0 both orders zero the whole window, but relu-first routes the
    (zeroed) cotangent to offset 0 while pool-first routes it to the
    window's argmax. The input has all-non-positive windows, exact ties and
    signed zeros, and the cotangent has both signs. relu-first is composed
    from the oracles."""
    rng = np.random.default_rng(17)
    z = rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), size=(2, 3, 6, 8))
    z[0, 0, :2, :2] = -1.0                   # all equal, negative
    z[0, 0, :2, 2:4] = [[-0.0, 0.0], [-3.0, 0.0]]
    z[0, 1, :2, :2] = [[1.0, 2.0], [2.0, 2.0]]  # positive tie
    z[1, 2] = -np.abs(z[1, 2])               # a plane of non-positive windows
    dy = rng.standard_normal((2, 3, 3, 4))
    new, idx = kernels.maxpool2_forward(z.copy(), np.full(3, -0.0))  # adds nothing
    new_grad = kernels.maxpool2_backward(dy, idx)
    old, old_idx = H.oracle_maxpool2_forward(np.where(z > 0, z, 0.0))
    old_grad = H.oracle_maxpool2_backward(dy, old_idx) * (z > 0)
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))
    assert np.array_equal(new_grad, old_grad)
    assert np.array_equal(idx & 3, H.oracle_maxpool2_forward(z)[1])
    assert np.array_equal(idx >= 4, ~(new > 0))


def test_maxpool_odd_shape_rejected():
    tape = T.Tape()
    with pytest.raises(ShapeError):
        T.conv_block(tape.var(np.zeros((1, 1, 3, 4))), np.ones((1, 1, 1, 1)), np.zeros(1))


def test_conv2d_input_grad():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((4, 3, 3, 3))
    x = rng.standard_normal((2, 3, 6, 6))
    assert_gradcheck(lambda tape, v: project(T.conv2d(v, w), T.conv2d(v, w)), x)


def test_conv2d_weight_grad_when_var():
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal((2, 3, 5, 5))
    w0 = rng.standard_normal((4, 3, 3, 3))
    assert_gradcheck(lambda tape, v: project(T.conv2d(x0, v), T.conv2d(x0, v)), w0)


def test_frozen_conv_weights_get_no_gradient():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((4, 3, 3, 3))
    tape = T.Tape()
    xv = tape.var(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
    T.backward(project(T.conv2d(xv, w)))
    assert xv.grad is not None
    for ref in tape.nodes:
        node = ref()
        assert node is None or node.grad is None or node is xv


def test_taped_forward_keeps_only_the_leaf_and_the_output(tiny_encoder):
    # the tape keeps backward rules, not activations: after a prompted
    # encoder forward every intermediate is freed, and no rule holds a Var
    # or the tape, so no reference cycle forms
    enc, ds = tiny_encoder
    x = ds.images[:6]
    route = np.array([0, 2, 1, 1, 0, 2])
    tape = T.Tape()
    stack = tape.var(np.random.default_rng(3).standard_normal((3,) + x.shape[1:]),
                     requires_grad=True)
    feats = enc.features_var(x, stack, route)
    alive = [node for node in (ref() for ref in tape.nodes) if node is not None]
    assert len(tape.nodes) == 6
    assert len(alive) == 2 and alive[0] is stack and alive[1] is feats
    for rule in tape.rules.values():
        for _, fn in rule:
            for cell in fn.__closure__ or ():
                assert not isinstance(cell.cell_contents, (T.Var, T.Tape))
    T.backward(project(feats))
    assert stack.grad.shape == stack.value.shape and feats.grad is None


@pytest.mark.parametrize("kernel", [(2, 2), (3, 5), (4, 3)])
def test_conv2d_needs_odd_square_kernel(kernel):
    tape = T.Tape()
    x = tape.var(np.zeros((1, 2, 6, 6)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.conv2d(x, np.zeros((1, 2) + kernel))


def test_cross_entropy_matches_definition():
    rng = np.random.default_rng(14)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    tape = T.Tape()
    loss = T.cross_entropy(tape.var(logits), labels)
    # oracle: -log softmax picked per row, then mean
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.log(p[np.arange(6), labels]).mean()
    assert abs(float(loss.value) - want) < 1e-12


def test_cross_entropy_one_hot_is_zero():
    tape = T.Tape()
    loss = T.cross_entropy(tape.var(np.array([[30.0, 0.0, 0.0, 0.0]])), np.array([0]))
    assert 0.0 <= float(loss.value) < 1e-12


def test_cross_entropy_grad_single_and_batched():
    rng = np.random.default_rng(15)
    x1 = rng.standard_normal((1, 5))
    assert_gradcheck(lambda tape, v: T.cross_entropy(v, np.array([2])), x1)
    xb = rng.standard_normal((4, 5))
    labels = np.array([0, 3, 1, 4])
    assert_gradcheck(lambda tape, v: T.cross_entropy(v, labels), xb)


def test_weighted_cross_entropy_value_and_grad():
    # the sum of per-group means that one prompt-training tape minimizes
    rng = np.random.default_rng(17)
    xb = rng.standard_normal((5, 4))
    labels = np.array([0, 3, 1, 2, 3])
    weights = np.array([0.5, 1 / 3, 0.5, 1 / 3, 1 / 3])
    loss = T.cross_entropy(T.Tape().var(xb), labels, weights)
    pick = np.array([0, 2])
    rest = np.array([1, 3, 4])
    want = (float(T.cross_entropy(xb[pick], labels[pick]))
            + float(T.cross_entropy(xb[rest], labels[rest])))
    assert abs(float(loss.value) - want) < 1e-12
    assert_gradcheck(lambda tape, v: T.cross_entropy(v, labels, weights), xb)
    with pytest.raises(ShapeError):
        T.cross_entropy(xb, labels, weights[:4])


def test_cross_entropy_rejects_bad_labels():
    tape = T.Tape()
    with pytest.raises(ShapeError):
        T.cross_entropy(tape.var(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ShapeError):
        T.cross_entropy(tape.var(np.zeros((2, 3))), np.array([-1, 0]))
    with pytest.raises(ShapeError):
        T.cross_entropy(tape.var(np.zeros(3)), 0)  # a 1-d row is not a batch


def test_reshape_and_take_grads():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 6))
    cols = np.array([4, 1, 1])  # a duplicate column must accumulate
    assert_gradcheck(lambda tape, v: project(T.take(v, cols, 1), T.take(v, cols, 1)), x)
    stack = rng.standard_normal((3, 2, 4))
    route = np.array([2, 0, 2, 2, 1])  # a repeated route, as a shared prompt
    r = rng.standard_normal((5, 2, 4))
    assert_gradcheck(lambda tape, v: project(T.take(v, route, 0), r), stack)
    assert_gradcheck(lambda tape, v: project(T.reshape(v, (3, 4)), T.reshape(v, (3, 4))), x)


def test_take_matches_fancy_indexing_and_checks_indices():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((4, 6))
    cols = np.array([5, 0, 0])
    plain = T.take(x, cols, 1)
    assert np.array_equal(plain, x[:, cols])
    assert plain.strides == x[:, cols].strides  # numpy's layout, not a copy of it
    taped = T.take(T.Tape().var(x), np.array([3, 3, 1]), 0)
    assert np.array_equal(taped.value, x[[3, 3, 1]])
    for bad in (np.array([6]), np.array([-1]), np.zeros((1, 1), dtype=np.int64)):
        with pytest.raises(ShapeError):
            T.take(x, bad, 1)
    with pytest.raises(ShapeError):
        T.take(x, np.array([0]), 2)


def test_shape_errors_carry_both_shapes():
    tape = T.Tape()
    x = tape.var(np.zeros((2, 3, 4, 4)))
    maps = tape.var(np.zeros((1, 5, 2, 2)))
    with pytest.raises(ShapeError) as e:
        T.conv_block(x, np.zeros((5, 3, 3, 3)), np.zeros(5), maps, [0, 0])
    assert "(1, 5, 2, 2)" in str(e.value) and "(2, 5, 4, 4)" in str(e.value)
    a = tape.var(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        T.linear(a, a, np.zeros(3))


def test_backward_needs_scalar():
    tape = T.Tape()
    v = tape.var(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.reshape(v, (4,)))


def test_grad_shape_matches_value_shape():
    rng = np.random.default_rng(18)
    tape = T.Tape()
    x = tape.var(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    w = rng.standard_normal((5, 3, 3, 3))
    loss = project(T.conv_block(x, w, rng.standard_normal(5)))
    T.backward(loss)
    assert x.grad.shape == x.value.shape


def test_replay_is_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        tape = T.Tape()
        x = tape.var(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = rng.standard_normal((4, 3, 3, 3))
        y = T.conv_block(x, w, rng.standard_normal(4))
        loss = T.cross_entropy(T.reshape(y, (2, -1)), np.array([1, 0]))
        T.backward(loss)
        return loss.value.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_backward_fills_grad_of_trainable_leaves_only():
    rng = np.random.default_rng(19)
    tape = T.Tape()
    a = tape.var(rng.standard_normal(2), requires_grad=True)
    b = tape.var(rng.standard_normal((2, 2)), requires_grad=True)
    frozen = tape.var(rng.standard_normal((2, 2)))
    total = T.linear(frozen, np.eye(2), a)
    loss = project(total, b)
    assert T.backward(loss) is None
    assert np.array_equal(a.grad, b.value.sum(axis=0))
    assert np.array_equal(b.grad, frozen.value + a.value)
    assert frozen.grad is None and total.grad is None and loss.grad is None


@pytest.mark.parametrize("shape", [(64, 16, 32, 32), (64, 32, 16, 16), (61, 16, 32, 32),
                                   (16, 32, 16, 16), (3, 5, 4, 5), (1, 4, 2, 2), (0, 3, 2, 2)])
def test_bias_gradient_sums_like_numpy_in_either_layout(shape):
    """The bias rule gives g.sum(axis=(0, 2, 3)) byte for byte, from a
    C-contiguous g and from a channel-major one (a (B, C, H, W) view of
    (C, B, H, W) memory, as the pre-pool gradient is in pretraining).
    Channel 0 is all -0.0 and channel 1 mixes ±0.0, so the signs of zero
    sums must match too; the rest span sixteen decades, so that a change
    of summation order shows in the bits."""
    rng = np.random.default_rng(29)
    g = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    g[:, 0] = -0.0
    g[:, 1] = rng.choice([-0.0, 0.0], size=g[:, 1].shape)
    want = g.sum(axis=(0, 2, 3))
    major = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    H.same_bits(T._channel_sum(g), want)
    H.same_bits(T._channel_sum(major), want)


def _stage_reference(x, w, b, maps, route, dy):
    """One encoder stage composed from the oracles: conv, the gathered map
    add, bias, 2x2 max pool and np.where relu; then dy back through each to
    the x, w, b and maps gradients."""
    k = w.shape[2]
    z = H.oracle_conv2d_forward(x, w, 1, k // 2) + maps[route] + b[:, None, None]
    p, idx = H.oracle_maxpool2_forward(z)
    dz = H.oracle_maxpool2_backward(dy * (p > 0), idx)
    dm = np.zeros(maps.shape)
    np.add.at(dm, route, dz)
    return (np.where(p > 0, p, 0.0),
            H.oracle_conv2d_backward_input(dz, w, 1, k // 2, *x.shape[2:]),
            H.oracle_conv2d_backward_weight(x, dz, 1, k // 2, k, k),
            dz.sum(axis=(0, 2, 3)), dm)


def _stage(x, w, b, maps, route, dy):
    """conv_block's value and its x, w, b and maps gradients for output
    cotangent dy, which goes to the node's rules as backward hands it over,
    so its ±0.0 arrive unchanged; and the untaped value."""
    tape = T.Tape()
    leaves = [tape.var(a, requires_grad=True) for a in (x, w, b, maps)]
    y = T.conv_block(*leaves, route)
    grads = {parent: fn(dy) for parent, fn in tape.rules[y.node_id]}
    return ((y.value,) + tuple(grads[v.node_id] for v in leaves)
            + (T.conv_block(x, w, b, maps, route),))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_conv_block_matches_composed_oracles_bit_for_bit(monkeypatch):
    """Value and x, w, b and maps gradients equal the oracle composition
    byte for byte, taped and untaped, at 1, 2 and 5 lanes while threads
    switch as often as the interpreter can. Inputs are tie_input's grid, so
    every sum is exact in any order and pooling meets ties, zero maxima and
    all-negative windows; dy holds ±0.0 and negatives, so relu's dy · 0.0
    gives zeros of both signs. A NaN in a window makes its output +0.0, and
    an infinite bias, which cannot move after the max, is added before it.
    On random floats the untaped value, with the bias after the max, equals
    the taped one bit for bit."""
    rng = np.random.default_rng(23)
    tie, grid = H.tie_input(rng)  # (3, 4, 8, 10)
    route = np.array([2, 0, 2])
    cases = []
    for w in (np.eye(4)[:, :, None, None],  # pool input = tie_input's values
              rng.choice([-1.0, 0.0, 1.0], size=(5, 4, 3, 3))):
        o = len(w)
        b = rng.choice(grid, size=o)
        b[0] = -0.0
        maps = rng.choice(grid, size=(3, o, 8, 10)) * (w.shape[2] > 1)
        dy = rng.choice(grid, size=(3, o, 4, 5))
        cases.append(((tie, w, b, maps, route, dy), _stage_reference(tie, w, b, maps, route, dy)))
    nan_maps = cases[1][0][3].copy()
    nan_maps[2, 1, 5, 6] = np.nan  # window (2, 3) of channel 1 for samples 0 and 2
    inf_maps = cases[1][0][3].copy()
    inf_maps[0, 2, 0, 0] = -np.inf  # with +inf bias: NaN in window (0, 0) of sample 1
    inf_b = cases[1][0][2].copy()
    inf_b[2] = np.inf
    x, w, b, maps = (rng.standard_normal(s) for s in ((6, 4, 8, 10), (5, 4, 3, 3), (5,),
                                                        (3, 5, 8, 10)))
    floats = (x, w, b, maps, rng.integers(0, 3, size=6), rng.standard_normal((6, 5, 4, 5)))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            monkeypatch.setattr(kernels, "_POOL", pool)
            for lanes in (1, 2, 5):
                monkeypatch.setattr(kernels, "LANES", lanes)
                for args, want in cases:
                    got = _stage(*args)
                    for g, r in zip(got, want + want[:1]):
                        H.same_bits(g, r)
                args = cases[1][0]
                for y in _stage(args[0], args[1], args[2], nan_maps, route, args[5])[::5]:
                    assert y[0, 1, 2, 3] == 0 and y[2, 1, 2, 3] == 0
                    assert not np.signbit(y[0, 1, 2, 3]) and not np.signbit(y[2, 1, 2, 3])
                for y in _stage(args[0], args[1], inf_b, inf_maps, route, args[5])[::5]:
                    assert y[1, 2, 0, 0] == 0 and np.isinf(y[1, 2]).sum() == 19
                taped, *_, untaped = _stage(*floats)
                H.same_bits(untaped, taped)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_conv_block_leaves_a_shared_conv_unwritten(monkeypatch):
    """Given conv2d(x, w) as conv, a stage reads it and writes nothing into
    it (it is read-only here, so a write would raise), and its value, taped
    or not, and its maps gradient equal those of the stage that runs its
    own conv, bit for bit, at 1, 2 and 5 lanes: without maps and with, with
    a finite bias and with a non-finite one, which is added before the max
    rather than after."""
    rng = np.random.default_rng(29)
    x, w, maps = (rng.standard_normal(s) for s in ((6, 4, 8, 10), (5, 4, 3, 3), (3, 5, 8, 10)))
    route = rng.integers(0, 3, size=6)
    dy = rng.standard_normal((6, 5, 4, 5))
    conv = kernels.conv2d_forward(x, w)
    conv.setflags(write=False)
    before = conv.copy()
    with ThreadPoolExecutor(4) as pool:
        monkeypatch.setattr(kernels, "_POOL", pool)
        for lanes in (1, 2, 5):
            monkeypatch.setattr(kernels, "LANES", lanes)
            for b in (rng.standard_normal(5), np.array([0.5, np.inf, -1.0, np.nan, 2.0])):
                for m, r in ((None, None), (maps, route)):
                    H.same_bits(T.conv_block(x, w, b, m, r, conv), T.conv_block(x, w, b, m, r))
                got, want = (_maps_grad(x, w, b, maps, route, dy, c) for c in (conv, None))
                for g, r in zip(got, want):
                    H.same_bits(g, r)
                H.same_bits(conv, before)


def _maps_grad(x, w, b, maps, route, dy, conv):
    """A taped stage's value and maps gradient for output cotangent dy."""
    tape = T.Tape()
    mv = tape.var(maps, requires_grad=True)
    y = T.conv_block(x, w, b, mv, route, conv)
    (_, fn), = tape.rules[y.node_id]
    return y.value, fn(dy)


def test_conv_block_checks_its_operands():
    x, w, b = np.zeros((2, 3, 4, 4)), np.zeros((5, 3, 3, 3)), np.zeros(5)
    maps = np.zeros((2, 5, 4, 4))
    for bad in (dict(b=np.zeros(4)), dict(w=np.zeros((5, 2, 3, 3))),
                dict(w=np.zeros((5, 3, 2, 2))), dict(route=[0]), dict(route=[0, 2]),
                dict(route=[-1, 0]), dict(maps=np.zeros((2, 5, 4, 2))),
                dict(conv=np.zeros((2, 5, 4, 2))), dict(conv=np.zeros((1, 5, 4, 4)))):
        args = dict(x=x, w=w, b=b, maps=maps, route=[0, 1]) | bad
        with pytest.raises(ShapeError):
            T.conv_block(**args)
