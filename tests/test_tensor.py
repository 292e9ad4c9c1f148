import numpy as np
import pytest

from frameprompt import tensor as T
from frameprompt.errors import ShapeError

from _helpers import assert_gradcheck, fd_grad, rel_err


def test_add_mul_grads():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((3, 4))
    assert_gradcheck(lambda tape, x: T.reduce_sum(T.mul(T.add(x, b), x)),
                     rng.standard_normal((3, 4)))


def test_scalar_operands():
    rng = np.random.default_rng(2)
    assert_gradcheck(lambda tape, x: T.reduce_sum(2.5 * (x + 1.0)),
                     rng.standard_normal((2, 3)))


def test_matmul_grad_both_sides():
    rng = np.random.default_rng(3)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))

    def with_a(tape, x):
        return T.reduce_sum(T.matmul(x, b0))

    def with_b(tape, x):
        return T.reduce_sum(T.matmul(a0, x))

    assert_gradcheck(with_a, a0)
    assert_gradcheck(with_b, b0)


def test_bias_add_grads():
    rng = np.random.default_rng(4)
    x2 = rng.standard_normal((5, 3))
    x4 = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal(3)
    assert_gradcheck(lambda tape, v: T.reduce_sum(T.mul(T.bias_add(x2, v),
                                                        T.bias_add(x2, v))), b)
    assert_gradcheck(lambda tape, v: T.reduce_sum(T.bias_add(v, b)), x4)


def test_relu_grad_and_idempotence():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4)) + 0.3  # keep entries off the kink
    x[np.abs(x) < 1e-2] = 0.5
    assert_gradcheck(lambda tape, v: T.reduce_sum(T.mul(T.relu(v), T.relu(v))), x)
    tape = T.Tape(0)
    once = T.relu(tape.var(x))
    twice = T.relu(once)
    assert np.array_equal(once.value, twice.value)


def test_maxpool_grad():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 4))
    assert_gradcheck(lambda tape, v: T.reduce_sum(T.mul(T.maxpool2d(v),
                                                        T.maxpool2d(v))), x)


def test_maxpool_tie_lowest_index():
    x = np.zeros((1, 1, 2, 2))
    tape = T.Tape(0)
    xv = tape.var(x, requires_grad=True)
    loss = T.reduce_sum(T.maxpool2d(xv))
    T.backward(loss)
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 0, 0] = 1.0  # all four tie; the first wins
    assert np.array_equal(xv.grad, expect)


def test_maxpool_idempotent_on_pooled_signal():
    # pooling an image rebuilt from its own pooled maxima changes nothing
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 2, 8, 8))
    tape = T.Tape(0)
    y = T.maxpool2d(tape.var(x)).value
    up = np.repeat(np.repeat(y, 2, axis=2), 2, axis=3)
    y2 = T.maxpool2d(tape.var(up)).value
    assert np.array_equal(y, y2)


def test_pool_then_relu_equals_relu_then_pool():
    """relu(maxpool(z)) is maxpool(relu(z)): equal values with equal sign
    bits, and input gradients equal under ==. The gradients may differ only
    in where a -0.0 sits: where a window's max is <= 0 both orders zero the
    whole window, but relu-first routes the (zeroed) cotangent to offset 0
    while pool-first routes it to the window's argmax. The input has
    all-non-positive windows, exact ties and signed zeros, and the
    cotangent has both signs."""
    rng = np.random.default_rng(17)
    z = rng.choice(np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]), size=(2, 3, 6, 8))
    z[0, 0, :2, :2] = -1.0                   # all equal, negative
    z[0, 0, :2, 2:4] = [[-0.0, 0.0], [-3.0, 0.0]]
    z[0, 1, :2, :2] = [[1.0, 2.0], [2.0, 2.0]]  # positive tie
    z[1, 2] = -np.abs(z[1, 2])               # a plane of non-positive windows
    w = rng.standard_normal((2, 3, 3, 4))

    def run(order):
        tape = T.Tape(0)
        zv = tape.var(z, requires_grad=True)
        out = order(zv)
        T.backward(T.reduce_sum(T.mul(out, w)))
        return out.value, zv.grad

    new, new_grad = run(lambda v: T.relu(T.maxpool2d(v)))
    old, old_grad = run(lambda v: T.maxpool2d(T.relu(v)))
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))
    assert np.array_equal(new_grad, old_grad)


def test_maxpool_odd_shape_rejected():
    tape = T.Tape(0)
    with pytest.raises(ShapeError):
        T.maxpool2d(tape.var(np.zeros((1, 1, 3, 4))))


def test_conv2d_input_grad():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((4, 3, 3, 3))
    x = rng.standard_normal((2, 3, 6, 6))
    assert_gradcheck(
        lambda tape, v: T.reduce_sum(T.mul(T.conv2d(v, w),
                                           T.conv2d(v, w))), x)


def test_conv2d_weight_grad_when_var():
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal((2, 3, 5, 5))
    w0 = rng.standard_normal((4, 3, 3, 3))
    assert_gradcheck(
        lambda tape, v: T.reduce_sum(T.mul(T.conv2d(x0, v),
                                           T.conv2d(x0, v))), w0)


def test_frozen_conv_weights_get_no_gradient():
    rng = np.random.default_rng(11)
    w = rng.standard_normal((4, 3, 3, 3))
    tape = T.Tape(0)
    xv = tape.var(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
    loss = T.reduce_sum(T.conv2d(xv, w))
    table = T.backward(loss)
    assert set(table) == {xv.node_id}
    for ref in tape.nodes:
        node = ref()
        assert node is None or node.grad is None or node is xv


@pytest.mark.parametrize("kernel", [(2, 2), (3, 5), (4, 3)])
def test_conv2d_needs_odd_square_kernel(kernel):
    tape = T.Tape(0)
    x = tape.var(np.zeros((1, 2, 6, 6)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.conv2d(x, np.zeros((1, 2) + kernel))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((5, 7)) * 40
    tape = T.Tape(0)
    s = T.softmax(tape.var(x)).value
    assert np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-9)


def test_softmax_grad():
    rng = np.random.default_rng(13)
    coef = rng.standard_normal((3, 5))
    assert_gradcheck(lambda tape, v: T.reduce_sum(T.mul(T.softmax(v), coef)),
                     rng.standard_normal((3, 5)))


def test_cross_entropy_matches_definition():
    rng = np.random.default_rng(14)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    tape = T.Tape(0)
    loss = T.cross_entropy(tape.var(logits), labels)
    # oracle: -log softmax picked per row, then mean
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.log(p[np.arange(6), labels]).mean()
    assert abs(float(loss.value) - want) < 1e-12


def test_cross_entropy_one_hot_is_zero():
    tape = T.Tape(0)
    loss = T.cross_entropy(tape.var(np.array([30.0, 0.0, 0.0, 0.0])), 0)
    assert 0.0 <= float(loss.value) < 1e-12


def test_cross_entropy_grad_single_and_batched():
    rng = np.random.default_rng(15)
    x1 = rng.standard_normal(5)
    assert_gradcheck(lambda tape, v: T.cross_entropy(v, 2), x1)
    xb = rng.standard_normal((4, 5))
    labels = np.array([0, 3, 1, 4])
    assert_gradcheck(lambda tape, v: T.cross_entropy(v, labels), xb)


def test_cross_entropy_rejects_bad_labels():
    tape = T.Tape(0)
    with pytest.raises(ShapeError):
        T.cross_entropy(tape.var(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ShapeError):
        T.cross_entropy(tape.var(np.zeros((2, 3))), np.array([-1, 0]))


def test_reduce_ops_grads():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 4))
    assert_gradcheck(lambda tape, v: T.mean(T.mul(v, v)), x)
    assert_gradcheck(lambda tape, v: T.reduce_sum(T.mean(T.mul(v, v), axis=0)), x)


def test_reshape_and_take_columns_grads():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 6))
    idx = np.array([4, 1, 1])  # duplicate column must accumulate
    assert_gradcheck(
        lambda tape, v: T.reduce_sum(T.mul(T.take_columns(v, idx),
                                           T.take_columns(v, idx))), x)
    assert_gradcheck(lambda tape, v: T.reduce_sum(T.mul(T.reshape(v, (3, 4)),
                                                        T.reshape(v, (3, 4)))), x)


def test_shape_errors_carry_both_shapes():
    tape = T.Tape(0)
    a = tape.var(np.zeros((2, 3)))
    b = tape.var(np.zeros((3, 2)))
    with pytest.raises(ShapeError) as e:
        T.add(a, b)
    assert "(2, 3)" in str(e.value) and "(3, 2)" in str(e.value)
    with pytest.raises(ShapeError):
        T.matmul(a, a)


def test_backward_needs_scalar():
    tape = T.Tape(0)
    v = tape.var(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.relu(v))


def test_grad_shape_matches_value_shape():
    rng = np.random.default_rng(18)
    tape = T.Tape(0)
    x = tape.var(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    w = rng.standard_normal((5, 3, 3, 3))
    loss = T.reduce_sum(T.relu(T.conv2d(x, w)))
    T.backward(loss)
    assert x.grad.shape == x.value.shape


def test_replay_is_bit_identical():
    def run():
        tape = T.Tape(99)
        x = tape.randn((2, 3, 8, 8), requires_grad=True)
        w = tape.randn((4, 3, 3, 3))
        y = T.relu(T.conv2d(x, w.value))
        loss = T.cross_entropy(T.reshape(T.maxpool2d(y), (2, -1)), np.array([1, 0]))
        T.backward(loss)
        return loss.value.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_randn_free_function_deterministic():
    a = T.randn((3, 3), seed=5)
    b = T.randn((3, 3), seed=5)
    c = T.randn((3, 3), seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gradient_table_keyed_by_node_id():
    rng = np.random.default_rng(19)
    tape = T.Tape(0)
    a = tape.var(rng.standard_normal((2, 2)), requires_grad=True)
    b = tape.var(rng.standard_normal((2, 2)), requires_grad=True)
    frozen = tape.var(rng.standard_normal((2, 2)))
    loss = T.reduce_sum(T.mul(T.add(a, frozen), b))
    table = T.backward(loss)
    assert set(table) == {a.node_id, b.node_id}
    assert np.array_equal(table[a.node_id], a.grad)
    assert frozen.grad is None
