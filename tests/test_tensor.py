import numpy as np
import pytest

from frameprompt import tensor as T
from frameprompt.errors import ShapeError

from _helpers import assert_gradcheck, project


def test_add_grads():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((3, 4))
    assert_gradcheck(lambda tape, x: project(T.add(x, b), x),
                     rng.standard_normal((3, 4)))


def test_matmul_grad_both_sides():
    rng = np.random.default_rng(3)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))

    def with_a(tape, x):
        return project(T.matmul(x, b0))

    def with_b(tape, x):
        return project(T.matmul(a0, x))

    assert_gradcheck(with_a, a0)
    assert_gradcheck(with_b, b0)


def test_bias_add_grads():
    rng = np.random.default_rng(4)
    x2 = rng.standard_normal((5, 3))
    x4 = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal(3)
    assert_gradcheck(lambda tape, v: project(T.bias_add(x2, v), T.bias_add(x2, v)), b)
    assert_gradcheck(lambda tape, v: project(T.bias_add(v, b)), x4)


def test_relu_grad_and_idempotence():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4)) + 0.3  # keep entries off the kink
    x[np.abs(x) < 1e-2] = 0.5
    assert_gradcheck(lambda tape, v: project(T.relu(v), T.relu(v)), x)
    tape = T.Tape()
    once = T.relu(tape.var(x))
    twice = T.relu(once)
    assert np.array_equal(once.value, twice.value)


def test_maxpool_grad():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 4))
    assert_gradcheck(lambda tape, v: project(T.maxpool2d(v), T.maxpool2d(v)), x)


def test_maxpool_tie_lowest_index():
    x = np.zeros((1, 1, 2, 2))
    tape = T.Tape()
    xv = tape.var(x, requires_grad=True)
    T.backward(project(T.maxpool2d(xv)))
    expect = np.zeros((1, 1, 2, 2))
    expect[0, 0, 0, 0] = 1.0  # all four tie; the first wins
    assert np.array_equal(xv.grad, expect)


def test_maxpool_idempotent_on_pooled_signal():
    # pooling an image rebuilt from its own pooled maxima changes nothing
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 2, 8, 8))
    tape = T.Tape()
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
        tape = T.Tape()
        zv = tape.var(z, requires_grad=True)
        out = order(zv)
        T.backward(project(out, w))
        return out.value, zv.grad

    new, new_grad = run(lambda v: T.relu(T.maxpool2d(v)))
    old, old_grad = run(lambda v: T.maxpool2d(T.relu(v)))
    assert np.array_equal(new, old)
    assert np.array_equal(np.signbit(new), np.signbit(old))
    assert np.array_equal(new_grad, old_grad)


def test_maxpool_odd_shape_rejected():
    tape = T.Tape()
    with pytest.raises(ShapeError):
        T.maxpool2d(tape.var(np.zeros((1, 1, 3, 4))))


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
    assert len(tape.nodes) == 14
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
    a = tape.var(np.zeros((2, 3)))
    b = tape.var(np.zeros((3, 2)))
    with pytest.raises(ShapeError) as e:
        T.add(a, b)
    assert "(2, 3)" in str(e.value) and "(3, 2)" in str(e.value)
    with pytest.raises(ShapeError):
        T.matmul(a, a)


def test_backward_needs_scalar():
    tape = T.Tape()
    v = tape.var(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.relu(v))


def test_grad_shape_matches_value_shape():
    rng = np.random.default_rng(18)
    tape = T.Tape()
    x = tape.var(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    w = rng.standard_normal((5, 3, 3, 3))
    loss = project(T.relu(T.conv2d(x, w)))
    T.backward(loss)
    assert x.grad.shape == x.value.shape


def test_replay_is_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        tape = T.Tape()
        x = tape.var(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        w = rng.standard_normal((4, 3, 3, 3))
        y = T.relu(T.conv2d(x, w))
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


def test_backward_fills_grad_of_trainable_leaves_only():
    rng = np.random.default_rng(19)
    tape = T.Tape()
    a = tape.var(rng.standard_normal((2, 2)), requires_grad=True)
    b = tape.var(rng.standard_normal((2, 2)), requires_grad=True)
    frozen = tape.var(rng.standard_normal((2, 2)))
    total = T.add(a, frozen)
    loss = project(total, b)
    assert T.backward(loss) is None
    assert np.array_equal(a.grad, b.value)
    assert np.array_equal(b.grad, a.value + frozen.value)
    assert frozen.grad is None and total.grad is None and loss.grad is None
