"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records every Var produced during a forward pass. backward() walks the
tape in reverse creation order, accumulating cotangents into a table keyed by
node id. Gradients are materialized only along paths that end in a leaf
created with requires_grad=True; frozen operands (plain ndarrays) never get
gradient buffers. An op whose operands are all plain ndarrays records nothing
and returns the plain result, so one forward definition serves inference as
well as training.

The tape holds its nodes by weak reference and each Var holds its tape and
(through its backward rule) its parents, so nothing forms a reference cycle:
a finished step's tape and its intermediates are freed as soon as the last
Var of it goes out of scope, without waiting for the cyclic collector.

All taped values are float64 and C-contiguous. Replaying a tape-seeded
program with the same seed is bit-identical: nothing here consults global
RNG state.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import kernels
from .errors import DataError, ShapeError


def _f64(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


class Tape:
    """Append-only op record plus the RNG for any stochastic node. nodes
    holds a weak reference per Var in creation order; len(nodes) is the node
    count, and a node nothing else references anymore reads None."""

    def __init__(self, seed: int = 0):
        self.nodes: list[weakref.ref] = []
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def var(self, value, requires_grad: bool = False, op: str = "leaf", parents=()) -> "Var":
        v = Var(self, len(self.nodes), _f64(value), requires_grad, op, tuple(parents))
        self.nodes.append(weakref.ref(v))
        return v

    def randn(self, shape, requires_grad: bool = False) -> "Var":
        # stochastic leaf; replay with the same tape seed reproduces it exactly
        return self.var(self._rng.standard_normal(shape), requires_grad, op="randn")


class Var:
    __slots__ = ("tape", "node_id", "value", "grad", "requires_grad", "op", "parents",
                 "_backward", "__weakref__")

    def __init__(self, tape, node_id, value, requires_grad, op, parents):
        self.tape = tape
        self.node_id = node_id
        self.value = value
        self.grad = None
        self.requires_grad = requires_grad
        self.op = op
        self.parents = parents
        self._backward = None

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Var(id={self.node_id}, op={self.op}, shape={self.value.shape})"


def _record(tape, value, parents_and_grads, op):
    """parents_and_grads: list of (Var, fn(g) -> grad contribution). Without
    a tape (no operand is a Var) the plain value is returned, untaped."""
    if tape is None:
        return value
    live = [(p, fn) for p, fn in parents_and_grads if isinstance(p, Var)]
    out = tape.var(value, requires_grad=any(p.requires_grad for p, _ in live), op=op,
                   parents=[p.node_id for p, _ in live])
    if out.requires_grad:
        def rule(g):
            return [(p, fn(g)) for p, fn in live if p.requires_grad]
        out._backward = rule
    return out


def _tape_of(*args) -> Tape | None:
    for a in args:
        if isinstance(a, Var):
            return a.tape
    return None


def _val(x):
    # no contiguity copy for plain operands: untaped inference keeps the
    # kernels' own output layout, as a hand-written ndarray forward would
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def add(a, b) -> Var:
    av, bv = _val(a), _val(b)
    if av.shape != bv.shape and av.ndim != 0 and bv.ndim != 0:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
    def side(v, g):
        return np.full_like(v, g.sum()) if v.ndim == 0 and g.ndim != 0 else g
    return _record(_tape_of(a, b), av + bv,
                   [(a, lambda g: side(av, g)), (b, lambda g: side(bv, g))], "add")


def mul(a, b) -> Var:
    av, bv = _val(a), _val(b)
    if av.shape != bv.shape and av.ndim != 0 and bv.ndim != 0:
        raise ShapeError(f"mul: shapes {av.shape} and {bv.shape} differ")
    def side(mine, other, g):
        full = g * other
        return full.sum() if mine.ndim == 0 and full.ndim != 0 else full
    return _record(_tape_of(a, b), av * bv,
                   [(a, lambda g: side(av, bv, g)), (b, lambda g: side(bv, av, g))], "mul")


def matmul(a, b) -> Var:
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: shapes {av.shape} and {bv.shape} incompatible")
    return _record(_tape_of(a, b), av @ bv,
                   [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)], "matmul")


def bias_add(x, b) -> Var:
    """Add a per-channel bias: (B,k)+(k,) or (B,C,H,W)+(C,)."""
    xv, bv = _val(x), _val(b)
    if bv.ndim != 1:
        raise ShapeError(f"bias_add: bias must be 1-d, got {bv.shape}")
    if xv.ndim == 2 and xv.shape[1] == bv.shape[0]:
        val = xv + bv
        reduce_b = lambda g: g.sum(axis=0)
    elif xv.ndim == 4 and xv.shape[1] == bv.shape[0]:
        val = xv + bv[None, :, None, None]
        reduce_b = lambda g: g.sum(axis=(0, 2, 3))
    else:
        raise ShapeError(f"bias_add: shapes {xv.shape} and {bv.shape} incompatible")
    return _record(_tape_of(x, b), val, [(x, lambda g: g), (b, reduce_b)], "bias_add")


def relu(x) -> Var:
    xv = _val(x)
    mask = xv > 0
    return _record(_tape_of(x), np.where(mask, xv, 0.0),
                   [(x, lambda g: g * mask)], "relu")


def maxpool2d(x) -> Var:
    """2x2 stride-2 max pooling; spatial dims must be even."""
    xv = _val(x)
    if xv.ndim != 4 or xv.shape[2] % 2 or xv.shape[3] % 2:
        raise ShapeError(f"maxpool2d: need (B,C,even,even), got {xv.shape}")
    y, idx = kernels.maxpool2_forward(xv)
    return _record(_tape_of(x), y,
                   [(x, lambda g: kernels.maxpool2_backward(_f64(g), idx))], "maxpool2d")


def conv2d(x, w) -> Var:
    """Same-padded stride-1 2-d cross-correlation: the output keeps the
    input's height and width, so the kernel must be odd and square. w may be
    a frozen ndarray (no weight gradient is ever materialized) or a Var
    (weight gradient flows, used in pretraining)."""
    xv, wv = _val(x), _val(w)
    if xv.ndim != 4 or wv.ndim != 4 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"conv2d: shapes {xv.shape} and {wv.shape} incompatible")
    k = wv.shape[2]
    if k % 2 == 0 or wv.shape[3] != k:
        raise ShapeError(f"conv2d: kernel must be odd and square, got {wv.shape[2:]}")
    return _record(
        _tape_of(x, w), kernels.conv2d_forward(xv, wv),
        [(x, lambda g: kernels.conv2d_backward_input(_f64(g), wv)),
         (w, lambda g: kernels.conv2d_backward_weight(xv, _f64(g), k))],
        "conv2d")


def reshape(x, shape) -> Var:
    xv = _val(x)
    old = xv.shape
    return _record(_tape_of(x), xv.reshape(shape),
                   [(x, lambda g: g.reshape(old))], "reshape")


def take_columns(x, indices) -> Var:
    """Column gather on a (B, d) matrix; the logit-mapping primitive."""
    xv = _val(x)
    idx = np.asarray(indices, dtype=np.int64)
    if xv.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"take_columns: got {xv.shape} with index shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= xv.shape[1]):
        raise ShapeError(f"take_columns: index out of range for {xv.shape}")
    def back(g):
        dx = np.zeros_like(xv)
        np.add.at(dx, (slice(None), idx), g)
        return dx
    return _record(_tape_of(x), xv[:, idx], [(x, back)], "take_columns")


def reduce_sum(x, axis=None) -> Var:
    xv = _val(x)
    def back(g):
        if axis is None:
            return np.broadcast_to(g, xv.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), xv.shape).copy()
    return _record(_tape_of(x), xv.sum(axis=axis), [(x, back)], "sum")


def mean(x, axis=None) -> Var:
    xv = _val(x)
    count = xv.size if axis is None else xv.shape[axis]
    def back(g):
        if axis is None:
            return np.broadcast_to(g / count, xv.shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis) / count, xv.shape).copy()
    return _record(_tape_of(x), xv.mean(axis=axis), [(x, back)], "mean")


def softmax(x) -> Var:
    """Numerically stable softmax along the last axis; rows sum to 1."""
    xv = _val(x)
    shifted = xv - xv.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    def back(g):
        return s * (g - (g * s).sum(axis=-1, keepdims=True))
    return _record(_tape_of(x), s, [(x, back)], "softmax")


def cross_entropy(logits, labels, weights=None) -> Var:
    """Mean negative log softmax probability of the true label, or with
    per-sample weights their weighted sum.

    Accepts ((k,), int) or ((B,k), (B,) int array); weights is None or a (B,)
    array. Loss of a one-hot-correct distribution is 0 within 1e-12 thanks to
    the log-sum-exp form.
    """
    lv = _val(logits)
    if lv.ndim == 1:
        lab = np.asarray([int(labels)], dtype=np.int64)
        lv2 = lv[None, :]
    elif lv.ndim == 2:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (lv.shape[0],):
            raise ShapeError(f"cross_entropy: labels {lab.shape} vs logits {lv.shape}")
        lv2 = lv
    else:
        raise ShapeError(f"cross_entropy: logits must be 1-d or 2-d, got {lv.shape}")
    b, k = lv2.shape
    if k == 0 or b == 0:
        raise ShapeError("cross_entropy: empty logits")
    if lab.min() < 0 or lab.max() >= k:
        raise ShapeError(f"cross_entropy: label out of range [0,{k})")
    if weights is not None:
        weights = _f64(weights)
        if weights.shape != (b,):
            raise ShapeError(f"cross_entropy: weights {weights.shape} vs {b} samples")
    m = lv2.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(lv2 - m).sum(axis=-1))
    per_sample = lse - lv2[np.arange(b), lab]
    loss = per_sample.mean() if weights is None else (weights * per_sample).sum()
    def back(g):
        p = np.exp(lv2 - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(b), lab] -= 1.0
        full = (float(g) / b) * p if weights is None else (float(g) * weights)[:, None] * p
        return full[0] if lv.ndim == 1 else full
    return _record(_tape_of(logits), loss, [(logits, back)], "cross_entropy")


def backward(loss: Var) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar loss.

    Returns the gradient table for every requires_grad leaf reachable from
    the loss, keyed by node id, and stores each gradient on var.grad. Grad
    shapes always match value shapes.
    """
    if loss.value.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got {loss.value.shape}")
    tape = loss.tape
    table: dict[int, np.ndarray] = {loss.node_id: np.ones(())}
    out: dict[int, np.ndarray] = {}
    for ref in reversed(tape.nodes[: loss.node_id + 1]):
        var = ref()
        # a dead node is unreachable from the loss, so it has no cotangent
        if var is None:
            continue
        g = table.pop(var.node_id, None)
        if g is None:
            continue
        if var._backward is not None:
            for parent, contrib in var._backward(g):
                prev = table.get(parent.node_id)
                table[parent.node_id] = contrib if prev is None else prev + contrib
        elif var.requires_grad:
            g = _f64(g)
            if g.shape != var.value.shape:
                g = np.broadcast_to(g, var.value.shape).copy()
            var.grad = g
            out[var.node_id] = g
    return out


def require_finite(what: str, *values):
    """DataError unless every value is finite: a diverged loss or gradient
    must stop a run before it writes an artifact."""
    for v in values:
        if not np.all(np.isfinite(v)):
            raise DataError(f"{what} diverged: non-finite loss or gradient")


def randn(shape, seed: int) -> np.ndarray:
    """Standard normal draw from a private generator; same seed, same bits."""
    return np.random.default_rng(seed).standard_normal(shape)
