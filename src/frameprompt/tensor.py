"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records every Var produced during a forward pass. backward() walks the
tape in reverse creation order, accumulating cotangents by node id, and
stores each requires_grad leaf's gradient on its .grad. Gradients are
materialized only along paths that end in such a leaf; frozen operands (plain
ndarrays) never get gradient buffers. An op whose operands are all plain
ndarrays records nothing and returns the plain result, so one forward
definition serves inference as well as training.

The ops are the ones the encoder, the heads and the loss run: add, matmul,
bias_add, relu, maxpool2d, conv2d, reshape, take and cross_entropy. take is
the one gather: it picks each sample's prompt map in the encoder and the
mapped heads' feature columns.

The tape keeps backward rules, not activations. It holds each Var by weak
reference, and each node's rule by node id: the ids of the parents that
gradients reach, and the arrays the rule reads (relu masks, pooling
indices, frozen operands, the operands of a matmul or of a weight
gradient). No rule holds a Var, so an intermediate's value is freed as soon
as the forward moves past it, and only a Var holds its tape, so nothing
forms a reference cycle: a finished step's tape is freed with its last Var,
without waiting for the cyclic collector. backward walks node ids from the
loss down and sets .grad on the live requires_grad leaves.

All taped values are float64 and C-contiguous. Nothing here consults global
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
    """Append-only op record. nodes holds a weak reference per Var in
    creation order; len(nodes) is the node count, and a node nothing else
    references anymore reads None. rules maps the id of each node that a
    gradient passes through to its (parent id, fn(g) -> contribution) pairs."""

    def __init__(self):
        self.nodes: list[weakref.ref] = []
        self.rules: dict[int, list] = {}

    def var(self, value, requires_grad: bool = False) -> "Var":
        v = Var(self, len(self.nodes), _f64(value), requires_grad)
        self.nodes.append(weakref.ref(v))
        return v


class Var:
    __slots__ = ("tape", "node_id", "value", "grad", "requires_grad", "__weakref__")

    def __init__(self, tape, node_id, value, requires_grad):
        self.tape = tape
        self.node_id = node_id
        self.value = value
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape


def _record(tape, value, parents_and_grads):
    """parents_and_grads: list of (operand, fn(g) -> grad contribution).
    Without a tape (no operand is a Var) the plain value is returned, untaped.
    The tape keeps the fn of each requires_grad parent under the parent's node
    id and drops the others, with whatever arrays only they read."""
    if tape is None:
        return value
    rule = [(p.node_id, fn) for p, fn in parents_and_grads
            if isinstance(p, Var) and p.requires_grad]
    out = tape.var(value, requires_grad=bool(rule))
    if rule:
        tape.rules[out.node_id] = rule
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
    if av.shape != bv.shape:
        raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
    return _record(_tape_of(a, b), av + bv, [(a, lambda g: g), (b, lambda g: g)])


def matmul(a, b) -> Var:
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: shapes {av.shape} and {bv.shape} incompatible")
    return _record(_tape_of(a, b), av @ bv,
                   [(a, lambda g: g @ bv.T), (b, lambda g: av.T @ g)])


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
    return _record(_tape_of(x, b), val, [(x, lambda g: g), (b, reduce_b)])


def relu(x) -> Var:
    xv = _val(x)
    mask = xv > 0
    return _record(_tape_of(x), np.where(mask, xv, 0.0), [(x, lambda g: g * mask)])


def maxpool2d(x) -> Var:
    """2x2 stride-2 max pooling; spatial dims must be even."""
    xv = _val(x)
    if xv.ndim != 4 or xv.shape[2] % 2 or xv.shape[3] % 2:
        raise ShapeError(f"maxpool2d: need (B,C,even,even), got {xv.shape}")
    y, idx = kernels.maxpool2_forward(xv)
    return _record(_tape_of(x), y,
                   [(x, lambda g: kernels.maxpool2_backward(_f64(g), idx))])


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
         (w, lambda g: kernels.conv2d_backward_weight(xv, _f64(g), k))])


def reshape(x, shape) -> Var:
    xv = _val(x)
    old = xv.shape
    return _record(_tape_of(x), xv.reshape(shape), [(x, lambda g: g.reshape(old))])


def take(x, indices, axis: int) -> Var:
    """The entries at indices along axis; an index may repeat, and its
    gradients then add up. Untaped, the fancy-indexing result comes back as
    numpy lays it out: a column gather is F-ordered, and evaluation's loss sums
    its rows in that memory order."""
    xv = _val(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or not 0 <= axis < xv.ndim:
        raise ShapeError(f"take: index shape {idx.shape} on axis {axis} of {xv.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= xv.shape[axis]):
        raise ShapeError(f"take: index out of range for axis {axis} of {xv.shape}")
    shape = xv.shape  # the rule reads the shape only, not the gathered-from value
    def back(g):
        # one slab add per index, in order; np.add.at is slower on few large slabs
        dx = np.zeros(shape)
        dm, gm = np.moveaxis(dx, axis, 0), np.moveaxis(g, axis, 0)
        for i, j in enumerate(idx):
            dm[j] += gm[i]
        return dx
    return _record(_tape_of(x), xv[(slice(None),) * axis + (idx,)], [(x, back)])


def cross_entropy(logits, labels, weights=None) -> Var:
    """Mean negative log softmax probability of the true label, or with
    per-sample weights their weighted sum.

    Takes (B, k) logits and (B,) int labels; weights is None or a (B,)
    array. Loss of a one-hot-correct distribution is 0 within 1e-12 thanks to
    the log-sum-exp form.
    """
    lv = _val(logits)
    if lv.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {lv.shape}")
    lab = np.asarray(labels, dtype=np.int64)
    if lab.shape != (lv.shape[0],):
        raise ShapeError(f"cross_entropy: labels {lab.shape} vs logits {lv.shape}")
    b, k = lv.shape
    if k == 0 or b == 0:
        raise ShapeError("cross_entropy: empty logits")
    if lab.min() < 0 or lab.max() >= k:
        raise ShapeError(f"cross_entropy: label out of range [0,{k})")
    if weights is not None:
        weights = _f64(weights)
        if weights.shape != (b,):
            raise ShapeError(f"cross_entropy: weights {weights.shape} vs {b} samples")
    m = lv.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(lv - m).sum(axis=-1))
    per_sample = lse - lv[np.arange(b), lab]
    loss = per_sample.mean() if weights is None else (weights * per_sample).sum()
    def back(g):
        p = np.exp(lv - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(b), lab] -= 1.0
        return (float(g) / b) * p if weights is None else (float(g) * weights)[:, None] * p
    return _record(_tape_of(logits), loss, [(logits, back)])


def backward(loss: Var):
    """Reverse sweep from a scalar loss over the tape's rules: stores the
    gradient of every live requires_grad leaf reachable from it on the leaf's
    .grad, shaped like its value. Every other Var's .grad stays None."""
    if loss.value.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got {loss.value.shape}")
    tape = loss.tape
    table: dict[int, np.ndarray] = {loss.node_id: np.ones(())}
    for node_id in range(loss.node_id, -1, -1):
        g = table.pop(node_id, None)
        if g is None:
            continue
        rule = tape.rules.get(node_id)
        if rule is not None:
            for parent_id, fn in rule:
                contrib = fn(g)
                prev = table.get(parent_id)
                table[parent_id] = contrib if prev is None else prev + contrib
            continue
        # a leaf nothing holds anymore has no .grad to fill
        leaf = tape.nodes[node_id]()
        if leaf is not None and leaf.requires_grad:
            leaf.grad = _f64(g)


def require_finite(what: str, *values):
    """DataError unless every value is finite: a diverged loss or gradient
    must stop a run before it writes an artifact."""
    for v in values:
        if not np.all(np.isfinite(v)):
            raise DataError(f"{what} diverged: non-finite loss or gradient")


def randn(shape, seed: int) -> np.ndarray:
    """Standard normal draw from a private generator; same seed, same bits."""
    return np.random.default_rng(seed).standard_normal(shape)
