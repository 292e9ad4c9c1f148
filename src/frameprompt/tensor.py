"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records every Var produced during a forward pass. backward() walks the
tape in reverse creation order, accumulating cotangents by node id, and
stores each requires_grad leaf's gradient on its .grad. Gradients are
materialized only along paths that end in such a leaf; frozen operands (plain
ndarrays) never get gradient buffers. An op whose operands are all plain
ndarrays records nothing and returns the plain result, so one forward
definition serves inference as well as training.

The ops are the ones the encoder, the heads and the loss run: conv2d,
conv_block, reshape, linear, take and cross_entropy. Each encoder layer is
one node: conv_block a whole conv stage (conv, each sample's prompt map,
bias, 2x2 max pool and relu), linear an affine layer (the fc, and the
pretraining, tuning and freezing heads). Two ops gather: conv_block picks
each sample's prompt map, and take the mapped heads' feature columns; both
backward rules sum a repeated index's gradients in one helper, _scatter_sum.

The tape keeps backward rules, not activations. It holds each Var by weak
reference, and each node's rule by node id: the ids of the parents that
gradients reach, and the arrays the rule reads (pooling indices with relu's
mask folded in, frozen operands, the operands of a linear layer or of a
weight gradient). No rule holds a Var, so an intermediate's value is freed
as soon as the forward moves past it, and only a Var holds its tape, so
nothing forms a reference cycle: a finished step's tape is freed with its
last Var, without waiting for the cyclic collector. backward walks node ids
from the loss down and sets .grad on the live requires_grad leaves.

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


def linear(x, w, b) -> Var:
    """An affine layer as one node: x @ w + b for (B, n) x, (n, k) w and a
    (k,) bias."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeError(f"linear: shapes {xv.shape}, {wv.shape} and {bv.shape} incompatible")
    return _record(_tape_of(x, w, b), xv @ wv + bv,
                   [(x, lambda g: g @ wv.T), (w, lambda g: xv.T @ g),
                    (b, lambda g: g.sum(axis=0))])


def _conv_kernel(op, xv, wv) -> int:
    """The side k of a same-padded conv's odd square kernel; ShapeError
    unless x (B, C, H, W) and w (O, C, k, k) fit."""
    if xv.ndim != 4 or wv.ndim != 4 or xv.shape[1] != wv.shape[1]:
        raise ShapeError(f"{op}: shapes {xv.shape} and {wv.shape} incompatible")
    k = wv.shape[2]
    if k % 2 == 0 or wv.shape[3] != k:
        raise ShapeError(f"{op}: kernel must be odd and square, got {wv.shape[2:]}")
    return k


def conv2d(x, w) -> Var:
    """Same-padded stride-1 2-d cross-correlation: the output keeps the
    input's height and width, so the kernel must be odd and square. w may be
    a frozen ndarray (no weight gradient is ever materialized) or a Var
    (weight gradient flows, used in pretraining)."""
    xv, wv = _val(x), _val(w)
    k = _conv_kernel("conv2d", xv, wv)
    return _record(
        _tape_of(x, w), kernels.conv2d_forward(xv, wv),
        [(x, lambda g: kernels.conv2d_backward_input(_f64(g), wv)),
         (w, lambda g: kernels.conv2d_backward_weight(xv, _f64(g), k))])


def conv_block(x, w, b, maps=None, route=None, conv=None) -> Var:
    """One encoder stage, one tape node: relu(maxpool2(conv2d(x, w)
    + maps[route] + b)), the bias per channel. maps is None or a
    (T, Cout, H, W) stack of prompt maps with (B,) routes into it; an index
    may repeat, and its gradients then add up. The conv output's height and
    width must be even. conv is None or conv2d(x, w) computed already, as a
    plain array that other passes over x share: the stage reads it in place
    of the conv and leaves it unwritten.

    kernels.maxpool2_forward runs the epilogue on the kernel lanes, in place
    in the fresh conv output, or from a shared one into a fresh array of its
    own; untaped, it computes no argmax and adds the bias after the max (the
    same values, see there). The rule turns the
    output gradient into the pre-pool gradient once per backward, at the
    first requires_grad operand's turn, and lets it go at the last one's:
    backward-input, backward-weight, the bias sum and the per-prompt sum
    all read that one array. When w needs a gradient (pretraining) that
    array is channel-major, a (B, Cout, H, W) view of (Cout, B, H, W)
    memory, which backward-weight reads as its GEMM operand without a copy;
    otherwise it is C-contiguous. The bias gradient is _channel_sum, the
    bits of g.sum(axis=(0, 2, 3)) in either layout."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    k = _conv_kernel("conv_block", xv, wv)
    if xv.shape[2] % 2 or xv.shape[3] % 2:
        raise ShapeError(f"conv_block: pooling needs even height and width, got {xv.shape}")
    if bv.shape != wv.shape[:1]:
        raise ShapeError(f"conv_block: bias {bv.shape} for {wv.shape[0]} channels")
    mv = shape = None
    if maps is not None:
        mv = _val(maps)
        route = np.asarray(route, dtype=np.int64)
        if mv.ndim != 4 or mv.shape[1:] != wv.shape[:1] + xv.shape[2:]:
            raise ShapeError(f"conv_block: maps {mv.shape} do not fit conv output "
                             f"{xv.shape[:1] + wv.shape[:1] + xv.shape[2:]}")
        if route.shape != xv.shape[:1]:
            raise ShapeError(f"conv_block: routes {route.shape} for {xv.shape[0]} images")
        if route.size and (route.min() < 0 or route.max() >= len(mv)):
            raise ShapeError(f"conv_block: route out of range for {len(mv)} maps")
        shape = mv.shape  # the maps rule reads the shape only
    if conv is not None and conv.shape != xv.shape[:1] + wv.shape[:1] + xv.shape[2:]:
        raise ShapeError(f"conv_block: conv output {conv.shape} for images {xv.shape} "
                         f"and weights {wv.shape}")
    tape = _tape_of(x, w, b, maps)
    y, idx = kernels.maxpool2_forward(
        kernels.conv2d_forward(xv, wv) if conv is None else conv, bv, maps=mv,
        route=route, index=tape is not None, shared=conv is not None)
    operands = (x, w, b, maps)
    wanted = [i for i, p in enumerate(operands) if isinstance(p, Var) and p.requires_grad]
    held = []

    def pre_pool(g, i):
        # backward calls a node's rules in order: the first computes, the last drops
        if i == wanted[0]:
            held[:] = [kernels.maxpool2_backward(g, idx, channel_major=1 in wanted)]
        return held.pop() if i == wanted[-1] else held[0]

    return _record(tape, y, [
        (x, lambda g: kernels.conv2d_backward_input(pre_pool(g, 0), wv)),
        (w, lambda g: kernels.conv2d_backward_weight(xv, pre_pool(g, 1), k)),
        (b, lambda g: _channel_sum(pre_pool(g, 2))),
        (maps, lambda g: _scatter_sum(pre_pool(g, 3), route, shape, 0))])


def _channel_sum(g):
    """g.sum(axis=(0, 2, 3)) of a (B, C, H, W) array in either layout, with
    its bits: each image's planes summed, then the images added in order
    from a C-contiguous (B, C) array, as numpy reduces a C-contiguous g."""
    return np.ascontiguousarray(g.sum(axis=(2, 3))).sum(axis=0)


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
    return _record(_tape_of(x), xv[(slice(None),) * axis + (idx,)],
                   [(x, lambda g: _scatter_sum(g, idx, shape, axis))])


def _scatter_sum(g, indices, shape, axis):
    """The gradient of a gather: zeros of shape, with each slab of g along
    axis added into the slab that its index names, in index order."""
    # one slab add per index; np.add.at is slower on few large slabs
    dx = np.zeros(shape)
    dm, gm = np.moveaxis(dx, axis, 0), np.moveaxis(g, axis, 0)
    for i, j in enumerate(indices):
        dm[j] += gm[i]
    return dx


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
