"""Downstream adaptation: cluster the target data in feature space, train one
frame prompt per cluster against the frozen encoder, route by nearest
prototype at evaluation time.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import clustering, tensor as T
from .atomic import write_atomic
from .config import RunConfig
from .errors import ConfigError, DataError, FrozenViolationError, ShapeError
from .optim import cosine_warmup_lr, make_optimizer
from .prompt import (HEAD_ACTIVE, HEAD_FREEZING, HEAD_HARDCODED, HEAD_TUNING,
                     FrameSpec, HeadState, PromptBundle, PromptFrame)

log = logging.getLogger(__name__)

_PROBE, _PROMPT, _EPOCH = 0xAD01, 0xAD02, 0xAD03

MODE_TAGS = {"tuning": HEAD_TUNING, "freezing": HEAD_FREEZING,
             "hardcoded": HEAD_HARDCODED, "active": HEAD_ACTIVE}


@dataclass(frozen=True)
class HeadMode:
    kind: str
    k: int
    noise_count: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MODE_TAGS:
            raise ConfigError(f"unknown head mode {self.kind!r}; "
                              f"expected one of {sorted(MODE_TAGS)}")
        if self.k < 1:
            raise ConfigError(f"head needs k >= 1, got {self.k}")


def build_head(encoder, mode: HeadMode) -> HeadState:
    d = encoder.spec.feature_dim
    if mode.kind == "tuning":
        rng = np.random.default_rng([mode.seed, 0x7EAD])
        w = 0.01 * rng.standard_normal((d, mode.k))
        return HeadState(HEAD_TUNING, mode.k, weight=w, bias=np.zeros(mode.k),
                         trainable=True)
    if mode.kind == "freezing":
        if mode.k > encoder.spec.head_dim:
            raise ConfigError(f"freezing head supports k <= {encoder.spec.head_dim}, "
                              f"got {mode.k}")
        return HeadState(HEAD_FREEZING, mode.k,
                         weight=encoder.weights["head_w"][:, :mode.k].copy(),
                         bias=encoder.weights["head_b"][:mode.k].copy())
    if mode.k > d:
        raise ConfigError(f"mapping head needs k <= {d}, got {mode.k}")
    if mode.kind == "hardcoded":
        return HeadState(HEAD_HARDCODED, mode.k, indices=np.arange(mode.k, dtype=np.int64))
    variance = encoder.probe_channel_variance(mode.noise_count, mode.seed)
    order = np.argsort(-variance, kind="stable")  # ties fall to the lower index
    return HeadState(HEAD_ACTIVE, mode.k, indices=order[: mode.k].astype(np.int64))


def head_logits_nd(head: HeadState, feats: np.ndarray) -> np.ndarray:
    if head.tag in (HEAD_TUNING, HEAD_FREEZING):
        return feats @ head.weight + head.bias
    return feats[:, head.indices]


def _head_logits_var(tape, head: HeadState, feats):
    if head.tag in (HEAD_TUNING, HEAD_FREEZING):
        if head.trainable:
            hw = tape.var(head.weight, requires_grad=True)
            hb = tape.var(head.bias, requires_grad=True)
            return T.bias_add(T.matmul(feats, hw), hb), (hw, hb)
        return T.bias_add(T.matmul(feats, head.weight), head.bias), None
    return T.take_columns(feats, head.indices), None


def prompt_step(images: np.ndarray, prompt_values: np.ndarray, labels: np.ndarray,
                encoder, head: HeadState):
    """One forward and backward pass of the prompted batch images + p against
    the frozen encoder; the step that adaptation and the meta inner loop share.

    Returns (loss, logits, input gradient summed over the batch, head
    gradients as (weight, bias) or None for an untrained head). A non-finite
    loss or gradient raises DataError, so a diverged run writes nothing."""
    tape = T.Tape()
    xv = tape.var(images + prompt_values[None], requires_grad=True)
    logits, head_vars = _head_logits_var(tape, head, encoder.features_var(tape, xv))
    loss = T.cross_entropy(logits, labels)
    T.backward(loss)
    grad = xv.grad.sum(axis=0)
    head_grads = None if head_vars is None else (head_vars[0].grad, head_vars[1].grad)
    T.require_finite("prompt training", loss.value, grad, *(head_grads or ()))
    return float(loss.value), logits.value, grad, head_grads


def check_frozen(encoder):
    for name, arr in encoder.weights.items():
        if arr.flags.writeable:
            raise FrozenViolationError(f"encoder weight {name} is writeable")


@dataclass
class Metrics:
    rows: list = field(default_factory=list)

    HEADER = "epoch,split,loss,top1,n_clusters,seconds"

    def add(self, epoch: int, split: str, loss: float, top1: float,
            n_clusters: int, seconds: float):
        self.rows.append((epoch, split, loss, top1, n_clusters, seconds))

    def final(self, split: str):
        for row in reversed(self.rows):
            if row[1] == split:
                return row
        return None

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for e, s, l, a, n, sec in self.rows:
            lines.append(f"{e},{s},{l:.10g},{a:.10g},{n},{sec:.6f}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str):
        write_atomic(path, self.to_csv().encode("utf-8"))


@dataclass
class EvalResult:
    loss: float
    top1: float
    histogram: np.ndarray


def _ce_and_top1(logits: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    loss = float((lse - logits[np.arange(len(labels)), labels]).sum())
    hits = int((np.argmax(logits, axis=1) == labels).sum())
    return loss, hits


def evaluate(dataset, bundle: PromptBundle, encoder) -> EvalResult:
    """Route prompt-free features to a prototype, then classify the prompted
    image. Deterministic: no RNG anywhere on this path."""
    if bundle.encoder_fingerprint and bundle.encoder_fingerprint != encoder.fingerprint:
        raise FrozenViolationError(
            f"bundle was trained against encoder {bundle.encoder_fingerprint:#x}, "
            f"got {encoder.fingerprint:#x}")
    if len(dataset) == 0:
        raise DataError("cannot evaluate an empty dataset")
    top = int(dataset.labels.max())
    if top >= bundle.head.k:
        raise DataError(f"dataset has labels up to {top}, bundle head emits "
                        f"{bundle.head.k} logits")
    feats = encoder.forward_features(dataset.images)
    routes = clustering.route_features(feats, bundle.prototypes)
    hist = np.bincount(routes, minlength=bundle.n)
    total_loss, total_hits = 0.0, 0
    for t in np.unique(routes):
        sub = np.flatnonzero(routes == t)
        for start in range(0, len(sub), 256):
            ids = sub[start:start + 256]
            xp = bundle.prompts[t].apply(dataset.images[ids])
            logits = head_logits_nd(bundle.head, encoder.forward_features(xp))
            loss, hits = _ce_and_top1(logits, dataset.labels[ids])
            total_loss += loss
            total_hits += hits
    n = len(dataset)
    return EvalResult(total_loss / n, total_hits / n, hist)


def merge_empty_prototypes(protos, all_feats: np.ndarray):
    """Routing safety net: a prototype that captured no training samples
    cannot learn a prompt, so fold it into its nearest neighbor (size-weighted
    mean) and re-route until every prototype has members."""
    assign = clustering.route_features(all_feats, protos)
    while protos.n > 1:
        counts = np.bincount(assign, minlength=protos.n)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        e = int(empty[0])
        cents, sizes = protos.centroids, protos.sizes
        diff = cents - cents[e][None, :]
        d2 = (diff * diff).sum(axis=1)
        d2[e] = np.inf
        j = int(np.argmin(d2))
        merged = (sizes[e] * cents[e] + sizes[j] * cents[j]) / (sizes[e] + sizes[j])
        keep = [i for i in range(protos.n) if i != e]
        new_cents = cents[keep].copy()
        new_sizes = sizes[keep].copy()
        new_pos = keep.index(j)
        new_cents[new_pos] = merged
        new_sizes[new_pos] = sizes[e] + sizes[j]
        log.warning("prototype %d captured no training samples; merged into %d", e, j)
        protos = clustering.PrototypeSet(new_cents, protos.threshold,
                                         protos.encoder_fingerprint, new_sizes)
        assign = clustering.route_features(all_feats, protos)
    return protos, assign


def _build_prototypes(train, encoder, cfg: RunConfig, seed: int):
    """Cluster a probe subset of the training features; returns the prototype
    set and the full-set assignment after empty-subset remediation."""
    ids = clustering.probe_indices(len(train), cfg.probe_size, [seed, _PROBE])
    all_feats = encoder.forward_features(train.images)
    probe_feats = all_feats[ids]
    if cfg.force_single_prompt:
        labels = np.zeros(len(ids), dtype=np.int64)
        cut_result = clustering.ClusterCut(labels, 1, float("inf"))
    else:
        tau = resolve_tau(cfg, encoder)
        dend = clustering.agglomerate(probe_feats)
        cap = cfg.max_clusters if cfg.max_clusters is not None else train.class_count
        cut_result = clustering.cut(dend, tau, max_clusters=cap)
    protos = clustering.prototypes(probe_feats, cut_result, encoder.fingerprint)
    return merge_empty_prototypes(protos, all_feats)


def resolve_tau(cfg: RunConfig, encoder) -> float:
    if isinstance(cfg.tau, str):
        if getattr(encoder, "tau_star", None) is None:
            raise ConfigError("tau is \"calibrate\" but the encoder has no "
                              "calibrated threshold; run the calibrate command first")
        return float(encoder.tau_star)
    return float(cfg.tau)


def adapt(train, encoder, cfg: RunConfig, mode: HeadMode, seed: int = 0,
          meta: PromptFrame | None = None, val=None, test=None
          ) -> tuple[PromptBundle, Metrics]:
    """Full adaptation pass. Same inputs and seed give bit-identical bundles."""
    check_frozen(encoder)
    if len(train) == 0:
        raise DataError("adaptation training set is empty")
    if train.class_count > mode.k:
        raise DataError(f"{train.class_count} classes but head emits {mode.k} logits")
    c, h, w = train.images.shape[1:]
    spec = FrameSpec.for_input(c, h, w)
    if meta is not None and meta.spec != spec:
        raise ShapeError(f"meta prompt spec {meta.spec} vs data spec {spec}")

    protos, assign = _build_prototypes(train, encoder, cfg, seed)
    n_clusters = protos.n
    if meta is not None:
        prompts = [meta.copy() for _ in range(n_clusters)]
    else:
        prompts = [PromptFrame.random(spec, cfg.prompt_init_sigma, [seed, _PROMPT, t])
                   for t in range(n_clusters)]
    head = build_head(encoder, mode)
    opt = make_optimizer(cfg.optimizer, cfg.lr, momentum=cfg.momentum,
                         weight_decay=cfg.weight_decay)
    metrics = Metrics()
    n = len(train)
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        opt.lr = cosine_warmup_lr(cfg.lr, epoch, cfg.epochs, cfg.warmup_epochs)
        order = np.random.default_rng([seed, _EPOCH, epoch]).permutation(n)
        epoch_loss, epoch_hits = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            head_grads = None
            for t in np.unique(assign[batch]):
                sub = batch[assign[batch] == t]
                labels = train.labels[sub]
                loss, logits, grad, grads = prompt_step(train.images[sub], prompts[t].values,
                                                        labels, encoder, head)
                prompts[t].grad_step(opt, f"prompt{t}", grad)
                if grads is not None:
                    head_grads = grads if head_grads is None else (
                        head_grads[0] + grads[0], head_grads[1] + grads[1])
                epoch_loss += loss * len(sub)
                epoch_hits += int((np.argmax(logits, axis=1) == labels).sum())
            if head_grads is not None:
                # one shared head update per minibatch
                head.weight = opt.step("head_w", head.weight, head_grads[0])
                head.bias = opt.step("head_b", head.bias, head_grads[1])
        bundle = PromptBundle(prompts, protos, head, encoder.fingerprint,
                              cfg.snapshot(), meta_initialized=meta is not None)
        metrics.add(epoch, "train", epoch_loss / n, epoch_hits / n, n_clusters,
                    time.perf_counter() - t0)
        if val is not None and len(val):
            t1 = time.perf_counter()
            r = evaluate(val, bundle, encoder)
            metrics.add(epoch, "val", r.loss, r.top1, n_clusters,
                        time.perf_counter() - t1)
    bundle = PromptBundle(prompts, protos, head, encoder.fingerprint,
                          cfg.snapshot(), meta_initialized=meta is not None)
    if test is not None and len(test):
        t1 = time.perf_counter()
        r = evaluate(test, bundle, encoder)
        metrics.add(cfg.epochs - 1, "test", r.loss, r.top1, n_clusters,
                    time.perf_counter() - t1)
    check_frozen(encoder)
    return bundle, metrics


def baseline_vp(train, encoder, cfg: RunConfig, mode: HeadMode, seed: int = 0,
                meta: PromptFrame | None = None, val=None, test=None):
    """Single-prompt baseline: identical to adapt with clustering collapsed."""
    forced = replace(cfg, force_single_prompt=True)
    return adapt(train, encoder, forced, mode, seed=seed, meta=meta, val=val, test=test)
