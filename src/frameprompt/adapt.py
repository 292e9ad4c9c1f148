"""Downstream adaptation: cluster the target data in feature space, train one
frame prompt per cluster against the frozen encoder, route by nearest
prototype at evaluation time. clustering.fit_prototypes keeps only the
prototypes that some training sample routes to, so every prompt trains.

Each minibatch is one tape whose leaf is the stack of its clusters' prompts,
with the sum of the per-cluster mean losses as its loss: every prompt steps
on the gradient of its own cluster's mean, and the shared head once on their
sum. conv1 is linear, so the encoder sums each prompt's gradient over its
samples before conv1's backward-input (see encoder._encode). Scoring hands
the same stack and routes to FrozenEncoder.forward_features, so prompts are
scored by the function they were trained on.

evaluate encodes each image's conv1 once: per chunk, the prompt-free pass
that routes and the prompted pass that scores both continue from it. adapt
routes its val and test splits once and scores them every epoch. A single
prototype routes every image to 0 with no prompt-free pass at all.

The affine heads (tuning, freezing) are one tensor.linear, as the encoder's
fc; the mapped heads (hardcoded, active) pick their feature columns with
tensor.take.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import clustering, tensor as T
from .config import RunConfig
from .errors import ConfigError, DataError, FrozenViolationError, ShapeError
from .optim import cosine_warmup_lr, make_optimizer
from .prompt import HEAD_KINDS, FrameSpec, HeadState, PromptBundle, PromptFrame

_PROBE, _PROMPT, _EPOCH = 0xAD01, 0xAD02, 0xAD03

def build_head(encoder, kind: str, k: int, noise_count: int, seed: int) -> HeadState:
    """A k-logit head of the given kind; the active kind ranks the channels
    by their variance over noise_count noise images drawn from seed."""
    if kind not in HEAD_KINDS:
        raise ConfigError(f"unknown head mode {kind!r}; expected one of {HEAD_KINDS}")
    if k < 1:
        raise ConfigError(f"head needs k >= 1, got {k}")
    d = encoder.spec.feature_dim
    if kind == "tuning":
        rng = np.random.default_rng([seed, 0x7EAD])
        return HeadState(kind, weight=0.01 * rng.standard_normal((d, k)), bias=np.zeros(k))
    if kind == "freezing":
        if k > encoder.spec.head_dim:
            raise ConfigError(f"freezing head supports k <= {encoder.spec.head_dim}, "
                              f"got {k}")
        return HeadState(kind, weight=encoder.weights["head_w"][:, :k].copy(),
                         bias=encoder.weights["head_b"][:k].copy())
    if k > d:
        raise ConfigError(f"mapping head needs k <= {d}, got {k}")
    if kind == "hardcoded":
        return HeadState(kind, indices=np.arange(k, dtype=np.int64))
    variance = encoder.probe_channel_variance(noise_count, seed)
    order = np.argsort(-variance, kind="stable")  # ties fall to the lower index
    return HeadState(kind, indices=order[:k].astype(np.int64))


def head_logits(head: HeadState, feats):
    """Logits of a (B, d) feature batch. feats and the head's arrays may be
    plain ndarrays (nothing is taped) or Vars on one tape."""
    if head.indices is None:
        return T.linear(feats, head.weight, head.bias)
    return T.take(feats, head.indices, 1)


def prompt_step(images: np.ndarray, stack: np.ndarray, route: np.ndarray,
                labels: np.ndarray, encoder, head: HeadState, conv1=None):
    """One forward and backward pass of images + stack[route] against the
    frozen encoder, the taped (T, C, H, W) prompt stack its leaf; the step
    that adaptation and the meta inner loop share. Per-sample weights 1/n_t
    make the loss the sum of each prompt's mean cross entropy. conv1 is None
    or encoder.conv1(images), for a caller that steps on the same images
    again (see FrozenEncoder.features_var).

    Returns (loss, logits, prompt gradients (T, C, H, W), head gradients as
    (weight, bias) or None for an untrained head). A non-finite loss or
    gradient raises DataError, so a diverged run writes nothing."""
    tape = T.Tape()
    sv = tape.var(stack, requires_grad=True)
    if head.trainable:
        head = replace(head, weight=tape.var(head.weight, requires_grad=True),
                       bias=tape.var(head.bias, requires_grad=True))
    logits = head_logits(head, encoder.features_var(images, sv, route, conv1))
    loss = T.cross_entropy(logits, labels, 1.0 / np.bincount(route)[route])
    T.backward(loss)
    head_grads = (head.weight.grad, head.bias.grad) if head.trainable else None
    T.require_finite("prompt training", loss.value, sv.grad, *(head_grads or ()))
    return float(loss.value), logits.value, sv.grad, head_grads


def check_frozen(encoder):
    for name, arr in encoder.weights.items():
        if arr.flags.writeable:
            raise FrozenViolationError(f"encoder weight {name} is writeable")


@dataclass
class Metrics:
    """Rows (epoch, split, loss, top1), a function of the inputs and the seed
    alone, and apart from them each row's wall-clock seconds, listed by split
    in row order."""
    rows: list = field(default_factory=list)
    seconds: dict = field(default_factory=dict)

    HEADER = "epoch,split,loss,top1"

    def add(self, epoch: int, split: str, loss: float, top1: float, seconds: float):
        self.rows.append((epoch, split, loss, top1))
        self.seconds.setdefault(split, []).append(seconds)

    def final(self, split: str):
        for row in reversed(self.rows):
            if row[1] == split:
                return row
        return None

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for e, s, l, a in self.rows:
            lines.append(f"{e},{s},{l:.10g},{a:.10g}")
        return "\n".join(lines) + "\n"


@dataclass
class EvalResult:
    loss: float
    top1: float
    histogram: np.ndarray


def _ce_and_top1(logits: np.ndarray, labels: np.ndarray) -> tuple[float, int]:
    """Summed cross entropy (unit weights) and correct top-1 count of a batch."""
    loss = float(T.cross_entropy(logits, labels, np.ones(len(labels))))
    hits = int((np.argmax(logits, axis=1) == labels).sum())
    return loss, hits


def evaluate(dataset, bundle: PromptBundle, encoder) -> EvalResult:
    """Route each image to the prototype nearest its prompt-free features,
    then score it with its routed prompt on the training path
    (forward_features with the stack). Per chunk, conv1 of the images runs
    once and both passes continue from it; with one prototype every image
    routes to it, and there is no prompt-free pass. Deterministic: no RNG
    anywhere on this path."""
    if bundle.encoder_fingerprint != encoder.fingerprint:
        raise FrozenViolationError(
            f"bundle was trained against encoder {bundle.encoder_fingerprint:#x}, "
            f"got {encoder.fingerprint:#x}")
    _check_split(dataset, bundle.head.k)
    protos = bundle.prototypes
    if protos.shape[1:] != (encoder.spec.feature_dim,):
        raise ShapeError(f"prototypes {protos.shape} vs encoder features of width "
                         f"{encoder.spec.feature_dim}")
    stack = np.stack([p.values for p in bundle.prompts])
    if len(protos) == 1:
        routes = np.zeros(len(dataset), dtype=np.int64)
        feats = encoder.forward_features(dataset.images, stack, routes)
    else:
        feats, routes = encoder.forward_features(dataset.images, stack, prototypes=protos)
    return _scored(head_logits(bundle.head, feats), dataset.labels, routes, len(stack))


def _check_split(dataset, k: int):
    """DataError unless the dataset is non-empty and a k-logit head can
    score its labels."""
    if len(dataset) == 0:
        raise DataError("cannot evaluate an empty dataset")
    top = int(dataset.labels.max())
    if top >= k:
        raise DataError(f"dataset has labels up to {top}, bundle head emits "
                        f"{k} logits")


def _route_split(dataset, protos, k: int, encoder) -> np.ndarray:
    """Prototype index of every sample of a dataset that _check_split
    accepts, by its prompt-free features; with one prototype every sample
    routes to 0 without a forward. The routes depend on the prototypes and
    the frozen encoder only, so adapt computes them once per split, not once
    per epoch."""
    _check_split(dataset, k)
    if len(protos) == 1:
        return np.zeros(len(dataset), dtype=np.int64)
    return clustering.route_features(encoder.forward_features(dataset.images), protos)


def _score_routed(dataset, routes: np.ndarray, prompts, head: HeadState,
                  encoder) -> EvalResult:
    """Mean loss and top-1 of each sample prompted by its routed cluster."""
    stack = np.stack([p.values for p in prompts])
    logits = head_logits(head, encoder.forward_features(dataset.images, stack, routes))
    return _scored(logits, dataset.labels, routes, len(prompts))


def _scored(logits: np.ndarray, labels: np.ndarray, routes: np.ndarray,
            count: int) -> EvalResult:
    """Mean loss and top-1 of the logits, and the histogram of the routes
    over count prompts."""
    loss, hits = _ce_and_top1(logits, labels)
    n = len(labels)
    return EvalResult(loss / n, hits / n, np.bincount(routes, minlength=count))


def _build_prototypes(train, encoder, cfg: RunConfig, seed: int):
    """Cluster a probe subset of the training features; returns the (N, d)
    prototypes, each of which some training sample routes to, and the route of
    every training sample. The forced single prompt needs no threshold, so it
    runs on an uncalibrated encoder."""
    all_feats = encoder.forward_features(train.images)
    tau, cap = float("inf"), 1
    if not cfg.force_single_prompt:
        tau = resolve_tau(cfg, encoder)
        cap = cfg.max_clusters if cfg.max_clusters is not None else train.class_count
    return clustering.fit_prototypes(all_feats, tau, cap, cfg.probe_size, [seed, _PROBE])


def resolve_tau(cfg: RunConfig, encoder) -> float:
    if isinstance(cfg.tau, str):
        if getattr(encoder, "tau_star", None) is None:
            raise ConfigError("tau is \"calibrate\" but the encoder has no "
                              "calibrated threshold; run the calibrate command first")
        return float(encoder.tau_star)
    return float(cfg.tau)


def adapt(train, encoder, cfg: RunConfig, mode: str, seed: int = 0,
          meta: PromptFrame | None = None, val=None, test=None
          ) -> tuple[PromptBundle, Metrics]:
    """Full adaptation pass with a head of kind mode, one logit per class of
    train. Same inputs and seed give bit-identical bundles."""
    check_frozen(encoder)
    if len(train) == 0:
        raise DataError("adaptation training set is empty")
    c, h, w = train.images.shape[1:]
    spec = FrameSpec.for_input(c, h, w)
    if meta is not None and meta.spec != spec:
        raise ShapeError(f"meta prompt spec {meta.spec} vs data spec {spec}")

    protos, assign = _build_prototypes(train, encoder, cfg, seed)
    if meta is not None:
        prompts = [meta.copy() for _ in protos]
    else:
        prompts = [PromptFrame.random(spec, cfg.prompt_init_sigma, [seed, _PROMPT, t])
                   for t in range(len(protos))]
    head = build_head(encoder, mode, train.class_count, cfg.noise_count, seed)
    val_routes, test_routes = (_route_split(ds, protos, head.k, encoder)
                               if ds is not None and len(ds) else None for ds in (val, test))
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
            present, route = np.unique(assign[batch], return_inverse=True)
            labels = train.labels[batch]
            stack = np.stack([prompts[t].values for t in present])
            _, logits, grad, head_grads = prompt_step(train.images[batch], stack, route,
                                                      labels, encoder, head)
            for i, t in enumerate(present):
                prompts[t].grad_step(opt, f"prompt{t}", grad[i])
            if head_grads is not None:
                head.weight = opt.step("head_w", head.weight, head_grads[0])
                head.bias = opt.step("head_b", head.bias, head_grads[1])
            loss, hits = _ce_and_top1(logits, labels)
            epoch_loss += loss
            epoch_hits += hits
        metrics.add(epoch, "train", epoch_loss / n, epoch_hits / n,
                    time.perf_counter() - t0)
        if val_routes is not None:
            t1 = time.perf_counter()
            r = _score_routed(val, val_routes, prompts, head, encoder)
            metrics.add(epoch, "val", r.loss, r.top1, time.perf_counter() - t1)
    bundle = PromptBundle(prompts, protos, head, encoder.fingerprint,
                          cfg.snapshot(), meta_initialized=meta is not None)
    if test_routes is not None:
        t1 = time.perf_counter()
        r = _score_routed(test, test_routes, prompts, head, encoder)
        metrics.add(cfg.epochs - 1, "test", r.loss, r.top1, time.perf_counter() - t1)
    check_frozen(encoder)
    return bundle, metrics

