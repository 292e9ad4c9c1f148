"""Reptile-style meta initialization of a single frame prompt.

Groups come from clustering each meta-training dataset separately, one per
prototype of clustering.fit_prototypes, so none is empty. Within an
epoch the inner loop is chained: each group starts from the previous group's
snapshot, and the meta prompt moves toward the snapshot average by the meta
step gamma (optionally through Adam on the pseudo-gradient). The inner loop
steps several times on the same images, so it computes their conv1 once and
hands it to every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import clustering
from .adapt import build_head, check_frozen, prompt_step, resolve_tau
from .config import RunConfig
from .errors import DataError, ShapeError
from .optim import Adam, Sgd
from .prompt import FrameSpec, HeadState, PromptFrame

_GROUP, _BATCH = 0x3E01, 0x3E02


@dataclass(frozen=True)
class MetaTaskGroup:
    gid: int
    dataset_index: int
    member_ids: np.ndarray
    head: HeadState

    def __len__(self) -> int:
        return len(self.member_ids)


def build_groups(datasets, encoder, tau: float, probe_size: int, seed: int,
                 noise_count: int = 256) -> list:
    """Per-dataset partition; group ids ascend across datasets in order."""
    if not datasets:
        raise DataError("meta training needs at least one dataset")
    groups = []
    gid = 0
    for di, ds in enumerate(datasets):
        if len(ds) == 0:
            raise DataError(f"meta dataset {ds.id} is empty")
        all_feats = encoder.forward_features(ds.images)
        protos, assign = clustering.fit_prototypes(all_feats, tau, ds.class_count,
                                                   probe_size, [seed, _GROUP, di])
        head = build_head(encoder, "active", ds.class_count, noise_count, seed)
        for t in range(len(protos)):
            members = np.flatnonzero(assign == t)
            groups.append(MetaTaskGroup(gid, di, members, head))
            gid += 1
    return groups


def sample_meta_batch(groups, batch_size: int, seed) -> list:
    """One batch per group, in ascending gid order, sampled without
    replacement within the group."""
    if batch_size < 1:
        raise DataError(f"meta batch size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    out = []
    for g in sorted(groups, key=lambda g: g.gid):
        take = min(batch_size, len(g))
        picked = rng.choice(g.member_ids, size=take, replace=False)
        out.append((g, np.sort(picked)))
    return out


def inner_update(prompt: PromptFrame, images: np.ndarray, labels: np.ndarray,
                 encoder, head: HeadState, eta: float, steps: int
                 ) -> tuple[PromptFrame, float]:
    """Plain masked gradient descent from the given start; returns the
    snapshot and the loss before the first step. eta=0 returns an unchanged
    copy. conv1 of the images runs once, and every step continues from it."""
    if steps < 1:
        raise DataError(f"inner steps must be >= 1, got {steps}")
    p = prompt.copy()
    sgd = Sgd(eta, momentum=0.0)
    route = np.zeros(len(images), dtype=np.int64)
    conv1 = encoder.conv1(images)
    first_loss = 0.0
    for s in range(steps):
        loss, _, grad, _ = prompt_step(images, p.values[None], route, labels, encoder, head,
                                       conv1)
        if s == 0:
            first_loss = loss
        p.grad_step(sgd, "inner", grad[0])
    return p, first_loss


def _mean_offset(pm: np.ndarray, snapshots: list) -> np.ndarray:
    """The pseudo-gradient sum_j (p_j - pm) / K, summed in snapshot order.
    K = 0 is an error."""
    if len(snapshots) == 0:
        raise DataError("meta update with zero snapshots")
    acc = np.zeros_like(pm)
    for s in snapshots:
        if s.shape != pm.shape:
            raise ShapeError(f"snapshot {s.shape} vs meta prompt {pm.shape}")
        acc += s - pm
    return acc / len(snapshots)


def meta_update(pm: np.ndarray, snapshots: list, gamma: float) -> np.ndarray:
    """Exact moving-average step: pm + gamma * (sum_j (p_j - pm) / K)."""
    return pm + gamma * _mean_offset(pm, snapshots)


@dataclass
class MetaResult:
    prompt: PromptFrame
    dataset_ids: list
    epoch_losses: list = field(default_factory=list)
    update_norms: list = field(default_factory=list)


def meta_train(datasets, encoder, cfg: RunConfig, seed: int = 0) -> MetaResult:
    check_frozen(encoder)
    shapes = {ds.images.shape[1:] for ds in datasets if len(ds)}
    if len(shapes) != 1:
        raise DataError(f"meta datasets disagree on image shape: {sorted(shapes)}")
    ids = [ds.id for ds in datasets]
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate meta dataset ids: {ids}")
    c, h, w = next(iter(shapes))
    spec = FrameSpec.for_input(c, h, w)
    tau = resolve_tau(cfg, encoder)
    groups = build_groups(datasets, encoder, tau, cfg.probe_size, seed,
                          noise_count=cfg.noise_count)
    pm = PromptFrame(spec)
    opt = Adam(lr=cfg.gamma) if cfg.meta_use_adam else None
    result = MetaResult(pm, ids)
    for epoch in range(cfg.meta_epochs):
        batches = sample_meta_batch(groups, cfg.meta_batch_size,
                                    [seed, _BATCH, epoch])
        snapshots = []
        losses = []
        p_prev = pm
        for g, picked in batches:
            ds = datasets[g.dataset_index]
            p_j, l0 = inner_update(p_prev, ds.images[picked], ds.labels[picked],
                                   encoder, g.head, cfg.eta, cfg.inner_steps)
            snapshots.append(p_j.values)
            losses.append(l0)
            p_prev = p_j
        old = pm.values
        if opt is None:
            new_vals = meta_update(old, snapshots, cfg.gamma)
        else:
            # cosine-annealed Adam on the pseudo-gradient, no warmup
            opt.lr = 0.5 * cfg.gamma * (1.0 + np.cos(np.pi * epoch / cfg.meta_epochs))
            new_vals = opt.step("meta", old, -_mean_offset(old, snapshots))
        pm = PromptFrame(spec, new_vals * spec.mask())
        result.update_norms.append(float(np.linalg.norm(pm.values - old)))
        result.epoch_losses.append(float(np.mean(losses)))
    result.prompt = pm
    return result
