"""Reptile meta initialization of a single frame prompt.

Groups are plain (dataset_index, member_ids, head) tuples from clustering
each meta-training dataset separately, one per prototype of
clustering.fit_prototypes, so none is empty; they are listed datasets in
order and clusters in order within each.

Each epoch runs Reptile's batched form (Nichol, Achiam and Schulman, "On
First-Order Meta-Learning Algorithms", arXiv:1803.02999, Algorithm 2):
every group's inner loop starts from the meta prompt pm, and pm moves
toward the mean of the snapshots by the meta step gamma (optionally through
Adam on the pseudo-gradient). Which form DAM-VP's meta prompt uses is not
settled here: PAPER.md holds only its abstract. The groups of an epoch are
independent, so kernels.map_lanes runs them one per lane; snapshots and
first losses are kept in group order, and the bits do not depend on the
lane count. The inner loop steps several times on the same images and
encodes them afresh at every step: with two groups in flight, holding their
conv1 across the steps ran faster but put meta-train's peak memory at
77.0-77.3 MiB against 74.1-74.2, 11% over the chained loop's 69.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import clustering, kernels
from .adapt import build_head, check_frozen, prompt_step, rank_channels
from .config import RunConfig
from .errors import DataError, ShapeError
from .optim import Adam, Sgd
from .prompt import FrameSpec, HeadState, PromptFrame

_GROUP, _BATCH = 0x3E01, 0x3E02


def build_groups(datasets, encoder, tau: float, probe_size: int, seed: int,
                 noise_count: int = 256) -> list:
    """(dataset_index, member_ids, head) per cluster, datasets in order and
    each dataset's clusters in prototype order; a dataset's clusters share
    its head. DataError unless datasets is a non-empty list of non-empty
    datasets of one image shape with distinct ids."""
    if not datasets:
        raise DataError("meta training needs at least one dataset")
    for ds in datasets:
        if len(ds) == 0:
            raise DataError(f"meta dataset {ds.id} is empty")
    shapes = {ds.images.shape[1:] for ds in datasets}
    if len(shapes) != 1:
        raise DataError(f"meta datasets disagree on image shape: {sorted(shapes)}")
    ids = [ds.id for ds in datasets]
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate meta dataset ids: {ids}")
    clustering.check_threshold(tau)
    # every dataset's active head maps the top channels of one ranking
    ranking = rank_channels(encoder, noise_count, seed)
    groups = []
    for di, ds in enumerate(datasets):
        all_feats = encoder.forward_features(ds.images)
        protos, assign = clustering.fit_prototypes(all_feats, tau, ds.class_count,
                                                   probe_size, [seed, _GROUP, di])
        head = build_head(encoder, "active", ds.class_count, noise_count, seed, ranking)
        groups += [(di, np.flatnonzero(assign == t), head) for t in range(len(protos))]
    return groups


def sample_meta_batch(groups, batch_size: int, seed) -> list:
    """One sorted batch of member ids per group, in list order, sampled
    without replacement within the group."""
    if batch_size < 1:
        raise DataError(f"meta batch size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    return [np.sort(rng.choice(members, size=min(batch_size, len(members)), replace=False))
            for _, members, _ in groups]


def inner_update(prompt: PromptFrame, images: np.ndarray, labels: np.ndarray,
                 encoder, head: HeadState, eta: float, steps: int
                 ) -> tuple[PromptFrame, float]:
    """Plain masked gradient descent from the given start; returns the
    snapshot and the loss before the first step. eta=0 returns an unchanged
    copy."""
    if steps < 1:
        raise DataError(f"inner steps must be >= 1, got {steps}")
    p = prompt.copy()
    sgd = Sgd(eta, momentum=0.0)
    route = np.zeros(len(images), dtype=np.int64)
    first_loss = 0.0
    for s in range(steps):
        loss, _, grad, _ = prompt_step(images, p.values[None], route, labels, encoder, head)
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
    epoch_losses: list = field(default_factory=list)
    update_norms: list = field(default_factory=list)


def meta_train(datasets, encoder, cfg: RunConfig, seed: int = 0) -> MetaResult:
    check_frozen(encoder)
    groups = build_groups(datasets, encoder, cfg.tau, cfg.probe_size, seed,
                          noise_count=cfg.noise_count)
    spec = FrameSpec.for_input(*datasets[0].images.shape[1:])
    pm = PromptFrame(spec)
    opt = Adam(lr=cfg.gamma) if cfg.meta_use_adam else None
    result = MetaResult(pm)
    for epoch in range(cfg.meta_epochs):
        batches = sample_meta_batch(groups, cfg.meta_batch_size,
                                    [seed, _BATCH, epoch])

        def inner(group_batch):
            (di, _, head), picked = group_batch
            ds = datasets[di]
            p_j, l0 = inner_update(pm, ds.images[picked], ds.labels[picked],
                                   encoder, head, cfg.eta, cfg.inner_steps)
            return p_j.values, l0

        snapshots, losses = zip(*kernels.map_lanes(inner, zip(groups, batches)))
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
