from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import _helpers as H
from _helpers import make_modemix
from frameprompt import clustering, kernels, meta as M
from frameprompt.adapt import build_head, prompt_step
from frameprompt.config import RunConfig
from frameprompt.data import ImageDataset
from frameprompt.errors import DataError, ShapeError
from frameprompt.optim import Sgd
from frameprompt.prompt import FrameSpec, PromptFrame


@pytest.fixture(scope="module")
def meta_sets():
    return [make_modemix(2, 2, 10, 0.08, seed=61, size=16),
            make_modemix(2, 2, 10, 0.08, seed=62, size=16)]


def meta_cfg(**kw):
    base = dict(tau=0.5, eta=0.1, gamma=0.5, inner_steps=2, meta_epochs=3,
                meta_batch_size=4)
    base.update(kw)
    return RunConfig(**base)


# --------------------------------------------------------------- meta_update

def test_meta_update_matches_closed_form_exactly():
    rng = np.random.default_rng(4)
    pm = rng.standard_normal((3, 5))
    snaps = [rng.standard_normal((3, 5)) for _ in range(4)]
    for gamma in (0.1, 0.5, 0.9):
        got = M.meta_update(pm, snaps, gamma)
        acc = np.zeros_like(pm)
        for s in snaps:
            acc += s - pm
        want = pm + gamma * (acc / len(snaps))
        assert np.array_equal(got, want)  # same arithmetic, zero tolerance


def test_meta_update_fixed_point():
    pm = np.random.default_rng(1).standard_normal((4, 4))
    out = M.meta_update(pm, [pm.copy(), pm.copy(), pm.copy()], 0.5)
    assert np.array_equal(out, pm)


def test_meta_update_validation():
    pm = np.zeros((2, 2))
    with pytest.raises(DataError):
        M.meta_update(pm, [], 0.5)
    with pytest.raises(ShapeError):
        M.meta_update(pm, [np.zeros((3, 2))], 0.5)


# -------------------------------------------------------------------- groups

def test_build_groups_partitions_each_dataset(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    groups = M.build_groups(meta_sets, enc, tau=0.5, probe_size=1000, seed=0)
    # datasets in order, and within each its clusters in prototype order
    assert [di for di, _, _ in groups] == sorted(di for di, _, _ in groups)
    for di, ds in enumerate(meta_sets):
        mine = [(members, head) for i, members, head in groups if i == di]
        _, assign = clustering.fit_prototypes(enc.forward_features(ds.images), 0.5,
                                              ds.class_count, 1000, [0, M._GROUP, di])
        assert len(mine) == assign.max() + 1
        for t, (members, _) in enumerate(mine):
            H.same_bits(members, np.flatnonzero(assign == t))
        members = np.concatenate([m for m, _ in mine])
        assert np.array_equal(np.sort(members), np.arange(len(ds)))
        # all groups of one dataset share that dataset's head
        assert len({id(head) for _, head in mine}) == 1


def test_build_groups_probes_the_noise_once(monkeypatch, tiny_encoder):
    """The active heads of all datasets slice one channel ranking: two
    datasets with 4 and 6 classes run one noise probe, and each dataset's
    head is the one build_head gives it alone, so the meta prompt's bytes
    do not change."""
    enc, _ = tiny_encoder
    sets = [make_modemix(2, 2, 10, 0.08, seed=61, size=16),
            make_modemix(2, 3, 10, 0.08, seed=62, size=16)]
    alone = [build_head(enc, "active", ds.class_count, 256, 0).indices for ds in sets]
    probe = type(enc).probe_channel_variance
    calls = []

    def counted(self, count, seed):
        calls.append((count, seed))
        return probe(self, count, seed)

    monkeypatch.setattr(type(enc), "probe_channel_variance", counted)
    groups = M.build_groups(sets, enc, tau=0.5, probe_size=1000, seed=0)
    assert calls == [(256, 0)]
    assert {di for di, _, _ in groups} == {0, 1}
    for di, _, head in groups:
        H.same_bits(head.indices, alone[di])


def test_build_groups_rejects_empty(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    with pytest.raises(DataError):
        M.build_groups([], enc, tau=0.5, probe_size=10, seed=0)


# ------------------------------------------------------------------ sampling

def _stub_group(members):
    return (0, np.asarray(members, dtype=np.int64), None)


def test_sample_meta_batch_deterministic_and_sorted():
    groups = [_stub_group([5, 6, 7, 8]), _stub_group([0, 1, 2])]
    out1 = M.sample_meta_batch(groups, 2, seed=3)
    out2 = M.sample_meta_batch(groups, 2, seed=3)
    assert len(out1) == 2
    for (_, members, _), p1, p2 in zip(groups, out1, out2):
        assert np.array_equal(p1, p2)
        assert np.array_equal(p1, np.sort(p1))
        assert len(p1) == 2 and len(np.unique(p1)) == 2
        assert np.isin(p1, members).all()  # each batch is its own group's, in list order
    big = M.sample_meta_batch(groups, 100, seed=0)
    assert [len(p) for p in big] == [4, 3]  # capped at group size


def test_sample_meta_batch_refuses_batch_size_zero():
    with pytest.raises(DataError):
        M.sample_meta_batch([_stub_group([1, 2])], 0, seed=0)


# -------------------------------------------------------------- inner update

def test_inner_update_eta_zero_is_identity(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    ds = meta_sets[0]
    spec = FrameSpec.for_input(3, 16, 16)
    start = PromptFrame.random(spec, 0.01, seed=[8])
    head = build_head(enc, "active", ds.class_count, 256, 0)
    snap, first_loss = M.inner_update(start, ds.images[:8], ds.labels[:8],
                                      enc, head, eta=0.0, steps=2)
    assert snap is not start
    assert np.array_equal(snap.values, start.values)
    assert first_loss > 0


def test_inner_update_descends_and_keeps_interior_zero(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    ds = meta_sets[0]
    spec = FrameSpec.for_input(3, 16, 16)
    start = PromptFrame(spec)
    head = build_head(enc, "active", ds.class_count, 256, 0)
    snap, first_loss = M.inner_update(start, ds.images[:16], ds.labels[:16],
                                      enc, head, eta=0.05, steps=4)
    _, loss_after = M.inner_update(snap, ds.images[:16], ds.labels[:16],
                                   enc, head, eta=0.0, steps=1)
    assert loss_after < first_loss
    inv = ~spec.mask().astype(bool)
    assert np.all(snap.values[inv] == 0)
    with pytest.raises(DataError):
        M.inner_update(start, ds.images[:4], ds.labels[:4], enc, head,
                       eta=0.1, steps=0)


def test_inner_update_matches_per_step_recompute(tiny_encoder, meta_sets):
    """inner_update's snapshot and first loss equal, bit for bit, those of
    a plain loop of prompt_step and grad_step, which encodes the images
    afresh at every step."""
    enc, _ = tiny_encoder
    ds = meta_sets[0]
    images, labels = ds.images[:16], ds.labels[:16]
    start = PromptFrame.random(FrameSpec.for_input(3, 16, 16), 0.01, seed=[8])
    head = build_head(enc, "active", ds.class_count, 256, 0)
    snap, first_loss = M.inner_update(start, images, labels, enc, head, eta=0.05, steps=4)
    p, sgd, losses = start.copy(), Sgd(0.05, momentum=0.0), []
    for _ in range(4):
        loss, _, grad, _ = prompt_step(images, p.values[None], np.zeros(16, np.int64),
                                       labels, enc, head)
        losses.append(loss)
        p.grad_step(sgd, "inner", grad[0])
    assert snap.values.tobytes() == p.values.tobytes()
    assert np.float64(first_loss).tobytes() == np.float64(losses[0]).tobytes()
    assert len(set(losses)) == 4  # every step moved the prompt


# ---------------------------------------------------------------- meta_train

def test_meta_train_deterministic(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    cfg = meta_cfg()
    r1 = M.meta_train(meta_sets, enc, cfg, seed=4)
    r2 = M.meta_train(meta_sets, enc, cfg, seed=4)
    assert np.array_equal(r1.prompt.values, r2.prompt.values)
    assert r1.epoch_losses == r2.epoch_losses
    r3 = M.meta_train(meta_sets, enc, cfg, seed=5)
    assert not np.array_equal(r1.prompt.values, r3.prompt.values)


def test_meta_train_reduces_inner_loss(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    res = M.meta_train(meta_sets, enc, meta_cfg(meta_epochs=6, eta=0.2), seed=0)
    assert res.epoch_losses[-1] < res.epoch_losses[0]
    assert len(res.update_norms) == 6
    inv = ~res.prompt.spec.mask().astype(bool)
    assert np.all(res.prompt.values[inv] == 0)


def test_meta_train_plain_average_fixed_point(tiny_encoder, meta_sets):
    # with eta=0 every snapshot equals the meta prompt, so the pure
    # moving-average path must return it unchanged epoch after epoch
    enc, _ = tiny_encoder
    cfg = meta_cfg(eta=0.0, meta_use_adam=False, meta_epochs=2)
    res = M.meta_train(meta_sets, enc, cfg, seed=0)
    assert np.all(res.prompt.values == 0)
    assert res.update_norms == [0.0, 0.0]


def test_meta_train_input_validation(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    mixed = [meta_sets[0], make_modemix(2, 2, 3, 0.08, seed=63, size=32)]
    with pytest.raises(DataError):
        M.meta_train(mixed, enc, meta_cfg(), seed=0)
    with pytest.raises(DataError):
        M.meta_train([meta_sets[0], meta_sets[0]], enc, meta_cfg(), seed=0)


def test_meta_train_rejects_no_data_before_the_shape_check(tiny_encoder):
    """No dataset, or only empty ones, is named as such, not as a
    disagreement on image shape."""
    enc, _ = tiny_encoder
    with pytest.raises(DataError, match="at least one dataset"):
        M.meta_train([], enc, meta_cfg(), seed=0)
    empty = [ImageDataset(name, np.zeros((0, 3, 16, 16)), np.zeros(0, np.int64), 2)
             for name in ("a", "b")]
    with pytest.raises(DataError, match="meta dataset a is empty"):
        M.meta_train(empty, enc, meta_cfg(), seed=0)


def test_meta_train_bits_ignore_the_lane_count(monkeypatch, tiny_encoder, meta_sets):
    """The groups of an epoch run one per lane; the prompt, epoch losses and
    update norms are the same bits at one, two and five lanes, on the plain
    average and on Adam."""
    enc, _ = tiny_encoder
    for cfg in (meta_cfg(), meta_cfg(meta_use_adam=True, meta_epochs=2)):
        runs = []
        with ThreadPoolExecutor(4) as pool:
            monkeypatch.setattr(kernels, "_POOL", pool)
            for lanes in (1, 2, 5):
                monkeypatch.setattr(kernels, "LANES", lanes)
                r = M.meta_train(meta_sets, enc, cfg, seed=3)
                runs.append((r.prompt.values.tobytes(),
                             np.array(r.epoch_losses).tobytes(),
                             np.array(r.update_norms).tobytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_meta_train_is_batched_reptile(monkeypatch, tiny_encoder, meta_sets):
    """Every group of an epoch starts from the epoch's meta prompt: each
    snapshot equals inner_update(pm, ...) run alone, and the plain average
    moves pm to meta_update(pm, snapshots, gamma), masked, bit for bit."""
    enc, _ = tiny_encoder
    cfg = meta_cfg(meta_use_adam=False)
    calls = []
    inner = M.inner_update

    def recorded(prompt, *args):
        snap, loss = inner(prompt, *args)
        calls.append((prompt.values.tobytes(), snap.values.tobytes()))
        return snap, loss

    monkeypatch.setattr(M, "inner_update", recorded)
    res = M.meta_train(meta_sets, enc, cfg, seed=2)
    monkeypatch.undo()

    groups = M.build_groups(meta_sets, enc, cfg.tau, cfg.probe_size, 2)
    spec = FrameSpec.for_input(3, 16, 16)
    pm, want, losses, norms = PromptFrame(spec), [], [], []
    for epoch in range(cfg.meta_epochs):
        batches = M.sample_meta_batch(groups, cfg.meta_batch_size, [2, M._BATCH, epoch])
        snaps, firsts = [], []
        for (di, _, head), picked in zip(groups, batches):
            ds = meta_sets[di]
            snap, l0 = M.inner_update(pm, ds.images[picked], ds.labels[picked], enc, head,
                                      cfg.eta, cfg.inner_steps)
            want.append((pm.values.tobytes(), snap.values.tobytes()))
            snaps.append(snap.values)
            firsts.append(l0)
        new = PromptFrame(spec, M.meta_update(pm.values, snaps, cfg.gamma) * spec.mask())
        norms.append(float(np.linalg.norm(new.values - pm.values)))
        losses.append(float(np.mean(firsts)))
        pm = new
    assert sorted(calls) == sorted(want)
    assert len(groups) > 1 and len(calls) == cfg.meta_epochs * len(groups)
    assert res.prompt.values.tobytes() == pm.values.tobytes()
    assert res.epoch_losses == losses and res.update_norms == norms
