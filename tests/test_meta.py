import numpy as np
import pytest

from _helpers import make_modemix
from frameprompt import meta as M
from frameprompt.adapt import build_head, prompt_step
from frameprompt.config import RunConfig
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
    assert [g.gid for g in groups] == list(range(len(groups)))
    for di, ds in enumerate(meta_sets):
        mine = [g for g in groups if g.dataset_index == di]
        assert mine and all(g.dataset_index == di for g in mine)
        members = np.concatenate([g.member_ids for g in mine])
        assert np.array_equal(np.sort(members), np.arange(len(ds)))
        # all groups of one dataset share that dataset's head
        assert len({id(g.head) for g in mine}) == 1


def test_build_groups_rejects_empty(tiny_encoder, meta_sets):
    enc, _ = tiny_encoder
    with pytest.raises(DataError):
        M.build_groups([], enc, tau=0.5, probe_size=10, seed=0)


# ------------------------------------------------------------------ sampling

def _stub_group(gid, members):
    return M.MetaTaskGroup(gid, 0, np.asarray(members, dtype=np.int64), head=None)


def test_sample_meta_batch_deterministic_and_sorted():
    groups = [_stub_group(1, [5, 6, 7, 8]), _stub_group(0, [0, 1, 2])]
    out1 = M.sample_meta_batch(groups, 2, seed=3)
    out2 = M.sample_meta_batch(groups, 2, seed=3)
    assert [g.gid for g, _ in out1] == [0, 1]
    for (_, p1), (_, p2) in zip(out1, out2):
        assert np.array_equal(p1, p2)
        assert np.array_equal(p1, np.sort(p1))
        assert len(p1) == 2 and len(np.unique(p1)) == 2
    big = M.sample_meta_batch(groups, 100, seed=0)
    assert [len(p) for _, p in big] == [3, 4]  # capped at group size


def test_sample_meta_batch_refuses_batch_size_zero():
    with pytest.raises(DataError):
        M.sample_meta_batch([_stub_group(0, [1, 2])], 0, seed=0)


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
    """inner_update encodes conv1 of its images once for all its steps; the
    snapshot and first loss equal, bit for bit, those of the loop that
    encodes the images afresh at every step."""
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
    assert res.dataset_ids == [ds.id for ds in meta_sets]
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
