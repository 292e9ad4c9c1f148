import dataclasses

import numpy as np
import pytest

from _helpers import make_modemix
from frameprompt import diversity as D
from frameprompt.errors import DataError


def test_sample_pairs_members_distinct_and_uniform_support():
    a, b = D.sample_pairs(5, 4000, seed=0)
    assert np.all(a != b)
    assert a.min() >= 0 and a.max() < 5 and b.min() >= 0 and b.max() < 5
    # every ordered pair shows up given enough draws
    seen = {(int(x), int(y)) for x, y in zip(a, b)}
    assert len(seen) == 20


def test_sample_pairs_deterministic():
    a1, b1 = D.sample_pairs(10, 50, seed=7)
    a2, b2 = D.sample_pairs(10, 50, seed=7)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    a3, _ = D.sample_pairs(10, 50, seed=8)
    assert not np.array_equal(a1, a3)


def test_sample_pairs_validation():
    with pytest.raises(DataError):
        D.sample_pairs(1, 10, seed=0)
    with pytest.raises(DataError):
        D.sample_pairs(5, 0, seed=0)


def test_two_point_dataset_scores_exact_distance(tiny_encoder):
    enc, ds = tiny_encoder
    two = dataclasses.replace(ds, images=ds.images[:2], labels=ds.labels[:2])
    feats = enc.forward_features(two.images)
    gap = float(np.linalg.norm(feats[0] - feats[1]))
    assert gap > 0
    res = D.diversity_score(two, enc, pairs=64)
    assert res.score == pytest.approx(100.0 * gap, rel=1e-12)
    assert res.spread == pytest.approx(0.0, abs=1e-9)
    assert res.pairs == 64


def test_single_pair_has_zero_spread(tiny_encoder):
    enc, ds = tiny_encoder
    res = D.diversity_score(ds, enc, pairs=1)
    assert res.spread == 0.0 and res.score > 0


def test_deterministic_and_seed_sensitive(tiny_encoder):
    enc, ds = tiny_encoder
    r1 = D.diversity_score(ds, enc, pairs=500, seed=3)
    r2 = D.diversity_score(ds, enc, pairs=500, seed=3)
    assert r1 == r2
    r3 = D.diversity_score(ds, enc, pairs=500, seed=4)
    assert r1.score != r3.score


def test_more_modes_score_higher(tiny_encoder):
    enc, _ = tiny_encoder
    for seed in (1, 2, 3):
        lo = make_modemix(1, 2, 20, 0.05, seed=seed, size=16)
        hi = make_modemix(8, 2, 5, 0.05, seed=seed, size=16)
        s_lo = D.diversity_score(lo, enc, pairs=2000, seed=seed)
        s_hi = D.diversity_score(hi, enc, pairs=2000, seed=seed)
        assert s_hi.score > s_lo.score, seed


def test_chunking_invariant(tiny_encoder):
    # 3000 pairs spans two 2048 chunks; same result as the direct formula
    enc, ds = tiny_encoder
    res = D.diversity_score(ds, enc, pairs=3000, seed=9)
    a, b = D.sample_pairs(len(ds), 3000, seed=[9, 0xD1F0])
    src = enc.forward_features(ds.images)
    d = np.linalg.norm(src[a] - src[b], axis=1)
    assert res.score == pytest.approx(float(d.mean() * 100), rel=1e-12)
    assert res.spread == pytest.approx(float(d.std(ddof=1) * 100), rel=1e-12)
