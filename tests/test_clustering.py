import logging
import time

import numpy as np
import pytest

from _helpers import oracle_agglomerate, oracle_cut, rescan_agglomerate
from frameprompt import clustering as C
from frameprompt.errors import DataError, ShapeError


class IdentityEncoder:
    """Stands in for a feature extractor in clustering-only tests."""

    fingerprint = 0

    def forward_features(self, images):
        images = np.asarray(images, dtype=np.float64)
        return images.reshape(images.shape[0], -1)


def blob_dataset(centers, per, spread, seed):
    rng = np.random.default_rng(seed)
    feats = []
    for c in centers:
        feats.append(np.asarray(c) + spread * rng.standard_normal((per, len(c))))
    return np.concatenate(feats)


def test_worked_example_two_tight_pairs():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
    dend = C.agglomerate(pts)
    assert [m[:2] for m in dend.merges] == [(0, 1), (2, 3)] + [(4, 5)]
    assert dend.merges[0][2] == pytest.approx(1.0, abs=1e-12)
    assert dend.merges[1][2] == pytest.approx(1.0, abs=1e-12)
    # mean of the four cross distances, frozen from the brute-force oracle
    assert dend.merges[2][2] == pytest.approx(14.15099101046353, abs=1e-9)
    assert C.cut(dend, 5.0).n_clusters == 2
    assert C.cut(dend, 15.0).n_clusters == 1


def test_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 6))
        x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3)
        got = C.agglomerate(x).merges
        want = oracle_agglomerate(x)
        assert [m[:2] for m in got] == [m[:2] for m in want]
        assert [m[3] for m in got] == [m[3] for m in want]
        for g, w in zip(got, want):
            assert g[2] == pytest.approx(w[2], abs=1e-9)


def test_matches_oracle_on_duplicate_heavy_instances():
    # repeated points in shuffled order and 1-d integer grids, whose distances
    # are exact integers: exact ties everywhere, each broken to the
    # lexicographically smallest (min id, max id) pair as the oracle does
    rng = np.random.default_rng(14)
    for trial in range(24):
        if trial % 3 == 2:
            x = rng.integers(-4, 5, size=(int(rng.integers(3, 40)), 1)).astype(np.float64)
        else:
            base = rng.standard_normal((int(rng.integers(2, 8)), int(rng.integers(2, 9)))) * 3
            x = base[rng.integers(0, len(base), size=int(rng.integers(4, 40)))]
        got = C.agglomerate(x).merges
        want = oracle_agglomerate(x)
        assert [m[:2] for m in got] == [m[:2] for m in want], f"trial {trial}"
        assert [m[3] for m in got] == [m[3] for m in want]
        for g, w in zip(got, want):
            assert g[2] == pytest.approx(w[2], abs=1e-9)


def test_merges_equal_full_rescan_bit_for_bit():
    # same distances in, same float operations: merge values are equal, not close
    rng = np.random.default_rng(17)
    for trial in range(12):
        n = int(rng.integers(2, 120))
        x = rng.standard_normal((n, int(rng.integers(1, 70))))
        if trial % 2:
            x = x[rng.integers(0, n, size=n)]
        assert C.agglomerate(x).merges == tuple(rescan_agglomerate(C.pairwise_distances(x)))


def test_pairwise_distances_exact_on_duplicates():
    rng = np.random.default_rng(15)
    base = rng.standard_normal((40, 64))
    x = base[rng.integers(0, 40, size=700)]  # spans several row blocks
    d = C.pairwise_distances(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    i, j = np.flatnonzero((x == x[0]).all(axis=1))[:2]
    assert np.array_equal(d[i], d[j])
    want = np.sqrt(((x[:5, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    assert np.abs(d[:5] - want).max() <= 1e-12


def test_agglomerate_scales_within_budget():
    # 2000 points: a rescan of the whole linkage matrix per merge is cubic,
    # about 8x its n=1000 time; cached nearest partners keep it near 1 s
    # on a 2-vCPU host
    x = np.random.default_rng(16).standard_normal((2000, 64))
    t0 = time.perf_counter()
    merges = C.agglomerate(x).merges
    elapsed = time.perf_counter() - t0
    assert len(merges) == 1999 and merges[-1][3] == 3998
    assert all(a < b for a, b, _, _ in merges)
    assert all(q[2] >= p[2] - 1e-12 for p, q in zip(merges, merges[1:]))
    assert elapsed < 10, f"agglomerate at n=2000 took {elapsed:.1f}s"


def test_tie_break_prefers_smallest_ids():
    # four identical points: every pair distance is 0
    x = np.ones((4, 3))
    merges = C.agglomerate(x).merges
    assert merges[0][:2] == (0, 1)
    assert merges[1][:2] == (2, 3)
    assert merges[2][:2] == (4, 5)


def test_merge_distances_nondecreasing():
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal((30, 4))
        dists = [m[2] for m in C.agglomerate(x).merges]
        assert all(b >= a - 1e-12 for a, b in zip(dists, dists[1:]))


def test_cluster_count_nonincreasing_in_tau():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 3))
    dend = C.agglomerate(x)
    taus = np.linspace(1e-3, dend.max_distance() * 1.1, 25)
    counts = [C.cut(dend, t).n_clusters for t in taus]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 1


def test_cut_stops_at_first_gap_then_caps():
    feats = blob_dataset([(0, 0), (50, 0), (0, 50), (50, 50)], 5, 0.1, seed=3)
    dend = C.agglomerate(feats)
    free = C.cut(dend, 5.0)
    assert free.n_clusters == 4
    capped = C.cut(dend, 5.0, max_clusters=2)
    assert capped.n_clusters == 2
    tiny = C.cut(dend, 1e-9)
    assert tiny.n_clusters == len(feats)
    assert C.cut(dend, 5.0, max_clusters=10).n_clusters == 4  # cap not binding


def test_cut_matches_the_one_merge_at_a_time_oracle():
    """The merge count, worked out at once, labels as the oracle that merges
    one at a time does: on dendrograms with tied linkages (integer grids),
    at tau equal to a merge's linkage and between linkages, with no cap and
    caps of 1, 2, n and more than n."""
    rng = np.random.default_rng(26)
    for trial in range(60):
        n = int(rng.integers(1, 25))
        if trial % 2:
            x = rng.integers(0, 3, (n, 2)).astype(np.float64)
        else:
            x = rng.standard_normal((n, 3))
        dend = C.agglomerate(x)
        dists = [m[2] for m in dend.merges]
        taus = [1e-9, 1e9, float(rng.uniform(0.1, 3))] + [d for d in dists[::3] if d > 0]
        for tau in taus:
            for cap in (None, 1, 2, n, n + 3):
                got = C.cut(dend, tau, max_clusters=cap)
                want = oracle_cut(n, dend.merges, tau, cap)
                assert np.array_equal(got.labels, want), (trial, tau, cap)
                assert got.n_clusters == len(np.unique(want))


def test_cut_rejects_bad_tau():
    dend = C.agglomerate(np.zeros((2, 2)))
    # an unresolved "calibrate" is a typed error, not a TypeError
    for tau in (0.0, -1.0, float("nan"), "calibrate", None):
        with pytest.raises(DataError):
            C.cut(dend, tau)
    assert C.cut(dend, np.float32(1.0)).n_clusters == 1


def test_labels_are_canonical_partition():
    feats = blob_dataset([(0, 0), (30, 30)], 6, 0.2, seed=4)
    cut = C.cut(C.agglomerate(feats), 5.0)
    assert cut.labels.shape == (12,)
    assert set(cut.labels) == {0, 1}
    assert cut.labels[0] == 0  # numbered by smallest member id


def test_permutation_invariance_up_to_bijection():
    feats = blob_dataset([(0, 0), (20, 0), (0, 20)], 7, 0.3, seed=5)
    cut_a = C.cut(C.agglomerate(feats), 4.0)
    rng = np.random.default_rng(6)
    perm = rng.permutation(len(feats))
    cut_b = C.cut(C.agglomerate(feats[perm]), 4.0)
    assert cut_a.n_clusters == cut_b.n_clusters
    mapping = {}
    for i, p in enumerate(perm):
        a, b = cut_a.labels[p], cut_b.labels[i]
        assert mapping.setdefault(a, b) == b


def test_prototypes_are_exact_means():
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((50, 8))
    cut = C.cut(C.agglomerate(feats), 2.0)
    protos = C.prototypes(feats, cut)
    assert protos.shape == (cut.n_clusters, 8)
    for t in range(cut.n_clusters):
        want = feats[cut.labels == t].mean(axis=0)
        assert np.abs(protos[t] - want).max() < 1e-9


def _route_one(feature, protos):
    return int(C.route_features(np.asarray(feature, dtype=np.float64)[None, :], protos)[0])


def test_route_nearest_and_tie_to_lowest():
    protos = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert _route_one(np.array([0.1, 0.0]), protos) == 0
    assert _route_one(np.array([1.9, 0.1]), protos) == 1
    # equidistant between 1 and 2 only: lowest of the tied pair wins
    assert _route_one(np.array([2.0, 2.0]), protos) == 1
    dup = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert _route_one(np.array([5.0, -3.0]), dup) == 0


def test_route_features_spans_chunks_like_single_rows():
    # 1100 rows cross two 512-row chunk boundaries; integer grid points make
    # exact ties common, and each must go to the lowest index
    rng = np.random.default_rng(8)
    protos = rng.integers(-2, 3, size=(6, 5)).astype(np.float64)
    feats = rng.integers(-2, 3, size=(1100, 5)).astype(np.float64)
    routed = C.route_features(feats, protos)
    assert routed.shape == (1100,) and routed.dtype == np.int64
    ties = 0
    for i in range(1100):
        d2 = ((protos - feats[i]) ** 2).sum(axis=1)
        best = min(range(6), key=lambda j: (d2[j], j))
        ties += int((d2 == d2[best]).sum() > 1)
        assert routed[i] == best == _route_one(feats[i], protos), f"row {i}"
    assert ties > 0


def test_route_features_checks_shape():
    protos = np.zeros((2, 3))
    with pytest.raises(ShapeError):
        C.route_features(np.zeros((4, 2)), protos)
    with pytest.raises(ShapeError):
        C.route_features(np.zeros(3), protos)


def test_partition_covers_every_sample():
    rng = np.random.default_rng(9)
    images = rng.standard_normal((25, 1, 2, 2))
    enc = IdentityEncoder()
    feats = enc.forward_features(images)
    cut = C.cut(C.agglomerate(feats), 2.5)
    protos = C.prototypes(feats, cut)
    assign = C.route_features(enc.forward_features(images), protos)
    assert assign.shape == (25,)
    assert assign.min() >= 0 and assign.max() < len(protos)
    sizes = np.bincount(assign, minlength=len(protos))
    assert sizes.sum() == 25


def test_fit_prototypes_is_probe_agglomerate_cut_means():
    feats = blob_dataset([(0, 0), (6, 0), (0, 6), (6, 6)], 20, 0.4, seed=12)
    ids = C.probe_indices(len(feats), 50, [3, 4])
    want = C.prototypes(feats[ids], C.cut(C.agglomerate(feats[ids]), 5.0, max_clusters=3))
    got, route = C.fit_prototypes(feats, 5.0, 3, 50, [3, 4])
    assert got.shape == (3, 2)
    assert np.array_equal(got, want)
    assert np.array_equal(route, C.route_features(feats, want))


def test_fit_prototypes_drops_a_prototype_no_row_routes_to(monkeypatch, caplog):
    feats = blob_dataset([(0, 0), (6, 0), (0, 6), (6, 6)], 20, 0.4, seed=12)
    want, want_route = C.fit_prototypes(feats, 5.0, 3, 50, [3, 4])
    assert len(want) == 3 and want_route.max() == 2
    means = C.prototypes

    def with_far_row(features, cut_result):
        return np.insert(means(features, cut_result), 1, 1e6, axis=0)

    monkeypatch.setattr(C, "prototypes", with_far_row)
    with caplog.at_level(logging.WARNING, logger="frameprompt.clustering"):
        got, route = C.fit_prototypes(feats, 5.0, 3, 50, [3, 4])
    assert "prototypes [1] captured no samples; dropped" in caplog.text
    assert np.array_equal(got, want)
    assert np.array_equal(route, want_route)


def test_fit_prototypes_single_cluster_skips_linkage(monkeypatch):
    feats = blob_dataset([(0, 0), (9, 9)], 30, 0.4, seed=13)

    def forbidden(features):
        raise AssertionError("cap 1 must not build the dendrogram")

    monkeypatch.setattr(C, "agglomerate", forbidden)
    protos, route = C.fit_prototypes(feats, float("inf"), 1, 40, [5])
    probe = feats[C.probe_indices(len(feats), 40, [5])]
    assert protos.shape == (1, 2)
    assert np.array_equal(protos[0], probe.mean(axis=0))
    assert np.array_equal(route, np.zeros(len(feats), dtype=np.int64))


def test_empty_and_bad_features_rejected():
    with pytest.raises(DataError):
        C.agglomerate(np.zeros((0, 3)))
    with pytest.raises(DataError):
        C.agglomerate(np.array([[np.nan, 0.0]]))
    with pytest.raises(ShapeError):
        C.agglomerate(np.zeros(5))
    assert C.agglomerate(np.zeros((1, 3))).merges == ()
    with pytest.raises(DataError), np.errstate(over="ignore"):
        C.agglomerate(np.array([[1e200], [-1e200], [0.0]]))  # squares overflow


class _WrapDataset:
    def __init__(self, images):
        self.images = images

    def __len__(self):
        return len(self.images)


def test_calibrate_finds_single_mode_scale():
    # one tight blob: every merge is small, so tau* is small
    feats = blob_dataset([(0.0, 0.0, 0.0)], 30, 0.05, seed=10)
    ds = _WrapDataset(feats.reshape(30, 1, 1, 3))
    tau = C.calibrate_threshold(IdentityEncoder(), ds, probe_size=100, seed=0)
    dend = C.agglomerate(feats)
    # 0.8 x the smallest tau giving one cluster, the last merge's distance
    assert tau == 0.8 * dend.max_distance()
    top = dend.max_distance()
    assert C.cut(dend, top).n_clusters == 1
    assert C.cut(dend, np.nextafter(top, 0.0)).n_clusters > 1


def test_calibrate_is_deterministic_per_seed():
    feats = blob_dataset([(0, 0)], 500, 0.3, seed=11)
    ds = _WrapDataset(feats.reshape(-1, 1, 1, 2))
    a = C.calibrate_threshold(IdentityEncoder(), ds, probe_size=64, seed=5)
    b = C.calibrate_threshold(IdentityEncoder(), ds, probe_size=64, seed=5)
    c = C.calibrate_threshold(IdentityEncoder(), ds, probe_size=64, seed=6)
    assert a == b
    assert a != c  # different probe subsample


def test_calibrate_needs_two_samples():
    ds = _WrapDataset(np.zeros((1, 1, 1, 2)))
    with pytest.raises(DataError):
        C.calibrate_threshold(IdentityEncoder(), ds)
    two = _WrapDataset(np.arange(4.0).reshape(2, 1, 1, 2))
    with pytest.raises(DataError):
        C.calibrate_threshold(IdentityEncoder(), two, probe_size=1)
