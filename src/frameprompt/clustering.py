"""Feature-space partitioning: the one clustering path and the one router.

fit_prototypes draws a probe of the features, builds its bottom-up
agglomerative tree with average linkage over Euclidean distances, cuts it at
tau and down to a cluster cap, and returns the cluster means as a plain
(N, d) array, less any mean that no feature row routes to, with the route of
every row; route_features sends each feature row to its nearest prototype.
Cluster ids follow the usual dendrogram convention: leaves are 0..n-1, the
merge at step t creates id n+t. Linkage is kept as summed point distances, so
merges are exact additions that match a brute-force oracle; each cluster
caches its nearest larger-id partner.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DataError, ShapeError

log = logging.getLogger(__name__)


def pairwise_distances(features: np.ndarray) -> np.ndarray:
    """Euclidean distances in difference form, so equal rows get equal
    distances bit for bit; each block of rows is mirrored, so the matrix is
    exactly symmetric; its (rows, n, d) difference is about 1 MiB, one row at least."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    n, d = x.shape
    out = np.empty((n, n))
    rows = max(1, (1 << 20) // (8 * n * max(d, 1)))
    for s in range(0, n, rows):
        diff = x[s:s + rows, None, :] - x[None, s:, :]
        np.square(diff, out=diff)
        out[s:s + rows, s:] = np.sqrt(diff.sum(axis=2))
        out[s:, s:s + rows] = out[s:s + rows, s:].T
    return out


@dataclass(frozen=True)
class Dendrogram:
    n_leaves: int
    # (id_a, id_b, average distance, new id) per merge, id_a < id_b
    merges: tuple = ()

    def max_distance(self) -> float:
        return max((m[2] for m in self.merges), default=0.0)


@dataclass(frozen=True)
class ClusterCut:
    labels: np.ndarray
    n_clusters: int


def agglomerate(features: np.ndarray) -> Dendrogram:
    """Full average-linkage merge tree. Ties on the linkage value resolve to
    the lexicographically smallest (min id, max id) pair: `order` lists live
    slots by ascending id, and best[a], nn[a] cache the lowest linkage from
    slot a to a larger id and the slot of the smallest such id."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be (n,d), got {x.shape}")
    n = x.shape[0]
    if n < 1:
        raise DataError("cannot cluster an empty feature set")
    if not np.all(np.isfinite(x)):
        raise DataError("features contain non-finite values")
    if n == 1:
        return Dendrogram(1, ())
    sums = pairwise_distances(x)  # sum of point distances between clusters
    if not np.isfinite(sums.sum()):
        raise DataError("feature distances overflow float64")
    ids, order, sizes = np.arange(n), np.arange(n), np.ones(n, dtype=np.int64)
    best, nn = np.empty(n), np.empty(n, dtype=np.int64)

    def rescan(rows):
        avg = sums[np.ix_(rows, order)] / np.outer(sizes[rows], sizes[order])
        avg[ids[order][None, :] <= ids[rows][:, None]] = np.inf
        j = np.argmin(avg, axis=1)
        best[rows], nn[rows] = avg[np.arange(len(rows)), j], order[j]
    rescan(order)
    merges = []
    for step in range(n - 1):
        a = order[np.argmin(best[order])]
        b = nn[a]
        merges.append((int(ids[a]), int(ids[b]), float(best[a]), n + step))
        # the merged cluster takes slot a; it has the largest id, so no partner
        sums[:, a] = sums[a] = sums[a] + sums[b]
        ids[a], sizes[a], best[a] = n + step, sizes[a] + sizes[b], np.inf
        order = np.append(order[(order != a) & (order != b)], a)
        rest = order[:-1]
        stale = rest[(nn[rest] == a) | (nn[rest] == b)]
        col = sums[rest, a] / (sizes[rest] * sizes[a])
        # strict <: on a tie the older, lower-id partner stays
        hit = col < best[rest]
        best[rest[hit]], nn[rest[hit]] = col[hit], a
        if stale.size:
            rescan(stale)
    return Dendrogram(n, tuple(merges))


def check_threshold(tau):
    """DataError unless tau is a positive number; callers check it early."""
    if not (isinstance(tau, Real) and tau > 0):
        raise DataError(f"threshold must be a positive number, got {tau!r}")


def cut(dendrogram: Dendrogram, tau: float, max_clusters: int | None = None) -> ClusterCut:
    """Replay the merges before the first linkage above tau; if that leaves
    more than max_clusters groups, replay further in dendrogram order down to
    the cap. Clusters are numbered by their smallest member id."""
    check_threshold(tau)
    if max_clusters is not None and max_clusters < 1:
        raise DataError(f"max_clusters must be >= 1, got {max_clusters}")
    n, merges = dendrogram.n_leaves, dendrogram.merges
    applied = next((i for i, m in enumerate(merges) if m[2] > tau), len(merges))
    if max_clusters is not None:
        applied = max(applied, n - max_clusters)
    # replayed newest first, the id a merge makes already holds its root
    root = list(range(n + applied))
    for a, b, _, new_id in reversed(merges[:applied]):
        root[a] = root[b] = root[new_id]
    roots = root[:n]
    order = {r: c for c, r in enumerate(dict.fromkeys(roots))}
    labels = np.asarray([order[r] for r in roots], dtype=np.int64)
    return ClusterCut(labels, len(order))


def prototypes(features: np.ndarray, cut_result: ClusterCut) -> np.ndarray:
    """(n_clusters, d) array of the cluster means."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[0] != cut_result.labels.shape[0]:
        raise ShapeError(f"{x.shape[0]} features vs {cut_result.labels.shape[0]} labels")
    cents = np.empty((cut_result.n_clusters, x.shape[1]))
    for c in range(cut_result.n_clusters):
        cents[c] = x[cut_result.labels == c].mean(axis=0)
    return cents


def route_features(feats: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Nearest of the (N, d) prototypes per row by squared Euclidean distance,
    ties to the lowest index. Rows go 512 at a time to bound the (rows, N, d)
    difference."""
    x = np.asarray(feats, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != protos.shape[1]:
        raise ShapeError(f"features {x.shape} vs prototypes {protos.shape}")
    out = np.empty(x.shape[0], dtype=np.int64)
    for start in range(0, x.shape[0], 512):
        diff = x[start:start + 512, None, :] - protos[None, :, :]
        out[start:start + 512] = np.argmin((diff * diff).sum(axis=2), axis=1)
    return out


def probe_indices(n: int, probe_size: int, seed) -> np.ndarray:
    take = min(n, probe_size)
    if take == n:
        return np.arange(n, dtype=np.int64)
    return np.sort(np.random.default_rng(seed).choice(n, size=take, replace=False))


def fit_prototypes(feats: np.ndarray, tau: float, cap: int, probe_size: int, seed
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Means of the clusters of a probe of feats: the probe's dendrogram cut
    at tau and then down to cap clusters. cap == 1 gives one cluster whatever
    the dendrogram, so that cut is built directly, without the linkage.

    Returns (protos, route): the means that at least one row of feats routes
    to, and each row's index into them. A mean that is no row's nearest can
    train nothing, so it is dropped with a warning; as it is nobody's argmin,
    every row keeps its nearest prototype, ties to the lowest index included."""
    probe = feats[probe_indices(len(feats), probe_size, seed)]
    if cap == 1:
        cut_result = ClusterCut(np.zeros(len(probe), dtype=np.int64), 1)
    else:
        cut_result = cut(agglomerate(probe), tau, max_clusters=cap)
    protos = prototypes(probe, cut_result)
    used, route = np.unique(route_features(feats, protos), return_inverse=True)
    if len(used) < len(protos):
        dropped = np.setdiff1d(np.arange(len(protos)), used)
        log.warning("prototypes %s captured no samples; dropped", dropped.tolist())
        protos = protos[used]
    return protos, route


def calibrate_threshold(encoder, reference, probe_size: int = 1000,
                        seed: int = 0) -> float:
    """Distance scale from a designated single-mode reference dataset: 0.8 of
    the largest linkage distance of the probe's dendrogram, the smallest tau
    at which cut() leaves one cluster. A probe of one point has no linkage
    distance, so fewer than two probe points is a DataError."""
    if min(len(reference), probe_size) < 2:
        raise DataError(f"calibration needs a probe of >= 2 samples, got "
                        f"{min(len(reference), probe_size)}")
    ids = probe_indices(len(reference), probe_size, [seed, 0xCA11])
    feats = encoder.forward_features(reference.images[ids])
    top = agglomerate(feats).max_distance()
    if top <= 0:
        # all probe points identical; any positive threshold collapses them
        return 0.8 * 1e-3
    return 0.8 * top
