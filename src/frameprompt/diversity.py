"""Dataset diversity: mean pairwise distance over random image pairs.

Pairs are drawn with replacement across pairs but the two members of a pair
are always distinct. Distance is the L2 norm between encoder features
(metric "feature_l2") or between flattened pixels ("pixel_l2"); the reported
score is the mean scaled by 100, with the sample std alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

_PAIRS = 0xD1F0


@dataclass(frozen=True)
class DiversityResult:
    score: float       # mean distance x 100
    spread: float      # sample std of the distances x 100
    pairs: int
    metric: str


def sample_pairs(n: int, pairs: int, seed) -> tuple[np.ndarray, np.ndarray]:
    if n < 2:
        raise DataError(f"diversity needs at least 2 samples, got {n}")
    if pairs < 1:
        raise DataError(f"pair count must be >= 1, got {pairs}")
    if pairs * 8 > np.iinfo(np.intp).max:
        raise DataError(f"{pairs} pairs are more than any array can hold")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, size=pairs)
    b = rng.integers(0, n - 1, size=pairs)
    b[b >= a] += 1  # uniform over the other n-1 indices
    return a, b


def diversity_score(dataset, encoder=None, pairs: int = 10000, seed: int = 0,
                    metric: str = "feature_l2") -> DiversityResult:
    if metric not in ("feature_l2", "pixel_l2"):
        raise DataError(f"unknown diversity metric {metric!r}")
    if metric == "feature_l2" and encoder is None:
        raise DataError("feature_l2 diversity needs an encoder")
    a, b = sample_pairs(len(dataset), pairs, [seed, _PAIRS])
    if metric == "feature_l2":
        # embed each image once, then index the pair lists
        src = encoder.forward_features(dataset.images)
    else:
        src = dataset.images.reshape(len(dataset), -1)
    d = np.empty(pairs)
    for s in range(0, pairs, 2048):
        sl = slice(s, s + 2048)
        d[sl] = np.linalg.norm(src[a[sl]] - src[b[sl]], axis=1)
    spread = d.std(ddof=1) if pairs > 1 else 0.0
    return DiversityResult(float(d.mean() * 100), float(spread * 100), pairs, metric)
