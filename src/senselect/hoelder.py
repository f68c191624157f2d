"""Per-cluster smoothness constants: ratio diagnostics over a full loss table
and the query-efficient upper-bound estimator that only touches a handful of
losses per cluster."""

from __future__ import annotations

import math

import numpy as np

from .core import Dataset, LossOracle, LossTable, as_generator
from .clustering import Clustering

#: symbolic "distance-only" mode for regression selection
INFINITY = math.inf

DEFAULT_PERCENTILES = (20, 40, 60, 80, 99)


def _center_distances(data: Dataset, clustering: Clustering) -> np.ndarray:
    centers = clustering.centers.positions[clustering.assignment]
    return np.linalg.norm(data.rows - centers, axis=1)


def _require_row_centers(clustering: Clustering) -> np.ndarray:
    if clustering.centers.indices is None:
        raise ValueError("centers must be dataset rows (snap them first) so "
                         "their losses can be looked up")
    return clustering.centers.indices


def holder_ratios(data: Dataset, clustering: Clustering, losses: LossTable,
                  z: float) -> np.ndarray:
    """Ratio |loss(e) - loss(center)| / ||e - center||^z for every point not
    coinciding with its center.

    Diagnostic-only path: it reads the full loss table.
    """
    idx = _require_row_centers(clustering)
    values = losses.values if isinstance(losses, LossTable) else np.asarray(losses)
    center_loss = values[idx][clustering.assignment]
    dist = _center_distances(data, clustering)
    mask = dist > 0
    return np.abs(values[mask] - center_loss[mask]) / dist[mask] ** z


def holder_percentiles(ratios: np.ndarray,
                       percentiles=DEFAULT_PERCENTILES) -> dict[float, float]:
    """Nearest-rank percentiles of the ratio table: for each p, the smallest
    ratio that is >= p percent of the entries."""
    ratios = np.sort(np.asarray(ratios, dtype=np.float64).reshape(-1))
    if ratios.size == 0:
        raise ValueError("empty ratio table")
    out = {}
    for p in percentiles:
        rank = max(int(math.ceil(p / 100.0 * ratios.size)), 1)
        out[float(p)] = float(ratios[min(rank, ratios.size) - 1])
    return out


def default_sample_count(k: int, p: float = 0.2) -> int:
    """Per-cluster sample count t = ceil(ln(100k) / -ln(1-p)).

    Large enough that a ratio mass of p per cluster is hit in all k clusters
    with probability about 99/100.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0,1), got {p}")
    return int(math.ceil(math.log(100 * k) / -math.log1p(-p)))


def estimate_lambda(data: Dataset, clustering: Clustering, oracle: LossOracle,
                    t: int, rng, robust: bool = False) -> np.ndarray:
    """Upper-bound estimate of the per-cluster smoothness constants.

    Per cluster: query the center loss, draw t member points uniformly
    (without replacement when the cluster is large enough), take the max
    observed ratio, and scale by ln(n).  Spends at most t queries per cluster
    plus one per center, all in one oracle batch.

    With ``robust=True`` the top ceil(m/k) sampled ratios are discarded
    before the max, tolerating a small fraction of outliers.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    g = as_generator(rng)
    idx = _require_row_centers(clustering)
    dist = _center_distances(data, clustering)
    picks = []
    for i in range(clustering.k):
        members = np.flatnonzero(clustering.assignment == i)
        if members.size == 0:
            raise ValueError(f"cluster {i} is empty")
        picked = g.choice(members, size=t, replace=t > members.size)
        # skip the center itself (or a duplicate of it)
        picks.append(picked[dist[picked] > 0])
    # one oracle batch: every center, then every pick
    losses = oracle.query_many(np.concatenate([idx, *picks]))
    offset = clustering.k
    log_n = math.log(data.n)
    lam = np.zeros(clustering.k)
    for i, picked in enumerate(picks):
        picked_losses = losses[offset:offset + picked.size]
        offset += picked.size
        # scalar powers: numpy's vectorized power can differ in the last bit
        ratios = [abs(loss - losses[i]) / dist[j] ** clustering.z
                  for j, loss in zip(picked, picked_losses)]
        if robust and ratios:
            drop = int(math.ceil(len(ratios) / clustering.k))
            ratios = sorted(ratios)[:max(len(ratios) - drop, 0)]
        lam[i] = max(ratios, default=0.0) * log_n
    return lam
