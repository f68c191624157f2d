"""Per-cluster smoothness constants: ratio diagnostics over a full loss table
and the query-efficient upper-bound estimator that only touches a handful of
losses per cluster."""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import Dataset, LossOracle, LossTable, as_generator
from .clustering import Clustering, _members, center_distances

#: symbolic "distance-only" mode for regression selection
INFINITY = math.inf

DEFAULT_PERCENTILES = (20, 40, 60, 80, 99)

_LARGEST = sys.float_info.max


def _require_row_centers(clustering: Clustering) -> np.ndarray:
    if clustering.centers.indices is None:
        raise ValueError("centers must be dataset rows (snap them first) so "
                         "their losses can be looked up")
    return clustering.centers.indices


def _filled(clustering: Clustering) -> tuple[np.ndarray, np.ndarray]:
    """(ids, rows): the clusters that have members, ascending, and their
    center rows; only these centers' losses are ever read."""
    ids = np.flatnonzero(np.bincount(clustering.assignment,
                                     minlength=clustering.k))
    return ids, _require_row_centers(clustering)[ids]


def holder_ratios(data: Dataset, clustering: Clustering,
                  losses: LossTable) -> np.ndarray:
    """Ratio |loss(e) - loss(center)| / ||e - center||^clustering.z for every
    point not coinciding with its center, capped at the largest double.

    Diagnostic-only path: it reads the full loss table.
    """
    idx = _require_row_centers(clustering)
    values = losses.values if isinstance(losses, LossTable) else np.asarray(losses)
    center_loss = values[idx][clustering.assignment]
    dist = center_distances(data.rows, clustering)
    mask = dist > 0
    return _ratios(values[mask] - center_loss[mask],
                   dist[mask] ** clustering.z)


def _ratios(loss_gaps, dist_z) -> np.ndarray:
    """|loss gap| / distance^z for points at a positive distance from their
    center, given those powers: 0 where the gap is 0, and the largest double
    where the power underflowed to 0 or the quotient overflows."""
    gaps = np.abs(loss_gaps)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = gaps / dist_z
    return np.where(gaps > 0, np.minimum(ratios, _LARGEST), 0.0)


def holder_percentiles(ratios: np.ndarray,
                       percentiles=DEFAULT_PERCENTILES) -> dict[float, float]:
    """Nearest-rank percentiles of the ratio table: for each p in [0, 100],
    the smallest ratio that is >= p percent of the entries."""
    ratios = np.asarray(ratios, dtype=np.float64).reshape(-1)
    if ratios.size == 0:
        raise ValueError("empty ratio table")
    values = np.percentile(ratios, percentiles, method="inverted_cdf")
    return {float(p): float(v) for p, v in zip(percentiles, values)}


def _count(value, formula, name: str = "epsilon") -> int:
    """ceil(formula(value)), if that is a finite array length."""
    try:
        count = math.ceil(formula(value))
    except (OverflowError, ZeroDivisionError):
        count = math.inf
    if count > sys.maxsize:  # numpy's largest array length
        raise ValueError(f"sample count from {name} is above the largest "
                         "array length")
    return count


def default_sample_count(k: int, p: float = 0.2) -> int:
    """Per-cluster sample count t = ceil(ln(100k) / -ln(1-p)).

    Large enough that a ratio mass of p per cluster is hit in all k clusters
    with probability about 99/100.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0,1), got {p}")
    return _count(p, lambda p: math.log(100 * k) / -math.log1p(-p), "p")


def estimate_lambda(data: Dataset, clustering: Clustering, oracle: LossOracle,
                    t: int, rng) -> np.ndarray:
    """Upper-bound estimate of the per-cluster smoothness constants.

    Per cluster: query the center loss, draw t member points uniformly
    (without replacement when the cluster is large enough), take the max
    observed ratio, and scale by ln(n), capped at the largest double.
    Spends at most t queries per cluster plus one per center, all in one
    oracle batch.

    An empty cluster (its center duplicates a row that an earlier center
    took) spends no query: its center is not queried, it gets no picks and
    lambda 0, as its cost is 0 and no point's score reads its constant.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    g = as_generator(rng)
    filled, rows = _filled(clustering)
    dist = center_distances(data.rows, clustering)
    bounds, order = _members(clustering.assignment, clustering.k)
    picks = []
    for i in range(clustering.k):
        members = order[bounds[i]:bounds[i + 1]]
        if members.size == 0:
            picks.append(members)
            continue
        picked = g.choice(members, size=t, replace=t > members.size)
        # skip the center itself (or a duplicate of it)
        picks.append(picked[dist[picked] > 0])
    # one oracle batch: every center with members, then every pick
    losses = oracle.query_many(np.concatenate([rows, *picks]))
    center = np.zeros(clustering.k)
    center[filled] = losses[:filled.size]
    offset = filled.size
    log_n = math.log(data.n)
    lam = np.zeros(clustering.k)
    for i, picked in enumerate(picks):
        picked_losses = losses[offset:offset + picked.size]
        offset += picked.size
        # scalar powers: numpy's vectorized power can differ in the last bit
        dist_z = np.array([dist[j] ** clustering.z for j in picked])
        ratios = _ratios(picked_losses - center[i], dist_z)
        lam[i] = min(float(np.max(ratios, initial=0.0)) * log_n, _LARGEST)
    return lam
