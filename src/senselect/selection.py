"""Samplers: one-round sensitivity selection, the r-round adaptive variant,
the uniform baseline, greedy k-center and diversity baselines, and loss
extrapolation from center losses."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, LossOracle, RngStream, as_generator
from .clustering import (CenterList, Clustering, assign, dz_seed,
                         powered_distances, refine, snap_centers)
from .hoelder import estimate_lambda, default_sample_count

AUTO = "auto"


@dataclass(frozen=True)
class ProxyLoss:
    """Per-point proxies built from k center losses: lhat(e) is the loss of
    e's center, v(e) the distance^z of e to that center."""

    lhat: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SamplingPlan:
    """Per-point probabilities p, weights w = 1/(s*p) on the support, the
    sample count s, and the normalizer the probabilities came from.
    Off-support weights are stored as 0 and must not be used."""

    p: np.ndarray
    w: np.ndarray
    s: int
    denom: float

    def __post_init__(self):
        total = float(np.sum(self.p))
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass(frozen=True)
class WeightedSample:
    """The artifact output: s (row index, weight) pairs drawn i.i.d. from a
    plan, duplicates preserved."""

    indices: np.ndarray
    weights: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.indices.size


def proxy_losses(data: Dataset, clustering: Clustering,
                 oracle: LossOracle) -> ProxyLoss:
    """Query the oracle on exactly the k (snapped) center rows, as one batch,
    and extend to proxies for every point."""
    idx = clustering.centers.indices
    if idx is None:
        raise ValueError("clustering centers must be dataset rows (snapped)")
    center_losses = oracle.query_many(idx)
    lhat = center_losses[clustering.assignment]
    centers = clustering.centers.positions[clustering.assignment]
    v = np.linalg.norm(data.rows - centers, axis=1) ** clustering.z
    return ProxyLoss(lhat, v)


def sample_size(epsilon: float) -> int:
    """Sample count ceil(eps^-2 * (2 + 2*eps/3))."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return int(math.ceil(epsilon ** -2 * (2 + 2 * epsilon / 3)))


def _plan_from_scores(scores: np.ndarray, denom: float, s: int) -> SamplingPlan:
    n = scores.size
    if denom <= 0:
        warnings.warn("degenerate normalizer (all proxy information zero); "
                      "falling back to uniform probabilities")
        p = np.full(n, 1.0 / n)
        denom = 0.0
    else:
        p = scores / denom
    with np.errstate(divide="ignore"):
        w = np.where(p > 0, 1.0 / (s * p), 0.0)
    return SamplingPlan(p, w, s, float(denom))


def sensitivity_plan(proxy: ProxyLoss, clustering: Clustering, lam,
                     epsilon: float) -> SamplingPlan:
    """Importance-sampling plan with p(e) proportional to
    lhat(e) + lam_i * v(e); falls back to uniform when everything is zero."""
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    if lam.size == 1:
        lam = np.full(clustering.k, lam[0])
    if lam.size != clustering.k:
        raise ValueError(f"lambda length {lam.size} != k {clustering.k}")
    if np.any(~np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("lambda must be finite and >= 0")
    if np.any(~np.isfinite(proxy.lhat)) or np.any(~np.isfinite(proxy.v)):
        raise ValueError("non-finite proxy values")
    scores = proxy.lhat + lam[clustering.assignment] * proxy.v
    denom = float(np.dot(lam, clustering.cluster_cost) + np.sum(proxy.lhat))
    return _plan_from_scores(scores, denom, sample_size(epsilon))


def draw(plan: SamplingPlan, rng) -> WeightedSample:
    """s i.i.d. draws with replacement from the plan's distribution."""
    g = as_generator(rng)
    idx = g.choice(plan.p.size, size=plan.s, p=plan.p)
    return WeightedSample(idx, plan.w[idx])


def data_select(data: Dataset, k: int, epsilon: float, lam, oracle: LossOracle,
                z: float, rng: RngStream, s: int | None = None,
                lambda_sample_count: int | None = None,
                lambda_mass: float = 0.2):
    """End-to-end one-round pipeline: D^z seeding, refinement, snapping to
    data rows, center-loss proxies, optional lambda estimation, sensitivity
    plan, draw.

    ``lam`` is a per-cluster vector, a scalar (broadcast), or AUTO to chain
    the query-based estimator.  With a supplied lam the oracle is queried on
    exactly the k center rows.  Returns (sample, report, clustering, plan).
    """
    seeds = dz_seed(data, k, z, rng.child("seed"))
    clustering = snap_centers(data, refine(data, seeds, z))
    proxy = proxy_losses(data, clustering, oracle)
    queries_proxy = oracle.queries_used
    if isinstance(lam, str) and lam == AUTO:
        t = (default_sample_count(k, lambda_mass)
             if lambda_sample_count is None else lambda_sample_count)
        lam_vec = estimate_lambda(data, clustering, oracle, t,
                                  rng.child("lambda"))
        lambda_mode = AUTO
    else:
        lam_vec = np.asarray(lam, dtype=np.float64).reshape(-1)
        if lam_vec.size == 1:
            lam_vec = np.full(k, lam_vec[0])
        lambda_mode = "supplied"
    plan = sensitivity_plan(proxy, clustering, lam_vec, epsilon)
    if s is not None:
        s = int(s)
        with np.errstate(divide="ignore"):
            w = np.where(plan.p > 0, 1.0 / (s * plan.p), 0.0)
        plan = SamplingPlan(plan.p, w, s, plan.denom)
    sample = draw(plan, rng.child("draw"))
    report = {
        "k": k,
        "epsilon": epsilon,
        "z": z,
        "s": plan.s,
        "lambda_mode": lambda_mode,
        "lambda": [float(v) for v in lam_vec],
        "queries_used": oracle.queries_used,
        "queries_proxy": queries_proxy,
        "queries_lambda": oracle.queries_used - queries_proxy,
        "phi_lambda": float(np.dot(lam_vec, clustering.cluster_cost)),
        "denom": plan.denom,
        "seed": rng.seed,
        "rng_label": rng.label,
    }
    sample = WeightedSample(sample.indices, sample.weights, dict(report))
    return sample, report, clustering, plan


def data_select_rounds(data: Dataset, k: int, rounds: int, epsilon: float,
                       lam, oracle: LossOracle, z: float, rng: RngStream):
    """Adaptive variant: one D^z prefix ordering of length k*rounds; round i
    queries the k newly revealed centers (one oracle batch) and samples
    against proxies built from the first i*k centers.  Cumulative queries after round i equal i*k.

    ``lam`` is a scalar or a length-(k*rounds) vector giving per-prefix-cluster
    constants.  Returns a list of (sample, report) pairs.
    """
    if k * rounds > data.n:
        raise ValueError(f"k*rounds = {k * rounds} exceeds n = {data.n}")
    ordering = dz_seed(data, k * rounds, z, rng.child("seed"))
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    if lam.size == 1:
        lam = np.full(k * rounds, lam[0])
    if lam.size != k * rounds:
        raise ValueError("lambda must be scalar or length k*rounds")
    results = []
    s = sample_size(epsilon)
    for i in range(1, rounds + 1):
        prefix = ordering.prefix(i * k)
        clustering = assign(data, prefix, z)
        proxy = proxy_losses(data, clustering, oracle)
        lam_i = lam[: i * k]
        scores = proxy.lhat + lam_i[clustering.assignment] * proxy.v
        denom = float(np.dot(lam_i, clustering.cluster_cost)
                      + np.sum(proxy.lhat))
        plan = _plan_from_scores(scores, denom, s)
        sample = draw(plan, rng.child(f"draw-round-{i}"))
        report = {
            "round": i,
            "k": k,
            "epsilon": epsilon,
            "z": z,
            "s": s,
            "queries_used": oracle.queries_used,
            "phi_lambda": float(np.dot(lam_i, clustering.cluster_cost)),
            "denom": plan.denom,
        }
        results.append((WeightedSample(sample.indices, sample.weights,
                                       dict(report)), report))
    return results


def uniform_select(data: Dataset, s: int, rng) -> WeightedSample:
    """s uniform draws with replacement, every weight n/s."""
    g = as_generator(rng)
    idx = g.integers(data.n, size=s)
    return WeightedSample(idx, np.full(s, data.n / s))


def kcenter_select(data: Dataset, k: int, rng) -> np.ndarray:
    """Greedy farthest-point traversal: first index uniform, then repeatedly
    the point maximizing the min distance to the chosen set."""
    if not 1 <= k <= data.n:
        raise ValueError(f"k={k} out of range for n={data.n}")
    g = as_generator(rng)
    chosen = [int(g.integers(data.n))]
    mind = powered_distances(data.rows, data.rows[chosen[-1]], 1)[:, 0]
    for _ in range(k - 1):
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        mind = np.minimum(mind, powered_distances(data.rows, data.rows[nxt], 1)[:, 0])
    return np.asarray(chosen, dtype=np.intp)


def diversity_select(data: Dataset, k: int, z: float, rng) -> np.ndarray:
    """Cluster with k centers and return, per cluster, the member row closest
    to the center (ties to the lowest index)."""
    clustering = refine(data, dz_seed(data, k, z, rng), z)
    out = np.empty(clustering.k, dtype=np.intp)
    dist = np.linalg.norm(
        data.rows - clustering.centers.positions[clustering.assignment], axis=1)
    for i in range(clustering.k):
        members = np.flatnonzero(clustering.assignment == i)
        out[i] = members[np.argmin(dist[members])]
    return out


def extrapolate_losses(data: Dataset, clustering: Clustering, center_losses,
                       lam: float, z: float = 2) -> np.ndarray:
    """Extrapolated loss: center loss of e's cluster plus lam * ||e-c||^z."""
    center_losses = np.asarray(center_losses, dtype=np.float64).reshape(-1)
    if center_losses.size != clustering.k:
        raise ValueError("need one loss per center")
    lhat = center_losses[clustering.assignment]
    centers = clustering.centers.positions[clustering.assignment]
    dist = np.linalg.norm(data.rows - centers, axis=1)
    return lhat + lam * dist ** z
