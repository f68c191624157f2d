"""Samplers: one-round sensitivity selection, the r-round adaptive variant
and the uniform baseline; each returns a weighted sample.

The core every importance sampler shares: `cluster` (seed, refine, snap),
`sensitivity_plan` (p proportional to lhat + lam_i v, over lam . Phi +
sum(lhat)) and `draw`; regression's sampler and baseline use them too."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import Dataset, LossOracle, RngStream, as_generator
from .clustering import (Clustering, assign, dz_seed, refine, snap_centers,
                         weighted_cost)
from .hoelder import _count, _filled, default_sample_count, estimate_lambda

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

    def __len__(self) -> int:
        return self.indices.size


def proxy_losses(clustering: Clustering, oracle: LossOracle) -> ProxyLoss:
    """Query the oracle on the center rows of the clusters that have members
    (all k unless snapped centers share a position), as one batch: lhat is
    a point's center loss, v its `Clustering.distances` to the z."""
    filled, rows = _filled(clustering)
    lhat = np.zeros(clustering.k)
    lhat[filled] = oracle.query_many(rows)
    v = clustering.distances ** clustering.z
    return ProxyLoss(lhat[clustering.assignment], v)


def sample_size(epsilon: float) -> int:
    """Sample count ceil(eps^-2 * (2 + 2*eps/3))."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    return _count(epsilon, lambda e: e ** -2 * (2 + 2 * e / 3))


def uniform_sample_size(epsilon: float) -> int:
    """Sample count ceil(1/eps^2) of uniform sampling, for any finite eps > 0
    (1 above eps = 1, where eps^2 may overflow)."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and > 0, got {epsilon}")
    return 1 if epsilon > 1 else _count(epsilon, lambda e: 1 / e ** 2)


def _sample_count(s) -> int | None:
    """None, or s as an int if it is an integer >= 1, else ValueError."""
    if s is not None and not (isinstance(s, numbers.Integral) and s >= 1):
        raise ValueError(f"sample count must be an integer >= 1, got {s!r}")
    return None if s is None else int(s)


def _plan_from_scores(scores: np.ndarray, denom: float, s: int) -> SamplingPlan:
    n = scores.size
    if denom <= 0:
        warnings.warn("degenerate normalizer (all proxy information zero); "
                      "falling back to uniform probabilities")
        p = np.full(n, 1.0 / n)
        denom = 0.0
    else:
        p = scores / denom
    with np.errstate(divide="ignore", over="ignore"):
        w = np.where(p > 0, 1.0 / (s * p), 0.0)
    # a p below ~1/(s * 1.8e308) has no double weight; it is taken off the
    # support, losing less probability than a draw can resolve
    if w.max() == np.inf:
        overflow = np.isinf(w)
        p = np.where(overflow, 0.0, p)
        w[overflow] = 0.0
    return SamplingPlan(p, w, s, float(denom))


def _lambda_vector(lam, k: int) -> np.ndarray:
    """lam as a length-k vector (a scalar is broadcast) of finite, >= 0
    entries."""
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    if lam.size == 1:
        lam = np.full(k, lam[0])
    if lam.size != k:
        raise ValueError(f"lambda length {lam.size} != k {k}")
    if np.any(~np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("lambda must be finite and >= 0")
    return lam


def sensitivity_plan(proxy: ProxyLoss, clustering: Clustering, lam,
                     epsilon: float, s: int | None = None) -> SamplingPlan:
    """Importance-sampling plan with p(e) proportional to
    lhat(e) + lam_i * v(e), normalized by lam . Phi + sum(lhat); falls back
    to uniform when everything is zero, and is rebuilt at a scale where
    nothing underflows or overflows when the normalizer or a score is not
    finite, or when a subnormal normalizer leaves p not summing to 1.
    ``s`` draws, by default sample_size(epsilon)."""
    lam = _lambda_vector(lam, clustering.k)
    draws = sample_size(epsilon)  # checks epsilon even when s is given
    s = _sample_count(s) or draws
    if np.any(~np.isfinite(proxy.lhat)) or np.any(~np.isfinite(proxy.v)):
        raise ValueError("non-finite proxy values")
    with np.errstate(over="ignore"):  # an overflow is rescaled below
        scores = proxy.lhat + lam[clustering.assignment] * proxy.v
        denom = float(weighted_cost(clustering, lam) + np.sum(proxy.lhat))
    if math.isfinite(denom) and np.all(np.isfinite(scores)):
        try:
            return _plan_from_scores(scores, denom, s)
        except ValueError:  # p does not sum to 1
            if denom >= np.finfo(np.float64).tiny:
                raise
    return _rescaled_plan(proxy, clustering, lam, s)


def _rescaled_plan(proxy: ProxyLoss, clustering: Clustering, lam: np.ndarray,
                   s: int) -> SamplingPlan:
    """`sensitivity_plan` when its normalizer or a score overflowed, or the
    normalizer is subnormal and its terms lost so much precision to
    underflow that p does not sum to 1.  Scaling lhat and lam by one power
    of two leaves p unchanged, so every term is rebuilt at the scale that
    puts the normalizer's largest term in [1/4, 1), each product from its
    factors' mantissas and rounded once.  The plan stores the true
    normalizer, inf when it is above the largest double."""
    lhat, cost, a = proxy.lhat, clustering.cluster_cost, clustering.assignment
    _, lhat_exp = np.frexp(lhat)
    lam_frac, lam_exp = np.frexp(lam)
    cost_frac, cost_exp = np.frexp(cost)
    v_frac, v_exp = np.frexp(proxy.v)
    # binary exponents of the normalizer's positive terms
    exps = np.concatenate([lhat_exp[lhat > 0],
                           (lam_exp + cost_exp)[(lam > 0) & (cost > 0)]])
    shift = -int(exps.max())
    lhat = np.ldexp(lhat, shift)
    scores = lhat + np.ldexp(lam_frac[a] * v_frac, lam_exp[a] + v_exp + shift)
    denom = float(np.sum(np.ldexp(lam_frac * cost_frac,
                                  lam_exp + cost_exp + shift)) + np.sum(lhat))
    plan = _plan_from_scores(scores, denom, s)
    with np.errstate(over="ignore"):
        return replace(plan, denom=float(np.ldexp(plan.denom, -shift)))


def draw(plan: SamplingPlan, rng) -> WeightedSample:
    """s i.i.d. draws with replacement from the plan's distribution."""
    g = as_generator(rng)
    idx = g.choice(plan.p.size, size=plan.s, p=plan.p)
    return WeightedSample(idx, plan.w[idx])


def cluster(data: Dataset, k: int, z: float, rng: RngStream) -> Clustering:
    """k centers on data rows: D^z seeding from ``rng.child("seed")``,
    refinement, then snapping to distinct rows, each cluster with members
    to its member nearest its center (`snap_centers`).  The bound reads the
    clustering only through its costs and holds for any row centers, so a
    member stands for its cluster.  The snap reads only the refined centers
    and assignment, so refinement skips its final exact cost pass."""
    seeds = dz_seed(data, k, z, rng.child("seed"))
    return snap_centers(data, refine(data, seeds, z, costs=False))


def _select_once(clustering: Clustering, epsilon: float, lam,
                 oracle: LossOracle, z: float, rng, s: int | None = None):
    """proxy -> plan -> draw on one clustering with a checked lam vector;
    returns the sample, the plan and the report fields both pipelines write."""
    proxy = proxy_losses(clustering, oracle)
    plan = sensitivity_plan(proxy, clustering, lam, epsilon, s)
    sample = draw(plan, rng)
    return sample, plan, {"epsilon": epsilon, "z": z, "s": plan.s,
                          "queries_used": oracle.queries_used,
                          "phi_lambda": weighted_cost(clustering, lam),
                          "denom": plan.denom}


def data_select(data: Dataset, k: int, epsilon: float, lam, oracle: LossOracle,
                z: float, rng: RngStream, s: int | None = None):
    """End-to-end one-round pipeline: clustering on data rows, optional
    lambda estimation, center-loss proxies, sensitivity plan, draw.

    ``lam`` is a per-cluster vector, a scalar (broadcast), or AUTO to chain
    the query-based estimator.  The oracle gets one batch: the center rows
    of the k_effective clusters that have members (k unless there are fewer
    than k distinct rows), followed under AUTO by the estimator's member
    picks.  ``s`` overrides the sample count.  Returns (sample, report,
    clustering, plan).
    """
    auto = isinstance(lam, str) and lam == AUTO
    if not auto:
        lam = _lambda_vector(lam, k)  # reject a bad lam before any query
    sample_size(epsilon)  # and a bad epsilon
    s = _sample_count(s)  # and a bad sample count
    clustering = cluster(data, k, z, rng)
    # the batch fetches the uncached rows of centers with members first
    filled, rows = _filled(clustering)
    centers = set(rows.tolist())
    queries_proxy = oracle.queries_used + len(centers - oracle.cache.keys())
    if auto:
        lam = estimate_lambda(clustering, oracle, default_sample_count(k),
                              rng.child("lambda"))
    sample, plan, fields = _select_once(clustering, epsilon, lam, oracle, z,
                                        rng.child("draw"), s)
    report = {
        "k": k,
        "k_effective": int(filled.size),
        "lambda_mode": AUTO if auto else "supplied",
        "lambda": [float(v) for v in lam],
        "queries_proxy": queries_proxy,
        "queries_lambda": fields["queries_used"] - queries_proxy,
        **fields,
        "seed": rng.seed,
        "rng_label": rng.label,
    }
    return sample, report, clustering, plan


def data_select_rounds(data: Dataset, k: int, rounds: int, epsilon: float,
                       lam, oracle: LossOracle, z: float, rng: RngStream):
    """Adaptive variant: one D^z prefix ordering of length k*rounds; round i
    queries the k newly revealed centers (one oracle batch) and samples
    against proxies built from the first i*k centers.  Cumulative queries
    after round i equal i*k, less the centers whose clusters are empty
    (centers that share a position).

    ``lam`` is a scalar or a length-(k*rounds) vector giving per-prefix-cluster
    constants.  Returns a list of (sample, report) pairs.
    """
    if k < 1 or rounds < 1:
        raise ValueError(f"k and rounds must be >= 1, got k={k}, "
                         f"rounds={rounds}")
    if k * rounds > data.n:
        raise ValueError(f"k*rounds = {k * rounds} exceeds n = {data.n}")
    lam = _lambda_vector(lam, k * rounds)
    sample_size(epsilon)  # rejects a bad epsilon before any query
    ordering = dz_seed(data, k * rounds, z, rng.child("seed"))
    results = []
    for i in range(1, rounds + 1):
        clustering = assign(data, ordering.prefix(i * k), z)
        sample, _, fields = _select_once(clustering, epsilon, lam[: i * k],
                                         oracle, z,
                                         rng.child(f"draw-round-{i}"))
        results.append((sample, {"round": i, "k": k, **fields}))
    return results


def uniform_select(data: Dataset, s: int, rng) -> WeightedSample:
    """s uniform draws with replacement, every weight n/s."""
    s = _sample_count(s)
    g = as_generator(rng)
    idx = g.integers(data.n, size=s)
    return WeightedSample(idx, np.full(s, data.n / s))
