"""Least-squares specialization: cluster-based row sampling, the leverage
score and uniform baselines, and R^2 evaluation.  Both samplers draw
through `selection.draw`; the cluster-based one builds its plan with
`selection.sensitivity_plan`, medoid residuals standing in for losses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Dataset, RngStream
from .clustering import Clustering, center_distances, kmedoids
from .hoelder import INFINITY, _count
from .selection import (ProxyLoss, WeightedSample, _plan_from_scores, draw,
                        sensitivity_plan)


@dataclass(frozen=True)
class RegressionInstance:
    """Rows a_i of A paired with targets b_i."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        if A.shape[0] != b.size:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.size}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite entries in regression instance")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def d(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class RegressionPlan:
    """Clustering of the rows, the center-based reference solution x0, and
    the sampling probabilities/weights derived from them."""

    clustering: Clustering
    x0: np.ndarray
    p: np.ndarray
    w: np.ndarray
    s: int


def solve_least_squares(A, b, weights=None) -> np.ndarray:
    """Minimize sum_i weights_i * (<a_i, x> - b_i)^2 via an orthogonal
    factorization of the (row-scaled) system; rank-deficient systems get the
    minimum-norm solution."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite input")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and >= 0")
        root = np.sqrt(weights)
        A = A * root[:, None]
        b = b * root
    x, *_ = scipy.linalg.lstsq(A, b, lapack_driver="gelsd")
    return x


def leverage_scores(A) -> np.ndarray:
    """Row leverage scores tau_i = a_i^T (A^T A)^+ a_i, computed from an
    orthonormal basis of the column space."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite input")
    U, S, _ = np.linalg.svd(A, full_matrices=False)
    if S.size == 0 or S[0] == 0:
        return np.zeros(A.shape[0])
    rank = int(np.sum(S > S[0] * max(A.shape) * np.finfo(np.float64).eps))
    return np.sum(U[:, :rank] ** 2, axis=1)


def leverage_select(instance: RegressionInstance, s: int, rng) -> WeightedSample:
    """s i.i.d. rows with probability proportional to leverage score."""
    tau = leverage_scores(instance.A)
    return draw(_plan_from_scores(tau, float(np.sum(tau)), int(s)), rng)


def regression_sample_size(d: int, epsilon: float, delta: float = 0.1) -> int:
    """s = ceil(8 * d * eps^-2 * ln(1/delta))."""
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return _count(epsilon, lambda e: 8 * d * e ** -2 * math.log(1 / delta))


def regression_select(instance: RegressionInstance, k: int, epsilon: float,
                      lam, rng: RngStream, delta: float = 0.1,
                      s: int | None = None):
    """Cluster-based row selection for least squares.

    Rows are clustered by k-medoids (power 1, centers are rows): each
    center is its cluster's sampled medoid, deterministic and exact for
    clusters of at most 64 rows (`clustering.kmedoids`), so a Lloyd pass
    costs O(n k d), not O(m^2 d) for a cluster of m rows; the bound reads
    the clustering only through its cost, for any row centers.  The
    reference solution x0 is the cluster-size-weighted fit on the medoid
    rows, and the plan is the sensitivity plan with the medoid's residual
    at x0 as lhat and the row's distance to its medoid as v.  Targets b are
    read only at the k distinct medoid rows, in one indexing.

    ``lam`` may be a scalar, a per-cluster vector, or INFINITY for the
    distance-only mode where p_i is proportional to ||a_i - medoid_i||.
    Returns (sample, plan).
    """
    data = Dataset(instance.A)
    clustering = kmedoids(data, k, rng.child("cluster"))
    idx = clustering.centers.indices
    sizes = np.bincount(clustering.assignment, minlength=clustering.k)
    b_hat_centers = instance.b[idx]
    x0 = solve_least_squares(instance.A[idx], b_hat_centers, weights=sizes)
    resid_sq = (instance.A[idx] @ x0 - b_hat_centers) ** 2
    dist = center_distances(instance.A, clustering)
    if s is None:
        s = regression_sample_size(instance.d, epsilon, delta)
    if np.isscalar(lam) and lam == INFINITY:
        plan = _plan_from_scores(dist, float(np.sum(dist)), int(s))
    else:
        proxy = ProxyLoss(resid_sq[clustering.assignment], dist)
        plan = sensitivity_plan(proxy, clustering, lam, epsilon, s)
    return (draw(plan, rng.child("draw")),
            RegressionPlan(clustering, x0, plan.p, plan.w, plan.s))


def coreset_objective_error(instance: RegressionInstance,
                            sample: WeightedSample, x) -> float:
    """|sum_s w(s) (<a_s, x> - b_s)^2  -  ||Ax - b||^2| at a fixed x."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    full = float(np.sum((instance.A @ x - instance.b) ** 2))
    res = (instance.A[sample.indices] @ x - instance.b[sample.indices]) ** 2
    return abs(float(np.dot(sample.weights, res)) - full)


class ConstantTargetError(ValueError):
    """R^2 is undefined when the targets are constant."""


def r2_score(predictions, b) -> float:
    """1 - RSS/TSS about the target mean; 1 for a perfect fit, 0 for the
    mean predictor."""
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if predictions.size != b.size:
        raise ValueError("length mismatch")
    tss = float(np.sum((b - np.mean(b)) ** 2))
    if tss == 0:
        raise ConstantTargetError("targets are constant; R^2 undefined")
    rss = float(np.sum((b - predictions) ** 2))
    return 1.0 - rss / tss
