"""Ground-truth evaluation: the selection error Delta(S), theorem-style
bounds, synthetic instance generators, and the seeded Monte-Carlo trial
runner behind the benchmark reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Dataset, LossOracle, LossTable, RngStream, as_generator
from .clustering import CenterList, Clustering, assign, weighted_cost
from . import regression as reg
from .selection import (AUTO, WeightedSample, data_select,
                        data_select_rounds, uniform_sample_size,
                        uniform_select)


@dataclass(frozen=True)
class PlantedInstance:
    """Synthetic dataset whose loss satisfies the per-cluster smoothness
    condition exactly: one data row sits at each cluster center, and every
    loss is base_i + lambda_true * ||e - c_i||^z."""

    data: Dataset
    losses: LossTable
    clustering: Clustering
    lam: np.ndarray
    lambda_true: float
    z: float

    @property
    def sum_loss(self) -> float:
        return float(np.sum(self.losses.values))


def delta_error(losses, sample: WeightedSample) -> float:
    """|sum_e loss(e) - sum_{e in S} w(e) loss(e)|.

    Accepts a LossTable or a raw (possibly signed) vector; signed tables are
    for the lower-bound instance only and never pass through an oracle.
    The sample sum is numpy's, not a BLAS dot: no thread count changes it.
    """
    values = losses.values if isinstance(losses, LossTable) else \
        np.asarray(losses, dtype=np.float64)
    estimate = float(np.sum(sample.weights * values[sample.indices]))
    return abs(float(np.sum(values)) - estimate)


def theorem1_bound(epsilon: float, losses, clustering: Clustering,
                   lam) -> float:
    """eps * (sum of losses + 2 * per-cluster weighted clustering cost)."""
    values = losses.values if isinstance(losses, LossTable) else \
        np.asarray(losses, dtype=np.float64)
    return epsilon * (float(np.sum(values)) + 2 * weighted_cost(clustering, lam))


def planted_holder(n: int, d: int, k: int, z: float, separation: float,
                   lambda_true: float, rng) -> PlantedInstance:
    """k unit-variance Gaussian clusters with centers `separation` apart
    along distinct axes.  The first row of each cluster sits exactly at the
    center, so the ground-truth clustering has data-row centers and the
    smoothness ratios equal lambda_true everywhere."""
    if not 1 <= k <= min(n, d):
        raise ValueError("need 1 <= k <= min(n, d) for axis-aligned centers")
    g = as_generator(rng)
    centers = np.zeros((k, d))
    centers[np.arange(k), np.arange(k)] = separation
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    labels = np.repeat(np.arange(k), sizes)  # cluster i is the i-th block
    center_rows = np.cumsum(sizes) - sizes
    base = g.uniform(0.5, 2.0, size=k)
    rows = centers[labels] + g.standard_normal((n, d))
    rows[center_rows] = centers  # plant each center as an actual data row
    data = Dataset(rows)
    dist = np.linalg.norm(data.rows - centers[labels], axis=1)
    losses = LossTable(base[labels] + lambda_true * dist ** z)
    center_list = CenterList(centers, center_rows)
    clustering = assign(data, center_list, z)
    return PlantedInstance(data, losses, clustering,
                           np.full(k, lambda_true), lambda_true, float(z))


def rademacher_instance(n: int):
    """1-D dataset of n/2 copies of -1 and n/2 copies of +1 with the signed
    loss equal to the point itself; the loss sum is exactly zero."""
    if n % 2 != 0:
        raise ValueError("n must be even")
    values = np.concatenate([-np.ones(n // 2), np.ones(n // 2)])
    return Dataset(values[:, None]), values


def planted_regression(n: int, d: int, k: int, lambda_true: float, rng,
                       spread: float = 0.05):
    """Clustered regression rows satisfying the regression smoothness
    condition exactly: member targets differ from their center's target by
    at most lambda_true times the row distance (power 1).

    Returns (instance, center_rows, labels, lam).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    g = as_generator(rng)
    centers = g.standard_normal((k, d))
    centers *= 1 / np.maximum(np.linalg.norm(centers, axis=1,
                                             keepdims=True), 1e-12)
    x_star = g.standard_normal(d)
    x_star /= max(np.linalg.norm(x_star), 1e-12)
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    rows, targets, labels, center_rows = [], [], [], []
    for i in range(k):
        center_rows.append(sum(sizes[:i]))
        noise = g.standard_normal((sizes[i], d))
        noise /= np.maximum(np.linalg.norm(noise, axis=1, keepdims=True), 1e-12)
        radii = g.uniform(0, spread, size=sizes[i])
        block = centers[i] + radii[:, None] * noise
        block[0] = centers[i]
        b_center = float(centers[i] @ x_star)
        dist = np.linalg.norm(block - centers[i], axis=1)
        b = b_center + g.uniform(-1, 1, size=sizes[i]) * lambda_true * dist
        b[0] = b_center
        rows.append(block)
        targets.append(b)
        labels.extend([i] * sizes[i])
    instance = reg.RegressionInstance(np.vstack(rows), np.concatenate(targets))
    return (instance, np.asarray(center_rows, dtype=np.intp),
            np.asarray(labels), np.full(k, lambda_true))


def r2_benchmark(n: int, d: int, k: int, rng: RngStream) -> dict:
    """One seed of the desk-scale R^2 comparison on a `planted_regression`
    instance (lambda_true 0.5, spread 0.2): fit weighted least squares on a
    sensitivity-selected, a leverage-selected, and a uniform coreset of
    max(round(0.05 n), d + 1) rows, and score each fit on the full data."""
    inst, _, _, _ = planted_regression(n, d, k, 0.5, rng.child("instance"),
                                       spread=0.2)
    s = max(int(round(0.05 * n)), d + 1)
    out = {}
    x_full = reg.solve_least_squares(inst.A, inst.b)
    out["full"] = reg.r2_score(inst.A @ x_full, inst.b)

    def fit_r2(idx, weights=None):
        x = reg.solve_least_squares(inst.A[idx], inst.b[idx], weights=weights)
        return reg.r2_score(inst.A @ x, inst.b)

    sample, _ = reg.regression_select(inst, k, 0.5, math.inf,
                                      rng.child("sensitivity"), s=s)
    out["sensitivity"] = fit_r2(sample.indices, sample.weights)
    sample = reg.leverage_select(inst, s, rng.child("leverage"))
    out["leverage"] = fit_r2(sample.indices, sample.weights)
    # uniform_select reads only the row count; the fit stays unweighted
    sample = uniform_select(inst, s, rng.child("uniform"))
    out["uniform"] = fit_r2(sample.indices)
    return out


@dataclass
class TrialReport:
    """Per-seed rows plus aggregates recomputable from them."""

    pipeline: str
    rows: list = field(default_factory=list)

    def add(self, **row):
        self.rows.append(row)

    @property
    def trials(self) -> int:
        return len(self.rows)

    @property
    def success_rate(self) -> float:
        return float(np.mean([r["success"] for r in self.rows]))

    @property
    def mean_delta(self) -> float:
        return float(np.mean([r["delta"] for r in self.rows]))

    @property
    def median_delta(self) -> float:
        return float(np.median([r["delta"] for r in self.rows]))

    @property
    def std_error(self) -> float:
        deltas = [r["delta"] for r in self.rows]
        return float(np.std(deltas, ddof=1) / math.sqrt(len(deltas))) \
            if len(deltas) > 1 else 0.0

    def summary(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "trials": self.trials,
            "success_rate": self.success_rate,
            "mean_delta": self.mean_delta,
            "median_delta": self.median_delta,
            "std_error": self.std_error,
        }


def exact_expectation_gap(plan_p, plan_w, s, losses) -> float:
    """Relative gap of the algebraic unbiasedness identity
    sum_e s*p_e*w_e*loss_e = sum_e loss_e on the support."""
    values = losses.values if isinstance(losses, LossTable) else \
        np.asarray(losses, dtype=np.float64)
    lhs = float(np.sum(s * plan_p * plan_w * values))
    rhs = float(np.sum(values[plan_p > 0]))
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def run_trials(config: dict) -> TrialReport:
    """Execute seeded trials of a named pipeline and compare each trial's
    error to the matching bound.

    Required keys: pipeline, trials, master_seed; the others, with their
    defaults, are the pipeline's `_PIPELINES` entry.  Deterministic given
    master_seed.
    """
    pipeline = config.get("pipeline")
    trials = int(config.get("trials", 100))
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    master = RngStream(int(config.get("master_seed", 0)), "bench")
    report = TrialReport(pipeline)
    run, defaults = _PIPELINES.get(pipeline, (None, None))
    if run is None:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    unknown = sorted(set(config) - set(defaults)
                     - {"pipeline", "trials", "master_seed"})
    if unknown:
        raise ValueError(f"unknown config key(s) for pipeline {pipeline!r}: "
                         + ", ".join(map(repr, unknown)))
    params = {key: (int if default is None else type(default))(config[key])
              if key in config else default
              for key, default in defaults.items()}
    run(params, trials, master, report)
    return report


def _planted(p, master) -> PlantedInstance:
    return planted_holder(p["n"], p["d"], p["k"], p["z"], p["separation"],
                          p["lambda_true"], master.child("instance"))


def _trials_data_select(p, trials, master, report):
    mode = p["lambda_mode"]
    if mode not in ("supplied", AUTO):
        raise ValueError(f"lambda_mode must be 'supplied' or 'auto', got "
                         f"{mode!r}")
    inst = _planted(p, master)
    eps, k = p["epsilon"], p["k"]
    budget, lam = (None, AUTO) if mode == AUTO else (k, inst.lam)
    for t in range(trials):
        oracle = LossOracle.from_table(inst.losses, budget=budget)
        sample, run_report, clustering, _ = data_select(
            inst.data, k, eps, lam, oracle, inst.z, master.child(f"trial-{t}"))
        delta = delta_error(inst.losses, sample)
        bound = theorem1_bound(eps, inst.losses, clustering,
                               run_report["lambda"])
        report.add(seed=t, delta=delta, bound=bound,
                   success=bool(delta <= bound),
                   queries_used=oracle.queries_used)


def _trials_rounds(p, trials, master, report):
    inst = _planted(p, master)
    eps, k, rounds = p["epsilon"], p["k"], p["rounds"]
    for t in range(trials):
        oracle = LossOracle.from_table(inst.losses, budget=k * rounds)
        results = data_select_rounds(inst.data, k, rounds, eps,
                                     inst.lambda_true, oracle, inst.z,
                                     master.child(f"trial-{t}"))
        for sample, run_report in results:
            delta = delta_error(inst.losses, sample)
            bound = eps * (inst.sum_loss + run_report["phi_lambda"])
            report.add(seed=t, round=run_report["round"], delta=delta,
                       bound=bound, success=bool(delta <= bound),
                       queries_used=run_report["queries_used"])


def _trials_uniform_spike(p, trials, master, report):
    n, eps, spike = p["n"], p["epsilon"], p["spike"]
    derived = uniform_sample_size(eps)  # checks epsilon even when s is given
    s = derived if p["s"] is None else p["s"]
    data = Dataset(np.zeros((n, 1)))  # rejects n < 1 before losses[0]
    losses = np.zeros(n)
    losses[0] = spike
    bound = eps * n * spike
    for t in range(trials):
        sample = uniform_select(data, s, master.child(f"trial-{t}"))
        delta = delta_error(losses, sample)
        report.add(seed=t, delta=delta, bound=bound,
                   success=bool(delta <= bound), queries_used=0)


def _trials_rademacher(p, trials, master, report):
    n, s = p["n"], p["s"]
    data, signed = rademacher_instance(n)
    for t in range(trials):
        sample = uniform_select(data, s, master.child(f"trial-{t}"))
        threshold = p["threshold_const"] * n / math.sqrt(s)  # s >= 1 here
        # sum of losses is 0, so delta equals |estimator|
        delta = delta_error(signed, sample)
        report.add(seed=t, delta=delta, bound=threshold,
                   success=bool(delta >= threshold), queries_used=0)


def _trials_regression(p, trials, master, report):
    k, eps = p["k"], p["epsilon"]
    inst, _, _, lam = planted_regression(p["n"], p["d"], k, p["lambda_true"],
                                         master.child("instance"))
    for t in range(trials):
        sample, plan = reg.regression_select(inst, k, eps, lam,
                                             master.child(f"trial-{t}"),
                                             delta=p["delta"])
        x = plan.x0  # admissible by construction
        err = reg.coreset_objective_error(inst, sample, x)
        full = float(np.sum((inst.A @ x - inst.b) ** 2))
        bound = eps * (full + weighted_cost(plan.clustering, lam))
        report.add(seed=t, delta=err, bound=bound,
                   success=bool(err <= bound), queries_used=k)


# each pipeline, and the keys it reads besides pipeline, trials and
# master_seed, with defaults whose types given values are cast to (int for
# None: uniform_spike's s, by default ceil(1/epsilon^2)); any other key is a
# typo that would do nothing (tests/test_evaluation.py checks the reads)
_PLANTED = {"n": 2000, "d": 10, "k": 4, "z": 2.0, "separation": 20.0,
            "lambda_true": 0.5, "epsilon": 0.2}
_PIPELINES = {
    "data_select": (_trials_data_select,
                    {**_PLANTED, "lambda_mode": "supplied"}),
    "rounds": (_trials_rounds, {**_PLANTED, "rounds": 4}),
    "uniform_spike": (_trials_uniform_spike,
                      {"n": 1000, "epsilon": 0.1, "s": None, "spike": 1.0}),
    "uniform_rademacher": (_trials_rademacher,
                           {"n": 10 ** 4, "s": 100, "threshold_const": 0.2}),
    "regression": (_trials_regression,
                   {"n": 2000, "d": 8, "k": 10, "epsilon": 0.5, "delta": 0.1,
                    "lambda_true": 1.0}),
}
