"""Acceptance suite: one test per shipped guarantee, each printing a PASS/FAIL
line with the measured quantities.  Statistical criteria run a fixed seeded
trial battery, so every number here is reproducible."""

import math
import time

import numpy as np
import pytest

from senselect import (Dataset, LossOracle, LossTable, RngStream,
                       estimate_lambda, exact_expectation_gap,
                       holder_percentiles, holder_ratios, leverage_scores,
                       planted_holder, proxy_losses, r2_benchmark, run_trials,
                       sensitivity_plan)
from senselect.clustering import CenterList, assign
from senselect.cli import main as cli_main
from senselect.io import load_report


from conftest import record_criterion


def _check(num: int, ok: bool, detail: str):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_criterion(line)
    print(line)
    assert ok, line


def test_criterion_1_exact_unbiasedness():
    # 50 random full-support plans: s * sum p w l == sum l to 1e-9 relative
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 501))
        k = int(rng.integers(1, 6))
        data = Dataset(rng.normal(size=(n, int(rng.integers(1, 6)))))
        losses = rng.random(n) + 0.1  # strictly positive => full support
        centers = rng.choice(n, size=k, replace=False)
        clustering = assign(data, CenterList(data.rows[centers], centers), 2)
        proxy = proxy_losses(clustering, LossOracle.from_table(losses))
        plan = sensitivity_plan(proxy, clustering, rng.random(k) + 0.1,
                                float(rng.uniform(0.1, 1.0)))
        assert np.all(plan.p > 0)
        worst = max(worst,
                    exact_expectation_gap(plan.p, plan.w, plan.s, losses))
    elapsed = time.perf_counter() - t0
    _check(1, worst <= 1e-9 and elapsed < 1.0,
           f"max relative gap {worst:.2e} over 50 plans, {elapsed:.2f}s")


def test_criterion_2_one_round_bound():
    # planted instance, eps=0.2, supplied per-cluster constants: the
    # eps*(sum loss + 2*Phi) bound holds in >= 60% of 500 seeds and every
    # run spends exactly k=4 oracle queries
    t0 = time.perf_counter()
    report = run_trials({"pipeline": "data_select", "trials": 500,
                         "master_seed": 0, "n": 2000, "d": 10, "k": 4,
                         "z": 2, "separation": 20, "lambda_true": 0.5,
                         "epsilon": 0.2})
    rate = report.success_rate
    queries_ok = all(r["queries_used"] == 4 for r in report.rows)
    elapsed = time.perf_counter() - t0
    _check(2, rate >= 0.60 and queries_ok and elapsed < 60,
           f"success {rate:.3f} over 500 seeds, queries always 4, "
           f"{elapsed:.1f}s")


def test_criterion_3_uniform_upper_and_lower():
    t0 = time.perf_counter()
    spike = run_trials({"pipeline": "uniform_spike", "trials": 1000,
                        "master_seed": 1, "n": 1000, "epsilon": 0.1})
    rade = run_trials({"pipeline": "uniform_rademacher", "trials": 1000,
                       "master_seed": 2, "n": 10 ** 4, "s": 100})
    median = rade.median_delta
    threshold = 0.2 * 10 ** 4 / math.sqrt(100)
    elapsed = time.perf_counter() - t0
    _check(3, spike.success_rate >= 0.60 and median >= threshold
           and elapsed < 30,
           f"spike success {spike.success_rate:.3f}, median |estimator| "
           f"{median:.0f} >= {threshold:.0f}, {elapsed:.1f}s")


def test_criterion_4_per_round_bound_and_queries():
    t0 = time.perf_counter()
    report = run_trials({"pipeline": "rounds", "trials": 300,
                         "master_seed": 3, "n": 2000, "d": 10, "k": 4,
                         "z": 2, "separation": 20, "lambda_true": 0.5,
                         "epsilon": 0.2, "rounds": 4})
    rates = {}
    ok = True
    for i in (1, 2, 4):
        rows = [r for r in report.rows if r["round"] == i]
        assert len(rows) == 300
        ok &= all(r["queries_used"] == 4 * i for r in rows)
        rates[i] = float(np.mean([r["success"] for r in rows]))
        ok &= rates[i] >= 0.60
    elapsed = time.perf_counter() - t0
    _check(4, ok and elapsed < 120,
           "per-round success " +
           ", ".join(f"r{i}={rates[i]:.3f}" for i in (1, 2, 4)) +
           f", queries i*4 exact, {elapsed:.1f}s")


def test_criterion_5_lambda_estimate_coverage():
    # one cluster of n=1000 points at unit distance from the center; a 0.1
    # mass of points carries the full ratio and the rest sit below the
    # ln(n)-rescue threshold, so success means sampling into that mass
    t0 = time.perf_counter()
    n, lam_true = 1000, 2.0
    ln_n = math.log(n)
    rows = np.ones((n, 1))
    rows[0] = 0.0
    data = Dataset(rows)
    losses = np.full(n, lam_true / (2 * ln_n))
    losses[0] = 0.0
    losses[1:101] = lam_true
    clustering = assign(data, CenterList(rows[:1], [0]), 2)
    t = math.ceil(math.log(100 * 1) / -math.log(1 - 0.1))
    assert t == 44
    hits = 0
    never_exceeds = True
    for seed in range(400):
        est = estimate_lambda(clustering, LossOracle.from_table(losses),
                              t, RngStream(seed, "lem"))[0]
        never_exceeds &= est <= lam_true * ln_n + 1e-12
        hits += est >= lam_true
    rate = hits / 400
    elapsed = time.perf_counter() - t0
    _check(5, rate >= 0.99 and never_exceeds and elapsed < 10,
           f"coverage {rate:.4f} over 400 seeds at t={t}, capped by "
           f"lambda*ln(n), {elapsed:.1f}s")


def test_criterion_6_leverage_scores():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 301))
        d = int(rng.integers(1, 21))
        A = rng.normal(size=(n, d))
        tau = leverage_scores(A)
        rank = np.linalg.matrix_rank(A)
        ok &= abs(float(np.sum(tau)) - rank) <= 1e-6
        ok &= np.all(tau >= -1e-9) and np.all(tau <= 1 + 1e-9)
        naive = np.einsum("ij,jk,ik->i", A, np.linalg.pinv(A.T @ A), A)
        worst = max(worst, float(np.max(np.abs(tau - naive))))
    elapsed = time.perf_counter() - t0
    _check(6, ok and worst <= 1e-8 and elapsed < 10,
           f"100 matrices, sum=rank, range ok, max oracle gap {worst:.1e}, "
           f"{elapsed:.1f}s")


def test_criterion_7_regression_bound():
    t0 = time.perf_counter()
    report = run_trials({"pipeline": "regression", "trials": 200,
                         "master_seed": 4, "n": 2000, "d": 8, "k": 10,
                         "epsilon": 0.5, "delta": 0.1, "lambda_true": 1.0})
    rate = report.success_rate
    elapsed = time.perf_counter() - t0
    _check(7, rate >= 0.85 and elapsed < 120,
           f"success {rate:.3f} over 200 seeds at delta=0.1, {elapsed:.1f}s")


def test_criterion_8_r2_comparison():
    t0 = time.perf_counter()
    results = [r2_benchmark(1000, 8, 20, RngStream(seed, "r2"))
               for seed in range(100)]
    med = {key: float(np.median([r[key] for r in results]))
           for key in ("full", "sensitivity", "leverage", "uniform")}
    ok = (abs(med["sensitivity"] - med["leverage"]) <= 0.05
          and med["sensitivity"] >= med["uniform"] - 0.02
          and med["leverage"] >= med["uniform"] - 0.02)
    elapsed = time.perf_counter() - t0
    _check(8, ok and elapsed < 120,
           "median R2 " +
           ", ".join(f"{k}={v:.3f}" for k, v in med.items()) +
           f", {elapsed:.1f}s")


def test_criterion_9_ratio_percentiles():
    t0 = time.perf_counter()
    inst = planted_holder(1000, 6, 4, 2, 20.0, 0.7, RngStream(0, "tab"))
    ratios = holder_ratios(inst.clustering, inst.losses)
    clean = holder_percentiles(ratios)
    clean_ok = all(v <= 0.7 + 1e-9 for v in clean.values())
    # inject 5% loss outliers away from the centers
    g = RngStream(1, "out").generator()
    vals = inst.losses.values.copy()
    centers = set(inst.clustering.centers.indices.tolist())
    candidates = np.array([i for i in range(1000) if i not in centers])
    bad = g.choice(candidates, size=50, replace=False)
    dist = np.linalg.norm(
        inst.data.rows
        - inst.clustering.centers.positions[inst.clustering.assignment],
        axis=1)
    vals[bad] += 10.0 * dist[bad] ** 2
    tainted = holder_percentiles(
        holder_ratios(inst.clustering, LossTable(vals)))
    factor = tainted[99.0] / tainted[80.0]
    elapsed = time.perf_counter() - t0
    _check(9, clean_ok and factor >= 2 and elapsed < 5,
           f"clean percentiles <= 0.7, outlier 99th/80th = {factor:.1f}, "
           f"{elapsed:.1f}s")


def test_criterion_10_cli_determinism_and_budget(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "data.csv"
    data.write_text("0.0\n1.0\n10.0\n11.0\n")
    losses = tmp_path / "losses.txt"
    losses.write_text("0.0\n5.0\n10.0\n7.0\n")
    samples, reports = [], []
    for name in ("a", "b"):
        sample_path = tmp_path / f"{name}.csv"
        report_path = tmp_path / f"{name}.json"
        code = cli_main(["select", "--data", str(data), "--k", "2",
                         "--epsilon", "0.5", "--lambda", "1",
                         "--losses", str(losses), "--seed", "7",
                         "--out-sample", str(sample_path),
                         "--out-report", str(report_path)])
        assert code == 0
        samples.append(sample_path.read_bytes())
        report = load_report(report_path)
        report.pop("elapsed_seconds")
        report.pop("sample_path")
        reports.append(report)
    identical = samples[0] == samples[1] and reports[0] == reports[1]
    # budget k-1 aborts with the oracle exit code and writes nothing
    abort_path = tmp_path / "abort.csv"
    abort_code = cli_main(["select", "--data", str(data), "--k", "2",
                           "--epsilon", "0.5", "--lambda", "1",
                           "--losses", str(losses), "--oracle-budget", "1",
                           "--out-sample", str(abort_path)])
    aborted = abort_code == 3 and not abort_path.exists()
    elapsed = time.perf_counter() - t0
    _check(10, identical and aborted and elapsed < 5,
           f"rerun byte-identical sample + matching report, budget k-1 "
           f"exits 3 with no sample file, {elapsed:.1f}s")
