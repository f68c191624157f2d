import math

import numpy as np
import pytest

from senselect import core
from senselect.core import Dataset, LossOracle, LossTable, RngStream
from senselect.clustering import CenterList, assign
from senselect import evaluation
from senselect.evaluation import (TrialReport, delta_error,
                                  exact_expectation_gap, planted_holder,
                                  planted_regression, r2_benchmark,
                                  rademacher_instance, run_trials,
                                  theorem1_bound)
from senselect.hoelder import holder_ratios
from senselect.regression import RegressionInstance, coreset_objective_error
from senselect.selection import (WeightedSample, proxy_losses,
                                 sensitivity_plan)

PAIRS = Dataset([[0.0], [1.0], [10.0], [11.0]])


def pairs_clustering():
    return assign(PAIRS, CenterList(PAIRS.rows[[0, 2]], [0, 2]), 2)


class TestDeltaError:
    def test_identity_sample(self):
        sample = WeightedSample(np.arange(3), np.ones(3))
        assert delta_error(LossTable([1, 2, 3]), sample) == 0

    def test_hand_computed(self):
        sample = WeightedSample(np.array([1]), np.array([6.0]))
        # estimate 12 against true sum 6
        assert delta_error(LossTable([1, 2, 3]), sample) == pytest.approx(6)

    def test_accepts_signed_values(self):
        sample = WeightedSample(np.array([0]), np.array([2.0]))
        assert delta_error(np.array([-1.0, 1.0]), sample) == pytest.approx(2)

    @pytest.mark.skipif(not core._openblas_controls(),
                        reason="no OpenBLAS loaded")
    @pytest.mark.parametrize("seed", range(20))
    def test_independent_of_blas_threads(self, seed):
        # at s = 20,000 OpenBLAS splits a dot product over threads; the
        # sample sums of delta_error and coreset_objective_error keep their
        # bits on one thread and the default
        g = np.random.default_rng(seed)
        n, s = 50_000, 20_000
        losses = g.gamma(2.0, size=n)
        sample = WeightedSample(g.integers(n, size=s), g.gamma(2.0, size=s))
        instance = RegressionInstance(g.normal(size=(n, 4)), losses)
        x = g.normal(size=4)

        def outputs():
            return (delta_error(losses, sample),
                    coreset_objective_error(instance, sample, x))

        free = outputs()
        with core.blas_threads(1):
            capped = outputs()
        assert free == capped


class TestTheorem1Bound:
    def test_hand_computed(self):
        # eps * (loss sum 22 + 2 * weighted cost 2)
        bound = theorem1_bound(0.5, LossTable([0, 5, 10, 7]),
                               pairs_clustering(), [1.0, 1.0])
        assert bound == pytest.approx(13.0)

    def test_scales_linearly_in_eps(self):
        losses = LossTable([0, 5, 10, 7])
        b1 = theorem1_bound(0.1, losses, pairs_clustering(), [1.0, 1.0])
        b2 = theorem1_bound(0.2, losses, pairs_clustering(), [1.0, 1.0])
        assert b2 == pytest.approx(2 * b1)


class TestPlantedHolder:
    def test_structure(self):
        inst = planted_holder(100, 6, 4, 2, 20.0, 0.5, RngStream(0, "ph"))
        assert inst.data.n == 100 and inst.data.d == 6
        assert inst.clustering.k == 4
        # each planted center is an actual data row
        for pos, idx in zip(inst.clustering.centers.positions,
                            inst.clustering.centers.indices):
            np.testing.assert_array_equal(pos, inst.data.rows[idx])

    def test_smoothness_ratios_equal_lambda_true(self):
        inst = planted_holder(100, 6, 4, 2, 20.0, 0.5, RngStream(1, "ph"))
        ratios = holder_ratios(inst.clustering, inst.losses)
        np.testing.assert_allclose(ratios, 0.5, rtol=1e-9)

    def test_aggregate_properties(self):
        inst = planted_holder(100, 6, 4, 2, 20.0, 0.5, RngStream(2, "ph"))
        assert inst.sum_loss == pytest.approx(np.sum(inst.losses.values))

    def test_deterministic(self):
        a = planted_holder(50, 5, 3, 2, 10.0, 1.0, RngStream(3, "ph"))
        b = planted_holder(50, 5, 3, 2, 10.0, 1.0, RngStream(3, "ph"))
        np.testing.assert_array_equal(a.data.rows, b.data.rows)
        np.testing.assert_array_equal(a.losses.values, b.losses.values)

    def test_rejects_k_above_dimension(self):
        with pytest.raises(ValueError):
            planted_holder(100, 3, 4, 2, 10.0, 1.0, RngStream(0, "ph"))

    @pytest.mark.parametrize("n, d, k, z, seed", [
        (100, 6, 4, 2, 0), (50, 5, 3, 2, 3), (7, 3, 3, 1, 1), (10, 4, 4, 1, 2),
        (2000, 10, 4, 2, 5), (1, 1, 1, 2, 0)])
    def test_matches_the_per_cluster_loop(self, n, d, k, z, seed):
        # reference: one normal draw per cluster block, center planted
        # as the block's first row
        g = RngStream(seed, "ph").generator()
        centers = np.zeros((k, d))
        centers[np.arange(k), np.arange(k)] = 20.0
        sizes = np.full(k, n // k)
        sizes[: n % k] += 1
        base = g.uniform(0.5, 2.0, size=k)
        rows, labels, center_rows = [], [], []
        for i in range(k):
            center_rows.append(sum(sizes[:i]))
            block = centers[i] + g.standard_normal((sizes[i], d))
            block[0] = centers[i]
            rows.append(block)
            labels.extend([i] * sizes[i])
        data, labels = Dataset(np.vstack(rows)), np.asarray(labels)
        dist = np.linalg.norm(data.rows - centers[labels], axis=1)
        ref = assign(data, CenterList(centers, center_rows), z)
        inst = planted_holder(n, d, k, z, 20.0, 0.5, RngStream(seed, "ph"))
        assert inst.data.rows.tobytes() == data.rows.tobytes()
        assert inst.losses.values.tobytes() == (
            base[labels] + 0.5 * dist ** z).tobytes()
        got = inst.clustering
        np.testing.assert_array_equal(got.assignment, labels)
        assert got.assignment.tobytes() == ref.assignment.tobytes()
        assert got.cluster_cost.tobytes() == ref.cluster_cost.tobytes()
        assert got.centers.indices.tolist() == center_rows
        assert got.centers.positions.tobytes() == centers.tobytes()


class TestRademacherInstance:
    def test_balanced_and_zero_sum(self):
        data, signed = rademacher_instance(10)
        assert data.n == 10 and data.d == 1
        assert np.sum(signed) == 0
        assert set(signed.tolist()) == {-1.0, 1.0}

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            rademacher_instance(7)


class TestPlantedRegression:
    def test_smoothness_condition_holds_exactly(self):
        inst, center_rows, labels, lam = planted_regression(
            200, 5, 8, 0.7, RngStream(4, "pr"))
        for i, c in enumerate(center_rows):
            members = np.flatnonzero(labels == i)
            dist = np.linalg.norm(inst.A[members] - inst.A[c], axis=1)
            gap = np.abs(inst.b[members] - inst.b[c])
            assert np.all(gap <= 0.7 * dist + 1e-12)
        np.testing.assert_allclose(lam, 0.7)

    def test_center_rows_planted(self):
        inst, center_rows, labels, _ = planted_regression(
            100, 4, 5, 0.5, RngStream(5, "pr"))
        assert len(center_rows) == 5
        assert labels[center_rows].tolist() == list(range(5))


class TestR2Benchmark:
    def test_keys_and_sane_full_fit(self):
        out = r2_benchmark(400, 4, 8, RngStream(6, "bench"))
        assert set(out) == {"full", "sensitivity", "leverage", "uniform"}
        assert out["full"] > 0.9
        assert all(v <= 1.0 for v in out.values())


class TestTrialReport:
    def test_aggregates(self):
        report = TrialReport("demo")
        report.add(seed=0, delta=1.0, bound=2.0, success=True)
        report.add(seed=1, delta=3.0, bound=2.0, success=False)
        report.add(seed=2, delta=2.0, bound=2.0, success=True)
        assert report.trials == 3
        assert report.success_rate == pytest.approx(2 / 3)
        assert report.mean_delta == pytest.approx(2.0)
        assert report.median_delta == pytest.approx(2.0)
        assert report.std_error == pytest.approx(1.0 / math.sqrt(3))
        summary = report.summary()
        assert summary["pipeline"] == "demo"
        assert summary["trials"] == 3


class TestExactExpectationGap:
    def test_zero_for_real_plan(self):
        losses = [0.0, 5.0, 10.0, 7.0]
        clustering = pairs_clustering()
        proxy = proxy_losses(clustering, LossOracle.from_table(losses))
        plan = sensitivity_plan(proxy, clustering, [1.0, 1.0], 0.5)
        gap = exact_expectation_gap(plan.p, plan.w, plan.s, np.array(losses))
        assert gap < 1e-12


class TestRunTrials:
    def test_unknown_pipeline(self):
        with pytest.raises(ValueError):
            run_trials({"pipeline": "nope", "trials": 1})

    def test_deterministic_given_master_seed(self):
        config = {"pipeline": "data_select", "trials": 4, "master_seed": 9,
                  "n": 200, "d": 5, "k": 3, "epsilon": 0.3}
        a = run_trials(config)
        b = run_trials(config)
        assert a.rows == b.rows

    def test_data_select_queries_and_fields(self):
        report = run_trials({"pipeline": "data_select", "trials": 5,
                             "master_seed": 1, "n": 200, "d": 5, "k": 3,
                             "epsilon": 0.3})
        assert report.trials == 5
        for row in report.rows:
            assert row["queries_used"] == 3
            assert row["delta"] >= 0 and row["bound"] > 0

    def test_rounds_query_schedule(self):
        report = run_trials({"pipeline": "rounds", "trials": 3,
                             "master_seed": 2, "n": 200, "d": 5, "k": 3,
                             "rounds": 2, "epsilon": 0.3})
        assert report.trials == 6  # one row per round per trial
        for row in report.rows:
            assert row["queries_used"] == 3 * row["round"]

    def test_uniform_spike_uses_no_queries(self):
        report = run_trials({"pipeline": "uniform_spike", "trials": 5,
                             "master_seed": 3, "n": 100, "epsilon": 0.2})
        assert all(row["queries_used"] == 0 for row in report.rows)
        assert all(row["bound"] == pytest.approx(0.2 * 100)
                   for row in report.rows)

    def test_rademacher_threshold(self):
        report = run_trials({"pipeline": "uniform_rademacher", "trials": 5,
                             "master_seed": 4, "n": 400, "s": 16})
        for row in report.rows:
            assert row["bound"] == pytest.approx(0.2 * 400 / 4)
            # success means the estimator magnitude clears the threshold
            assert row["success"] == (row["delta"] >= row["bound"])

    @pytest.mark.parametrize("config", [
        {"pipeline": "data_select", "n": 60, "d": 3, "k": 2},
        {"pipeline": "data_select", "n": 60, "d": 3, "k": 2,
         "lambda_mode": "auto"},
        {"pipeline": "rounds", "n": 60, "d": 3, "k": 2, "rounds": 2},
        {"pipeline": "uniform_spike", "n": 50, "epsilon": 0.5},
        {"pipeline": "uniform_rademacher", "n": 50, "s": 4},
        {"pipeline": "regression", "n": 60, "d": 3, "k": 3},
    ], ids=lambda c: c["pipeline"] + "-" + c.get("lambda_mode", ""))
    def test_accepted_keys_are_the_keys_read(self, config, monkeypatch):
        # a key the table lacks would be rejected though it is read; a key
        # it has but no run reads would let that typo pass silently
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

        run, defaults = evaluation._PIPELINES[config["pipeline"]]
        monkeypatch.setitem(
            evaluation._PIPELINES, config["pipeline"],
            (lambda params, *rest: run(Recording(params), *rest), defaults))
        run_trials({**config, "trials": 1})
        assert read == set(defaults)

    @pytest.mark.parametrize("config", [
        {"pipeline": "uniform_spike", "n": "50", "epsilon": "0.5",
         "s": "3", "spike": "2"},
        {"pipeline": "regression", "n": "60", "d": "3", "k": "3",
         "epsilon": "1", "delta": "0.5", "lambda_true": "2"},
    ], ids=lambda c: c["pipeline"])
    def test_values_take_their_defaults_types(self, config, monkeypatch):
        # a bench config's values are strings; each pipeline gets them as
        # the types of the table's defaults
        got = {}
        run, defaults = evaluation._PIPELINES[config["pipeline"]]
        monkeypatch.setitem(
            evaluation._PIPELINES, config["pipeline"],
            (lambda params, *rest: got.update(params), defaults))
        run_trials({**config, "trials": "1"})
        assert got.keys() == defaults.keys()
        for key, value in got.items():
            assert type(value) is (int if defaults[key] is None
                                   else type(defaults[key]))
            assert value == float(config[key])

    def test_explicit_zero_s_is_rejected(self):
        # s = 0 does not mean "derive s from epsilon"
        with pytest.raises(ValueError, match=">= 1"):
            run_trials({"pipeline": "uniform_spike", "trials": 1, "n": 50,
                        "s": 0})

    def test_regression_smoke(self):
        report = run_trials({"pipeline": "regression", "trials": 3,
                             "master_seed": 5, "n": 200, "d": 4, "k": 6,
                             "epsilon": 0.5, "lambda_true": 1.0})
        assert report.trials == 3
        for row in report.rows:
            assert row["delta"] >= 0 and row["bound"] >= 0
