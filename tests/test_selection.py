import numpy as np
import pytest

from senselect.core import (BudgetExceededError, Dataset, LossOracle,
                            RngStream)
from senselect.clustering import CenterList, assign
from senselect.selection import (AUTO, data_select, data_select_rounds,
                                 diversity_select, draw, extrapolate_losses,
                                 kcenter_select, proxy_losses, sample_size,
                                 sensitivity_plan, uniform_select)

PAIRS = Dataset([[0.0], [1.0], [10.0], [11.0]])


def pairs_clustering(z=2):
    """PAIRS clustered about rows 0 and 2: costs (1, 1) at z=2."""
    return assign(PAIRS, CenterList(PAIRS.rows[[0, 2]], [0, 2]), z)


class TestSampleSize:
    def test_known_values(self):
        # ceil(eps^-2 * (2 + 2 eps / 3))
        assert sample_size(1.0) == 3
        assert sample_size(0.5) == 10
        assert sample_size(0.1) == 207

    def test_rejects_out_of_range(self):
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sample_size(eps)


class TestProxyLosses:
    def test_pairs_example(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        proxy = proxy_losses(PAIRS, pairs_clustering(), oracle)
        np.testing.assert_allclose(proxy.lhat, [0, 0, 10, 10])
        np.testing.assert_allclose(proxy.v, [0, 1, 0, 1])
        assert oracle.queries_used == 2

    def test_requires_row_centers(self):
        clustering = assign(PAIRS, CenterList([[0.5], [10.5]]), 2)
        with pytest.raises(ValueError):
            proxy_losses(PAIRS, clustering, LossOracle.from_table([0] * 4))


class TestSensitivityPlan:
    def test_pairs_example(self):
        # scores (0, 1, 10, 11); normalizer 1*1 + 1*1 + 2*0 + 2*10 = 22
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(PAIRS, clustering, oracle)
        plan = sensitivity_plan(proxy, clustering, [1.0, 1.0], 1.0)
        assert plan.s == 3
        assert plan.denom == pytest.approx(22.0)
        np.testing.assert_allclose(plan.p, [0, 1 / 22, 10 / 22, 11 / 22])
        np.testing.assert_allclose(plan.w[1:], [22 / 3, 22 / 30, 22 / 33])
        assert plan.w[0] == 0

    def test_scalar_lambda_broadcasts(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(PAIRS, clustering, oracle)
        a = sensitivity_plan(proxy, clustering, 2.0, 0.5)
        b = sensitivity_plan(proxy, clustering, [2.0, 2.0], 0.5)
        np.testing.assert_array_equal(a.p, b.p)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.normal(size=(50, 3)))
        clustering = assign(
            data, CenterList(data.rows[[0, 20, 40]], [0, 20, 40]), 2)
        oracle = LossOracle.from_table(rng.random(50) + 0.1)
        proxy = proxy_losses(data, clustering, oracle)
        plan = sensitivity_plan(proxy, clustering, rng.random(3), 0.3)
        assert np.sum(plan.p) == pytest.approx(1.0)

    def test_estimator_exactly_unbiased(self):
        # with strictly positive losses every point has p > 0, and the exact
        # expectation of the weighted-sum estimator, s * sum_e p_e w_e l_e,
        # collapses to the plain loss sum
        rng = np.random.default_rng(14)
        data = Dataset(rng.normal(size=(60, 2)))
        losses = rng.random(60) + 0.5
        clustering = assign(data, CenterList(data.rows[[5, 50]], [5, 50]), 2)
        oracle = LossOracle.from_table(losses)
        proxy = proxy_losses(data, clustering, oracle)
        plan = sensitivity_plan(proxy, clustering, [0.7, 1.3], 0.4)
        assert np.all(plan.p > 0)
        expectation = plan.s * np.sum(plan.p * plan.w * losses)
        assert expectation == pytest.approx(np.sum(losses), rel=1e-9)

    def test_degenerate_normalizer_falls_back_to_uniform(self):
        oracle = LossOracle.from_table([0.0] * 4)
        clustering = pairs_clustering()
        proxy = proxy_losses(PAIRS, clustering, oracle)
        with pytest.warns(UserWarning):
            plan = sensitivity_plan(proxy, clustering, [0.0, 0.0], 1.0)
        np.testing.assert_allclose(plan.p, [0.25] * 4)
        assert plan.denom == 0.0

    def test_rejects_bad_lambda(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(PAIRS, clustering, oracle)
        for lam in ([1.0, 2.0, 3.0], [-1.0, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                sensitivity_plan(proxy, clustering, lam, 1.0)


class TestDraw:
    def test_reproducible_and_on_support(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(PAIRS, clustering, oracle)
        plan = sensitivity_plan(proxy, clustering, [1.0, 1.0], 0.5)
        a = draw(plan, RngStream(3, "d"))
        b = draw(plan, RngStream(3, "d"))
        np.testing.assert_array_equal(a.indices, b.indices)
        assert len(a) == plan.s
        assert np.all(plan.p[a.indices] > 0)
        np.testing.assert_array_equal(a.weights, plan.w[a.indices])


class TestDataSelect:
    def test_pairs_end_to_end(self):
        # refinement converges to centers 0.5 and 10.5, which snap to rows
        # 0 and 2, reproducing the hand-computed plan
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        sample, report, clustering, plan = data_select(
            PAIRS, 2, 1.0, 1.0, oracle, 2, RngStream(0, "run"))
        assert sorted(clustering.centers.indices.tolist()) == [0, 2]
        assert report["queries_used"] == 2
        assert report["s"] == 3
        assert report["denom"] == pytest.approx(22.0)
        assert report["phi_lambda"] == pytest.approx(2.0)
        assert report["lambda_mode"] == "supplied"
        assert len(sample) == 3
        assert set(sample.indices.tolist()) <= {1, 2, 3}

    def test_sample_count_override(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        sample, report, _, plan = data_select(
            PAIRS, 2, 1.0, 1.0, oracle, 2, RngStream(0, "run"), s=100)
        assert len(sample) == 100
        np.testing.assert_allclose(
            plan.w[plan.p > 0], 1.0 / (100 * plan.p[plan.p > 0]))

    def test_auto_lambda_spends_extra_queries(self):
        rng = np.random.default_rng(15)
        data = Dataset(rng.normal(size=(100, 2)))
        oracle = LossOracle.from_table(rng.random(100))
        _, report, _, _ = data_select(
            data, 3, 0.5, AUTO, oracle, 2, RngStream(1, "auto"))
        assert report["lambda_mode"] == "auto"
        assert report["queries_proxy"] == 3
        assert report["queries_lambda"] > 0
        assert report["queries_used"] == (report["queries_proxy"]
                                          + report["queries_lambda"])
        assert len(report["lambda"]) == 3

    def test_budget_below_k_aborts(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0], budget=1)
        with pytest.raises(BudgetExceededError):
            data_select(PAIRS, 2, 1.0, 1.0, oracle, 2, RngStream(0, "run"))
        assert oracle.queries_used == 0  # the abort spends nothing

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(16)
        data = Dataset(rng.normal(size=(80, 3)))
        losses = rng.random(80)
        runs = []
        for _ in range(2):
            oracle = LossOracle.from_table(losses)
            sample, report, _, _ = data_select(
                data, 4, 0.5, 1.0, oracle, 2, RngStream(7, "det"))
            runs.append((sample, report))
        np.testing.assert_array_equal(runs[0][0].indices, runs[1][0].indices)
        assert runs[0][1] == runs[1][1]


class TestDataSelectRounds:
    def test_query_counts_per_round(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.normal(size=(60, 2)))
        oracle = LossOracle.from_table(rng.random(60))
        results = data_select_rounds(
            data, 3, 4, 0.5, 1.0, oracle, 2, RngStream(2, "rounds"))
        assert [r["queries_used"] for _, r in results] == [3, 6, 9, 12]
        assert all(len(sample) == 10 for sample, _ in results)

    def test_full_coverage_final_round_is_exact(self):
        # when k*rounds = n the last prefix contains every point, so the
        # proxies equal the true losses and the estimate is exact
        rng = np.random.default_rng(18)
        data = Dataset(rng.normal(size=(20, 2)))
        losses = rng.random(20) + 0.1
        for seed in range(10):
            oracle = LossOracle.from_table(losses)
            results = data_select_rounds(
                data, 5, 4, 0.5, 1.0, oracle, 2, RngStream(seed, "full"))
            sample, report = results[-1]
            assert report["queries_used"] == 20
            estimate = np.sum(sample.weights * losses[sample.indices])
            assert estimate == pytest.approx(np.sum(losses), rel=1e-9)

    def test_rejects_overlong_prefix(self):
        oracle = LossOracle.from_table([0.0] * 4)
        with pytest.raises(ValueError):
            data_select_rounds(PAIRS, 2, 3, 1.0, 1.0, oracle, 2,
                               RngStream(0, "r"))

    def test_lambda_vector_length_checked(self):
        oracle = LossOracle.from_table([0.0] * 4)
        with pytest.raises(ValueError):
            data_select_rounds(PAIRS, 2, 2, 1.0, [1.0, 1.0, 1.0], oracle, 2,
                               RngStream(0, "r"))


class TestBaselines:
    def test_uniform_weights(self):
        sample = uniform_select(PAIRS, 6, RngStream(0, "u"))
        np.testing.assert_allclose(sample.weights, [4 / 6] * 6)
        a = uniform_select(PAIRS, 6, RngStream(0, "u"))
        np.testing.assert_array_equal(sample.indices, a.indices)

    def test_kcenter_properties(self):
        rng = np.random.default_rng(19)
        data = Dataset(rng.normal(size=(50, 3)))
        idx = kcenter_select(data, 5, RngStream(4, "kc"))
        assert len(set(idx.tolist())) == 5
        # the second pick is the point farthest from the first
        dists = np.linalg.norm(data.rows - data.rows[idx[0]], axis=1)
        assert dists[idx[1]] == pytest.approx(np.max(dists))

    def test_kcenter_pairs(self):
        # whichever row starts, the farthest point is in the other pair
        for seed in range(8):
            idx = kcenter_select(PAIRS, 2, RngStream(seed, "kc"))
            assert (idx[0] < 2) != (idx[1] < 2)

    def test_diversity_pairs(self):
        # cluster means 0.5 and 10.5; the closest-member tie goes to the
        # lower row index in each pair
        for seed in range(8):
            idx = diversity_select(PAIRS, 2, 2, RngStream(seed, "dv"))
            assert sorted(idx.tolist()) == [0, 2]

    def test_diversity_distinct_one_per_cluster(self):
        rng = np.random.default_rng(20)
        data = Dataset(rng.normal(size=(70, 4)))
        idx = diversity_select(data, 6, 2, RngStream(1, "dv"))
        assert len(set(idx.tolist())) == 6


class TestExtrapolateLosses:
    def test_pairs_example(self):
        ext = extrapolate_losses(PAIRS, pairs_clustering(), [0.0, 10.0], 1.0)
        np.testing.assert_allclose(ext, [0, 1, 10, 11])

    def test_zero_lambda_is_piecewise_constant(self):
        ext = extrapolate_losses(PAIRS, pairs_clustering(), [3.0, 8.0], 0.0)
        np.testing.assert_allclose(ext, [3, 3, 8, 8])

    def test_length_check(self):
        with pytest.raises(ValueError):
            extrapolate_losses(PAIRS, pairs_clustering(), [1.0], 1.0)
