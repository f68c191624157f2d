import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from senselect import clustering as clustering_module
from senselect.core import (BudgetExceededError, Dataset, LossOracle,
                            RngStream)
from senselect.clustering import (CenterList, assign, dz_seed, refine,
                                  snap_centers)
from senselect.selection import (AUTO, cluster, data_select,
                                 data_select_rounds,
                                 draw, proxy_losses, sample_size,
                                 sensitivity_plan, uniform_sample_size,
                                 uniform_select)

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

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-10])
    def test_rejects_a_count_no_array_can_hold(self, eps):
        # eps^-2 overflows, or the count is above the largest array length
        with pytest.raises(ValueError, match="largest array length"):
            sample_size(eps)
        with pytest.raises(ValueError, match="largest array length"):
            uniform_sample_size(eps)


class TestUniformSampleSize:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-9, 1e150))
    def test_is_ceil_of_inverse_square(self, eps):
        assert uniform_sample_size(eps) == math.ceil(1 / eps ** 2)

    def test_known_values(self):
        assert uniform_sample_size(0.1) == 100
        assert uniform_sample_size(0.25) == 16
        assert uniform_sample_size(1.0) == 1
        assert uniform_sample_size(2.0) == 1
        assert uniform_sample_size(1e200) == 1  # where eps^2 overflows

    @pytest.mark.parametrize("eps", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(ValueError, match="finite and > 0"):
            uniform_sample_size(eps)

    @pytest.mark.parametrize("s", [0, -1, 2.5])
    def test_uniform_select_rejects_no_draws(self, s):
        with pytest.raises(ValueError, match=">= 1"):
            uniform_select(PAIRS, s, RngStream(0, "u"))


class TestProxyLosses:
    def test_pairs_example(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        losses = proxy_losses(pairs_clustering(), oracle)
        np.testing.assert_array_equal(losses, [0, 10])
        assert oracle.queries_used == 2

    def test_requires_row_centers(self):
        clustering = assign(PAIRS, CenterList([[0.5], [10.5]]), 2)
        with pytest.raises(ValueError):
            proxy_losses(clustering, LossOracle.from_table([0] * 4))


class TestSensitivityPlan:
    def test_pairs_example(self):
        # scores (0, 1, 10, 11); normalizer 1*1 + 1*1 + 2*0 + 2*10 = 22
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(clustering, oracle)
        plan = sensitivity_plan(proxy, clustering, [1.0, 1.0], 1.0)
        assert plan.s == 3
        assert plan.denom == pytest.approx(22.0)
        np.testing.assert_allclose(plan.p, [0, 1 / 22, 10 / 22, 11 / 22])
        np.testing.assert_allclose(plan.w[1:], [22 / 3, 22 / 30, 22 / 33])
        assert plan.w[0] == 0

    def test_scalar_lambda_broadcasts(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(clustering, oracle)
        a = sensitivity_plan(proxy, clustering, 2.0, 0.5)
        b = sensitivity_plan(proxy, clustering, [2.0, 2.0], 0.5)
        np.testing.assert_array_equal(a.p, b.p)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.normal(size=(50, 3)))
        clustering = assign(
            data, CenterList(data.rows[[0, 20, 40]], [0, 20, 40]), 2)
        oracle = LossOracle.from_table(rng.random(50) + 0.1)
        proxy = proxy_losses(clustering, oracle)
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
        proxy = proxy_losses(clustering, oracle)
        plan = sensitivity_plan(proxy, clustering, [0.7, 1.3], 0.4)
        assert np.all(plan.p > 0)
        expectation = plan.s * np.sum(plan.p * plan.w * losses)
        assert expectation == pytest.approx(np.sum(losses), rel=1e-9)

    def test_degenerate_normalizer_falls_back_to_uniform(self):
        oracle = LossOracle.from_table([0.0] * 4)
        clustering = pairs_clustering()
        proxy = proxy_losses(clustering, oracle)
        with pytest.warns(UserWarning):
            plan = sensitivity_plan(proxy, clustering, [0.0, 0.0], 1.0)
        np.testing.assert_allclose(plan.p, [0.25] * 4)
        assert plan.denom == 0.0

    def test_rejects_bad_lambda(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(clustering, oracle)
        for lam in ([1.0, 2.0, 3.0], [-1.0, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                sensitivity_plan(proxy, clustering, lam, 1.0)

    @pytest.mark.parametrize("losses", [[1.0], [1.0, 2.0, 3.0, 4.0]])
    def test_rejects_center_losses_not_one_per_cluster(self, losses):
        # four values are one per point, not per cluster
        with pytest.raises(ValueError, match="2 center losses"):
            sensitivity_plan(losses, pairs_clustering(), 1.0, 0.5)

    @pytest.mark.parametrize("s", [0, -3, 2.5])
    def test_rejects_a_sample_count_that_is_no_integer_above_0(self, s):
        clustering = pairs_clustering()
        proxy = proxy_losses(clustering, LossOracle.from_table([1.0] * 4))
        with pytest.raises(ValueError, match="sample count"):
            sensitivity_plan(proxy, clustering, 1.0, 0.5, s)


class TestDraw:
    def test_reproducible_and_on_support(self):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        clustering = pairs_clustering()
        proxy = proxy_losses(clustering, oracle)
        plan = sensitivity_plan(proxy, clustering, [1.0, 1.0], 0.5)
        a = draw(plan, RngStream(3, "d"))
        b = draw(plan, RngStream(3, "d"))
        np.testing.assert_array_equal(a.indices, b.indices)
        assert len(a) == plan.s
        assert np.all(plan.p[a.indices] > 0)
        np.testing.assert_array_equal(a.weights, plan.w[a.indices])


class TestCluster:
    @pytest.mark.parametrize("seed", range(4))
    def test_z2_measures_costs_once(self, monkeypatch, seed):
        # 10 overlapping d=4 blobs, whose refinement stops on bounds alone:
        # the snap's assignment is the one exact cost pass, as refinement
        # skips its own final one, whose costs the snap never reads
        g = np.random.default_rng(seed)
        data = Dataset(g.normal(0, 3, (10, 4))[g.integers(10, size=2000)]
                       + g.normal(size=(2000, 4)))
        rng = RngStream(seed, "cluster")
        want = snap_centers(data, refine(
            data, dz_seed(data, 10, 2, rng.child("seed")), 2))
        calls = []
        real = clustering_module._clustering

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(clustering_module, "_clustering", spy)
        got = cluster(data, 10, 2, rng)
        monkeypatch.undo()
        assert len(calls) == 1
        for field in ("assignment", "cluster_cost", "distances"):
            assert getattr(got, field).tobytes() == getattr(want,
                                                            field).tobytes()
        assert got.centers.indices.tolist() == want.centers.indices.tolist()

    @pytest.mark.parametrize("z", [1, 2])
    def test_unmeasured_refinement_is_the_exact_partition(self, z):
        g = np.random.default_rng(z)
        data = Dataset(g.normal(size=(500, 3)))
        seeds = dz_seed(data, 6, z, RngStream(z, "partition"))
        exact, fast = (refine(data, seeds, z, costs=costs)
                       for costs in (True, False))
        np.testing.assert_array_equal(fast.assignment, exact.assignment)
        np.testing.assert_array_equal(fast.centers.positions,
                                      exact.centers.positions)
        # a z=1 state is measured as it is made; this z=2 one never is
        if z == 1:
            np.testing.assert_array_equal(fast.cluster_cost,
                                          exact.cluster_cost)
        else:
            assert fast.cluster_cost is None and fast.distances is None


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

    @pytest.mark.parametrize("lam", [1.0, AUTO])
    @pytest.mark.parametrize("eps", [0.0, 2.0, 1e-300])
    def test_bad_epsilon_spends_no_query(self, lam, eps):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        with pytest.raises(ValueError, match="epsilon"):
            data_select(PAIRS, 2, eps, lam, oracle, 2, RngStream(0, "run"))
        with pytest.raises(ValueError, match="epsilon"):
            data_select_rounds(PAIRS, 1, 2, eps, 1.0, oracle, 2,
                               RngStream(0, "run"))
        assert oracle.queries_used == 0

    @pytest.mark.parametrize("lam", [1.0, AUTO])
    @pytest.mark.parametrize("s", [0, -3, 2.5])
    def test_bad_sample_count_spends_no_query(self, lam, s):
        oracle = LossOracle.from_table([0.0, 5.0, 10.0, 7.0])
        with pytest.raises(ValueError, match="sample count"):
            data_select(PAIRS, 2, 1.0, lam, oracle, 2, RngStream(0, "run"),
                        s=s)
        assert oracle.queries_used == 0

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

    def test_auto_lambda_over_budget_fetches_nothing(self):
        # the centers and the estimator's picks share one batch, so a
        # budget of k refuses it whole
        rng = np.random.default_rng(15)
        data = Dataset(rng.normal(size=(100, 2)))
        oracle = LossOracle.from_table(rng.random(100), budget=3)
        with pytest.raises(BudgetExceededError):
            data_select(data, 3, 0.5, AUTO, oracle, 2, RngStream(1, "auto"))
        assert oracle.queries_used == 0 and oracle.cache == {}

    def test_query_split_counts_centers_not_cached_before(self):
        rng = np.random.default_rng(15)
        data = Dataset(rng.normal(size=(100, 2)))
        losses = rng.random(100)
        _, _, clustering, _ = data_select(
            data, 3, 0.5, AUTO, LossOracle.from_table(losses), 2,
            RngStream(1, "auto"))
        centers = clustering.centers.indices.tolist()
        other = min(set(range(100)) - set(centers))
        oracle = LossOracle.from_table(losses)
        oracle.query_many([centers[0], other])
        _, report, _, _ = data_select(
            data, 3, 0.5, AUTO, oracle, 2, RngStream(1, "auto"))
        # the two earlier queries, then the two uncached centers
        assert report["queries_proxy"] == 4
        assert report["queries_used"] == oracle.queries_used
        assert report["queries_lambda"] == oracle.queries_used - 4

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


@st.composite
def _duplicated_rows(draw):
    """A few distinct grid points, each row drawn from them with
    repetition, a k up to the row count, positive losses and z."""
    d = draw(st.integers(1, 3))
    point = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    distinct = draw(st.lists(point, min_size=1, max_size=4, unique_by=tuple))
    rows = np.array(draw(st.lists(st.sampled_from(distinct), min_size=1,
                                  max_size=16)), dtype=float)
    losses = draw(st.lists(st.floats(0.1, 10.0), min_size=len(rows),
                           max_size=len(rows)))
    k = draw(st.integers(1, len(rows)))
    return Dataset(rows), losses, k, draw(st.sampled_from([1, 2]))


# 5 rows on 2 distinct points, k above the distinct count
_TWO_POINTS = (Dataset([[0.0], [0.0], [1.0], [1.0], [1.0]]), [1, 2, 3, 4, 5])


def _assert_valid_plan(plan):
    """p is a distribution and w = 1/(s p) on its support, finite."""
    assert np.all(plan.p >= 0)
    assert np.sum(plan.p) == pytest.approx(1.0, abs=1e-9)
    support = plan.p > 0
    assert np.all(np.isfinite(plan.w))
    np.testing.assert_allclose(plan.w[support],
                               1 / (plan.s * plan.p[support]))


class TestDuplicatedRows:
    @settings(max_examples=100, deadline=None)
    @given(_duplicated_rows(), st.integers(0, 10 ** 6))
    @example((*_TWO_POINTS, 3, 2), 0)
    @example((*_TWO_POINTS, 4, 1), 1)
    @example((*_TWO_POINTS, 5, 2), 2)
    def test_supplied_and_auto_lambda(self, case, seed):
        data, losses, k, z = case
        oracle = LossOracle.from_table(losses)
        _, report, clustering, plan = data_select(
            data, k, 0.5, 0.5, oracle, z, RngStream(seed, "dup"))
        # one query per cluster with members
        assert report["queries_used"] == report["k_effective"]
        # k distinct snapped center rows, even where positions repeat
        assert np.unique(clustering.centers.indices).size == k
        _assert_valid_plan(plan)
        sizes = np.bincount(clustering.assignment, minlength=k)
        assert report["k_effective"] == np.count_nonzero(sizes)

        oracle = LossOracle.from_table(losses)
        _, report, _, plan = data_select(
            data, k, 0.5, AUTO, oracle, z, RngStream(seed, "dup"))
        _assert_valid_plan(plan)
        # the same clustering: empty clusters get lambda 0
        assert np.all(np.asarray(report["lambda"])[sizes == 0] == 0)


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

    @pytest.mark.parametrize("k, rounds", [(-2, -1), (0, 2), (2, 0),
                                           (2, -1), (-1, 1)])
    def test_rejects_k_or_rounds_below_1_before_any_query(self, k, rounds):
        oracle = LossOracle.from_table([0.0] * 4)
        with pytest.raises(ValueError, match="k and rounds must be >= 1"):
            data_select_rounds(PAIRS, k, rounds, 1.0, 1.0, oracle, 2,
                               RngStream(0, "r"))
        assert oracle.queries_used == 0

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
