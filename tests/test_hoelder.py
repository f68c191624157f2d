import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from senselect.core import (BudgetExceededError, Dataset, LossOracle,
                            LossTable, RngStream)
from senselect.clustering import CenterList, assign
from senselect.hoelder import (default_sample_count, estimate_lambda,
                               holder_percentiles, holder_ratios)
from senselect.selection import proxy_losses, sensitivity_plan


def row_clustering(data, center_rows, z):
    """Clustering whose centers are the given dataset rows."""
    centers = CenterList(data.rows[center_rows],
                         np.asarray(center_rows, dtype=np.intp))
    return assign(data, centers, z)


class TestHolderRatios:
    def test_linear_losses_give_constant_ratio(self):
        data = Dataset([[0.0], [1.0], [3.0]])
        clustering = row_clustering(data, [0], 1)
        ratios = holder_ratios(clustering, LossTable([1, 2, 4]))
        np.testing.assert_allclose(ratios, [1.0, 1.0])

    def test_power_in_denominator(self):
        data = Dataset([[0.0], [1.0], [3.0]])
        clustering = row_clustering(data, [0], 2)
        ratios = holder_ratios(clustering, LossTable([1, 2, 4]))
        np.testing.assert_allclose(ratios, [1.0, 1.0 / 3.0])

    def test_centers_excluded(self):
        data = Dataset([[0.0], [5.0], [10.0]])
        clustering = row_clustering(data, [0, 2], 2)
        ratios = holder_ratios(clustering, LossTable([9, 1, 9]))
        assert ratios.shape == (1,)

    def test_requires_row_centers(self):
        data = Dataset([[0.0], [1.0]])
        clustering = assign(data, CenterList([[0.5]]), 2)
        with pytest.raises(ValueError):
            holder_ratios(clustering, LossTable([0, 1]))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        data = Dataset(rng.normal(size=(40, 3)))
        losses = rng.random(40)
        clustering = row_clustering(data, [0, 17, 33], 2)
        ratios = holder_ratios(clustering, LossTable(losses))
        naive = []
        for e in range(40):
            c = clustering.centers.indices[clustering.assignment[e]]
            dist = np.linalg.norm(data.rows[e] - data.rows[c])
            if dist > 0:
                naive.append(abs(losses[e] - losses[c]) / dist ** 2)
        np.testing.assert_allclose(ratios, naive, rtol=1e-12)


class TestHolderPercentiles:
    def test_nearest_rank_on_one_to_ten(self):
        ratios = np.arange(1.0, 11.0)
        out = holder_percentiles(ratios, (20, 40, 60, 80, 99))
        assert out == {20.0: 2.0, 40.0: 4.0, 60.0: 6.0, 80.0: 8.0, 99.0: 10.0}

    def test_single_entry(self):
        assert holder_percentiles([7.0], (20, 99)) == {20.0: 7.0, 99.0: 7.0}

    def test_empty_table(self):
        with pytest.raises(ValueError):
            holder_percentiles([])

    def test_monotone_in_percentile(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            ratios = rng.random(rng.integers(1, 30))
            out = holder_percentiles(ratios, (10, 30, 50, 70, 90))
            vals = [out[p] for p in (10.0, 30.0, 50.0, 70.0, 90.0)]
            assert vals == sorted(vals)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=40),
           st.lists(st.floats(0, 100) | st.sampled_from([0.0, 100.0]),
                    min_size=1, max_size=13))
    def test_matches_the_nearest_rank_formula(self, ratios, percentiles):
        # reference: the smallest ratio at rank ceil(p/100 * n), rank >= 1
        ordered = sorted(ratios)
        expected = {}
        for p in percentiles:
            rank = max(int(math.ceil(p / 100.0 * len(ordered))), 1)
            expected[float(p)] = ordered[min(rank, len(ordered)) - 1]
        assert holder_percentiles(ratios, percentiles) == expected


class TestDefaultSampleCount:
    def test_known_values(self):
        # ceil(ln(100k)/-ln(0.8)): ln(100)=4.60517, -ln(0.8)=0.223144
        assert default_sample_count(1) == 21
        assert default_sample_count(10) == 31

    def test_grows_with_k_shrinks_with_p(self):
        assert default_sample_count(100) > default_sample_count(2)
        assert default_sample_count(5, p=0.5) < default_sample_count(5, p=0.1)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            default_sample_count(5, p=0.0)
        with pytest.raises(ValueError):
            default_sample_count(5, p=1.0)


class TestEstimateLambda:
    def test_exact_when_sample_covers_cluster(self):
        # losses exactly linear in the center distance, t >= cluster size:
        # every draw sees the same ratio 1, so the estimate is ln(n) exactly
        data = Dataset([[0.0], [1.0], [2.0]])
        clustering = row_clustering(data, [0], 1)
        oracle = LossOracle.from_table([0.0, 1.0, 2.0])
        lam = estimate_lambda(clustering, oracle, 3, RngStream(0, "l"))
        np.testing.assert_allclose(lam, [math.log(3)])

    def test_never_exceeds_true_max_ratio(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.normal(size=(30, 2)))
        losses = rng.random(30)
        clustering = row_clustering(data, [3, 20], 2)
        true_ratios = holder_ratios(clustering, LossTable(losses))
        cap = np.max(true_ratios) * math.log(30)
        for seed in range(30):
            oracle = LossOracle.from_table(losses)
            lam = estimate_lambda(clustering, oracle, 5,
                                  RngStream(seed, "cap"))
            assert np.all(lam <= cap + 1e-12)

    def test_query_accounting(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(50, 2)))
        clustering = row_clustering(data, [0, 25], 2)
        oracle = LossOracle.from_table(rng.random(50))
        estimate_lambda(clustering, oracle, 4, RngStream(1, "q"))
        # at most t member queries plus one center query per cluster
        assert oracle.queries_used <= 2 * (4 + 1)

    def test_budget_enforced(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(50, 2)))
        clustering = row_clustering(data, [0, 25], 2)
        oracle = LossOracle.from_table(rng.random(50), budget=3)
        with pytest.raises(BudgetExceededError):
            estimate_lambda(clustering, oracle, 4, RngStream(1, "q"))

    @pytest.mark.parametrize("seed", range(5))
    def test_queries_equal_per_cluster_member_scans(self, seed):
        # row 7 copies row 3, so the cluster of center row 7 is empty; the
        # clusters are unequal, some smaller than t; the members, grouped
        # by one stable sort, are those of a scan of the labels per
        # cluster, so the queried rows are too
        g = np.random.default_rng(seed)
        rows = np.vstack([g.normal(size=(40, 2)), 5 + g.normal(size=(4, 2))])
        rows[7] = rows[3]
        data = Dataset(rows)
        clustering = row_clustering(data, [3, 7, 20, 41], 2)
        assert np.bincount(clustering.assignment, minlength=4)[1] == 0
        oracle = LossOracle.from_table(g.random(data.n))
        queried = []
        real = oracle.query_many
        oracle.query_many = lambda indices: (queried.append(list(indices)),
                                             real(indices))[1]
        estimate_lambda(clustering, oracle, 6, RngStream(seed, "scan"))
        draws = RngStream(seed, "scan").generator()
        dist = clustering.distances
        want = [3, 20, 41]
        for i in range(clustering.k):
            members = np.flatnonzero(clustering.assignment == i)
            if members.size:
                picked = draws.choice(members, size=6,
                                      replace=members.size < 6)
                want += picked[dist[picked] > 0].tolist()
        assert queried == [want]

    def test_rejects_bad_t(self):
        data = Dataset([[0.0], [1.0]])
        clustering = row_clustering(data, [0], 2)
        with pytest.raises(ValueError):
            estimate_lambda(clustering, LossOracle.from_table([0, 1]), 0,
                            RngStream(0, "t"))


class TestUnderflowingDistancePower:
    # row 1e-200 is at a positive distance from center row 0, but the
    # square of that distance underflows to 0
    DATA = [[0.0], [1e-200], [2e-200], [3.0]]

    def test_ratio_is_the_largest_double_or_0(self):
        data = Dataset(self.DATA)
        clustering = row_clustering(data, [0], 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratios = holder_ratios(clustering, LossTable([1, 2, 1, 10]))
        assert ratios.tolist() == [sys.float_info.max, 0.0, 1.0]

    def test_lambda_is_capped_at_the_largest_double(self):
        data = Dataset(self.DATA)
        clustering = row_clustering(data, [0], 2)
        oracle = LossOracle.from_table([1, 2, 1, 10])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = estimate_lambda(clustering, oracle, 4, RngStream(0, "uf"))
        assert lam.tolist() == [sys.float_info.max]


class TestClusteringDistances:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, 1e-170, -3e-200])
                    | st.floats(-1e3, 1e3) | st.floats(-1e-160, 1e-160),
                    min_size=6, max_size=40),
           st.integers(1, 3), st.sampled_from([1, 2]),
           st.integers(0, 2 ** 32 - 1))
    def test_samplers_read_the_clusterings_distances(self, values, d, z,
                                                     seed):
        # repeated values put rows on their centers (rows 0 and 1 may
        # coincide, leaving a cluster empty), and tiny ones leave residuals
        # whose squares underflow to 0
        rows = np.array(values[:len(values) // d * d]).reshape(-1, d)
        clustering = row_clustering(Dataset(rows), [0, 1], z)
        dist = clustering.distances
        R = rows - clustering.centers.positions[clustering.assignment]
        np.testing.assert_array_equal(dist > 0, np.any(R != 0, axis=1))
        oracle = LossOracle.from_table(np.arange(rows.shape[0], dtype=float))
        losses = proxy_losses(clustering, oracle)
        # the plan's v is dist ** z bit for bit: its plan is that of a z=1
        # clustering whose distances are dist ** z (lam = 1/2 is not
        # rescaled, and halving keeps the bits of every normal v)
        powered = replace(clustering, z=1, distances=dist ** z)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # all-zero normalizer: uniform
            plans = [sensitivity_plan(losses, c, 0.5, 0.5)
                     for c in (clustering, powered)]
        assert plans[0].p.tobytes() == plans[1].p.tobytes()
        assert plans[0].w.tobytes() == plans[1].w.tobytes()
        assert plans[0].denom == plans[1].denom
        queried = []
        real = oracle.query_many
        oracle.query_many = lambda indices: (queried.append(list(indices)),
                                             real(indices))[1]
        estimate_lambda(clustering, oracle, 4, RngStream(seed, "skip"))
        draws = RngStream(seed, "skip").generator()
        filled = np.flatnonzero(np.bincount(clustering.assignment))
        want = clustering.centers.indices[filled].tolist()
        for i in filled:
            members = np.flatnonzero(clustering.assignment == i)
            picked = draws.choice(members, size=4, replace=members.size < 4)
            # the picks equal to their center are skipped, no other
            want += picked[np.any(R[picked] != 0, axis=1)].tolist()
        assert queried == [want]
