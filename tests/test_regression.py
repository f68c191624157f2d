import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from senselect import regression as regression_module
from senselect.core import RngStream
from senselect.hoelder import INFINITY
from senselect.regression import (ConstantTargetError, RegressionInstance,
                                  coreset_objective_error, leverage_scores,
                                  leverage_select, r2_score,
                                  regression_sample_size, regression_select,
                                  solve_least_squares)
from senselect.selection import WeightedSample


class TestRegressionInstance:
    def test_shapes(self):
        inst = RegressionInstance([[1, 2], [3, 4], [5, 6]], [1, 2, 3])
        assert (inst.n, inst.d) == (3, 2)

    def test_rejects_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError):
            RegressionInstance([[1, 2]], [1, 2])
        with pytest.raises(ValueError):
            RegressionInstance([[np.nan]], [1])


class TestSolveLeastSquares:
    def test_square_invertible_exact(self):
        x = solve_least_squares([[2, 0], [0, 4]], [6, 8])
        np.testing.assert_allclose(x, [3, 2])

    def test_weighted_mean(self):
        # min over x of w1*(x-0)^2 + w2*(x-4)^2 is the weighted mean
        x = solve_least_squares([[1], [1]], [0, 4], weights=[1, 3])
        np.testing.assert_allclose(x, [3.0])

    def test_min_norm_on_rank_deficient(self):
        x = solve_least_squares([[1, 1]], [2])
        np.testing.assert_allclose(x, [1, 1])

    def test_matches_normal_equations(self):
        # independent oracle: solve A^T A x = A^T b directly
        rng = np.random.default_rng(21)
        for _ in range(20):
            A = rng.normal(size=(12, 4))
            b = rng.normal(size=12)
            naive = np.linalg.solve(A.T @ A, A.T @ b)
            np.testing.assert_allclose(solve_least_squares(A, b), naive,
                                       atol=1e-10)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            solve_least_squares([[1]], [1], weights=[-1])


class TestLeverageScores:
    def test_identity(self):
        np.testing.assert_allclose(leverage_scores(np.eye(3)), [1, 1, 1])

    def test_single_column(self):
        np.testing.assert_allclose(leverage_scores([[1], [2]]), [0.2, 0.8])

    def test_sum_is_rank(self):
        rng = np.random.default_rng(22)
        A = rng.normal(size=(30, 4))
        assert np.sum(leverage_scores(A)) == pytest.approx(4.0)
        # duplicate a column; the rank stays 4
        B = np.hstack([A, A[:, :1]])
        assert np.sum(leverage_scores(B)) == pytest.approx(4.0)

    def test_matches_pseudoinverse_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            A = rng.normal(size=(15, 3))
            G = np.linalg.pinv(A.T @ A)
            naive = np.einsum("ij,jk,ik->i", A, G, A)
            np.testing.assert_allclose(leverage_scores(A), naive, atol=1e-10)

    def test_zero_matrix(self):
        np.testing.assert_allclose(leverage_scores(np.zeros((4, 2))), 0.0)


class TestLeverageSelect:
    def test_support_and_reproducibility(self):
        rng = np.random.default_rng(24)
        inst = RegressionInstance(rng.normal(size=(40, 3)), rng.normal(size=40))
        a = leverage_select(inst, 25, RngStream(1, "lev"))
        b = leverage_select(inst, 25, RngStream(1, "lev"))
        np.testing.assert_array_equal(a.indices, b.indices)
        assert len(a) == 25
        assert np.all(a.weights > 0)


class TestRegressionSampleSize:
    def test_known_values(self):
        # ceil(8 d eps^-2 ln(1/delta))
        assert regression_sample_size(1, 1.0, delta=np.exp(-1.0)) == 8
        assert regression_sample_size(2, 0.5, delta=0.1) == 148

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            regression_sample_size(2, 0.0)
        with pytest.raises(ValueError):
            regression_sample_size(2, 0.5, delta=1.0)

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-10])
    def test_rejects_a_count_no_array_can_hold(self, eps):
        with pytest.raises(ValueError, match="largest array length"):
            regression_sample_size(2, eps)

    def test_rejects_a_delta_whose_count_is_not_finite(self):
        # 1/delta overflows to inf
        with pytest.raises(ValueError, match="largest array length"):
            regression_sample_size(2, 0.5, delta=1e-320)


class CountedTargets(np.ndarray):
    """Targets that record the rows of every read, in `reads`."""

    def __getitem__(self, key):
        self.reads.append(np.arange(self.size)[key])
        return np.asarray(self)[key]


class TestRegressionSelect:
    def test_distance_only_mode(self):
        # rows (0, 1, -3): the medoid is row 0 (distance sum 4), so the
        # distance-only probabilities are (0, 1/4, 3/4)
        inst = RegressionInstance([[0.0], [1.0], [-3.0]], [1.0, 2.0, 3.0])
        sample, plan = regression_select(inst, 1, 1.0, INFINITY,
                                         RngStream(0, "inf"), s=50)
        assert plan.clustering.centers.indices[0] == 0
        np.testing.assert_allclose(plan.p, [0, 0.25, 0.75])
        assert 0 not in set(sample.indices.tolist())

    def test_finite_mode_hand_computed(self):
        # medoid row 0 is the zero vector, so x0 = 0 and every row inherits
        # the medoid residual b_0^2 = 1; scores 2*dist + 1 = (1, 3, 7) and
        # the normalizer is 2*4 + 3 = 11
        inst = RegressionInstance([[0.0], [1.0], [-3.0]], [1.0, 2.0, 3.0])
        sample, plan = regression_select(inst, 1, 1.0, 2.0,
                                         RngStream(0, "fin"), s=50)
        np.testing.assert_allclose(plan.x0, [0.0])
        np.testing.assert_allclose(plan.p, [1 / 11, 3 / 11, 7 / 11])

    def test_subnormal_lambda_on_zero_targets(self):
        # zero targets give lhat = 0, so p is lam * dist over lam * Phi; at
        # lam = 5e-324 each lam * sqrt(2) and lam * Phi underflow apart
        inst = RegressionInstance([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 2,
                                  [0.0] * 5)
        _, plan = regression_select(inst, 1, 1.0, 5e-324,
                                    RngStream(0, "tiny"), s=50)
        np.testing.assert_allclose(plan.p, [0, 0, 0, 0.5, 0.5])

    @pytest.mark.filterwarnings("error")
    def test_distance_only_mode_on_subnormal_distances(self):
        # squared, the distances underflow to 0; the plan still follows them
        inst = RegressionInstance([[0.0], [0.0], [1e-310], [3e-310],
                                   [2.5e-310]], [1.0] * 5)
        _, plan = regression_select(inst, 1, 1.0, INFINITY,
                                    RngStream(0, "tiny"), s=50)
        assert plan.clustering.centers.indices[0] == 0
        np.testing.assert_allclose(plan.p, [0, 0, 1 / 6.5, 3 / 6.5, 2.5 / 6.5])

    def test_column_slice_clustered_without_a_copy(self, monkeypatch):
        # A as a column slice of a loaded matrix, as the CLI passes it: the
        # instance stores it contiguous once, and a call clusters those
        # very rows instead of an n x d copy of them
        M = np.random.default_rng(3).normal(size=(300, 5))
        inst = RegressionInstance(M[:, :-1], M[:, -1])
        clustered = []
        real = regression_module.kmedoids

        def spy(data, *args):
            clustered.append(data.rows)
            return real(data, *args)

        monkeypatch.setattr(regression_module, "kmedoids", spy)
        regression_select(inst, 3, 0.5, 1.0, RngStream(0, "slice"), s=20)
        [rows] = clustered
        assert rows is inst.A and inst.A.flags.c_contiguous
        np.testing.assert_array_equal(inst.A, M[:, :-1])

    def test_targets_read_only_at_medoids(self):
        # non-medoid targets can be garbage without changing the plan
        rng = np.random.default_rng(25)
        A = rng.normal(size=(30, 2))
        b = rng.normal(size=30)
        _, plan = regression_select(RegressionInstance(A, b), 3, 0.5, 1.0,
                                    RngStream(2, "ro"), s=20)
        medoids = set(plan.clustering.centers.indices.tolist())
        b2 = b.copy()
        for i in range(30):
            if i not in medoids:
                b2[i] += 100.0
        _, plan2 = regression_select(RegressionInstance(A, b2), 3, 0.5, 1.0,
                                     RngStream(2, "ro"), s=20)
        np.testing.assert_array_equal(plan.p, plan2.p)
        np.testing.assert_allclose(plan.x0, plan2.x0)

    @pytest.mark.filterwarnings("ignore:degenerate normalizer")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.integers(1, 300), st.integers(1, 12),
           st.sampled_from([1.0, INFINITY]))
    def test_duplicate_rows_give_k_distinct_medoids_and_k_reads(
            self, seed, distinct, n, k, lam):
        # every row is one of a few points, so clusters tie and empty ones
        # are reseeded; past 64 rows a cluster's medoid is sampled
        g = np.random.default_rng(seed)
        A = g.integers(-3, 4, size=(distinct, 2)).astype(float)[
            g.integers(distinct, size=max(n, k))]
        inst = RegressionInstance(A, g.normal(size=A.shape[0]))
        targets = inst.b.view(CountedTargets)
        targets.reads = []
        object.__setattr__(inst, "b", targets)
        _, plan = regression_select(inst, k, 0.5, lam, RngStream(seed, "dup"),
                                    s=20)
        medoids = plan.clustering.centers.indices
        assert len(set(medoids.tolist())) == k
        [read] = targets.reads
        np.testing.assert_array_equal(read, medoids)

    def test_default_sample_count(self):
        rng = np.random.default_rng(26)
        inst = RegressionInstance(rng.normal(size=(50, 2)), rng.normal(size=50))
        sample, plan = regression_select(inst, 4, 0.5, 1.0, RngStream(3, "s"),
                                         delta=0.1)
        assert plan.s == regression_sample_size(2, 0.5, 0.1) == len(sample)

    def test_lambda_length_checked(self):
        inst = RegressionInstance([[0.0], [1.0], [-3.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            regression_select(inst, 1, 1.0, [1.0, 2.0], RngStream(0, "x"))

    def test_estimator_exactly_unbiased_at_x0(self):
        # with all probabilities positive, s * sum_i p_i w_i r_i^2 telescopes
        # to the full residual norm, so the expected coreset objective at any
        # x equals the true objective
        rng = np.random.default_rng(27)
        A = rng.normal(size=(40, 3)) + 2.0
        b = rng.normal(size=40)
        inst = RegressionInstance(A, b)
        _, plan = regression_select(inst, 3, 0.5, 1.0, RngStream(4, "u"), s=30)
        x = rng.normal(size=3)
        r_sq = (A @ x - b) ** 2
        mask = plan.p > 0
        expectation = plan.s * np.sum(plan.p[mask] * plan.w[mask] * r_sq[mask])
        assert expectation == pytest.approx(np.sum(r_sq[mask]), rel=1e-9)


class TestCoresetObjectiveError:
    def test_identity_sample_is_exact(self):
        rng = np.random.default_rng(28)
        inst = RegressionInstance(rng.normal(size=(10, 2)), rng.normal(size=10))
        sample = WeightedSample(np.arange(10), np.ones(10))
        assert coreset_objective_error(inst, sample, [1.0, -2.0]) == 0

    def test_hand_computed(self):
        inst = RegressionInstance([[1.0], [2.0]], [0.0, 0.0])
        # at x=1 the residuals squared are (1, 4); the weighted sample keeps
        # only row 1 with weight 2, giving |8 - 5| = 3
        sample = WeightedSample(np.array([1]), np.array([2.0]))
        assert coreset_objective_error(inst, sample, [1.0]) == pytest.approx(3)


class TestR2Score:
    def test_perfect_fit(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1

    def test_mean_predictor_is_zero(self):
        assert r2_score([2, 2, 2], [1, 2, 3]) == 0

    def test_worse_than_mean_is_negative(self):
        assert r2_score([3, 2, 1], [1, 2, 3]) < 0

    def test_constant_target(self):
        with pytest.raises(ConstantTargetError):
            r2_score([1, 1], [5, 5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            r2_score([1], [1, 2])
