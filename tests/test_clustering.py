import itertools
import math
import sys
import threading
import tracemalloc
from unittest import mock
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from senselect import clustering as clustering_module
from senselect import core as core_module
from senselect.core import Dataset, RngStream
from senselect.clustering import (MEDOID_BLOCK, REFINE_TOL, CenterList,
                                  Clustering, assign, dz_seed, kmedoids,
                                  powered_distances, refine, snap_centers,
                                  weighted_cost)


def set_partitions(items, max_blocks):
    """All partitions of `items` into at most max_blocks nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest, max_blocks):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        if len(partition) < max_blocks:
            yield partition + [[first]]


def brute_force_kmeans_cost(points, k):
    """Exact optimal (k,2)-cost by enumerating all partitions and using the
    mean of each block as its center."""
    best = math.inf
    idx = list(range(len(points)))
    for partition in set_partitions(idx, k):
        total = 0.0
        for block in partition:
            block_pts = points[block]
            total += float(np.sum((block_pts - block_pts.mean(axis=0)) ** 2))
        best = min(best, total)
    return best


PAIRS = Dataset([[0.0], [1.0], [10.0], [11.0]])


class TestCost:
    def test_two_points_one_center(self):
        clustering = assign(Dataset([[0.0], [2.0]]), CenterList([[1.0]]), 2)
        assert clustering.total_cost == 2

    def test_centers_cover_points(self):
        data = Dataset([[0.0], [1.0], [5.0]])
        assert assign(data, CenterList(data.rows), 2).total_cost == 0

    def test_pairs_instance(self):
        assert assign(PAIRS, CenterList([[0.0], [10.0]]), 2).total_cost == 2

    def test_empty_centers(self):
        with pytest.raises(ValueError):
            assign(PAIRS, CenterList(np.empty((0, 1))), 2)


class TestWeightedCost:
    def test_all_ones_is_plain_cost(self):
        clustering = assign(PAIRS, CenterList([[0.0], [10.0]]), 2)
        assert weighted_cost(clustering, [1, 1]) == pytest.approx(
            assign(PAIRS, clustering.centers, 2).total_cost)

    def test_zeros(self):
        clustering = assign(PAIRS, CenterList([[0.0], [10.0]]), 2)
        assert weighted_cost(clustering, [0, 0]) == 0

    def test_dot_product(self):
        clustering = assign(PAIRS, CenterList([[0.0], [10.0]]), 2)
        assert tuple(clustering.cluster_cost) == (1, 1)
        assert weighted_cost(clustering, [2, 3]) == 5

    def test_validation(self):
        clustering = assign(PAIRS, CenterList([[0.0], [10.0]]), 2)
        with pytest.raises(ValueError):
            weighted_cost(clustering, [1])
        with pytest.raises(ValueError):
            weighted_cost(clustering, [1, -1])


class TestAssign:
    def test_ties_go_to_lowest_cluster(self):
        data = Dataset([[0.5]])
        clustering = assign(data, CenterList([[0.0], [1.0]]), 2)
        assert clustering.assignment[0] == 0

    def test_assignment_optimality(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(60, 4)))
        centers = CenterList(rng.normal(size=(5, 4)))
        clustering = assign(data, centers, 2)
        for e in range(data.n):
            dists = [np.linalg.norm(data.rows[e] - c) ** 2
                     for c in centers.positions]
            assert clustering.assignment[e] == int(np.argmin(dists))

    def test_cost_telescoping(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(80, 3)))
        centers = CenterList(rng.normal(size=(4, 3)))
        clustering = assign(data, centers, 2)
        best = np.min(cdist(data.rows, centers.positions) ** 2, axis=1)
        assert clustering.total_cost == pytest.approx(np.sum(best), rel=1e-9)


class TestDzSeed:
    def test_all_points_identical(self):
        data = Dataset(np.ones((5, 2)))
        centers = dz_seed(data, 1, 2, RngStream(0, "s"))
        np.testing.assert_array_equal(centers.positions[0], [1, 1])
        assert assign(data, centers, 2).total_cost == 0

    def test_k_equals_n(self):
        data = Dataset([[0.0], [1.0], [2.0]])
        centers = dz_seed(data, 3, 2, RngStream(1, "s"))
        assert assign(data, centers, 2).total_cost == 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            dz_seed(PAIRS, 5, 2, RngStream(0, "s"))
        with pytest.raises(ValueError):
            dz_seed(PAIRS, 0, 2, RngStream(0, "s"))

    def test_expected_approximation_small_instance(self):
        # independent oracle: optimal (2,2)-cost on {0,1,100} by exhaustive
        # partition enumeration is 0.5
        data = Dataset([[0.0], [1.0], [100.0]])
        opt = brute_force_kmeans_cost(data.rows, 2)
        assert opt == pytest.approx(0.5)
        costs = [assign(data, dz_seed(data, 2, 2, RngStream(seed, "dz")),
                        2).total_cost for seed in range(1000)]
        assert np.mean(costs) <= 8 * (math.log(2) + 2) * opt

    def test_prefix_guarantee_statistical(self):
        # two Gaussian clusters; compare each prefix against the exhaustive
        # optimum on a 10-point subsample of the same instance
        inst_rng = RngStream(11, "prefix-instance").generator()
        blob = np.vstack([inst_rng.normal(0, 1, size=(100, 5)),
                          inst_rng.normal(6, 1, size=(100, 5))])
        sub = blob[inst_rng.choice(200, size=10, replace=False)]
        data = Dataset(sub)
        opt = {j: brute_force_kmeans_cost(sub, j) for j in (1, 2, 4)}
        ratios = {j: [] for j in (1, 2, 4)}
        for seed in range(200):
            centers = dz_seed(data, 4, 2, RngStream(seed, "prefix"))
            for j in (1, 2, 4):
                prefix_cost = assign(data, centers.prefix(j), 2).total_cost
                ratios[j].append(prefix_cost / opt[j])
        for j in (1, 2, 4):
            assert np.mean(ratios[j]) <= 8 * (math.log(j) + 2)


class TestRefine:
    def test_well_separated_pairs(self):
        # brute force over all 2-partitions of the 4 points gives 1.0
        assert brute_force_kmeans_cost(PAIRS.rows, 2) == pytest.approx(1.0)
        for seed in range(10):
            seeds = dz_seed(PAIRS, 2, 2, RngStream(seed, "r"))
            clustering = refine(PAIRS, seeds, 2)
            assert clustering.total_cost == pytest.approx(1.0)

    def test_optimal_centers_are_fixed_point(self):
        centers = CenterList([[0.5], [10.5]])
        clustering = refine(PAIRS, centers, 2, max_iters=1)
        assert clustering.total_cost == pytest.approx(1.0)
        np.testing.assert_allclose(clustering.centers.positions,
                                   [[0.5], [10.5]])

    def test_singleton_clusters(self):
        data = Dataset([[0.0], [3.0], [7.0]])
        clustering = refine(data, CenterList(data.rows), 2, max_iters=1)
        assert clustering.total_cost == 0

    def test_cost_monotone_in_iterations(self):
        rng = np.random.default_rng(9)
        data = Dataset(rng.normal(size=(120, 3)))
        for seed in range(5):
            seeds = dz_seed(data, 5, 2, RngStream(seed, "mono"))
            costs = [refine(data, seeds, 2, max_iters=i).total_cost
                     for i in range(1, 8)]
            assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_median_refinement_keeps_row_centers(self):
        rng = np.random.default_rng(10)
        data = Dataset(rng.normal(size=(30, 2)))
        clustering = refine(data, dz_seed(data, 3, 1, RngStream(0, "m")), 1)
        assert clustering.centers.indices is not None
        for pos, idx in zip(clustering.centers.positions,
                            clustering.centers.indices):
            np.testing.assert_array_equal(pos, data.rows[idx])


class TestSnapCenters:
    def test_center_on_data_row_unchanged(self):
        clustering = assign(PAIRS, CenterList([[0.0], [10.0]]), 2)
        snapped = snap_centers(PAIRS, clustering)
        np.testing.assert_array_equal(snapped.centers.indices, [0, 2])

    def test_tie_goes_to_lowest_row(self):
        data = Dataset([[0.0], [1.0]])
        clustering = assign(data, CenterList([[0.5]]), 2)
        snapped = snap_centers(data, clustering)
        assert snapped.centers.indices[0] == 0

    def test_pairs_recomputed_cost(self):
        clustering = assign(PAIRS, CenterList([[0.5], [10.5]]), 2)
        snapped = snap_centers(PAIRS, clustering)
        np.testing.assert_array_equal(snapped.centers.indices, [0, 2])
        assert snapped.total_cost == pytest.approx(2.0)

    def test_snapped_centers_are_rows(self):
        rng = np.random.default_rng(12)
        data = Dataset(rng.normal(size=(40, 3)))
        clustering = refine(data, dz_seed(data, 4, 2, RngStream(0, "s")), 2)
        snapped = snap_centers(data, clustering)
        for pos, idx in zip(snapped.centers.positions,
                            snapped.centers.indices):
            np.testing.assert_array_equal(pos, data.rows[idx])
        assert len(set(snapped.centers.indices.tolist())) == snapped.k


class TestKMedoids:
    def test_k_equals_n(self):
        data = Dataset([[0.0], [1.0], [2.0]])
        assert kmedoids(data, 3, RngStream(0, "km")).total_cost == 0

    def test_two_point_tie(self):
        # both rows have in-cluster distance sum 1; tie goes to row 0
        data = Dataset([[1.0], [2.0]])
        clustering = kmedoids(data, 1, RngStream(0, "km"))
        assert clustering.centers.indices[0] == 0
        assert clustering.total_cost == pytest.approx(1.0)

    def test_pairs_optimal(self):
        # exhaustive check over all medoid pairs: best cost is 2
        best = min(assign(PAIRS, CenterList(PAIRS.rows[[i, j]]), 1).total_cost
                   for i, j in itertools.combinations(range(4), 2))
        assert best == pytest.approx(2.0)
        for seed in range(10):
            clustering = kmedoids(PAIRS, 2, RngStream(seed, "km"))
            assert clustering.total_cost == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reseed_skips_rows_that_are_medoids(self, seed):
        # every distance between these rows squares to 0, so all of them
        # join cluster 0 and cluster 1 is reseeded; with every distance 0
        # the reseed must still take a row that is not cluster 0's medoid
        data = Dataset([[0.0], [0.0], [1e-310], [3e-310], [2.5e-310]])
        medoids = kmedoids(data, 2, RngStream(seed, "km")).centers.indices
        assert medoids[0] != medoids[1]


# --------------------------------------------------------------------------
# the GEMM assignment kernel against an all-pairs cdist reference


@st.composite
def _grid_instance(draw):
    """Rows drawn with repetition from a few distinct points on a grid of
    step 2**e / 4, plus centers that are partly rows and partly off-data
    grid points.  Grid coordinates keep distinct points far apart relative
    to rounding, so the nearest center is well defined up to exact ties."""
    d = draw(st.integers(1, 4))
    scale = 2.0 ** draw(st.integers(-20, 20)) / 4
    coord = st.integers(-40, 40).map(lambda v: v * scale)
    point = st.lists(coord, min_size=d, max_size=d)
    distinct = draw(st.lists(point, min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))
    on_data = draw(st.lists(st.sampled_from(rows), max_size=4))
    off_data = draw(st.lists(point, max_size=4))
    centers = on_data + off_data or [rows[0]]
    return Dataset(np.array(rows)), np.array(centers), draw(st.sampled_from([1, 2]))


@st.composite
def _gaussian_instance(draw, scales):
    """Gaussian rows at a scale drawn from `scales`, so cluster sums round;
    part or all of column 0 is -0.0 in some draws.  The centers are up to
    300 rows drawn without replacement, so labels past 255 need 16-bit sort
    keys."""
    k = draw(st.integers(1, 300))
    n = k + draw(st.integers(0, 300))
    d = draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = g.normal(size=(n, d)) * draw(scales)
    X[g.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0])), 0] = -0.0
    return Dataset(X), X[g.choice(n, k, replace=False)]


@st.composite
def _near_tie_instance(draw):
    """(rows, centers) full of near-ties: rows on an integer grid or
    Gaussian; centers that are rows, grid points, duplicates, mirror images
    of a center through a row (equal distances there) and centers nudged by
    a few float64 ulps (ties that float32 cannot resolve); all scaled by
    2**-20 to 2**20 and shifted by 0 or 1e6 to 1e8."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        X = g.integers(-6, 7, size=(n, d)).astype(float)
    else:
        X = g.normal(size=(n, d))
    C = [X[g.integers(n, size=draw(st.integers(1, 4)))],
         g.integers(-6, 7, size=(draw(st.integers(0, 3)), d)).astype(float)]
    C.append(C[0][:draw(st.integers(0, 2))])  # duplicates
    C.append(2 * X[g.integers(n)] - C[0])  # mirrored through a row
    C.append(C[0] * (1 + g.integers(-4, 5, size=C[0].shape) * 2.0 ** -52))
    C = np.vstack(C)
    scale = 2.0 ** draw(st.integers(-20, 20))
    offset = draw(st.sampled_from([0.0, 1e6, 1e7, 1e8]))
    return X * scale + offset, C * scale + offset


class TestAssignKernel:
    @settings(max_examples=200, deadline=None)
    @given(_grid_instance())
    def test_costs_match_the_cdist_reference(self, case):
        data, C, z = case
        clustering = assign(data, CenterList(C), z)
        ref = cdist(data.rows, C) ** z
        best = ref.min(axis=1)
        # each point's assigned center is a nearest one
        np.testing.assert_allclose(
            ref[np.arange(data.n), clustering.assignment], best,
            rtol=1e-9, atol=0)
        np.testing.assert_allclose(
            clustering.cluster_cost,
            np.bincount(np.argmin(ref, axis=1), weights=best,
                        minlength=len(C)),
            rtol=1e-9, atol=0)
        assert clustering.total_cost == pytest.approx(
            float(np.sum(best)), rel=1e-9, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(_grid_instance())
    def test_points_on_their_center_cost_exactly_zero(self, case):
        data, _, z = case
        centers = CenterList(np.unique(data.rows, axis=0))
        clustering = assign(data, centers, z)
        assert clustering.total_cost == 0.0
        np.testing.assert_array_equal(
            centers.positions[clustering.assignment], data.rows)

    @settings(max_examples=150, deadline=None)
    @given(_near_tie_instance(), st.sampled_from([4, 64, 2 ** 16]))
    def test_labels_are_the_cdist_argmin(self, case, block):
        X, C = case
        with mock.patch.object(clustering_module, "BLOCK_ENTRIES", block):
            got = clustering_module._nearest_labels(X, C)
        np.testing.assert_array_equal(got, np.argmin(cdist(X, C), axis=1))

    @settings(max_examples=150, deadline=None)
    @given(_near_tie_instance(), st.integers(0, 2 ** 32 - 1))
    def test_sum_bounds_bracket_the_total_cost(self, case, seed):
        # any labels, not only the nearest centers'
        X, C = case
        labels = np.random.default_rng(seed).integers(C.shape[0],
                                                      size=X.shape[0])
        counts = np.bincount(labels, minlength=len(C))
        sums = clustering_module._cluster_sums(X, labels, len(C))
        sq = np.einsum("ij,ij->i", X, X)
        lo, hi = clustering_module._sum_bounds(
            sums, counts, C, (float(np.sum(sq)), float(np.sum(np.sqrt(sq)))))
        total = clustering_module._clustering(X, CenterList(C), labels,
                                              2).total_cost
        assert lo <= total <= hi

    def test_far_from_the_origin(self):
        # ||x||^2 ~ 1e12 dwarfs the unit distances; the residual cost is
        # still exact
        data = Dataset(1e6 + np.array([[0.0], [1.0], [3.0], [4.0]]))
        clustering = assign(data, CenterList(data.rows[[0, 3]]), 2)
        np.testing.assert_array_equal(clustering.assignment, [0, 0, 1, 1])
        np.testing.assert_array_equal(clustering.cluster_cost, [1.0, 1.0])


class TestRefineKernel:
    @settings(max_examples=100, deadline=None)
    @given(_grid_instance(), st.integers(1, 4))
    def test_never_raises_the_cost_and_keeps_k(self, case, iters):
        data, C, z = case
        # a repeated center leaves the later copy's cluster empty
        C = np.vstack([C, C[:1]])
        start = assign(data, CenterList(C), z)
        assert start.cluster_cost[-1] == 0 and np.all(start.assignment < len(C) - 1)
        refined = refine(data, CenterList(C), z, max_iters=iters)
        assert refined.k == len(C)
        assert refined.total_cost <= start.total_cost
        if z == 1:
            np.testing.assert_array_equal(
                refined.centers.positions, data.rows[refined.centers.indices])

    def test_empty_cluster_is_reseeded_at_the_farthest_point(self):
        data = Dataset([[0.0], [1.0], [10.0]])
        refined = refine(data, CenterList([[0.0], [0.0]]), 2, max_iters=1)
        np.testing.assert_array_equal(refined.centers.positions,
                                      [[11.0 / 3], [10.0]])

    def test_means_copy_no_rows(self):
        # the residual `assign` costs the points from is the one n x d
        # temporary; gathering the rows in cluster order would add another
        n, d = 20000, 32
        data = Dataset(np.random.default_rng(0).normal(size=(n, d)))
        tracemalloc.start()
        try:
            refine(data, CenterList(data.rows[:8]), 2, max_iters=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * d * 8


def reference_snap(data, clustering):
    """Snap with every center's argmin taken over the rows not yet claimed."""
    D = cdist(data.rows, clustering.centers.positions)
    idx = np.empty(clustering.k, dtype=np.intp)
    taken = np.zeros(data.n, dtype=bool)
    for i in range(clustering.k):
        idx[i] = int(np.argmin(np.where(taken, np.inf, D[:, i])))
        taken[idx[i]] = True
    return assign(data, CenterList(data.rows[idx], idx), clustering.z)


class TestSnapClaims:
    @settings(max_examples=150, deadline=None)
    @given(_grid_instance())
    def test_matches_the_masked_loop(self, case):
        # rows repeat and centers sit on rows, so centers collide on a row
        # and duplicated rows tie
        data, C, z = case
        clustering = assign(data, CenterList(C), z)
        assert_same_clustering(snap_centers(data, clustering),
                               reference_snap(data, clustering))

    @settings(max_examples=40, deadline=None)
    @given(_gaussian_instance(st.sampled_from([1e-3, 1.0, 1e3])),
           st.sampled_from([0.0, 1e4, 1e6, 1e8]), st.booleans())
    def test_matches_the_masked_loop_far_from_the_origin(self, case, offset,
                                                         on_rows):
        # far offsets make ||x||^2 dwarf the squared distances, which widens
        # the filter's margin; midpoints of two rows put centers off the data
        data, C = case
        data = Dataset(data.rows + offset)
        C = (C if on_rows else 0.5 * (C + C[::-1])) + offset
        clustering = assign(data, CenterList(C), 2)
        assert_same_clustering(snap_centers(data, clustering),
                               reference_snap(data, clustering))


def one_medoid(points, pool=None) -> int:
    """The medoid of `points` as one cluster, by the all-cluster helper."""
    bounds = np.array([0, points.shape[0]])
    return int(clustering_module._medoids(points, bounds, pool)[0])


class TestMedoid:
    # one tile, and a cap around one and two tiles' boundaries
    @pytest.mark.parametrize("m", [1, MEDOID_BLOCK - 1, MEDOID_BLOCK,
                                   MEDOID_BLOCK + 1, 2 * MEDOID_BLOCK - 1,
                                   2 * MEDOID_BLOCK, 2 * MEDOID_BLOCK + 1])
    def test_blocked_equals_the_full_matrix(self, m):
        g = np.random.default_rng(m)
        for points in (g.normal(size=(m, 3)),
                       # integer points: many exactly tied distance sums
                       g.integers(-2, 3, size=(m, 2)).astype(float)):
            full = int(np.argmin(np.sum(cdist(points, points), axis=1)))
            assert one_medoid(points) == full

    def test_memory_is_linear_in_the_cluster_size(self):
        m = 6000  # the m x m matrix would take 288 MB
        points = np.random.default_rng(0).normal(size=(m, 2))
        tracemalloc.start()
        try:
            one_medoid(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * m / 4


class TestDzSeedDistinct:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_seeded_rows_are_distinct(self, distinct, copies, data):
        rows = np.repeat(np.arange(distinct, dtype=float)[:, None], copies,
                         axis=0)
        k = data.draw(st.integers(1, rows.shape[0]))
        seed = data.draw(st.integers(0, 10 ** 6))
        centers = dz_seed(Dataset(rows), k, 2, RngStream(seed, "distinct"))
        assert len(set(centers.indices.tolist())) == k


# --------------------------------------------------------------------------
# refinement against the plain Lloyd loop: no fixed-point stop, serial
# full-matrix medoids


def reference_refine(data, centers, z, max_iters=50):
    """Lloyd alternation that stops only on the cost tolerance."""
    X = data.rows
    current = assign(data, centers, z)
    prev_cost = current.total_cost
    for _ in range(max_iters):
        positions = current.centers.positions.copy()
        indices = None if z != 1 else np.empty(current.k, dtype=np.intp)
        taken = np.zeros(data.n, dtype=bool)  # rows that are centers
        empty = []
        for i in range(current.k):
            members = np.flatnonzero(current.assignment == i)
            if members.size == 0:
                empty.append(i)
            elif z == 2:
                positions[i] = X[members].mean(axis=0)
            else:
                P = X[members]
                m = members[int(np.argmin(np.sum(cdist(P, P), axis=1)))]
                positions[i] = X[m]
                indices[i] = m
                taken[m] = True
        mind = clustering_module._point_cost(
            X, current.centers.positions, current.assignment, z)
        for i in empty:
            # the farthest row from the current centers that is no center
            far = int(np.argmax(np.where(taken, -np.inf, mind)))
            positions[i] = X[far]
            taken[far] = True
            mind = np.minimum(mind, powered_distances(X, X[far], z)[:, 0])
            if indices is not None:
                indices[i] = far
        updated = assign(data, CenterList(positions, indices), z)
        if updated.total_cost > prev_cost:
            break
        current = updated
        if prev_cost - updated.total_cost < REFINE_TOL * max(prev_cost, 1e-300):
            break
        prev_cost = updated.total_cost
    return current


def assert_same_clustering(got: Clustering, want: Clustering):
    np.testing.assert_array_equal(got.centers.positions,
                                  want.centers.positions)
    if want.centers.indices is None:
        assert got.centers.indices is None
    else:
        np.testing.assert_array_equal(got.centers.indices,
                                      want.centers.indices)
    np.testing.assert_array_equal(got.assignment, want.assignment)
    np.testing.assert_array_equal(got.cluster_cost, want.cluster_cost)
    assert got.z == want.z


def blobs(per_blob: int, centers, seed: int) -> Dataset:
    g = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    return Dataset(np.vstack([c + g.normal(size=(per_blob, centers.shape[1]))
                              for c in centers]))


class TestRefineIsExact:
    @settings(max_examples=200, deadline=None)
    @given(_grid_instance(), st.integers(1, 6), st.booleans())
    def test_matches_the_reference_loop(self, case, iters, repeat_center):
        data, C, z = case
        if repeat_center:
            # the repeated center's cluster starts empty and is reseeded
            C = np.vstack([C, C[:1]])
        got = refine(data, CenterList(C), z, max_iters=iters)
        assert_same_clustering(got, reference_refine(data, CenterList(C), z,
                                                     max_iters=iters))

    @settings(max_examples=60, deadline=None)
    @given(_gaussian_instance(st.integers(-5, 5).map(lambda e: 10.0 ** e)),
           st.integers(1, 10))
    def test_means_match_the_reference_loop_on_gaussian_data(self, case,
                                                             iters):
        data, C = case
        got = refine(data, CenterList(C), 2, max_iters=iters)
        want = reference_refine(data, CenterList(C), 2, max_iters=iters)
        # tobytes also tells -0.0 from 0.0
        assert (got.centers.positions.tobytes()
                == want.centers.positions.tobytes())
        assert_same_clustering(got, want)

    @settings(max_examples=30, deadline=None)
    @given(_gaussian_instance(st.just(1.0)),
           st.sampled_from([1e6, 1e7, 1e8]), st.integers(1, 10))
    def test_means_match_the_reference_loop_far_from_the_origin(
            self, case, offset, iters):
        # ||x||^2 is 1e12-1e16 times a squared distance, so the bounds on
        # each total are far wider than REFINE_TOL: the stop tests fall back
        # to the exact costs
        data, C = case
        data, C = Dataset(data.rows + offset), C + offset
        got = refine(data, CenterList(C), 2, max_iters=iters)
        want = reference_refine(data, CenterList(C), 2, max_iters=iters)
        assert (got.centers.positions.tobytes()
                == want.centers.positions.tobytes())
        assert_same_clustering(got, want)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_kmedoids_on_any_worker_count(self, monkeypatch, workers):
        # clusters of ~700 rows span several medoid blocks at every count
        data = blobs(700, [[0, 0, 0], [4, 0, 0], [0, 4, 0]], seed=workers)
        seeds = dz_seed(data, 3, 1, RngStream(5, "workers"))
        monkeypatch.setattr(clustering_module, "_cpu_count", lambda: workers)
        calls = []  # (thread, rows) of every medoid block
        real_cdist = clustering_module.cdist

        def spy(XA, XB, *args, **kwargs):
            calls.append((threading.get_ident(), np.atleast_2d(XA).shape[0]))
            return real_cdist(XA, XB, *args, **kwargs)

        monkeypatch.setattr(clustering_module, "cdist", spy)
        got = refine(data, seeds, 1)
        monkeypatch.setattr(clustering_module, "cdist", real_cdist)
        assert_same_clustering(got, reference_refine(data, seeds, 1))
        assert max(rows for _, rows in calls) <= MEDOID_BLOCK
        off_main = {t for t, _ in calls} - {threading.get_ident()}
        assert bool(off_main) == (workers > 1)


class TestFixedPointStop:
    def test_separated_blobs_take_one_iteration(self, monkeypatch):
        # blobs 1e4 apart with unit spread: D^1 seeding puts one seed in
        # each, the first medoid update moves no point to another blob, and
        # refinement stops there instead of rebuilding the same medoids
        data = blobs(200, [[0, 0], [1e4, 0], [0, 1e4], [1e4, 1e4]], seed=1)
        passes = []
        real_assign = clustering_module.assign

        def counting_assign(*args, **kwargs):
            passes.append(1)
            return real_assign(*args, **kwargs)

        monkeypatch.setattr(clustering_module, "assign", counting_assign)
        clustering = kmedoids(data, 4, RngStream(0, "blobs"))
        blob = np.repeat(np.arange(4), 200)
        assert sorted(blob[clustering.centers.indices]) == [0, 1, 2, 3]
        # one assignment of the seeds plus one per iteration
        assert len(passes) == 2


class TestCertifiedStop:
    def test_one_exact_cost_pass_per_refinement(self, monkeypatch):
        # blobs 6 spreads apart: Lloyd makes over a dozen passes, and the
        # bounds from the GEMM scores decide every stop test on their own
        data = blobs(100, [[0, 0], [6, 0], [0, 6], [6, 6]], seed=1)
        seeds = dz_seed(data, 4, 2, RngStream(0, "blobs"))
        calls = {"_nearest_labels": 0, "_point_cost": 0}
        for name in calls:
            real = getattr(clustering_module, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(clustering_module, name, counted)
        got = refine(data, seeds, 2)
        assert calls["_nearest_labels"] > 5 and calls["_point_cost"] == 1
        monkeypatch.undo()
        assert_same_clustering(got, reference_refine(data, seeds, 2))


class TestThreadedMedoid:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_sums_equal_the_full_matrix(self, workers):
        # three re-check blocks sum every row as the full matrix does, and
        # three copies of the cluster are three tasks on the pool; a short
        # switch interval makes a lost or misplaced result likelier to show
        g = np.random.default_rng(workers)
        m = 2 * MEDOID_BLOCK + 7
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for points in (g.normal(size=(m, 3)),
                           # integer points: many exactly tied sums
                           g.integers(-2, 3, size=(m, 2)).astype(float)):
                full = np.sum(cdist(points, points), axis=1)
                sums = clustering_module._row_sums(points, np.arange(m),
                                                   MEDOID_BLOCK)
                np.testing.assert_array_equal(sums, full)
                with ThreadPoolExecutor(workers) as pool:
                    medoid = one_medoid(points, pool)
                    copies = clustering_module._medoids(
                        np.vstack([points] * 3), np.arange(4) * m, pool)
                assert medoid == int(np.argmin(full))
                assert copies.tolist() == [medoid, m + medoid,
                                           2 * m + medoid]
        finally:
            sys.setswitchinterval(interval)

    def test_one_pool_round_per_medoid_pass(self):
        class Counting(ThreadPoolExecutor):
            maps = 0

            def map(self, *args, **kwargs):
                Counting.maps += 1
                return super().map(*args, **kwargs)

        data = blobs(300, [[0, 0], [6, 0], [0, 6], [6, 6]], seed=2)
        bounds = np.arange(5) * 300
        with Counting(2) as pool:
            got = clustering_module._medoids(data.rows, bounds, pool)
        assert Counting.maps == 1
        # the same medoids as four passes without a pool
        assert got.tolist() == [lo + one_medoid(data.rows[lo:lo + 300])
                                for lo in bounds[:-1]]

    def test_each_row_summed_at_most_once(self, monkeypatch):
        # the cap's row keeps its sum: no row of a 2,000-row cluster is a
        # first ``cdist`` operand twice
        points = np.random.default_rng(4).normal(size=(2000, 8))
        at = {row.tobytes(): i for i, row in enumerate(points)}
        seen = np.zeros(len(points), dtype=int)
        real_cdist = clustering_module.cdist

        def spy(XA, XB, *args, **kwargs):
            for row in np.atleast_2d(XA):
                if row.tobytes() in at:
                    seen[at[row.tobytes()]] += 1
            return real_cdist(XA, XB, *args, **kwargs)

        monkeypatch.setattr(clustering_module, "cdist", spy)
        medoid = one_medoid(points)
        monkeypatch.undo()
        assert seen.max() == 1
        full = np.concatenate([np.sum(cdist(points[i:i + 500], points),
                                      axis=1) for i in range(0, 2000, 500)])
        assert medoid == int(np.argmin(full))

    def test_memory_stays_bounded_on_four_workers(self, monkeypatch):
        # one 6000-row cluster; the m x m matrix would take 288 MB
        monkeypatch.setattr(clustering_module, "_cpu_count", lambda: 4)
        data = Dataset(np.random.default_rng(0).normal(size=(6000, 2)))
        tracemalloc.start()
        try:
            refine(data, CenterList(data.rows[:1], [0]), 1, max_iters=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 6000 * 6000 / 4


@st.composite
def _prunable_rows(draw, most=120, few=False):
    """Rows of which the medoid's lower bound rules most out: a unit
    Gaussian blob (d of 1, 2, 8 or 16, 30 to `most` rows) at an offset of 0
    or 1e6 to 1e8, in some draws with a third of its rows duplicated, one
    row 10**4 spreads out, or part of it moved 1,200 spreads away (two
    blobs, which `_groups` cuts apart).  With `few` the blob is 2 to 5 of
    its points, each repeated: every cell of the lower bound then holds
    copies of one point, where Jensen's inequality is nearly tight."""
    d = draw(st.sampled_from([1, 2, 8, 16]))
    m = draw(st.integers(30, most))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = g.normal(size=(m, d))
    if few:
        points = points[g.integers(draw(st.integers(2, 5)), size=m)]
    direction = g.normal(size=d)
    direction /= np.linalg.norm(direction)
    shape = draw(st.sampled_from(["blob", "copies", "far row", "two blobs"]))
    if shape == "copies":
        copies = g.integers(m, size=(2, m // 3))
        points[copies[0]] = points[copies[1]]
    elif shape == "far row":
        points[g.integers(m)] += 1e4 * direction
    elif shape == "two blobs":
        points[:draw(st.integers(1, m - 1))] += 1200 * direction
    offset = draw(st.sampled_from([0.0, 1e6, 1e7, 1e8]))
    return Dataset(points + offset * g.choice([-1.0, 1.0], size=d)).rows


def _medoid_points():
    """Tied distance sums (`_tied_points`) or rows the bound prunes
    (`_prunable_rows`)."""
    return st.one_of(_tied_points(), _prunable_rows())


@st.composite
def _tied_points(draw):
    """Points whose distance sums tie: grid rows drawn with repetition (a
    repeated row's sum equals the original's bit for bit), or the vertices
    of a hypercube (every sum equal in exact arithmetic) in shuffled order,
    some repeated; all at a scale of 2**-20 .. 2**20."""
    scale = 2.0 ** draw(st.integers(-20, 20))
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        point = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
        distinct = draw(st.lists(point, min_size=1, max_size=8))
        rows = draw(st.lists(st.sampled_from(distinct), min_size=1,
                             max_size=60))
    else:
        cube = list(itertools.product([0, 1], repeat=draw(st.integers(1, 5))))
        rows = draw(st.permutations(cube)) + draw(
            st.lists(st.sampled_from(cube), max_size=8))
    return np.array(rows, dtype=float) * scale


class TestExactMedoid:
    # tiles of 30 to 6 rows; the ids count the tiles that span 30 rows
    @pytest.mark.parametrize("side", [30, 15, 10, 6],
                             ids=["1", "2", "3", "5"])
    @settings(max_examples=150, deadline=None)
    @given(points=_medoid_points())
    def test_equals_the_full_matrix_argmin(self, side, points):
        # tiles of `side` rows, so the filter's sums are rounded in another
        # order than the full matrix's row sums
        real_medoids = clustering_module._medoids
        found = []

        def spy(*args):
            medoids = real_medoids(*args)
            found.extend(medoids.tolist())
            return medoids

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering_module, "MEDOID_BLOCK", side)
            mp.setattr(clustering_module, "_medoids", spy)
            # one center: its cluster is every row, in row order
            refine(Dataset(points), CenterList(points[:1], [0]), 1,
                   max_iters=1)
        full = np.sum(cdist(points, points), axis=1)
        assert found == [int(np.argmin(full))]


@st.composite
def _partitions(draw):
    """Medoid points cut into consecutive clusters: singletons, very unequal
    sizes, and clusters whose distance sums tie."""
    points = draw(_medoid_points())
    cuts = draw(st.lists(st.integers(1, max(1, points.shape[0] - 1)),
                         max_size=6, unique=True))
    cuts = sorted(c for c in cuts if c < points.shape[0])
    return points, np.array([0, *cuts, points.shape[0]])


class TestAllClusterMedoids:
    # pools of 1 to 5 threads (the test ids), tiles of 30 to 6 rows
    @pytest.mark.parametrize("workers, side", [
        pytest.param(1, 30, id="1"), pytest.param(2, 15, id="2"),
        pytest.param(3, 10, id="3"), pytest.param(5, 6, id="5")])
    @settings(max_examples=100, deadline=None)
    @given(case=_partitions())
    def test_equal_the_per_cluster_full_matrix_argmin(self, workers, side,
                                                      case):
        points, bounds = case
        want = [lo + int(np.argmin(np.sum(cdist(points[lo:hi],
                                                points[lo:hi]), axis=1)))
                for lo, hi in zip(bounds[:-1], bounds[1:])]
        # each cluster is one task; a short switch interval makes a lost or
        # misplaced result likelier to show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as mp, \
                    ThreadPoolExecutor(workers) as pool:
                # tiles of `side` rows, so runs cut through clusters
                mp.setattr(clustering_module, "MEDOID_BLOCK", side)
                got = clustering_module._medoids(points, bounds, pool)
        finally:
            sys.setswitchinterval(interval)
        assert got.tolist() == want


@st.composite
def _filter_stress(draw):
    """Clusters on which the float32 filter's rounding is largest next to
    the gaps between distance sums: far from the origin (|mu| = 1e8, unit
    spread), near-duplicate rows, subnormal and tiny scales, and entries
    near `Dataset`'s coordinate limit, below the limit also with one row
    2**20 times farther out; d from 1 to 64, cut into 1 to 3 clusters of
    up to 40 rows; or rows the lower bound prunes (`_prunable_rows`)."""
    kind = draw(st.sampled_from(["offset", "near-duplicates", "tiny",
                                 "limit", "prunable"]))
    m, d = draw(st.integers(1, 40)), draw(st.integers(1, 64))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "prunable":
        points = draw(_prunable_rows(80)).copy()
        m = points.shape[0]
    elif kind == "offset":
        points = g.choice([-1e8, 1e8], size=d) + g.normal(size=(m, d))
    elif kind == "near-duplicates":
        # a few points, each copy's entries moved by a few ulps
        base = g.normal(size=(draw(st.integers(1, 3)), d))
        points = base[g.integers(base.shape[0], size=m)]
        points *= 2.0 ** draw(st.integers(-30, 30))
        points *= 1 + g.integers(-2, 3, size=(m, d)) * 2.0 ** -52
    elif kind == "tiny":
        scale = draw(st.sampled_from([5e-324, 1e-320, 1e-310, 1e-300,
                                      1e-160]))
        points = g.normal(size=(m, d)) * scale
    else:
        limit = np.sqrt(np.finfo(float).max / (4 * m * d))
        points = g.uniform(-1, 1, (m, d))
        points *= 0.999 * limit / np.abs(points).max()
    if kind != "limit" and draw(st.booleans()):
        points[g.integers(m)] *= 2.0 ** 20  # the only far row
    cuts = draw(st.lists(st.integers(1, max(1, m - 1)), max_size=2,
                         unique=True))
    bounds = np.array([0, *sorted(c for c in cuts if c < m), m])
    return Dataset(points).rows, bounds


@st.composite
def _far_groups(draw):
    """Clusters of far-apart groups: 2 or 3 unit blobs of unequal sizes,
    each 10**2 to 10**6 spreads from the one before, or one blob and a
    single far row; rows shuffled and some duplicated, d from 1 to 16, cut
    into 1 or 2 clusters.  In some draws each blob is the vertices of a
    unit cube, moved a whole number along one axis, so that distance sums
    tie by symmetry, or one point repeated, a group with no spread of its
    own."""
    d = draw(st.integers(1, 16))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 30), min_size=2, max_size=3))
    else:
        sizes = [draw(st.integers(1, 40)), 1]  # the far row
    cube = np.zeros((2 ** min(d, 4), d))
    cube[:, :min(d, 4)] = list(itertools.product([0, 1], repeat=min(d, 4)))
    shape = draw(st.sampled_from(["blobs", "cubes", "copies"]))
    groups, center = [], np.zeros(d)
    for size in sizes:
        if shape == "cubes":
            groups.append(center + cube[:size])
            step = np.zeros(d)
            step[g.integers(d)] = 10 ** draw(st.integers(2, 6))
        else:
            spread = shape == "blobs"
            groups.append(center + spread * g.normal(size=(size, d)))
            step = g.normal(size=d)
            step *= 10.0 ** draw(st.floats(2, 6)) / np.linalg.norm(step)
        center = center + step
    points = np.vstack(groups)
    m = points.shape[0]
    points = points[g.permutation(m)]
    if draw(st.booleans()):
        copies = g.integers(m, size=(2, m // 3))
        points[copies[0]] = points[copies[1]]
    cuts = draw(st.lists(st.integers(1, max(1, m - 1)), max_size=1))
    bounds = np.array([0, *sorted(c for c in cuts if c < m), m])
    return Dataset(points).rows, bounds


class TestMedoidFilterMargin:
    @staticmethod
    def check(points, bounds, side):
        want = [lo + int(np.argmin(np.sum(cdist(points[lo:hi],
                                                points[lo:hi]), axis=1)))
                for lo, hi in zip(bounds[:-1], bounds[1:])]
        with pytest.MonkeyPatch.context() as mp:
            # tiles of `side` rows, so clusters span several tiles
            mp.setattr(clustering_module, "MEDOID_BLOCK", side)
            got = clustering_module._medoids(points, bounds)
        assert got.tolist() == want

    # the ids count the tiles that span 16 rows
    @pytest.mark.parametrize("side", [16, 8], ids=["1", "2"])
    @settings(max_examples=150, deadline=None)
    @given(case=_filter_stress())
    def test_equals_the_full_matrix_argmin(self, side, case):
        self.check(*case, side)

    @pytest.mark.parametrize("side", [16, 8], ids=["1", "2"])
    @settings(max_examples=80, deadline=None)
    @given(case=_far_groups())
    def test_far_groups_equal_the_full_matrix_argmin(self, side, case):
        # the filter cuts such clusters into groups, and tiles between two
        # groups take the distance-aware bound
        self.check(*case, side)


class TestMedoidGroups:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_blobs_recheck_a_handful_of_rows(self, monkeypatch,
                                                 workers):
        # regression-csv's two-blob cluster: two 2,000-row d=8 unit blobs
        # 1,200 apart.  Centred on the cluster's mean, float32 bounds a
        # distance inside a blob only to about 40% of itself, and a filter
        # without groups re-checks nearly every row.
        g = np.random.default_rng(0)
        shift = np.zeros(8)
        shift[0] = 1200.0
        points = np.vstack([g.normal(size=(2000, 8)),
                            shift + g.normal(size=(2000, 8))])
        checked = []  # rows each ``cdist`` sum call sums, the cap's first
        real = clustering_module._row_sums

        def spy(P, rows, side):
            checked.append(len(rows))
            return real(P, rows, side)

        monkeypatch.setattr(clustering_module, "_row_sums", spy)
        with ThreadPoolExecutor(workers) as pool:
            medoid = one_medoid(points, pool)
        full = np.concatenate([np.sum(cdist(points[i:i + 500], points),
                                      axis=1) for i in range(0, 4000, 500)])
        assert medoid == int(np.argmin(full))
        assert len(checked) == 2 and sum(checked) <= 10

    def test_compact_rows_stay_one_group(self):
        points = np.random.default_rng(0).normal(size=(2000, 8))
        order, sizes, _ = clustering_module._groups(points, 8, 256)
        assert order is None and sizes == [2000]

    def test_high_dimensional_blob_keeps_its_far_rows(self):
        # in d=32 the balls around a blob and its farthest row are
        # disjoint by a hair, and without the radius test the blob lost a
        # row at every cut; a row 10**3 away is still a group of its own
        points = np.random.default_rng(0).normal(size=(400, 32))
        order, sizes, _ = clustering_module._groups(points, 8, 256)
        assert order is None and sizes == [400]
        far = np.zeros((1, 32))
        far[0, 0] = 1e3
        order, sizes, _ = clustering_module._groups(
            np.vstack([points, far]), 8, 256)
        assert sizes == [1, 400] and order[0] == 400

    def test_gaps_bound_every_distance_between_groups(self):
        g = np.random.default_rng(1)
        points = np.vstack([g.normal(size=(30, 3)) + [0, 0, 0],
                            g.normal(size=(20, 3)) + [500, 0, 0],
                            g.normal(size=(1, 3)) + [0, 1e5, 0]])
        order, sizes, gaps = clustering_module._groups(points, 8, 30)
        parts = np.split(order, np.cumsum(sizes)[:-1])
        assert sorted(sizes) == [1, 20, 30]
        for a, b in itertools.permutations(range(3), 2):
            least = cdist(points[parts[a]], points[parts[b]]).min()
            assert 0 < gaps[a, b] <= least


class TestMedoidBound:
    def test_compact_cluster_filters_under_a_third_of_its_rows(
            self, monkeypatch):
        # one 2000-row d=8 unit blob on a two-thread pool: the lower bound
        # leaves about a sixth of the rows, each summed against all m rows,
        # after m x 64 distances to the cells' means; a quarter of the rows
        # would be m * (m / 4 + 64) float32 distances
        m = 2000
        points = np.random.default_rng(0).normal(size=(m, 8))
        computed = []

        class Counting:
            """numpy, counting the float32 distances clamped at 0."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def maximum(x, *args, **kwargs):
                if x.ndim == 2 and x.dtype == np.float32:
                    computed.append(x.size)
                return np.maximum(x, *args, **kwargs)

        monkeypatch.setattr(clustering_module, "np", Counting())
        with ThreadPoolExecutor(2) as pool:
            medoid = one_medoid(points, pool)
        monkeypatch.undo()
        full = np.concatenate([np.sum(cdist(points[i:i + 500], points),
                                      axis=1) for i in range(0, m, 500)])
        assert medoid == int(np.argmin(full))
        assert 0 < sum(computed) < m * (m / 4 + 64)

    def test_large_group_keeps_fewer_rows_than_with_64_cells(
            self, monkeypatch):
        # a 10,000-row d=16 unit blob: one cell per MEDOID_CELL_ROWS rows
        # gives a tighter bound than 64 cells, so fewer rows are summed
        # against all 10,000
        points = np.random.default_rng(0).normal(size=(10000, 16))
        kept = []
        real = clustering_module._tile_sums

        def spy(flt, rows):
            kept.append(rows.size)
            return real(flt, rows)

        monkeypatch.setattr(clustering_module, "_tile_sums", spy)
        medoid = one_medoid(points)
        monkeypatch.setattr(clustering_module, "MEDOID_CELL_ROWS", 10 ** 9)
        assert one_medoid(points) == medoid
        assert kept[0] < kept[1]


def exact_sums(points: np.ndarray) -> np.ndarray:
    """Row sums of the distance matrix of `points` in np.longdouble: within
    (m + d) 2**-63 of the true sums, relative, with x86's 64-bit
    significand, and far inside every margin checked even as float64."""
    P = points.astype(np.longdouble)
    return np.array([np.sum(np.sqrt(np.sum((P - p) ** 2, axis=1)))
                     for p in P])


def _stage_case():
    """Rows for the medoid filter's stages (`_prunable_rows`, some with a
    few repeated points) and a tile side."""
    return (st.booleans().flatmap(lambda few: _prunable_rows(few=few)),
            st.sampled_from([8, 16]))


class TestMedoidStages:
    """The rigorous margins of the medoid filter, stage by stage, against
    extended-precision distance sums T_i, in the filter's row order and
    the cluster's scaled units."""

    @staticmethod
    def stages(points, side):
        flt = clustering_module._filter_operands(points, side)
        order = np.arange(len(points)) if flt.order is None else flt.order
        exact = np.ldexp(exact_sums(points)[order].astype(float), -flt.e)
        return flt, exact

    @settings(max_examples=60, deadline=None)
    @given(*_stage_case())
    def test_lower_bounds_stay_below_the_sums(self, points, side):
        flt, exact = self.stages(points, side)
        lb = clustering_module._lower_bounds(flt)
        assert np.all(lb <= exact - 1.1 * flt.mb)

    @settings(max_examples=60, deadline=None)
    @given(*_stage_case(), st.integers(0, 2 ** 32 - 1))
    def test_filtered_sums_are_within_their_margins(self, points, side,
                                                    seed):
        # any subset of the rows, as the lower bound leaves one, each
        # summed against every row
        flt, exact = self.stages(points, side)
        g, m = np.random.default_rng(seed), len(points)
        rows = np.sort(g.choice(m, size=g.integers(m + 1), replace=False))
        sums = clustering_module._tile_sums(flt, rows)
        # the float32 roots and float64 sums' relative a of the margin
        a = 2.0 ** -24 + 3 * m * 2.0 ** -53
        assert np.all(np.abs(sums - exact[rows])
                      <= flt.err[rows] + a * exact[rows])

    @settings(max_examples=40, deadline=None)
    @given(*_stage_case())
    def test_tile_sums_are_within_spill_of_their_terms(self, points, side):
        # every row's sums, from the same float32 tiles as `_tile_sums`:
        # rows a:ea of group g against rows b:eb of group h
        flt = clustering_module._filter_operands(points, side)
        m, ends = len(points), flt.ends
        sums = clustering_module._tile_sums(flt, np.arange(m))
        terms, size = np.zeros(m), np.zeros(m)
        for g, h in itertools.product(range(ends.size - 1), repeat=2):
            s_a, scale, left, _, _ = flt.ops[g if g == h else -1]
            s_b, _, _, right, _ = flt.ops[h if g == h else -1]
            f = float(flt.floor[g, h])
            for a in range(ends[g], ends[g + 1], side):
                ea = min(a + side, ends[g + 1])
                for b in range(ends[h], ends[h + 1], side):
                    eb = min(b + side, ends[h + 1])
                    D = left[np.arange(a, ea) - s_a] @ right[b - s_b:
                                                             eb - s_b].T
                    np.sqrt(np.maximum(D, 0, out=D), out=D)
                    D -= f
                    D = D.astype(np.float64)  # every float32 is a float64
                    terms[a:ea] += scale * np.sum(D, axis=1) + f * (eb - b)
                    size[a:ea] += scale * np.sum(np.abs(D), axis=1)
        # the float64 sums of both sides round by a few U
        assert np.all(np.abs(sums - terms)
                      <= flt.spill * size + 2.0 ** -48 * np.abs(terms))

    @settings(max_examples=40, deadline=None)
    @given(*_stage_case())
    def test_floors_stay_below_the_gaps(self, points, side):
        # f <= t' <= every scaled distance between the groups' rows, less
        # the float32 cast's move
        flt = clustering_module._filter_operands(points, side)
        order = np.arange(len(points)) if flt.order is None else flt.order
        groups = np.split(order, flt.ends[1:-1])
        d = points.shape[1]
        for g, h in itertools.permutations(range(len(groups)), 2):
            least = cdist(points[groups[g]], points[groups[h]]).min()
            assert flt.gap[g, h] <= (np.ldexp(least, -flt.e)
                                     - np.sqrt(d) * 2.0 ** -22)
            assert flt.floor[g, h] <= max(flt.gap[g, h], 0)


class TestReusedMedoids:
    def test_only_clusters_whose_members_moved(self, monkeypatch):
        # two overlapping blobs whose seeds both sit in the first, and two
        # blobs far from them: after the first medoid pass rows move
        # between clusters 0 and 1 only, so the second pass gathers only
        # their rows and clusters 2 and 3 keep their medoids
        data = blobs(50, [[0, 0], [3, 0], [100, 0], [0, 100]], seed=1)
        rows = [0, 1, 100, 150]
        seeds = CenterList(data.rows[rows], rows)
        first = assign(data, seeds, 1).assignment
        second = reference_refine(data, seeds, 1, max_iters=1).assignment
        moved = np.flatnonzero(first != second)
        changed = np.union1d(first[moved], second[moved])
        calls = []
        real = clustering_module._medoids

        def spy(points, bounds, *args):
            calls.append((points.copy(), np.array(bounds)))
            return real(points, bounds, *args)

        monkeypatch.setattr(clustering_module, "_medoids", spy)
        got = refine(data, seeds, 1)
        monkeypatch.undo()
        assert_same_clustering(got, reference_refine(data, seeds, 1))
        assert changed.tolist() == [0, 1]
        points, bounds = calls[1]
        np.testing.assert_array_equal(
            points, np.vstack([data.rows[second == i] for i in changed]))
        np.testing.assert_array_equal(
            bounds, np.cumsum([0, *(np.sum(second == i) for i in changed)]))


@st.composite
def _dataset_and_point(draw):
    """Rows that `Dataset` accepts, mixing zeros, subnormals, ordinary
    values and coordinates near the size limit, and one of its rows."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 64))
    limit = float(np.sqrt(np.finfo(float).max / (4 * n * d)))
    entry = st.one_of(st.just(0.0), st.floats(-1e-308, 1e-308),
                      st.floats(-1e3, 1e3),
                      st.floats(-limit, limit, allow_nan=False))
    rows = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                  min_size=n, max_size=n)))
    rows = Dataset(rows.reshape(n, d)).rows
    return rows, rows[draw(st.integers(0, n - 1))]


class TestPoweredDistances:
    @settings(max_examples=60, deadline=None)
    @given(case=_dataset_and_point(), z=st.sampled_from([1, 2]))
    def test_equal_cdist_from_the_rows_bit_for_bit(self, case, z):
        X, x = case
        got, want = powered_distances(X, x, z), cdist(X, x[None]) ** z
        # tobytes also tells -0.0 from 0.0
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestRefineBlasCap:
    @pytest.fixture
    def blas_log(self, monkeypatch):
        """A fake BLAS library at 2 threads: its count at every medoid
        call, and its count now."""
        lib = {"count": 2, "seen": []}
        controls = ((lambda: lib["count"],
                     lambda n: lib.__setitem__("count", n)),)
        monkeypatch.setattr(core_module, "_openblas_controls",
                            lambda: controls)
        real_medoids = clustering_module._medoids

        def spy(*args):
            lib["seen"].append(lib["count"])
            return real_medoids(*args)

        monkeypatch.setattr(clustering_module, "_medoids", spy)
        return lib

    @pytest.mark.parametrize("workers, cap", [(1, 2), (2, 1), (4, 1)])
    def test_one_blas_thread_while_the_pool_exists(self, monkeypatch,
                                                   blas_log, workers, cap):
        monkeypatch.setattr(clustering_module, "_cpu_count", lambda: workers)
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        refine(data, dz_seed(data, 2, 1, RngStream(1, "cap")), 1)
        assert set(blas_log["seen"]) == {cap}
        assert blas_log["count"] == 2

    def test_count_restored_after_an_error(self, monkeypatch, blas_log):
        monkeypatch.setattr(clustering_module, "_cpu_count", lambda: 2)

        def fail(*args):
            raise MemoryError("medoid")

        monkeypatch.setattr(clustering_module, "_medoids", fail)
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        with pytest.raises(MemoryError):
            refine(data, dz_seed(data, 2, 1, RngStream(1, "cap")), 1)
        assert blas_log["count"] == 2

    def test_z2_leaves_blas_alone(self, monkeypatch, blas_log):
        monkeypatch.setattr(clustering_module, "_cpu_count", lambda: 4)
        real_nearest = clustering_module._nearest_labels
        seen = []

        def spy(*args):
            seen.append(blas_log["count"])
            return real_nearest(*args)

        monkeypatch.setattr(clustering_module, "_nearest_labels", spy)
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        refine(data, dz_seed(data, 2, 2, RngStream(1, "cap")), 2)
        assert set(seen) == {2}


class TestCenterDistances:
    def test_one_residual_array(self):
        # the residual is a row block of at most BLOCK_ENTRIES entries,
        # reused and squared in place: the distances plus one block
        n, d = 20000, 32
        rows = np.random.default_rng(0).normal(size=(n, d))
        clustering = assign(Dataset(rows), CenterList(rows[:8]), 2)
        tracemalloc.start()
        try:
            clustering_module.center_distances(rows, clustering)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 1.25 * 8 * clustering_module.BLOCK_ENTRIES

    def test_underflowing_residuals_get_their_norm(self):
        # squared, these residuals are below the smallest subnormal
        rows = np.array([[0.0], [0.0], [1e-310], [3e-310], [2.5e-310]])
        clustering = assign(Dataset(rows), CenterList(rows[:1], [0]), 1)
        dist = clustering_module.center_distances(rows, clustering)
        np.testing.assert_array_equal(dist, np.abs(rows[:, 0]))

    def test_underflow_in_several_dimensions(self):
        rows = np.array([[0.0, 0.0], [3e-200, 4e-200], [1.0, 0.0],
                         [-3e-170, 4e-170]])
        clustering = assign(Dataset(rows), CenterList(rows[:1], [0]), 1)
        dist = clustering_module.center_distances(rows, clustering)
        np.testing.assert_allclose(dist, [0, 5e-200, 1, 5e-170],
                                   rtol=1e-15)
        # a distance whose square does not underflow keeps its bits
        assert dist[2] == np.linalg.norm(rows[2])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3) | st.floats(-1e-160, 1e-160),
                    min_size=6, max_size=40),
           st.integers(1, 3))
    def test_only_underflowed_distances_change(self, values, d):
        rows = np.array(values[:len(values) // d * d]).reshape(-1, d)
        clustering = assign(Dataset(rows), CenterList(rows[:2], [0, 1]), 2)
        R = rows - clustering.centers.positions[clustering.assignment]
        plain = np.linalg.norm(R, axis=1)
        got = clustering_module.center_distances(rows, clustering)
        keep = (plain > 0) | np.all(R == 0, axis=1)
        assert got[keep].tobytes() == plain[keep].tobytes()
        np.testing.assert_allclose(
            got[~keep], [math.hypot(*r) for r in R[~keep]], rtol=1e-15)
        assert np.all(got[~keep] > 0)
