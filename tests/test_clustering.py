import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from senselect import clustering as clustering_module
from senselect import core as core_module
from senselect.core import Dataset, RngStream
from senselect.clustering import (MEDOID_CANDIDATES, MEDOID_REFERENCE,
                                  REFINE_TOL, CenterList, Clustering, assign,
                                  dz_seed, kmedoids, powered_distances,
                                  refine, snap_centers, weighted_cost)


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
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                weighted_cost(clustering, [1, bad])


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


class TestKMedoidsReruns:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12),
           st.sampled_from([1, 8, 32]), st.booleans())
    def test_equal_seeds_give_identical_clusterings(self, seed, k, d, copies):
        # up to 1,500 rows, so clusters take the strided reference; with
        # `copies` every row appears three times
        g = np.random.default_rng(seed)
        rows = (g.normal(0, 3, size=(k, d))[g.integers(k, size=500)]
                + g.normal(size=(500, d)))
        if copies:
            rows = np.repeat(rows, 3, axis=0)
        first = kmedoids(Dataset(rows), k, RngStream(seed, "rerun"))
        again = kmedoids(Dataset(rows.copy()), k, RngStream(seed, "rerun"))
        assert (first.centers.positions.tobytes()
                == again.centers.positions.tobytes())
        assert_same_clustering(first, again)
        assert len(set(first.centers.indices.tolist())) == k


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
    """Snap from the full distance matrix: each cluster with members takes
    its member nearest the center, then each empty cluster, in order, the
    nearest row no center has taken (row 0 once every row is taken); ties
    to the lowest row."""
    D = cdist(data.rows, clustering.centers.positions)
    idx = np.zeros(clustering.k, dtype=np.intp)
    taken = np.zeros(data.n, dtype=bool)
    empty = []
    for i in range(clustering.k):
        members = np.flatnonzero(clustering.assignment == i)
        if members.size:
            idx[i] = members[np.argmin(D[members, i])]
            taken[idx[i]] = True
        else:
            empty.append(i)
    for i in empty:
        free = np.flatnonzero(~taken)
        if free.size:
            idx[i] = free[np.argmin(D[free, i])]
            taken[idx[i]] = True
    return assign(data, CenterList(data.rows[idx], idx), clustering.z)


class TestSnapClaims:
    @settings(max_examples=150, deadline=None)
    @given(_grid_instance())
    def test_matches_the_masked_loop(self, case):
        # rows repeat and centers sit on rows, so centers collide on a row,
        # clusters are left empty, duplicated rows tie, and k may exceed n
        data, C, z = case
        clustering = assign(data, CenterList(C), z)
        snapped = snap_centers(data, clustering)
        assert_same_clustering(snapped, reference_snap(data, clustering))
        if clustering.k <= data.n:
            assert np.unique(snapped.centers.indices).size == clustering.k

    @settings(max_examples=40, deadline=None)
    @given(_gaussian_instance(st.sampled_from([1e-3, 1.0, 1e3])),
           st.sampled_from([0.0, 1e4, 1e6, 1e8]), st.booleans())
    def test_matches_the_masked_loop_far_from_the_origin(self, case, offset,
                                                         on_rows):
        # far offsets make ||x||^2 dwarf the squared distances; midpoints of
        # two rows put centers off the data
        data, C = case
        data = Dataset(data.rows + offset)
        C = (C if on_rows else 0.5 * (C + C[::-1])) + offset
        clustering = assign(data, CenterList(C), 2)
        assert_same_clustering(snap_centers(data, clustering),
                               reference_snap(data, clustering))

    def test_builds_no_k_by_n_array(self):
        n, d, k = 20000, 8, 32
        g = np.random.default_rng(5)
        data = Dataset(g.normal(size=(n, d)))
        clustering = assign(data, CenterList(g.normal(size=(k, d))), 2)
        tracemalloc.start()
        try:
            snap_centers(data, clustering)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * k * n * 8

    @settings(max_examples=100, deadline=None)
    @given(_grid_instance(), st.integers(0, 2 ** 32 - 1))
    def test_z1_snaps_each_medoid_to_its_lowest_copy(self, case, seed):
        # a z=1 center with members is a medoid, a member at distance 0, so
        # the cluster keeps the lowest row holding the medoid's coordinates
        data, C, _ = case
        k = min(len(C), data.n)
        refined = refine(data, dz_seed(data, k, 1, RngStream(seed, "z1")), 1)
        snapped = snap_centers(data, refined)
        counts = np.bincount(refined.assignment, minlength=k)
        for i in np.flatnonzero(counts):
            copies = np.flatnonzero(np.all(
                data.rows == refined.centers.positions[i], axis=1))
            assert snapped.centers.indices[i] == copies[0]
        assert np.unique(snapped.centers.indices).size == k


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
# medoids from each cluster's full distance matrix


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
                m = members[brute_medoid(X[members])]
                positions[i] = X[m]
                indices[i] = m
                taken[m] = True
        mind = current.distances ** z
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
        # OpenBLAS capped at 1 to 5 threads (a cap never raises the count);
        # clusters of ~700 rows take 64 candidates and a reference of every
        # second row
        data = blobs(700, [[0, 0, 0], [4, 0, 0], [0, 4, 0]], seed=workers)
        seeds = dz_seed(data, 3, 1, RngStream(5, "workers"))
        calls = []  # (rows, columns) of every ``cdist`` call
        real_cdist = clustering_module.cdist

        def spy(XA, XB, *args, **kwargs):
            calls.append((np.atleast_2d(XA).shape[0],
                          np.atleast_2d(XB).shape[0]))
            return real_cdist(XA, XB, *args, **kwargs)

        monkeypatch.setattr(clustering_module, "cdist", spy)
        with core_module.blas_threads(workers):
            got = refine(data, seeds, 1)
        monkeypatch.setattr(clustering_module, "cdist", real_cdist)
        assert_same_clustering(got, reference_refine(data, seeds, 1))
        # no distance block is larger than the candidates against every row
        assert max(rows for rows, _ in calls) <= MEDOID_CANDIDATES
        assert any(rows == MEDOID_CANDIDATES and 256 < cols <= 512
                   for rows, cols in calls)


class TestFixedPointStop:
    def test_separated_blobs_take_one_iteration(self, monkeypatch):
        # blobs 1e4 apart with unit spread: D^1 seeding puts one seed in
        # each, the first medoid update moves no point to another blob, and
        # refinement stops there instead of rebuilding the same medoids
        data = blobs(200, [[0, 0], [1e4, 0], [0, 1e4], [1e4, 1e4]], seed=1)
        passes = []
        real_labels = clustering_module._nearest_labels

        def counting_labels(*args, **kwargs):
            passes.append(1)
            return real_labels(*args, **kwargs)

        monkeypatch.setattr(clustering_module, "_nearest_labels",
                            counting_labels)
        clustering = kmedoids(data, 4, RngStream(0, "blobs"))
        blob = np.repeat(np.arange(4), 200)
        assert sorted(blob[clustering.centers.indices]) == [0, 1, 2, 3]
        # one label pass for the seeds plus one per iteration
        assert len(passes) == 2


class TestOneFrame:
    @pytest.mark.parametrize("z", [1, 2])
    def test_rows_cast_once_per_refinement(self, monkeypatch, z):
        # Lloyd makes several passes on blobs 6 spreads apart; every pass
        # scores the rows in the operands cast at the start, and no pass
        # goes through `assign`
        data = blobs(100, [[0, 0], [6, 0], [0, 6], [6, 6]], seed=1)
        seeds = dz_seed(data, 4, z, RngStream(0, "frame"))
        calls = {"_frame": 0, "_nearest_labels": 0, "assign": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(clustering_module,
                                                       name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(clustering_module, name, counted)
        got = refine(data, seeds, z)
        assert calls["_nearest_labels"] > 2
        assert calls["_frame"] == 1 and calls["assign"] == 0
        monkeypatch.undo()
        assert_same_clustering(got, reference_refine(data, seeds, z))


class TestCertifiedStop:
    def test_one_exact_cost_pass_per_refinement(self, monkeypatch):
        # blobs 6 spreads apart: Lloyd makes over a dozen passes, and the
        # bounds from the GEMM scores decide every stop test on their own
        data = blobs(100, [[0, 0], [6, 0], [0, 6], [6, 6]], seed=1)
        seeds = dz_seed(data, 4, 2, RngStream(0, "blobs"))
        calls = {"_nearest_labels": 0, "_clustering": 0}
        for name in calls:
            real = getattr(clustering_module, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(clustering_module, name, counted)
        got = refine(data, seeds, 2)
        assert calls["_nearest_labels"] > 5 and calls["_clustering"] == 1
        monkeypatch.undo()
        assert_same_clustering(got, reference_refine(data, seeds, 2))


class TestRefineStop:
    """REFINE_TOL ends the slow Lloyd tail: the snapped cost the bound reads
    stays, in the median, within half a percent of refining to the fixed
    point or max_iters."""

    @pytest.mark.parametrize("d", [2, 32])
    def test_snapped_cost_near_a_full_refinement(self, monkeypatch, d):
        # without the tolerance d=2 blobs creep on for a median of ~40
        # iterations and d=32 ones reach a fixed point in ~5; stopping
        # early can land in another local optimum, so single seeds lose up
        # to ~3% while the median stays within 0.2%.  REFINE_TOL = 1e-3
        # fails here: its d=2 median is x1.0068
        ratios = []
        for seed in range(20):
            centers = np.random.default_rng(seed).normal(0, 3, (32, d))
            data = blobs(125, centers, seed=seed)
            seeds = dz_seed(data, 16, 2, RngStream(seed, "stop"))
            early = snap_centers(data, refine(data, seeds, 2))
            with monkeypatch.context() as patch:
                patch.setattr(clustering_module, "REFINE_TOL", 0.0)
                full = snap_centers(data, refine(data, seeds, 2))
            ratios.append(early.total_cost / full.total_cost)
        assert np.median(ratios) <= 1.005 and max(ratios) <= 1.05, ratios

    def test_benchmark_shape_stops_before_max_iters(self, monkeypatch):
        # select-large's shape: 8,000 rows of 64 unit blobs in d=32 whose
        # centers are N(0, 0.5^2), k=32; without the tolerance refinement
        # runs all 50 iterations
        data = blobs(125, np.random.default_rng(0).normal(0, 0.5, (64, 32)),
                     seed=0)
        seeds = dz_seed(data, 32, 2, RngStream(0, "stop"))
        passes = []
        real_labels = clustering_module._nearest_labels

        def counting_labels(*args, **kwargs):
            passes.append(1)
            return real_labels(*args, **kwargs)

        monkeypatch.setattr(clustering_module, "_nearest_labels",
                            counting_labels)
        refine(data, seeds, 2)
        early = len(passes)
        monkeypatch.setattr(clustering_module, "REFINE_TOL", 0.0)
        passes.clear()
        refine(data, seeds, 2)
        # one label pass for the seeds plus one per iteration
        assert len(passes) == 51 and early < 40, early


@st.composite
def _blob_rows(draw, most):
    """A unit Gaussian blob (d of 1, 2, 8 or 16, 30 to `most` rows) at an
    offset of 0 or 1e6 to 1e8, in some draws made of 2 to 5 points each
    repeated, with a third of its rows duplicated, one row 10**4 spreads
    out, or part of it moved 1,200 spreads away (two blobs)."""
    d = draw(st.sampled_from([1, 2, 8, 16]))
    m = draw(st.integers(min(30, most), most))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = g.normal(size=(m, d))
    if draw(st.booleans()):
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


@st.composite
def _stress_rows(draw, most):
    """Rows whose distances round the most: far from the origin (|mu| =
    1e8, unit spread), near-duplicates, subnormal and tiny scales, and
    entries near `Dataset`'s coordinate limit, below the limit also with
    one row 2**20 times farther out; 1 to `most` rows, d from 1 to 64 (to
    16 past 64 rows)."""
    kind = draw(st.sampled_from(["offset", "near-duplicates", "tiny",
                                 "limit"]))
    m = draw(st.integers(1, most))
    d = draw(st.integers(1, 64 if most <= 64 else 16))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "offset":
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
    return Dataset(points).rows


def _medoid_points(most=MEDOID_CANDIDATES):
    """Tied distance sums (at most 60 rows), blobs, or rows that round the
    most, of up to `most` rows."""
    return st.one_of(_tied_points(), _blob_rows(most), _stress_rows(most))


@st.composite
def _partitions(draw, most=MEDOID_CANDIDATES):
    """Medoid points of up to `most` rows cut into consecutive clusters:
    singletons, very unequal sizes, and clusters whose sums tie."""
    points = draw(_medoid_points(most))
    cuts = draw(st.lists(st.integers(1, max(1, points.shape[0] - 1)),
                         max_size=6, unique=True))
    cuts = sorted(c for c in cuts if c < points.shape[0])
    return points, np.array([0, *cuts, points.shape[0]])


def full_argmin(points: np.ndarray, bounds: np.ndarray) -> list:
    """Row of each cluster's least full-matrix ``cdist`` row sum, ties to
    the lowest row."""
    return [lo + int(np.argmin(np.sum(cdist(points[lo:hi], points[lo:hi]),
                                      axis=1)))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def medoids(points: np.ndarray, bounds) -> np.ndarray:
    """Row of `points` that is the sampled medoid of each cluster i, whose
    members are points[bounds[i]:bounds[i + 1]]."""
    return np.array([lo + clustering_module._medoid(points[lo:hi])
                     for lo, hi in zip(bounds[:-1], bounds[1:])])


def one_medoid(points) -> int:
    """The medoid of `points` as one cluster, by the all-cluster helper."""
    return int(medoids(points, [0, points.shape[0]])[0])


def brute_medoid(points: np.ndarray) -> int:
    """The sampled medoid from the whole distance matrix: the candidates are
    the first MEDOID_CANDIDATES rows of a stable sort by distance to the
    coordinate-wise median, each sums its distances to every
    ceil(m / MEDOID_REFERENCE)-th row, and the least sum wins, ties to the
    lowest row; both counts as the clustering module has them now."""
    m = points.shape[0]
    count = clustering_module.MEDOID_CANDIDATES
    near = cdist(np.median(points, axis=0)[None], points)[0]
    cand = np.sort(np.argsort(near, kind="stable")[:count])
    cols = np.arange(0, m, math.ceil(m / clustering_module.MEDOID_REFERENCE))
    block = cdist(points, points)[np.ix_(cand, cols)]
    return int(cand[np.argmin(np.sum(block, axis=1))])


class TestMedoid:
    # one row, and clusters between the candidates' and the reference's
    # sizes and around the reference's first stride of 2
    @pytest.mark.parametrize("m", [1, 255, 256, 257, 511, 512, 513])
    def test_blocked_equals_the_full_matrix(self, m):
        # the candidates' sums over the reference, a block of the full
        # matrix, pick the medoid
        g = np.random.default_rng(m)
        for points in (g.normal(size=(m, 3)),
                       # integer points: many exactly tied distance sums
                       g.integers(-2, 3, size=(m, 2)).astype(float)):
            assert one_medoid(points) == brute_medoid(points)
            if m <= MEDOID_CANDIDATES:
                assert one_medoid(points) == full_argmin(points, [0, m])[0]

    @pytest.mark.parametrize("m", [MEDOID_CANDIDATES + 1, 200])
    def test_candidates_are_the_rows_nearest_the_median(self, monkeypatch,
                                                        m):
        # the vertices of a cube, shuffled and repeated: at m=200 every row
        # is sqrt(3)/2 from the median, so ties at the cut go to rows 0-63
        cube = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        points = cube[np.random.default_rng(m).permutation(np.arange(m) % 8)]
        near = cdist(np.median(points, axis=0)[None], points)[0]
        want = np.sort(np.argsort(near, kind="stable")[:MEDOID_CANDIDATES])
        firsts = []  # the first operand of every ``cdist`` call
        real_cdist = clustering_module.cdist

        def spy(XA, XB, *args, **kwargs):
            firsts.append(np.array(XA))
            return real_cdist(XA, XB, *args, **kwargs)

        monkeypatch.setattr(clustering_module, "cdist", spy)
        one_medoid(points)
        np.testing.assert_array_equal(firsts[-1], points[want])

    def test_memory_is_linear_in_the_cluster_size(self):
        m = 6000  # the m x m matrix would take 288 MB
        points = np.random.default_rng(0).normal(size=(m, 2))
        tracemalloc.start()
        try:
            one_medoid(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * MEDOID_CANDIDATES * m

    # the module's counts, and 4 candidates against at most 16 reference
    # rows, where the candidates' cut and the stride decide most clusters
    @pytest.mark.parametrize("candidates, reference", [(64, 512), (4, 16)])
    @settings(max_examples=60, deadline=None)
    @given(case=_partitions(1100))
    def test_a_member_of_least_reference_sum_among_the_candidates(
            self, candidates, reference, case):
        # clusters of up to 1,100 rows, so the reference can be strided; each
        # medoid lies in its own cluster and is the brute-force rule's
        points, bounds = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering_module, "MEDOID_CANDIDATES", candidates)
            mp.setattr(clustering_module, "MEDOID_REFERENCE", reference)
            got = medoids(points, bounds)
            want = [brute_medoid(points[lo:hi])
                    for lo, hi in zip(bounds[:-1], bounds[1:])]
        for r, w, lo, hi in zip(got, want, bounds[:-1], bounds[1:]):
            assert lo <= r < hi and r - lo == w


class TestExactMedoid:
    # the ids count the seeds; every cluster has at most 64 rows
    @pytest.mark.parametrize("seeds", [1, 2, 3, 5])
    @settings(max_examples=100, deadline=None)
    @given(points=_medoid_points())
    def test_equals_the_full_matrix_argmin(self, seeds, points):
        calls = []  # (rows, medoid) of every cluster of the medoid pass
        real_medoid = clustering_module._medoid

        def spy(rows):
            medoid = real_medoid(rows)
            calls.append((rows.copy(), medoid))
            return medoid

        first = np.arange(min(seeds, len(points)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering_module, "_medoid", spy)
            refine(Dataset(points), CenterList(points[first], first), 1,
                   max_iters=1)
        assert calls
        for rows, medoid in calls:
            assert medoid == full_argmin(rows, [0, len(rows)])[0]


class TestAllClusterMedoids:
    # the ids count copies of one partition in a single call; every
    # cluster has at most 64 rows
    @pytest.mark.parametrize("copies", [1, 2, 3, 5])
    @settings(max_examples=100, deadline=None)
    @given(case=_partitions())
    def test_equal_the_per_cluster_full_matrix_argmin(self, copies, case):
        points, bounds = case
        m, want = len(points), full_argmin(points, bounds)
        starts = np.arange(copies) * m
        got = medoids(
            np.vstack([points] * copies),
            np.append((starts[:, None] + bounds[:-1]).ravel(), copies * m))
        assert got.tolist() == [c + w for c in starts for w in want]


class TestThreadedMedoid:
    # medoid passes run on the calling thread, one cluster after another;
    # the ids count copies of one cluster in a single `medoids` call
    @pytest.mark.parametrize("copies", [1, 2, 3, 5])
    def test_sums_equal_the_full_matrix(self, copies):
        # a cluster of more than MEDOID_CANDIDATES and at most
        # MEDOID_REFERENCE rows is its own reference, so every candidate's
        # sum is its row sum of the full matrix, bit for bit
        g = np.random.default_rng(copies)
        m = MEDOID_REFERENCE // 2 + 7
        blocks = []  # (first operand, second operand, result) of ``cdist``
        real_cdist = clustering_module.cdist

        def spy(XA, XB, *args, **kwargs):
            out = real_cdist(XA, XB, *args, **kwargs)
            blocks.append((np.array(XA), np.array(XB), out))
            return out

        for points in (g.normal(size=(m, 3)),
                       # integer points: many exactly tied sums
                       g.integers(-2, 3, size=(m, 2)).astype(float)):
            full = np.sum(cdist(points, points), axis=1)
            near = cdist(np.median(points, axis=0)[None], points)[0]
            cand = np.sort(np.argsort(near,
                                      kind="stable")[:MEDOID_CANDIDATES])
            blocks.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(clustering_module, "cdist", spy)
                medoid = one_medoid(points)
                got = medoids(
                    np.vstack([points] * copies), np.arange(copies + 1) * m)
            rows, reference, block = blocks[1]
            np.testing.assert_array_equal(rows, points[cand])
            np.testing.assert_array_equal(reference, points)
            assert np.sum(block, axis=1).tobytes() == full[cand].tobytes()
            assert medoid == int(cand[np.argmin(full[cand])])
            assert got.tolist() == [c * m + medoid for c in range(copies)]

    def test_each_row_summed_at_most_once(self, monkeypatch):
        # no row of a 2,000-row cluster is a first ``cdist`` operand twice,
        # and only its MEDOID_CANDIDATES candidates are one at all
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
        assert seen.max() == 1 and seen.sum() == MEDOID_CANDIDATES
        assert medoid == brute_medoid(points)

    def test_memory_stays_bounded_on_four_workers(self):
        # one 6000-row cluster; the m x m matrix would take 288 MB
        data = Dataset(np.random.default_rng(0).normal(size=(6000, 2)))
        tracemalloc.start()
        try:
            refine(data, CenterList(data.rows[:1], [0]), 1, max_iters=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 6000 * 6000 / 4


@st.composite
def _filter_stress(draw):
    """Rows that round the most (`_stress_rows`) of at most
    MEDOID_CANDIDATES rows, cut into 1 to 3 clusters."""
    points = draw(_stress_rows(MEDOID_CANDIDATES))
    m = points.shape[0]
    cuts = draw(st.lists(st.integers(1, max(1, m - 1)), max_size=2,
                         unique=True))
    return points, np.array([0, *sorted(c for c in cuts if c < m), m])


@st.composite
def _far_groups(draw):
    """Clusters of far-apart groups: 2 or 3 unit blobs of unequal sizes,
    each 10**2 to 10**6 spreads from the one before, or one blob and a
    single far row; at most 63 rows, shuffled and some duplicated, d from 1
    to 16, cut into 1 or 2 clusters.  In some draws each blob is the
    vertices of a unit cube, moved a whole number along one axis, so that
    distance sums tie by symmetry, or one point repeated, a group with no
    spread of its own."""
    d = draw(st.integers(1, 16))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 21), min_size=2, max_size=3))
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
    def check(points, bounds, copies):
        # no cluster has more than MEDOID_CANDIDATES rows, so the candidate
        # filter keeps every row and the margin of its cut plays no part
        m, want = len(points), full_argmin(points, bounds)
        starts = np.arange(copies) * m
        got = medoids(
            np.vstack([points] * copies),
            np.append((starts[:, None] + bounds[:-1]).ravel(), copies * m))
        assert got.tolist() == [c + w for c in starts for w in want]

    # the ids count copies of the partition in one call
    @pytest.mark.parametrize("copies", [1, 2], ids=["1", "2"])
    @settings(max_examples=150, deadline=None)
    @given(case=_filter_stress())
    def test_equals_the_full_matrix_argmin(self, copies, case):
        self.check(*case, copies)

    @pytest.mark.parametrize("copies", [1, 2], ids=["1", "2"])
    @settings(max_examples=80, deadline=None)
    @given(case=_far_groups())
    def test_far_groups_equal_the_full_matrix_argmin(self, copies, case):
        # clusters of far-apart groups, where a distance sum is dominated by
        # the gaps between groups
        self.check(*case, copies)


class TestMedoidBound:
    def test_compact_cluster_filters_under_a_third_of_its_rows(
            self, monkeypatch):
        # one 2000-row d=8 unit blob: m distances to its median, then only
        # the MEDOID_CANDIDATES rows nearest it, each summed against the
        # 500 strided reference rows; a quarter of the rows summed against
        # all m would be m * (m / 4 + 64) distances
        m = 2000
        points = np.random.default_rng(0).normal(size=(m, 8))
        computed, summed = [], []
        real_cdist = clustering_module.cdist

        def spy(XA, XB, *args, **kwargs):
            out = real_cdist(XA, XB, *args, **kwargs)
            computed.append(out.size)
            if out.shape[0] > 1:
                summed.append(out.shape[0])
            return out

        monkeypatch.setattr(clustering_module, "cdist", spy)
        medoid = one_medoid(points)
        monkeypatch.undo()
        assert medoid == brute_medoid(points)
        assert 0 < sum(summed) < m / 3
        assert 0 < sum(computed) < m * (m / 4 + 64)


def exact_lloyd_cost(D: np.ndarray, seeds: np.ndarray) -> float:
    """Phi_1 of a plain Lloyd loop from the seed rows with exact medoids,
    each its cluster's least row sum of the full distance matrix D, until
    the cost stops falling by REFINE_TOL."""
    idx, cost, rows = seeds.copy(), np.inf, np.arange(D.shape[0])
    for _ in range(50):
        dist = D[:, idx]
        labels = np.argmin(dist, axis=1)
        new = float(np.sum(dist[rows, labels]))
        if not new < cost * (1 - REFINE_TOL):
            return min(cost, new)
        cost = new
        for i in range(len(idx)):
            members = np.flatnonzero(labels == i)
            if members.size:
                sums = np.sum(D[np.ix_(members, members)], axis=1)
                idx[i] = members[np.argmin(sums)]
    return cost


class TestSampledMedoidQuality:
    # 2,000 rows of 10 unit blobs: regression-csv's shape (centres 300
    # apart in d=8, k=10) and overlapping blobs (centres N(0, 9)) at k=3,
    # so each cluster takes the strided reference
    @pytest.mark.parametrize("d, spread, k", [(8, 300.0, 10), (8, 3.0, 3),
                                              (32, 3.0, 3)])
    def test_cost_within_a_percent_of_exact_medoids(self, d, spread, k):
        g = np.random.default_rng([d, k])
        centres = g.normal(0, spread, size=(10, d))
        X = (centres[g.permutation(np.arange(2000) % 10)]
             + g.normal(size=(2000, d)))
        data, D = Dataset(X), cdist(X, X)
        ratios = []
        for seed in range(40):
            seeds = dz_seed(data, k, 1, RngStream(seed, "quality"))
            ratios.append(refine(data, seeds, 1).total_cost
                          / exact_lloyd_cost(D, seeds.indices))
        assert np.median(ratios) <= 1.01


class TestReusedMedoids:
    def test_only_clusters_whose_members_moved(self, monkeypatch):
        # two overlapping blobs whose seeds both sit in the first, and two
        # blobs far from them: after the first medoid pass rows move
        # between clusters 0 and 1 only, so the second pass gathers only
        # their rows, one cluster at a time, and clusters 2 and 3 keep
        # their medoids
        data = blobs(50, [[0, 0], [3, 0], [100, 0], [0, 100]], seed=1)
        rows = [0, 1, 100, 150]
        seeds = CenterList(data.rows[rows], rows)
        first = assign(data, seeds, 1).assignment
        second = reference_refine(data, seeds, 1, max_iters=1).assignment
        moved = np.flatnonzero(first != second)
        changed = np.union1d(first[moved], second[moved])
        passes = []  # the rows of each medoid, after each label pass
        real_labels = clustering_module._nearest_labels
        real_medoid = clustering_module._medoid

        def labels_spy(*args):
            passes.append([])
            return real_labels(*args)

        def medoid_spy(points):
            passes[-1].append(points.copy())
            return real_medoid(points)

        monkeypatch.setattr(clustering_module, "_nearest_labels", labels_spy)
        monkeypatch.setattr(clustering_module, "_medoid", medoid_spy)
        got = refine(data, seeds, 1)
        monkeypatch.undo()
        assert_same_clustering(got, reference_refine(data, seeds, 1))
        assert changed.tolist() == [0, 1]
        assert len(passes[0]) == 4 and len(passes[1]) == len(changed)
        for points, i in zip(passes[1], changed):
            np.testing.assert_array_equal(points, data.rows[second == i])


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
        """A fake BLAS library at 2 threads: its count at every assignment
        and medoid pass."""
        lib = {"count": 2, "seen": []}
        controls = ((lambda: lib["count"],
                     lambda n: lib.__setitem__("count", n)),)
        monkeypatch.setattr(core_module, "_openblas_controls",
                            lambda: controls)
        for name in ("_nearest_labels", "_medoid"):
            def spy(*args, real=getattr(clustering_module, name)):
                lib["seen"].append(lib["count"])
                return real(*args)

            monkeypatch.setattr(clustering_module, name, spy)
        return lib

    def test_z1_leaves_blas_alone(self, blas_log):
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        refine(data, dz_seed(data, 2, 1, RngStream(1, "cap")), 1)
        assert len(blas_log["seen"]) > 2 and set(blas_log["seen"]) == {2}

    def test_count_restored_after_an_error(self, monkeypatch, blas_log):
        def fail(*args):
            raise MemoryError("medoid")

        monkeypatch.setattr(clustering_module, "_medoid", fail)
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        with pytest.raises(MemoryError):
            refine(data, dz_seed(data, 2, 1, RngStream(1, "cap")), 1)
        assert blas_log["count"] == 2

    def test_z2_leaves_blas_alone(self, blas_log):
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        refine(data, dz_seed(data, 2, 2, RngStream(1, "cap")), 2)
        assert blas_log["seen"] and set(blas_log["seen"]) == {2}


class TestCenterDistances:
    def test_one_residual_array(self, monkeypatch):
        # with the labels given, `assign` holds the distances, squared in
        # place, plus one residual row block of at most BLOCK_ENTRIES
        # entries, reused: one n-vector plus one block
        n, d = 20000, 32
        rows = np.random.default_rng(0).normal(size=(n, d))
        centers = CenterList(rows[:8])
        labels = clustering_module._nearest_labels(rows, centers.positions)
        monkeypatch.setattr(clustering_module, "_nearest_labels",
                            lambda X, C: labels)
        tracemalloc.start()
        try:
            clustering = assign(Dataset(rows), centers, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clustering.distances.shape == (n,)
        assert peak < 8 * n + 1.25 * 8 * clustering_module.BLOCK_ENTRIES

    def test_underflowing_residuals_get_their_norm(self):
        # squared, these residuals are below the smallest subnormal
        rows = np.array([[0.0], [0.0], [1e-310], [3e-310], [2.5e-310]])
        clustering = assign(Dataset(rows), CenterList(rows[:1], [0]), 1)
        np.testing.assert_array_equal(clustering.distances,
                                      np.abs(rows[:, 0]))
        # the cost pass's squares stay: an underflowed point costs 0
        assert clustering.total_cost == 0

    def test_underflow_in_several_dimensions(self):
        rows = np.array([[0.0, 0.0], [3e-200, 4e-200], [1.0, 0.0],
                         [-3e-170, 4e-170]])
        clustering = assign(Dataset(rows), CenterList(rows[:1], [0]), 1)
        dist = clustering.distances
        np.testing.assert_allclose(dist, [0, 5e-200, 1, 5e-170],
                                   rtol=1e-15)
        # a distance whose square does not underflow keeps its bits
        assert dist[2] == math.sqrt(np.einsum("i,i", rows[2], rows[2]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3) | st.floats(-1e-160, 1e-160),
                    min_size=6, max_size=40),
           st.integers(1, 3))
    def test_only_underflowed_distances_change(self, values, d):
        rows = np.array(values[:len(values) // d * d]).reshape(-1, d)
        clustering = assign(Dataset(rows), CenterList(rows[:2], [0, 1]), 2)
        R = rows - clustering.centers.positions[clustering.assignment]
        # the square root of the cost pass's sum of squares
        plain = np.sqrt(np.einsum("ij,ij->i", R, R))
        got = clustering.distances
        keep = (plain > 0) | np.all(R == 0, axis=1)
        assert got[keep].tobytes() == plain[keep].tobytes()
        np.testing.assert_allclose(
            got[~keep], [math.hypot(*r) for r in R[~keep]], rtol=1e-15)
        assert np.all(got[~keep] > 0)
