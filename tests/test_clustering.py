import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from senselect import clustering as clustering_module
from senselect import core as core_module
from senselect.core import Dataset, RngStream
from senselect.clustering import (MEDOID_BLOCK, REFINE_TOL, CenterList,
                                  Clustering, assign, cost, dz_seed, kmedoids,
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
        assert cost(Dataset([[0.0], [2.0]]), CenterList([[1.0]]), 2) == 2

    def test_centers_cover_points(self):
        data = Dataset([[0.0], [1.0], [5.0]])
        assert cost(data, CenterList(data.rows), 2) == 0

    def test_pairs_instance(self):
        assert cost(PAIRS, CenterList([[0.0], [10.0]]), 2) == 2

    def test_empty_centers(self):
        with pytest.raises(ValueError):
            cost(PAIRS, CenterList(np.empty((0, 1))), 2)


class TestWeightedCost:
    def test_all_ones_is_plain_cost(self):
        clustering = assign(PAIRS, CenterList([[0.0], [10.0]]), 2)
        assert weighted_cost(clustering, [1, 1]) == pytest.approx(
            cost(PAIRS, clustering.centers, 2))

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
        assert clustering.total_cost == pytest.approx(
            cost(data, centers, 2), rel=1e-9)


class TestDzSeed:
    def test_all_points_identical(self):
        data = Dataset(np.ones((5, 2)))
        centers = dz_seed(data, 1, 2, RngStream(0, "s"))
        np.testing.assert_array_equal(centers.positions[0], [1, 1])
        assert cost(data, centers, 2) == 0

    def test_k_equals_n(self):
        data = Dataset([[0.0], [1.0], [2.0]])
        centers = dz_seed(data, 3, 2, RngStream(1, "s"))
        assert cost(data, centers, 2) == 0

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
        costs = [cost(data, dz_seed(data, 2, 2, RngStream(seed, "dz")), 2)
                 for seed in range(1000)]
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
                ratios[j].append(cost(data, centers.prefix(j), 2) / opt[j])
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
        best = min(cost(PAIRS, CenterList(PAIRS.rows[[i, j]]), 1)
                   for i, j in itertools.combinations(range(4), 2))
        assert best == pytest.approx(2.0)
        for seed in range(10):
            clustering = kmedoids(PAIRS, 2, RngStream(seed, "km"))
            assert clustering.total_cost == pytest.approx(2.0)


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
        assert cost(data, CenterList(C), z) == pytest.approx(
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

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        _grid_instance().map(lambda case: case[:2]),
        _gaussian_instance(st.integers(-20, 20).map(lambda e: 2.0 ** e))))
    def test_prescaled_gemm_gives_the_labels_of_the_scaled_product(self, case):
        data, C = case
        # each center's mirror image through row 0 ties with it there
        C = np.vstack([C, 2 * data.rows[0] - C])
        D = data.rows @ C.T
        D *= -2.0
        D += np.einsum("ij,ij->i", C, C)
        np.testing.assert_array_equal(
            clustering_module._nearest(data.rows, C), np.argmin(D, axis=1))

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


class TestMedoid:
    @pytest.mark.parametrize("m", [1, MEDOID_BLOCK - 1, MEDOID_BLOCK,
                                   MEDOID_BLOCK + 1])
    def test_blocked_equals_the_full_matrix(self, m):
        g = np.random.default_rng(m)
        for points in (g.normal(size=(m, 3)),
                       # integer points: many exactly tied distance sums
                       g.integers(-2, 3, size=(m, 2)).astype(float)):
            full = int(np.argmin(np.sum(cdist(points, points), axis=1)))
            assert clustering_module._medoid(points) == full

    def test_memory_is_linear_in_the_cluster_size(self):
        m = 6000  # the m x m matrix would take 288 MB
        points = np.random.default_rng(0).normal(size=(m, 2))
        tracemalloc.start()
        try:
            clustering_module._medoid(points)
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
        mind = None
        for i in range(current.k):
            members = np.flatnonzero(current.assignment == i)
            if members.size == 0:
                if mind is None:
                    mind = clustering_module._point_cost(
                        X, current.centers.positions, current.assignment, z)
                far = int(np.argmax(mind))
                positions[i] = X[far]
                mind = np.minimum(mind, powered_distances(X, X[far], z)[:, 0])
                if indices is not None:
                    indices[i] = far
            elif z == 2:
                positions[i] = X[members].mean(axis=0)
            else:
                P = X[members]
                m = members[int(np.argmin(np.sum(cdist(P, P), axis=1)))]
                positions[i] = X[m]
                indices[i] = m
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
        assert max(rows for _, rows in calls) <= MEDOID_BLOCK // workers
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


class TestThreadedMedoid:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_sums_equal_the_full_matrix(self, workers):
        # the threads write disjoint slices of one array; a short switch
        # interval makes a lost or misplaced block likelier to show
        g = np.random.default_rng(workers)
        m = 2 * MEDOID_BLOCK + 7
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for points in (g.normal(size=(m, 3)),
                           g.integers(-2, 3, size=(m, 2)).astype(float)):
                full = np.sum(cdist(points, points), axis=1)
                with ThreadPoolExecutor(workers) as pool:
                    sums = clustering_module._distance_sums(points, pool,
                                                            workers)
                    medoid = clustering_module._medoid(points, pool, workers)
                np.testing.assert_array_equal(sums, full)
                assert medoid == int(np.argmin(full))
        finally:
            sys.setswitchinterval(interval)

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
def _medoid_points(draw):
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
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @settings(max_examples=150, deadline=None)
    @given(points=_medoid_points())
    def test_equals_the_full_matrix_argmin(self, workers, points):
        # tiles of 30 // workers rows, so the filter's sums are rounded in
        # another order than the full matrix's row sums
        real_medoid = clustering_module._medoid
        found = []

        def spy(*args):
            found.append(real_medoid(*args))
            return found[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering_module, "MEDOID_BLOCK", 30)
            mp.setattr(clustering_module, "_cpu_count", lambda: workers)
            mp.setattr(clustering_module, "_medoid", spy)
            # one center: its cluster is every row, in row order
            refine(Dataset(points), CenterList(points[:1], [0]), 1,
                   max_iters=1)
        full = np.sum(cdist(points, points), axis=1)
        assert found == [int(np.argmin(full))]


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
        real_medoid = clustering_module._medoid

        def spy(*args):
            lib["seen"].append(lib["count"])
            return real_medoid(*args)

        monkeypatch.setattr(clustering_module, "_medoid", spy)
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

        monkeypatch.setattr(clustering_module, "_medoid", fail)
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        with pytest.raises(MemoryError):
            refine(data, dz_seed(data, 2, 1, RngStream(1, "cap")), 1)
        assert blas_log["count"] == 2

    def test_z2_leaves_blas_alone(self, monkeypatch, blas_log):
        monkeypatch.setattr(clustering_module, "_cpu_count", lambda: 4)
        real_nearest = clustering_module._nearest
        seen = []

        def spy(X, C):
            seen.append(blas_log["count"])
            return real_nearest(X, C)

        monkeypatch.setattr(clustering_module, "_nearest", spy)
        data = blobs(60, [[0, 0], [5, 0]], seed=3)
        refine(data, dz_seed(data, 2, 2, RngStream(1, "cap")), 2)
        assert set(seen) == {2}


class TestCenterDistances:
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
