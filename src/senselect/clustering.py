"""(k,z)-clustering machinery: D^z seeding, Lloyd/medoid refinement, snapping,
assignment, and the cost functionals used by the samplers.

All tie-breaking is to the lowest index so results are reproducible.

Numerics of assignment.  Labels come from one GEMM pass per call: the
argmin over centers of ||c||^2 - 2 x.c, which drops the ||x||^2 term every
center shares.  Each point's cost is then computed exactly from the residual
to its assigned center, ||x - c||^z, so a point that coincides with its
center costs exactly 0.  The GEMM scores carry rounding error of order
eps * (||x||^2 + ||c||^2), so two centers whose distances to a point differ
by less than that may be resolved differently than an exact all-pairs
``cdist`` would; equal scores go to the lowest cluster id.  Seeding,
snapping and medoids keep ``cdist``.

The z=2 update copies no rows: `_cluster_sums` adds each cluster's members
with one sparse indicator product, in the order numpy's ``mean(axis=0)``
adds them, so each center is its members' mean bit for bit.

Refinement stops at the Lloyd fixed point: once an update leaves the
assignment unchanged and reseeds no cluster, the next pass would rebuild the
same centers from the same rows, so it is skipped.

The z=1 medoid is exact and takes two steps.  The filter computes each
distance once: square tiles cover the upper triangle of the cluster's
distance matrix, and each tile adds its row sums to its row block and, off
the diagonal, its column sums to its column block.  Those sums are rounded
in another order than the row-by-row sums, so the re-check recomputes, row
by row, the sums of every point within a rigorous rounding margin of the
filtered minimum and returns the lowest index among the least of them: the
medoid is the argmin of the full matrix's row sums, bit for bit.  Both steps
run on one thread per CPU this process may use (``cdist`` releases the GIL),
and the tile side and re-check blocks shrink with the thread count so the
distances in flight stay at MEDOID_BLOCK rows.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

from .core import Dataset, _cpu_count, as_generator, blas_threads

#: relative cost improvement below which refinement stops
REFINE_TOL = 1e-9

#: rows of the medoid distance sums in flight at once, over all threads;
#: bounds their memory to MEDOID_BLOCK x (cluster size) distances, and to
#: MEDOID_BLOCK x MEDOID_BLOCK // threads in the medoid's filter step
MEDOID_BLOCK = 512


@dataclass(frozen=True)
class CenterList:
    """Ordered list of centers; the order is the selection order, so any
    prefix is itself a candidate center set.  ``indices`` holds the dataset
    row of each center when centers are actual data points (seeded or
    snapped), else None."""

    positions: np.ndarray
    indices: np.ndarray | None = None

    def __post_init__(self):
        positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        object.__setattr__(self, "positions", positions)
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=np.intp).reshape(-1)
            if idx.size != positions.shape[0]:
                raise ValueError("indices length must match number of centers")
            object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def prefix(self, j: int) -> "CenterList":
        idx = None if self.indices is None else self.indices[:j]
        return CenterList(self.positions[:j], idx)


@dataclass(frozen=True)
class Clustering:
    """k centers plus the induced nearest-center partition and per-cluster
    costs; cluster_cost[i] is the power-z cost of cluster i about its own
    center."""

    centers: CenterList
    assignment: np.ndarray
    cluster_cost: np.ndarray
    z: float

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.cluster_cost))


def powered_distances(X: np.ndarray, C: np.ndarray, z: float) -> np.ndarray:
    """All-pairs ||x - c||^z, shape (len(X), len(C))."""
    return cdist(X, np.atleast_2d(C)) ** z


def _nearest(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Row-wise argmin over centers of ||c||^2 - 2 x.c (one GEMM, shifted in
    place); equal scores go to the lowest center.  The -2 scales the k x d
    operand, not the n x k product: a power of two commutes with every
    rounding of the dot products (barring overflow and subnormal products),
    so the scores are those of scaling the product, bit for bit."""
    D = X @ (-2.0 * C).T
    D += np.einsum("ij,ij->i", C, C)
    return np.argmin(D, axis=1)


def center_distances(rows: np.ndarray, clustering: Clustering) -> np.ndarray:
    """||x - c|| of every row to its own center, by ``np.linalg.norm``;
    rounds differently from `_point_cost`, which feeds the cluster costs.
    A row whose squared residual underflows to 0 although the residual is
    nonzero gets its norm again from the residual scaled by its largest
    entry; every other distance keeps the plain norm's bits."""
    # the gathered centers are a temporary, freed before the norm runs
    R = rows - clustering.centers.positions[clustering.assignment]
    dist = np.linalg.norm(R, axis=1)
    zero = np.flatnonzero(dist == 0)
    tiny = zero[np.any(R[zero] != 0, axis=1)]
    if tiny.size:
        scale = np.max(np.abs(R[tiny]), axis=1)
        dist[tiny] = scale * np.linalg.norm(R[tiny] / scale[:, None], axis=1)
    return dist


def _point_cost(X: np.ndarray, C: np.ndarray, labels: np.ndarray,
                z: float) -> np.ndarray:
    """||x - c||^z of every point to its labelled center, from the residual."""
    R = C[labels]
    np.subtract(X, R, out=R)
    sq = np.einsum("ij,ij->i", R, R)
    return sq if z == 2 else np.sqrt(sq) ** z


def assign(data: Dataset, centers: CenterList, z: float) -> Clustering:
    """Assign every point to its nearest center (ties to the lowest cluster
    id) and compute per-cluster costs."""
    labels = _nearest(data.rows, centers.positions)
    point_cost = _point_cost(data.rows, centers.positions, labels, z)
    cluster_cost = np.bincount(labels, weights=point_cost, minlength=len(centers))
    return Clustering(centers, labels, cluster_cost, float(z))


def cost(data: Dataset, centers: CenterList, z: float) -> float:
    """Total (k,z)-clustering cost of the given centers on the dataset."""
    if len(centers) == 0:
        raise ValueError("empty center list")
    return assign(data, centers, z).total_cost


def weighted_cost(clustering: Clustering, lam) -> float:
    """Per-cluster weighted cost lam . Phi; inf when it overflows."""
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    if lam.size != clustering.k:
        raise ValueError(f"lambda length {lam.size} != k {clustering.k}")
    if np.any(lam < 0):
        raise ValueError("lambda entries must be >= 0")
    with np.errstate(over="ignore"):
        return float(np.dot(lam, clustering.cluster_cost))


def dz_seed(data: Dataset, k: int, z: float, rng) -> CenterList:
    """D^z seeding: first center uniform, each next chosen with probability
    proportional to the current min-distance^z.  The output order is the
    selection order, which makes any prefix a usable center set."""
    if not 1 <= k <= data.n:
        raise ValueError(f"k={k} out of range for n={data.n}")
    g = as_generator(rng)
    X = data.rows
    chosen = [int(g.integers(data.n))]
    mind = powered_distances(X, X[chosen[-1]], z)[:, 0]
    for _ in range(k - 1):
        total = float(np.sum(mind))
        if total > 0:
            nxt = int(g.choice(data.n, p=mind / total))
        else:
            # every point already coincides with a center: any row not yet
            # chosen (k <= n leaves one)
            free = np.setdiff1d(np.arange(data.n), chosen)
            nxt = int(free[g.integers(free.size)])
        chosen.append(nxt)
        mind = np.minimum(mind, powered_distances(X, X[nxt], z)[:, 0])
    return CenterList(X[chosen], np.asarray(chosen, dtype=np.intp))


def _distance_sums(points: np.ndarray, pool: ThreadPoolExecutor | None = None,
                   workers: int = 1, rows: np.ndarray | None = None
                   ) -> np.ndarray:
    """Row sums of the all-pairs Euclidean distance matrix of `points`, for
    the rows indexed by `rows` (default: all).

    The rows are taken in blocks of MEDOID_BLOCK // workers, spread over
    `pool`, so at most MEDOID_BLOCK x len(points) distances exist at once;
    sums that fit in one block are computed inline.  Each row sum is the one
    the full matrix would give, bit for bit."""
    rows = np.arange(points.shape[0]) if rows is None else rows
    block = max(1, MEDOID_BLOCK // workers)
    sums = np.empty(rows.size)

    def sum_rows(start: int):
        stop = min(start + block, rows.size)
        sums[start:stop] = np.sum(cdist(points[rows[start:stop]], points),
                                  axis=1)

    starts = range(0, rows.size, block)
    if pool is None or len(starts) == 1:
        for start in starts:
            sum_rows(start)
    else:
        list(pool.map(sum_rows, starts))  # re-raises a block's exception
    return sums


def _triangle_sums(points: np.ndarray, pool: ThreadPoolExecutor | None = None,
                   workers: int = 1) -> np.ndarray:
    """Row sums of the all-pairs Euclidean distance matrix of `points`,
    computing each distance once.

    Square tiles of side MEDOID_BLOCK // workers cover the upper triangle;
    a diagonal tile adds its row sums to its block, an off-diagonal tile
    (I, J) its row sums to block I and its column sums to block J.  Tiles
    are dealt round-robin to one task per worker, each adding into its own
    vector, and the vectors are added in task order, so the result does not
    depend on thread timing.  The sums round differently from
    `_distance_sums`."""
    m = points.shape[0]
    side = max(1, MEDOID_BLOCK // workers)
    starts = range(0, m, side)
    tiles = [(a, b) for i, a in enumerate(starts) for b in starts[i:]]

    def sum_tiles(share) -> np.ndarray:
        partial = np.zeros(m)
        for a, b in share:
            D = cdist(points[a:a + side], points[b:b + side])
            partial[a:a + side] += np.sum(D, axis=1)
            if a != b:
                partial[b:b + side] += np.sum(D, axis=0)
        return partial

    tasks = 1 if pool is None else min(workers, len(tiles))
    if tasks == 1:
        return sum_tiles(tiles)
    shares = [tiles[t::tasks] for t in range(tasks)]
    return np.sum(list(pool.map(sum_tiles, shares)), axis=0)


def _medoid(points: np.ndarray, pool: ThreadPoolExecutor | None = None,
            workers: int = 1) -> int:
    """Index (within `points`) of the point minimizing the sum of Euclidean
    distances to the others; ties to the lowest index.

    Filter: `_triangle_sums` computes every sum from each distance once.
    Re-check: every row whose filtered sum is within a rounding margin of
    the least one is summed again with `_distance_sums`, and the lowest
    index among the least exact sums wins, so the result is
    ``argmin(_distance_sums(points))`` bit for bit, exact ties included.

    The margin is rigorous.  With u = eps / 2, a sum of m non-negative
    terms computed in any order is within (m - 1) u of their true sum,
    relatively, and a computed distance within (d/2 + 2) u of the true
    distance.  So a row's filtered and exact sums are each within
    (m + d/2 + 1) u of its true sum, and the medoid's filtered sum exceeds
    the filtered minimum by at most about (2m + d + 2) u times it; the
    margin, 8 (m + d + 8) eps times it, is 8 times that.  Memory stays
    linear in the cluster size."""
    m, d = points.shape
    filtered = _triangle_sums(points, pool, workers)
    low = np.min(filtered)
    margin = 8 * (m + d + 8) * np.finfo(np.float64).eps * low
    candidates = np.flatnonzero(filtered <= low + margin)
    exact = _distance_sums(points, pool, workers, rows=candidates)
    return int(candidates[np.argmin(exact)])


def _cluster_sums(X: np.ndarray, order: np.ndarray,
                  bounds: np.ndarray) -> np.ndarray:
    """Row i: the sum of cluster i's rows X[order[bounds[i]:bounds[i + 1]]]
    (members in ascending row order), bit for bit the sum that
    ``X[members].mean(axis=0)`` divides by the member count.

    numpy sums the rows of a matrix one after another from +0.0, and so
    does a CSR x dense product over each row's stored entries, here the
    members with weight 1.0; every product is exact and no row is copied.
    numpy sums a single column pairwise, so for d = 1 the column is
    gathered and each cluster's slice summed as the mean sums it."""
    n, d = X.shape
    if d == 1:
        grouped = X[order]
        return np.array([grouped[lo:hi].sum(axis=0)
                         for lo, hi in zip(bounds[:-1], bounds[1:])])
    indicator = csr_matrix((np.ones(n), order, bounds),
                           shape=(bounds.size - 1, n))
    return indicator @ X


def refine(data: Dataset, centers: CenterList, z: float,
           max_iters: int = 50) -> Clustering:
    """Lloyd-style alternation: assignment, then center update (cluster mean
    for z=2, in-cluster medoid for z=1).  Stops when the relative cost
    improvement drops below REFINE_TOL, or at the fixed point: when an
    update reseeded no cluster and left the assignment it was built from
    unchanged, the next update would rebuild the same centers bit for bit.
    The cost never increases.

    A cluster left empty by an update is reseeded at the row farthest (in
    distance^z) from the current centers that is not a center already,
    keeping k fixed.

    Each iteration makes one ``assign`` call, hence one n x k distance pass.
    For z=1 one thread pool, with a thread per CPU this process may use,
    serves every medoid of the call; while it exists BLAS runs on one
    thread, so no idle BLAS worker spins on a CPU the pool needs.
    """
    if len(centers) == 0:
        raise ValueError("empty center list")
    if z not in (1, 2):
        raise ValueError(f"refinement supports z in {{1, 2}}, got {z}")
    workers = _cpu_count() if z == 1 else 1
    with ExitStack() as stack:
        pool = None
        if workers > 1:
            stack.enter_context(blas_threads(1))
            pool = stack.enter_context(ThreadPoolExecutor(workers))
        X = data.rows
        current = assign(data, centers, z)
        prev_cost = current.total_cost
        for _ in range(max_iters):
            counts = np.bincount(current.assignment, minlength=current.k)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            # cluster i's members, in ascending row order, are
            # order[bounds[i]:bounds[i + 1]]; a stable sort gives the same
            # permutation for any key dtype, and numpy radix-sorts 8- and
            # 16-bit keys
            order = np.argsort(
                current.assignment.astype(np.min_scalar_type(current.k)),
                kind="stable")
            positions = current.centers.positions.copy()
            filled = np.flatnonzero(counts)
            if z == 2:
                indices = None
                positions[filled] = (_cluster_sums(X, order, bounds)[filled]
                                     / counts[filled, None])
            else:
                indices = np.empty(current.k, dtype=np.intp)
                # the medoids read their members' rows from one gathered copy
                grouped = X[order]
                for i in filled:
                    lo, hi = bounds[i], bounds[i + 1]
                    m = order[lo + _medoid(grouped[lo:hi], pool, workers)]
                    positions[i] = X[m]
                    indices[i] = m
            mind = None  # per-point distance^z to the current centers
            for i in np.flatnonzero(counts == 0):
                if mind is None:
                    mind = _point_cost(X, current.centers.positions,
                                       current.assignment, z)
                    if indices is not None:  # -1 marks a row that is a center
                        mind[indices[filled]] = -1
                far = int(np.argmax(mind))
                positions[i] = X[far]
                mind = np.minimum(mind, powered_distances(X, X[far], z)[:, 0])
                mind[far] = -1
                if indices is not None:
                    indices[i] = far
            updated = assign(data, CenterList(positions, indices), z)
            if updated.total_cost > prev_cost:
                break  # numerical safeguard; keep the previous clustering
            built_from, current = current.assignment, updated
            if mind is None and np.array_equal(updated.assignment, built_from):
                break  # fixed point
            if (prev_cost - updated.total_cost
                    < REFINE_TOL * max(prev_cost, 1e-300)):
                break
            prev_cost = updated.total_cost
        return current


def snap_centers(data: Dataset, clustering: Clustering) -> Clustering:
    """Replace each center with the nearest dataset row (ties to the lowest
    row index) and recompute assignment and costs.

    Centers are processed in order and each takes the nearest row not
    already claimed, so the snapped centers are k distinct rows and a
    selection run queries exactly k distinct losses.  Only a center whose
    nearest row is already claimed searches again among the unclaimed rows:
    masking claimed rows only raises distances, so an unclaimed nearest row
    stays the lowest-index nearest.
    """
    D = cdist(data.rows, clustering.centers.positions)
    idx = np.empty(clustering.k, dtype=np.intp)
    taken = np.zeros(data.n, dtype=bool)
    for i in range(clustering.k):
        # column by column: an argmin over axis 0 would copy all of D
        idx[i] = np.argmin(D[:, i])
        if taken[idx[i]]:
            idx[i] = np.argmin(np.where(taken, np.inf, D[:, i]))
        taken[idx[i]] = True
    snapped = CenterList(data.rows[idx], idx)
    return assign(data, snapped, clustering.z)


def kmedoids(data: Dataset, k: int, rng) -> Clustering:
    """z=1 clustering whose centers are dataset rows: D^1 seeding followed by
    alternating assignment and exact per-cluster medoid updates."""
    seeds = dz_seed(data, k, 1, rng)
    return refine(data, seeds, 1)
