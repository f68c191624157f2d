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
``cdist`` would; equal scores go to the lowest cluster id.  Such near-ties
can also fall differently on another BLAS thread count, which can change
a GEMM's last bits.  Seeding keeps ``cdist``; snapping measures again with
``cdist`` every row a GEMM filter cannot rule out (`snap_centers`).

The z=2 update copies no rows: `_cluster_sums` adds each cluster's members
with one sparse indicator product, in the order numpy's ``mean(axis=0)``
adds them, so each center is its members' mean bit for bit.

Refinement stops at the Lloyd fixed point: once an update leaves the
assignment unchanged and reseeds no cluster, the next pass would rebuild the
same centers from the same rows, so it is skipped.  Its cost tests read
rigorous bounds from the GEMM scores, and exact costs only when the bounds
cannot decide them (`refine`), so every result is that of exact costs.

The z=1 medoids are exact (`_medoids`): a filter sums each cluster's
distances once, over upper-triangle float32 GEMM tiles, and a re-check
sums with ``cdist`` row by row every point within a rigorous rounding
margin of its cluster's least filtered sum, so each medoid is its full
matrix's row-sum argmin, bit for bit, whatever bits the GEMM gives.  A
cluster that is several far-apart groups of rows (`_groups`; two blobs,
or a blob and a far row) is filtered group by group: tiles inside a group
are centred on its own mean, and tiles between two groups take a bound
that shrinks with the distance between them, so the margin stays a few
rows wide.  Each step is one batch for all clusters, on a pool with a
thread per CPU this process may use (BLAS and ``cdist`` release the GIL);
tiles and re-check blocks shrink with the thread count, keeping
MEDOID_BLOCK rows in flight.  A z=1 refinement recomputes only the
medoids of clusters whose members changed since the last medoid pass.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from scipy.linalg import block_diag
from scipy.sparse import csr_matrix
from scipy.spatial.distance import cdist

from .core import Dataset, _cpu_count, as_generator, blas_threads

#: relative cost improvement below which refinement stops
REFINE_TOL = 1e-9

#: rows of the medoid distance sums in flight at once, over all threads;
#: bounds their memory to MEDOID_BLOCK x (cluster size) distances, and to
#: MEDOID_BLOCK x MEDOID_BLOCK // threads in the medoid's filter step
MEDOID_BLOCK = 512

#: most far-apart groups the medoid's filter cuts one cluster into
MEDOID_GROUPS = 8


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
    """All-pairs ||x - c||^z, shape (len(X), len(C)).  ``cdist`` takes the
    centers as its first operand, which for one center is several times
    faster than the other way round; each distance sums the same squares
    in the same column order, so the bits are those of ``cdist(X, C)``."""
    return cdist(np.atleast_2d(C), X).T ** z


@dataclass(frozen=True)
class _Nearest:
    """`_nearest`'s labels (numpy reads the result as them) and each row's
    least shifted score ||c||^2 - 2 x.c."""

    labels: np.ndarray
    least: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.labels, dtype=dtype)


def _nearest(X: np.ndarray, C: np.ndarray) -> _Nearest:
    """Row-wise argmin over centers of ||c||^2 - 2 x.c (one GEMM, shifted in
    place); equal scores go to the lowest center.  The -2 scales the k x d
    operand, not the n x k product: a power of two commutes with every
    rounding of the dot products (barring overflow and subnormal products),
    so the scores are those of scaling the product, bit for bit."""
    D = X @ (-2.0 * C).T
    D += np.einsum("ij,ij->i", C, C)
    labels = np.argmin(D, axis=1)
    rows = np.arange(0, D.size, D.shape[1])  # each row's offset in D
    return _Nearest(labels, D.ravel()[rows + labels])


def center_distances(rows: np.ndarray, clustering: Clustering) -> np.ndarray:
    """||x - c|| of every row to its own center, by ``np.linalg.norm``'s
    arithmetic on one residual array, squared in place; rounds differently
    from `_point_cost`, which feeds the cluster costs.  A row whose squared
    residual underflows to 0 although the residual is nonzero gets its norm
    again from the residual scaled by its largest entry; every other
    distance keeps the plain norm's bits."""
    centers, labels = clustering.centers.positions, clustering.assignment
    R = centers[labels]
    np.subtract(rows, R, out=R)
    dist = np.sqrt(np.add.reduce(np.multiply(R, R, out=R), axis=1))
    zero = np.flatnonzero(dist == 0)
    tiny = zero[np.any(rows[zero] != centers[labels[zero]], axis=1)]
    if tiny.size:
        R = rows[tiny] - centers[labels[tiny]]
        scale = np.max(np.abs(R), axis=1)
        dist[tiny] = scale * np.linalg.norm(R / scale[:, None], axis=1)
    return dist


def _point_cost(X: np.ndarray, C: np.ndarray, labels: np.ndarray,
                z: float) -> np.ndarray:
    """||x - c||^z of every point to its labelled center, from the residual."""
    R = C[labels]
    np.subtract(X, R, out=R)
    sq = np.einsum("ij,ij->i", R, R)
    return sq if z == 2 else np.sqrt(sq) ** z


def _clustering(X: np.ndarray, centers: CenterList, labels: np.ndarray,
                z: float) -> Clustering:
    """The clustering of `labels` with its per-cluster costs."""
    point_cost = _point_cost(X, centers.positions, labels, z)
    cluster_cost = np.bincount(labels, weights=point_cost,
                               minlength=len(centers))
    return Clustering(centers, labels, cluster_cost, float(z))


def assign(data: Dataset, centers: CenterList, z: float) -> Clustering:
    """Assign every point to its nearest center (ties to the lowest cluster
    id) and compute per-cluster costs."""
    labels = _nearest(data.rows, centers.positions).labels
    return _clustering(data.rows, centers, labels, z)


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


def _distance_sums(points: np.ndarray, spans, rows,
                   pool: ThreadPoolExecutor | None = None,
                   workers: int = 1) -> list[np.ndarray]:
    """Per span (lo, hi), the row sums of the Euclidean distance matrix of
    points[lo:hi] for its row offsets in `rows`, bit for bit those of the
    full matrix.  All spans' rows go to `pool` at once in blocks of
    MEDOID_BLOCK // workers rows; a single block is computed inline."""
    block = max(1, MEDOID_BLOCK // workers)
    jobs = [(lo, hi, r[start:start + block])
            for (lo, hi), r in zip(spans, rows)
            for start in range(0, r.size, block)]

    def sum_rows(job) -> np.ndarray:
        lo, hi, r = job
        return np.sum(cdist(points[lo + r], points[lo:hi]), axis=1)

    run = map if pool is None or len(jobs) == 1 else pool.map
    sums = run(sum_rows, jobs)  # pool.map re-raises a block's exception
    return [np.concatenate([next(sums) for _ in range(0, r.size, block)])
            for r in rows]


def _groups(P: np.ndarray, limit: int, side: int):
    """(order, sizes, gaps): the rows P as at most `limit` far-apart groups
    of the given sizes, `order` listing their row offsets group by group,
    ascending within a group (None for one group: the rows in order), and
    gaps[g, h] > 0 bounding every distance between groups g, h from below.

    Rows of more than `side` (a tile's side) are cut at half the projection
    of the row farthest from their mean, on the direction to it, and each
    part again.  A part's ball is centred near its mean and reaches its
    farthest member by ``cdist``; a cut holds when the balls are disjoint.
    A ``cdist`` distance t is within (d/2 + 3) U t + b of the true one,
    b = sqrt(d) 2**-537 (see `_medoids`), so the gap is at least
    delta (1 - c) - (r_A + r_B)(1 + c) - 4 b for the measured centre
    distance delta and radii r, c = 2 g_(d+3) (`_gamma`), whose spare half
    covers the rounding of this sum when it is positive."""
    (m, d), gap = P.shape, 0.0
    if limit > 1 and m > side:
        total = np.ones(m) @ P
        far = P[np.argmax(cdist(total[None] / m, P)[0])] - total / m
        first = P @ far > total @ far / m + 0.5 * (far @ far)
        count = np.count_nonzero(first)
        if 0 < count < m:
            part = first @ P
            centres = np.array([part / count, (total - part) / (m - count)])
            dist, c = cdist(centres, P), 2 * _gamma(d + 3)
            gap = (cdist(centres[:1], centres[1:])[0, 0] * (1 - c)
                   - (np.max(dist[0], where=first, initial=0)
                      + np.max(dist[1], where=~first, initial=0)) * (1 + c)
                   - 4 * np.sqrt(d) * 2.0 ** -537)
    if not gap > 0:
        return None, [m], np.zeros((1, 1))
    order, sizes, blocks = [], [], []
    for rows in (np.flatnonzero(first), np.flatnonzero(~first)):
        sub, sub_sizes, sub_gaps = _groups(
            P[rows], limit - max(1, len(sizes)), side)
        order.append(rows if sub is None else rows[sub])
        sizes += sub_sizes
        blocks.append(sub_gaps)
    gaps, a = block_diag(*blocks), blocks[0].shape[0]
    gaps[:a, a:] = gaps[a:, :a] = gap
    return np.concatenate(order), sizes, gaps


def _medoids(points: np.ndarray, bounds: np.ndarray,
             pool: ThreadPoolExecutor | None = None,
             workers: int = 1) -> np.ndarray:
    """Row of `points` that is the medoid of each cluster i, whose members
    are points[bounds[i]:bounds[i + 1]] (at least one): ties to the lowest
    row.

    Groups: `_groups` cuts each cluster into far-apart groups (one for a
    compact cluster), and the filter lists its rows group by group.
    Filter: a group's rows, centred on their mean, are scaled by 2**-e
    below 1 in magnitude and cast to float32 (q) in the task that sums the
    cluster; one product [q, |q|^2, 1] @ [-2q, 1, |q|^2].T gives a tile of
    squared distances, clamped at 0 before the sqrt, and float32 products
    with a ones vector give its row and column sums.  A tile between two
    groups takes the whole cluster's operands, centred on its mean, and a
    float32 floor f below its distances is taken off before it is summed
    and added back in float64.  All clusters' upper-triangle tiles form one
    list, cut into one contiguous run of about equal area per worker.  A
    cluster wholly in one run gets its sums and candidates there; a run's
    first and last cluster, which a cut may split, get a partial vector
    from each of their runs, added in run order, so thread timing never
    changes a sum.  Re-check: `_distance_sums` of every candidate, and the
    lowest row among each cluster's least exact sums wins, so each medoid
    is ``argmin(np.sum(cdist(P, P), axis=1))`` of its members P.

    The margin is rigorous, and one row's is not widened by another far
    row.  In scaled units, with u = 2**-24, g = (d + 2) u / (1 - (d + 2) u),
    U = 2**-53 and t_ij, T_i the true distances and row sums: centring and
    the cast move row i by at most 1.01 u |q_i|, plus 2**-126 an entry
    where BLAS flushes an underflow to zero.  A GEMM entry, a float32 dot
    product of length d + 2, is within g (2 |q_i| |q_j| + s_i + s_j), and
    the float32 norm s_i within g |q_i|**2, so a squared distance is within
    E = 3 g (|q_i| + |q_j|)**2 + w of the cast rows', w = (d + 1) 2**-123
    of underflow.  As |sqrt(x) - sqrt(y)| is at most both sqrt(|x - y|)
    and |x - y| / sqrt(y), a distance is within 1.01 sqrt(3 g) (|q_i| +
    |q_j|) + h + u t_ij of t_ij, h = sqrt(d + 2) 2**-60; for i, j in groups
    G, H whose gap (`_groups`) is t_GH scaled, the cast rows are at least
    t' = t_GH - sqrt(d) 2**-22 apart, and it is also within E / t' +
    1.01 u (|q_i| + |q_j|) + h + u t_ij.  With r_iH = |H| |q_i| + sum |q_j|
    over j in H, at least sum t_ij, row i's errors over H sum to
    n_iH = min(1.01 sqrt(3 g) r_iH, (3 g (|H| |q_i|**2 + 2 |q_i| sum |q_j|
    + sum |q_j|**2) + |H| w) / t' + 1.01 u r_iH) + |H| h (the second when
    t' > 0), from the whole cluster's q; over i's own group G the first,
    from the group's q and times 2**(e_G - e), an exact power of two, into
    the cluster's units.  A float32 tile sum, of any order of at most
    `side` terms after f <= t' is taken off, is within v = 1.01 (2 side +
    1) u of its terms' magnitudes, at most r_iH + n_iH - |H| f between
    groups and r_iG within (the 1.1 below covers v n_iG); k_i is the sum
    of the n_iH, n_iG and v times those magnitudes.  The float32 sqrt and
    the float64 sums add a relative a = u + 3 m U, so a filtered row sum
    F_i is within 1.01 k_i + a T_i of T_i.  A ``cdist`` distance is within
    (d/2 + 3) U t of t plus sqrt(d) 2**-537 in the data's units, as a
    square below 2**-1074 vanishes (subnormal rows may read at distance 0):
    b = sqrt(d) 2**(-537 - e) scaled, and an exact sum is within m b + c T
    of T, c = (m + d + 8) U.  For i an exact argmin and any row j,
    T_i - T_j <= 2 m b + c (T_i + T_j) and T_i + T_j <= 2.01 (F_j +
    1.01 k_j + m b), so F_i - F_j is at most 1.02 (k_i + k_j) + 2.01 m b
    + 2.03 (a + c) F_j.  With err_i = 1.1 (k_i + m b), and sqrt(s_i) for
    |q_i| (the 1.1 covers that), row i is kept when F_i - err_i <=
    (1 + 5 (a + c)) F_j + err_j for the j that makes the right side least."""
    d = points.shape[1]
    side = max(1, MEDOID_BLOCK // workers)
    spans = list(zip(bounds[:-1], bounds[1:]))
    groups = [_groups(points[lo:hi], MEDOID_GROUPS, side) for lo, hi in spans]
    ends = [np.cumsum([0, *sizes]) for _, sizes, _ in groups]
    # (cluster, group, a, a_end, group, b, b_end), in the cluster's group order
    tiles = [(c, g, a, min(a + side, e[g + 1]), h, b, min(b + side, e[h + 1]))
             for c, e in enumerate(ends)
             for g in range(e.size - 1) for h in range(g, e.size - 1)
             for a in range(e[g], e[g + 1], side)
             for b in range(a if g == h else e[h], e[h + 1], side)]
    area = np.cumsum([(ea - a) * (eb - b) for _, _, a, ea, _, b, eb in tiles])
    tasks = 1 if pool is None else min(workers, len(tiles))
    cuts = [0, *np.searchsorted(area, area[-1] * np.arange(1, tasks) / tasks),
            len(tiles)]
    candidates = [None] * len(spans)  # row offsets within each cluster
    u = 2.0 ** -24
    g3 = 3 * ((d + 2) * u / (1 - (d + 2) * u))
    root, flush = 1.01 * np.sqrt(g3), np.sqrt(d + 2) * 2.0 ** -60
    spill = 1.01 * (2 * side + 1) * u  # a float32 tile sum's, relative
    ones = np.ones(side, dtype=np.float32)

    def operands(P: np.ndarray):
        """e and the float32 norms and GEMM operands of the rows P."""
        R = P - np.ones(P.shape[0]) @ P / P.shape[0]
        e = int(np.frexp(np.max(np.abs(R)))[1])
        q = np.ldexp(R, -e).astype(np.float32)
        sq = np.einsum("ij,ij->i", q, q)[:, None]
        one = np.ones_like(sq)
        return (e, np.sqrt(sq[:, 0], dtype=np.float64),
                np.hstack([q, sq, one]), np.hstack([-2 * q, one, sq]))

    def cluster_operands(c: int):
        """Cluster c's rows in group order: their err; (start, scale, left,
        right) of each group's operands, then of the whole cluster's; and
        floor[g, h], the float32 floor of the tiles between groups g, h."""
        (lo, hi), (order, _, gaps), e_c = spans[c], groups[c], ends[c]
        single = order is None
        P = points[lo:hi] if single else points[lo + order]
        e, norm, left, right = whole = operands(P)
        ops, k = [], np.empty(P.shape[0])
        for s, t in zip(e_c[:-1], e_c[1:]):
            e_g, n, left_g, right_g = whole if single else operands(P[s:t])
            scale = np.ldexp(1.0, e_g - e)
            k[s:t] = scale * ((root + spill) * ((t - s) * n + np.sum(n))
                              + (t - s) * flush)
            ops.append((s, scale, left_g, right_g))
        floor = np.zeros(gaps.shape, dtype=np.float32)
        for g, h in itertools.permutations(range(e_c.size - 1), 2):
            n_i, n_h = norm[e_c[g]:e_c[g + 1]], norm[e_c[h]:e_c[h + 1]]
            m_h, s1 = n_h.size, np.sum(n_h)
            reach = m_h * n_i + s1
            near = root * reach
            t = np.ldexp(gaps[g, h], -e) - np.sqrt(d) * 2.0 ** -22
            if t > 0:
                near = np.minimum(near, (
                    g3 * (m_h * n_i ** 2 + 2 * n_i * s1 + np.sum(n_h ** 2))
                    + m_h * (d + 1) * 2.0 ** -123) / t + 1.01 * u * reach)
                floor[g, h] = t * (1 - 2.0 ** -20)
            near += m_h * flush
            k[e_c[g]:e_c[g + 1]] += near + spill * (
                near + reach - m_h * float(floor[g, h]))
        err = 1.1 * (k + k.size * np.sqrt(d) * np.ldexp(1.0, -537 - e))
        return err, ops + [(0, np.float64(1), left, right)], floor

    def near_least(c: int, err: np.ndarray, sums: np.ndarray) -> np.ndarray:
        """Row offsets, ascending, of cluster c kept by the margin."""
        rel = 5 * (u + (4 * sums.size + d + 8) * 2.0 ** -53)
        kept = np.flatnonzero(sums - err <= np.min((1 + rel) * sums + err))
        order = groups[c][0]
        return kept if order is None else np.sort(order[kept])

    def filter_run(run) -> list:
        """Partial sums of the run's first and last (maybe split) cluster."""
        partials = []
        for c, cluster_tiles in itertools.groupby(run, key=itemgetter(0)):
            lo, hi = spans[c]
            err, ops, floor = cluster_operands(c)
            sums = np.zeros(hi - lo)
            for _, g, a, ea, h, b, eb in cluster_tiles:
                s_a, scale, left, _ = ops[g if g == h else -1]
                s_b, _, _, right = ops[h if g == h else -1]
                D = left[a - s_a:ea - s_a] @ right[b - s_b:eb - s_b].T
                np.sqrt(np.maximum(D, 0, out=D), out=D)
                f = floor[g, h]
                if f:
                    D -= f
                sums[a:ea] += scale * (D @ ones[:eb - b]) + float(f) * (eb - b)
                if a != b:
                    sums[b:eb] += (scale * (ones[:ea - a] @ D)
                                   + float(f) * (ea - a))
            if c in (run[0][0], run[-1][0]):
                partials.append((c, err, sums))
            else:
                candidates[c] = near_least(c, err, sums)
        return partials

    runs = [tiles[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    shared = {}
    for partials in (map if tasks == 1 else pool.map)(filter_run, runs):
        for c, err, sums in partials:
            shared[c] = (err, shared[c][1] + sums if c in shared else sums)
    for c, (err, sums) in shared.items():
        candidates[c] = near_least(c, err, sums)
    exact = _distance_sums(points, spans, candidates, pool, workers)
    return np.array([lo + r[np.argmin(e)]
                     for (lo, _), r, e in zip(spans, candidates, exact)])


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


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u = 2**-53."""
    return m * 2.0 ** -53 / (1 - m * 2.0 ** -53)


def _total_bounds(least: np.ndarray, C: np.ndarray,
                  norms: tuple[float, float], d: int) -> tuple[float, float]:
    """Rigorous bounds lo <= T <= hi around T~ = sum(least) + Q, where T is
    the z=2 ``total_cost`` `assign` returns for the labels whose `_nearest`
    scores are `least`, and `norms` = (Q, sum ||x||), Q = sum ||x||^2.

    With u = 2**-53, g_m = `_gamma` (m), c the center of row x,
    p = ||x - c||^2 and P = sum p: a score s (the GEMM's x.(-2c) plus
    ||c||^2) plus ||x||^2 is within g_d (||x|| + ||c||)^2 + u |s| of p, and
    sum (||x|| + ||c||)^2 <= Q + 2 M sum ||x|| + n M^2, M the largest center
    norm.  The two n-term sums add g_(n-1) (sum |s| + Q) and their sum
    u |T~|, so |T~ - P| <= e1.  T's residual squares, each within g_(d+2) p
    of p, summed per cluster and over the clusters, give |T - P| <=
    g_(n+k+d+2) (|T~| + e1).  Underflow adds at most 4 n d 2**-1022; the
    1.01 covers the rounding of the norms and of the bound, and 2 u |T~|
    that of T~ -+ err."""
    n, k = least.size, C.shape[0]
    Q, norm_sum = norms
    M = float(np.sqrt(np.max(np.einsum("ij,ij->i", C, C))))
    est = float(np.sum(least)) + Q
    e1 = (_gamma(d) * (Q + 2 * M * norm_sum + n * M * M)
          + _gamma(n + 1) * (float(np.sum(np.abs(least))) + Q)
          + 2.0 ** -53 * abs(est) + 4 * n * d * 2.0 ** -1022)
    err = (1.01 * (e1 + _gamma(n + k + d + 2) * (abs(est) + e1))
           + 2.0 ** -52 * abs(est))
    return est - err, est + err


@dataclass
class _Step:
    """A refinement state; lo <= T <= hi bound the total cost T that `assign`
    reports for it, and lo = hi = T once `exact` holds its clustering."""

    centers: CenterList
    labels: np.ndarray
    lo: float
    hi: float
    exact: Clustering | None = None

    def settle(self, X: np.ndarray, z: float) -> Clustering:
        if self.exact is None:
            self.exact = _clustering(X, self.centers, self.labels, z)
            self.lo = self.hi = self.exact.total_cost
        return self.exact


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

    Each iteration makes one n x k distance pass (`_nearest`).  For z=2 the
    exact O(n d) cost pass runs only when a stop test needs it: a test that
    the bounds on both totals from their GEMM scores (`_total_bounds`)
    decide is decided, else it runs on both states' exact costs.  The
    returned clustering is always exact.  For z=1 one thread pool, with a
    thread per CPU this process may use, serves every medoid of the call;
    while it exists BLAS runs on one thread, so no idle BLAS worker spins on
    a CPU the pool needs.  A medoid pass recomputes only the clusters that a
    row entered or left since the previous pass; the labels of that pass
    are the previous state's.
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
        if z == 2:
            sq = np.einsum("ij,ij->i", X, X)
            norms = float(np.sum(sq)), float(np.sum(np.sqrt(sq)))
            del sq

        def step(centers: CenterList) -> _Step:
            if z == 1:
                exact = assign(data, centers, z)
                cost = exact.total_cost
                return _Step(centers, exact.assignment, cost, cost, exact)
            near = _nearest(X, centers.positions)
            return _Step(centers, near.labels, *_total_bounds(
                near.least, centers.positions, norms, X.shape[1]))

        def decide(holds, prev: _Step, new: _Step) -> bool:
            """holds(T_prev, T_new, T_prev), falling in its first argument
            and rising in the others (rounding is monotone): from the
            bounds' two extreme corners, or the exact totals if they differ."""
            if holds(prev.hi, new.lo, prev.lo) != holds(prev.lo, new.hi,
                                                        prev.hi):
                prev.settle(X, z)
                new.settle(X, z)
            return holds(prev.hi, new.lo, prev.lo)

        current, prev = step(centers), None
        for _ in range(max_iters):
            labels, k = current.labels, len(current.centers)
            counts = np.bincount(labels, minlength=k)
            bounds = np.concatenate(([0], np.cumsum(counts)))
            # cluster i's members, in ascending row order, are
            # order[bounds[i]:bounds[i + 1]]; a stable sort gives the same
            # permutation for any key dtype, and numpy radix-sorts 8- and
            # 16-bit keys
            order = np.argsort(labels.astype(np.min_scalar_type(k)),
                               kind="stable")
            positions = current.centers.positions.copy()
            filled = np.flatnonzero(counts)
            if z == 2:
                indices = None
                positions[filled] = (_cluster_sums(X, order, bounds)[filled]
                                     / counts[filled, None])
            else:
                # a cluster with the members its medoid came from keeps it;
                # the others read their members' rows from one gathered copy
                if prev is None:
                    indices, redo = np.empty(k, dtype=np.intp), filled
                else:
                    indices = current.centers.indices.copy()
                    moved = labels != prev.labels
                    redo = np.union1d(labels[moved], prev.labels[moved])
                    redo = redo[counts[redo] > 0]
                if redo.size:
                    rows = (order if redo.size == filled.size else
                            np.concatenate([order[bounds[i]:bounds[i + 1]]
                                            for i in redo]))
                    spans = np.concatenate(([0], np.cumsum(counts[redo])))
                    indices[redo] = rows[_medoids(X[rows], spans, pool,
                                                  workers)]
                positions[filled] = X[indices[filled]]
            mind = None  # per-point distance^z to the current centers
            for i in np.flatnonzero(counts == 0):
                if mind is None:
                    mind = _point_cost(X, current.centers.positions, labels, z)
                    if indices is not None:  # -1 marks a row that is a center
                        mind[indices[filled]] = -1
                far = int(np.argmax(mind))
                positions[i] = X[far]
                mind = np.minimum(mind, powered_distances(X, X[far], z)[:, 0])
                mind[far] = -1
                if indices is not None:
                    indices[i] = far
            updated = step(CenterList(positions, indices))
            if decide(lambda old, new, _: new > old, current, updated):
                break  # numerical safeguard; keep the previous clustering
            prev, current = current, updated
            if mind is None and np.array_equal(current.labels, prev.labels):
                break  # fixed point
            if decide(lambda old, new, base:
                      old - new < REFINE_TOL * max(base, 1e-300),
                      prev, current):
                break
        return current.settle(X, z)


def snap_centers(data: Dataset, clustering: Clustering) -> Clustering:
    """Replace each center with the nearest dataset row (ties to the lowest
    row index) and recompute assignment and costs.

    Centers are processed in order and each takes the nearest row not
    already claimed, so the snapped centers are k distinct rows and a
    selection run queries exactly k distinct losses.  Each is the argmin of
    ``cdist(data.rows, C)[:, i]`` over the unclaimed rows, bit for bit, ties
    to the lowest row (row 0 when k > n leaves none).

    Filter: one GEMM scores each row x for each center c as
    L = ||c||^2 - 2 c.x + (1 - g) ||x||^2, g = 5 g_(d+3) (`_gamma`); claimed
    rows score inf.  With j the least-scored row, ``cdist`` measures again
    every row scored at most (1 + 3a)(L_j + 2 g ||x_j||^2 + g ||c||^2)
    + g ||c||^2 + 5b, a = g_(d+5), b = 4 d 2**-1022.  Rigorous: with
    t = ||x - c||^2, t - 1.5 g ||x||^2 - 0.5 g ||c||^2 - b <= L <=
    t + 0.5 g ||c||^2 + b (L is within 2.01 g_(d+3) (||x||^2 + ||c||^2) + b
    of t - g ||x||^2), and a squared ``cdist`` distance is within a t + b of
    t, so the winner w, no farther than j by ``cdist``, has
    t_w <= (1 + 2.01 a) t_j + 2.01 b, and L_w is below the threshold, whose
    spare halves of g and 3a cover its own rounding.
    """
    X, C = data.rows, clustering.centers.positions
    d = X.shape[1]
    g, a, b = 5 * _gamma(d + 3), _gamma(d + 5), 4 * d * 2.0 ** -1022
    q = np.einsum("ij,ij->i", X, X)
    h = np.einsum("ij,ij->i", C, C)
    L = (-2.0 * C) @ X.T
    L += (1 - g) * q
    L += h[:, None]
    idx = np.zeros(clustering.k, dtype=np.intp)
    for i in range(clustering.k):
        j = int(np.argmin(L[i]))
        top = ((1 + 3 * a) * (L[i, j] + 2 * g * q[j] + g * h[i])
               + g * h[i] + 5 * b)
        if top == np.inf:  # every row is claimed
            continue
        near = np.flatnonzero(L[i] <= top)
        idx[i] = near[np.argmin(cdist(C[i:i + 1], X[near])[0])]
        L[i + 1:, idx[i]] = np.inf
    del L  # before `assign` makes its own n x k scores
    return assign(data, CenterList(X[idx], idx), clustering.z)


def kmedoids(data: Dataset, k: int, rng) -> Clustering:
    """z=1 clustering whose centers are dataset rows: D^1 seeding followed by
    alternating assignment and exact per-cluster medoid updates."""
    seeds = dz_seed(data, k, 1, rng)
    return refine(data, seeds, 1)
