"""(k,z)-clustering machinery: D^z seeding, Lloyd/medoid refinement, snapping,
assignment, and the cost functionals used by the samplers.

All tie-breaking is to the lowest index so results are reproducible.

Numerics of assignment.  A point's label is the argmin of its ``cdist``
distances to the centers, ties to the lowest cluster id, whatever BLAS or
thread count runs the arithmetic.  `_nearest_labels` computes it with one
float32 GEMM per tile of rows and centers centred on the data mean: every
center whose score is within a rigorous rounding margin of the row's least
is a candidate, a row with one candidate takes it, and ``cdist`` measures
again the few rows with more.  One pass over the residuals to the assigned
centers (`_clustering`) then gives each point's distance ||x - c|| and
cost ||x - c||^z, the only ones the samplers read, so a point that
coincides with its center costs exactly 0.  Seeding keeps ``cdist``, and
so does snapping (`snap_centers`), which measures each center against its
own cluster's members only, one cluster at a time: it builds no n x k
array and runs no GEMM.  Every n x d or n x k temporary is built in row
blocks of at most BLOCK_ENTRIES entries; each row's arithmetic is its own,
so no result depends on the block size.

The z=2 update copies no rows: `_cluster_sums` adds each cluster's members
with one sparse indicator product, in the order numpy's ``mean(axis=0)``
adds them, so each center is its members' mean bit for bit.

Refinement stops at the Lloyd fixed point: once an update leaves the
assignment unchanged and reseeds no cluster, the next pass would rebuild the
same centers from the same rows, so it is skipped.  It also stops once a
pass gains less than REFINE_TOL of the cost, a coarse 3e-4: the paper's
bound reads the clustering only through its snapped cost, which the long
tail of small Lloyd gains barely moves.  Its z=2 cost tests read
rigorous bounds on each state's total from its cluster sums
(`_sum_bounds`), and exact costs only when the bounds cannot decide them
(`refine`), so every result is that of exact costs.

The z=1 centers are sampled medoids (`_medoid`), deterministic and with no
random draw.  A cluster's reference rows are at most MEDOID_REFERENCE
evenly strided members; of the MEDOID_CANDIDATES rows nearest the
reference rows' coordinate-wise median, the medoid is the one with the
least distance sum to the reference rows (in the style of Med-dit, Bagaria
et al. 2018, and BanditPAM, Tiwari et al. 2020).  A cluster of at most
MEDOID_CANDIDATES rows gets its exact medoid, its full matrix's row-sum
argmin; a larger one of m rows costs the median of at most 512 rows, m
distances to it and a fixed 64 x 512 block of distances, not O(m^2 d).  A
z=1 refinement recomputes, one cluster at a time, only the medoids of
clusters whose members changed since the last medoid pass.  Both powers
share one refinement step, whose labels come from rows cast to the
kernel's operands once per `refine` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.spatial.distance import cdist

from .core import Dataset, as_generator

#: relative cost improvement below which refinement stops.  The bound
#: reads a clustering only through its snapped cost, and the slow Lloyd
#: tail past this gain moves that cost by under 0.5% in the median; at
#: `select-large` shape refinement stops after ~24 of its 50 iterations
REFINE_TOL = 3e-4

#: most entries in one row block of an n-sized temporary: the assignment
#: kernel's float32 score tile, and the residuals of the distance and cost
#: pass (`_clustering`)
BLOCK_ENTRIES = 2 ** 16

#: rows nearest a cluster's reference median that may be its medoid
MEDOID_CANDIDATES = 64

#: most reference rows of a cluster: its every ceil(m / 512)-th row, whose
#: coordinate-wise median picks the candidates and to which each
#: candidate's distance sum runs
MEDOID_REFERENCE = 512


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
    center, and distances[e] the distance of point e to its center.  Both
    are None only in a partition that ``refine(..., costs=False)`` returns
    unmeasured."""

    centers: CenterList
    assignment: np.ndarray
    cluster_cost: np.ndarray | None
    z: float
    distances: np.ndarray | None

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


def _gamma(m: int, unit: float = 2.0 ** -53) -> float:
    """Higham's gamma_m = m unit / (1 - m unit), inf once m unit >= 1."""
    return m * unit / (1 - m * unit) if m * unit < 1 else np.inf


def _blocks(n: int, width: int) -> list:
    """(lo, hi) row blocks of near-equal size, the first the largest, each
    of at most BLOCK_ENTRIES entries of `width` columns, covering
    range(n)."""
    count = -(-n // max(1, BLOCK_ENTRIES // max(1, width)))
    step = max(1, -(-n // max(1, count)))
    return [(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]


@dataclass(frozen=True)
class _Frame:
    """The assignment kernel's coordinates: points less `mu`, times 2**-e,
    and the float32 operands [q, 1] of every row, one column a row, with
    the rows' float64 `norms` in the frame before the cast."""

    mu: np.ndarray
    e: int
    rows: np.ndarray
    norms: np.ndarray


def _frame(X: np.ndarray, C: np.ndarray) -> _Frame:
    """The frame centred on the mean of the rows X, scaled so that every
    entry of a row or of a center C is below 1 in magnitude (e is clamped
    to [-1000, 1000], so 2**-e stays a normal power of two), its operands
    cast block by block."""
    (n, d), mu = X.shape, np.ones(X.shape[0]) @ X / X.shape[0]
    far = max(float(X.max() - mu.min()), float(mu.max() - X.min()),
              float(np.max(np.abs(C - mu))))
    e = min(max(int(np.frexp(far)[1]), -1000), 1000)
    rows, norms = np.empty((d + 1, n), dtype=np.float32), np.empty(n)
    blocks = _blocks(n, d)
    scratch = np.empty((blocks[0][1] - blocks[0][0], d))
    for lo, hi in blocks:
        R = np.subtract(X[lo:hi], mu, out=scratch[:hi - lo])
        R *= np.ldexp(1.0, -e)
        rows[:d, lo:hi] = R.T
        norms[lo:hi] = np.sqrt(np.einsum("ij,ij->i", R, R))
    rows[d] = 1
    return _Frame(mu, e, rows, norms)


def _nearest_labels(X: np.ndarray, C: np.ndarray,
                    frame: _Frame | None = None) -> np.ndarray:
    """``np.argmin(cdist(X, C), axis=1)`` bit for bit (ties to the lowest
    center), from float32 scores in `frame` (`_frame` of X and C if None).

    Operands: rows and centers less the frame's mu, times 2**-e (exact),
    cast to float32: q for a row, p for a center.  One GEMM of the centers'
    [-2p, |p|^2] (the norm in float64, cast) against the rows' [q, 1] gives
    a k x m tile of at most BLOCK_ENTRIES scores S_j, each |q - p_j|^2 -
    |q|^2 rounded; a row's least score s is a reduce over the tile's first
    axis.  Filter: the tile is overwritten with S_j <= s + m as 0 or 1, m
    the row's margin (below), and one float32 product [1; 0, 1, .., k - 1]
    @ tile gives each row's candidate count and, for one candidate, its id.
    Re-check: ``cdist`` measures every row with another count against every
    center.

    The margin is rigorous.  In the frame's units, with u = 2**-24, U =
    2**-53, g_m = `_gamma` (m, u), t_j = |x' - c'_j|^2 for the exact x' =
    (x - mu) 2**-e and c'_j, and R at least |q| + max |p_j|: the float64
    centring and the cast move x' by at most 1.01 u |x'| + sqrt(d) 2**-126
    (underflow), so |q - x'| <= eps_x = 1.02 u |q| + 1.01 sqrt(d) 2**-126,
    and likewise each center.  |p_j|^2 is within 1.01 u |p_j|^2 + 2**-149,
    so a score, a float32 dot product of length d + 1 in any order, is
    within G = 1.01 g_(d+2) R^2 + (2d + 3) 2**-126 of |q - p_j|^2 - |q|^2.
    A ``cdist`` distance is within c sqrt(t) + b of sqrt(t), c = (d/2 + 3)
    U, b = sqrt(d) 2**(-537 - e), as a square below 2**-1074 vanishes
    (subnormal rows may read at distance 0).  For a the ``cdist`` argmin
    and r the least score's center, cdist(a) <= cdist(r) gives sqrt(t_a)
    <= ((1 + c) sqrt(t_r) + 2b) / (1 - c); with D_j = |q - p_j|
    within eps_x + eps_j of sqrt(t_j) and D_a + D_r <= 2R,
    S_a - s <= 2R max(0, D_a - D_r) + 2G <= (4.08 u + 4.04 c + 2.02
    g_(d+2)) R^2 + (4.02 b + 8.2 sqrt(d) 2**-126) R + (4d + 6) 2**-126.
    Take m = (2.02 g_(d+2) + 8u + 5c) R^2 + (4.1 b + sqrt(d) 2**-122) R
    + (d + 2) 2**-122, for d + 2 <= 2**20 (else every row is re-checked).
    The threshold s + m, summed in float64 and cast to float32, loses at
    most (u + U)(|s| + m) + 2**-149 with |s| <= R^2 + G: for m <= 2 R^2
    under 3.1 u R^2, which the 8u R^2 covers beyond the 4.08 u R^2 above,
    its spare 0.8 u R^2 covering the rounding of m itself; a larger m keeps
    every center, as S_j - s <= R^2 + 2G.  So a is a candidate: a row with
    one candidate takes a, and ``cdist`` picks a among all centers for a
    row with several.  R is (1 + 2.1 u)(|x'| + max |c'_j|) + sqrt(d)
    2**-124 from the float64 norms before the cast.  No score overflows:
    in `refine` the centers are rows or means of rows, within the frame's
    bound."""
    (n, d), k = X.shape, C.shape[0]
    if k == 0:
        raise ValueError("no centers to assign to")
    if frame is None:
        frame = _frame(X, C)
    R = (C - frame.mu) * np.ldexp(1.0, -frame.e)
    p = R.astype(np.float32)
    centers = np.empty((k, d + 1), dtype=np.float32)
    np.multiply(p, -2, out=centers[:, :d])
    p = p.astype(np.float64)
    centers[:, d] = np.einsum("ij,ij->i", p, p)
    reach = float(np.sqrt(np.max(np.einsum("ij,ij->i", R, R))))
    u, c = 2.0 ** -24, (d / 2 + 3) * 2.0 ** -53
    square = (2.02 * _gamma(d + 2, u) + 8 * u + 5 * c
              if (d + 2) * u <= 2.0 ** -4 else np.inf)
    linear = np.sqrt(d) * (4.1 * np.ldexp(1.0, -537 - frame.e) + 2.0 ** -122)
    r = (1 + 2.1 * u) * (frame.norms + reach) + np.sqrt(d) * 2.0 ** -124
    margins = (square * r + linear) * r + (d + 2) * 2.0 ** -122
    tally = np.array([np.ones(k), np.arange(k)], dtype=np.float32)
    labels = np.empty(n, dtype=np.intp)
    blocks = _blocks(n, k)
    tile = np.empty(k * (blocks[0][1] - blocks[0][0]), dtype=np.float32)
    with np.errstate(over="ignore"):  # an inf threshold keeps every center
        for lo, hi in blocks:
            S = np.matmul(centers, frame.rows[:, lo:hi],
                          out=tile[:k * (hi - lo)].reshape(k, hi - lo))
            top = S.min(axis=0) + margins[lo:hi]
            np.less_equal(S, top.astype(np.float32), out=S)
            count, labels[lo:hi] = tally @ S
            again = lo + np.flatnonzero(count != 1)
            if again.size:
                labels[again] = np.argmin(cdist(C, X[again]), axis=0)
    return labels


def _residuals(X: np.ndarray, C: np.ndarray, labels: np.ndarray):
    """(lo, hi, R) for each row block: R = X[lo:hi] - C[labels[lo:hi]], in
    one buffer that every block reuses."""
    blocks = _blocks(*X.shape)
    buffer = np.empty((blocks[0][1] - blocks[0][0], X.shape[1]))
    for lo, hi in blocks:
        R = np.take(C, labels[lo:hi], axis=0, out=buffer[:hi - lo],
                    mode="clip")  # "raise" would buffer the copy
        yield lo, hi, np.subtract(X[lo:hi], R, out=R)


def _clustering(X: np.ndarray, centers: CenterList, labels: np.ndarray,
                z: float) -> Clustering:
    """The clustering of `labels`, from one pass over the residuals in row
    blocks: a point's cost is its sum of squares at z=2, else that sum's
    square root to the z, and its distance that square root.  A point whose
    square underflows to 0 although it differs from its center (its cost
    stays 0) is measured again from its residual scaled by its largest
    entry, so only a point equal to its center is at distance 0."""
    C, dist = centers.positions, np.empty(X.shape[0])
    for lo, hi, R in _residuals(X, C, labels):
        dist[lo:hi] = np.einsum("ij,ij->i", R, R)
    if z == 2:
        cluster_cost = np.bincount(labels, weights=dist, minlength=len(C))
    np.sqrt(dist, out=dist)
    if z != 2:
        cluster_cost = np.bincount(labels, weights=dist ** z, minlength=len(C))
    zero = np.flatnonzero(dist == 0)
    tiny = zero[np.any(X[zero] != C[labels[zero]], axis=1)]
    if tiny.size:
        R = X[tiny] - C[labels[tiny]]
        scale = np.max(np.abs(R), axis=1)
        dist[tiny] = scale * np.linalg.norm(R / scale[:, None], axis=1)
    return Clustering(centers, labels, cluster_cost, float(z), dist)


def assign(data: Dataset, centers: CenterList, z: float) -> Clustering:
    """Assign every point to its nearest center (ties to the lowest cluster
    id) and compute per-cluster costs."""
    labels = _nearest_labels(data.rows, centers.positions)
    return _clustering(data.rows, centers, labels, z)


def checked_lambda(lam, k: int) -> np.ndarray:
    """lam as a float64 vector of k finite, >= 0 entries; a scalar is not
    broadcast."""
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    if lam.size != k:
        raise ValueError(f"lambda length {lam.size} != k {k}")
    if np.any(~np.isfinite(lam)) or np.any(lam < 0):
        raise ValueError("lambda must be finite and >= 0")
    return lam


def lambda_cost(lam: np.ndarray, cost: np.ndarray, exp: int = 0) -> float:
    """2**exp * lam . cost, numpy's pairwise sum of the rounded products
    times 2**exp: no BLAS thread count changes its bits, and a rescaling
    that keeps every product normal scales it exactly; inf on overflow."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.ldexp(lam * cost, exp)))


def weighted_cost(clustering: Clustering, lam) -> float:
    """Per-cluster weighted cost lam . Phi; inf when it overflows."""
    return lambda_cost(checked_lambda(lam, clustering.k),
                       clustering.cluster_cost)


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
            # g.choice(n, p=mind / total) without its validation passes:
            # the steps it draws with, so the index and stream are its own
            cdf = np.cumsum(mind / total)
            cdf /= cdf[-1]
            nxt = int(cdf.searchsorted(g.random(), side="right"))
        else:
            # every point already coincides with a center: any row not yet
            # chosen (k <= n leaves one)
            free = np.setdiff1d(np.arange(data.n), chosen)
            nxt = int(free[g.integers(free.size)])
        chosen.append(nxt)
        mind = np.minimum(mind, powered_distances(X, X[nxt], z)[:, 0])
    return CenterList(X[chosen], np.asarray(chosen, dtype=np.intp))


def _medoid(P: np.ndarray) -> int:
    """Row offset of the sampled medoid of the m rows P of one cluster.  Its
    reference rows are P[::ceil(m / MEDOID_REFERENCE)], at most
    MEDOID_REFERENCE of them.  Of the MEDOID_CANDIDATES rows of P nearest
    the reference rows' coordinate-wise median by ``cdist`` (ties to the
    lowest offset; every row of a smaller cluster), the medoid is the one
    whose ``cdist`` distance sum to the reference rows is least, ties to
    the lowest offset.  A cluster of at most MEDOID_CANDIDATES rows gets
    its full matrix's row-sum argmin, bit for bit."""
    m, cand = P.shape[0], np.arange(P.shape[0])
    ref = P[::-(-m // MEDOID_REFERENCE)]
    if m > MEDOID_CANDIDATES:
        near = cdist(np.median(ref, axis=0)[None], P)[0]
        t = np.partition(near, MEDOID_CANDIDATES - 1)[MEDOID_CANDIDATES - 1]
        keep, tied = near < t, np.flatnonzero(near == t)
        keep[tied[:MEDOID_CANDIDATES - np.count_nonzero(keep)]] = True
        cand = np.flatnonzero(keep)
    return int(cand[np.argmin(np.sum(cdist(P[cand], ref), axis=1))])


def _members(labels: np.ndarray, k: int) -> tuple:
    """(bounds, order): cluster i's members, in ascending row order, are
    order[bounds[i]:bounds[i + 1]].  A stable sort gives the same
    permutation for any key dtype, and numpy radix-sorts 8- and 16-bit
    keys."""
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k))))
    order = np.argsort(labels.astype(np.min_scalar_type(k)), kind="stable")
    return bounds, order


def _cluster_sums(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Row i: the sum of cluster i's rows, bit for bit the sum that
    ``X[labels == i].mean(axis=0)`` divides by the member count.

    numpy sums the rows of a matrix one after another from +0.0, and so
    does a CSC x dense product: it walks the rows of X in order, adding
    each with weight 1.0 into its cluster's sum, so every product is exact,
    each cluster adds its members in ascending row order, no row is copied
    and no sort is needed.  numpy sums a single column pairwise, so for
    d = 1 the column is gathered and each cluster's slice summed as the
    mean sums it."""
    n, d = X.shape
    if d == 1:
        bounds, order = _members(labels, k)
        grouped = X[order]
        return np.array([grouped[lo:hi].sum(axis=0)
                         for lo, hi in zip(bounds[:-1], bounds[1:])])
    indicator = csc_matrix((np.ones(n), labels, np.arange(n + 1)),
                           shape=(k, n))
    return indicator @ X


def _sum_bounds(sums: np.ndarray, counts: np.ndarray, C: np.ndarray,
                norms: tuple[float, float]) -> tuple[float, float]:
    """Rigorous bounds lo <= T <= hi around T~ = Q - 2 sum_j c_j.S_j +
    sum_j m_j ||c_j||^2, where T is the z=2 ``total_cost`` `_clustering`
    reports for labels whose clusters have `counts` m_j and `_cluster_sums`
    S_j about the centers c_j (rows of C), and `norms` = (Q, N), Q = sum
    ||x||^2 and N = sum ||x|| over the rows.

    T~ is the exact total P = sum ||x - c||^2 up to rounding.  With u =
    2**-53, g_m = `_gamma` (m) and M the largest center norm: each sum S_j
    is within g_n of the sum of its members' |x| per coordinate, so with
    the float64 dot products and their sum, |c_j.S_j| summed over j is off
    by at most g_(n+d+k) M N; the m_j ||c_j||^2 sum by g_(d+k+1) n M^2; Q
    by g_(n+d) Q; and the two final additions by 2.01 u (Q + 2 M N +
    n M^2), so |T~ - P| <= e1 = 1.05 g_(n+d+k+3) (Q + 2 M N + n M^2) plus
    underflow, at most 4 (n + k) d 2**-1022 (the 1.05 covers the rounding
    of Q, N and M).  T's residual squares, each within g_(d+2) p of p,
    summed per cluster and over the clusters, give |T - P| <=
    g_(n+k+d+2) (|T~| + e1); the 1.01 covers the rounding of the bound, and
    2 u |T~| that of T~ -+ err."""
    (k, d), n = C.shape, int(np.sum(counts))
    Q, N = norms
    cc = np.einsum("ij,ij->i", C, C)
    M = float(np.sqrt(np.max(cc)))
    est = (Q - 2 * float(np.sum(np.einsum("ij,ij->i", C, sums)))
           + float(np.sum(counts * cc)))
    e1 = (1.05 * _gamma(n + d + k + 3) * (Q + 2 * M * N + n * M * M)
          + 4 * (n + k) * d * 2.0 ** -1022)
    err = (1.01 * (e1 + _gamma(n + k + d + 2) * (abs(est) + e1))
           + 2.0 ** -52 * abs(est))
    return est - err, est + err


@dataclass
class _Step:
    """A refinement state; lo <= T <= hi bound the total cost T that `assign`
    reports for it, and lo = hi = T once `exact` holds its clustering.  It
    holds its clusters' member counts, and a z=2 state their sums."""

    centers: CenterList
    labels: np.ndarray
    lo: float
    hi: float
    exact: Clustering | None = None
    counts: np.ndarray | None = None
    sums: np.ndarray | None = None

    def settle(self, X: np.ndarray, z: float) -> Clustering:
        if self.exact is None:
            self.exact = _clustering(X, self.centers, self.labels, z)
            self.lo = self.hi = self.exact.total_cost
        return self.exact


def refine(data: Dataset, centers: CenterList, z: float,
           max_iters: int = 50, costs: bool = True) -> Clustering:
    """Lloyd-style alternation: assignment, then center update (cluster mean
    for z=2, sampled in-cluster medoid for z=1).  Stops when the relative
    cost improvement drops below REFINE_TOL, or at the fixed point: when an
    update reseeded no cluster and left the assignment it was built from
    unchanged, the next update would rebuild the same centers bit for bit.
    The cost never increases.  REFINE_TOL cuts the slow tail: on overlapping
    d=2 blobs and at `select-large` shape refinement would otherwise run
    all `max_iters`, whose last half lowers the cost by a median 0.3%.

    A cluster left empty by an update is reseeded at the row farthest (in
    distance^z) from the current centers that is not a center already,
    keeping k fixed.

    Each iteration makes one n x k pass of the assignment kernel
    (`_nearest_labels`) and counts each cluster's members.  The call casts
    the rows to the kernel's float32 operands once, as every later center
    is a row or a mean of rows, and frees them before a final exact cost
    pass.  A z=1 state takes its exact costs.  A z=2 state sums its
    clusters (`_cluster_sums`), which give the next update's means and
    rigorous bounds on its total (`_sum_bounds`); its exact O(n d) cost
    pass runs only when a stop test or a reseed, which reads the state's
    distances, needs it: a test that the bounds on both totals decide is
    decided, else it runs on both states' exact costs.  The returned
    clustering is exact; with ``costs=False`` a final state that no test
    or reseed measured comes back unmeasured instead, its cluster_cost and
    distances None and its centers and assignment those of the exact
    result, which is all `snap_centers` reads.  For z=1 each center is its
    cluster's sampled medoid (`_medoid`), which depends only on the
    cluster's members, so a medoid pass recomputes, one cluster at a time,
    only those that a row entered or left since the previous pass; the
    labels of that pass are the previous state's.
    """
    if len(centers) == 0:
        raise ValueError("empty center list")
    if z not in (1, 2):
        raise ValueError(f"refinement supports z in {{1, 2}}, got {z}")
    X = data.rows
    if z == 2:
        sq = np.einsum("ij,ij->i", X, X)
        norms = float(np.sum(sq)), float(np.sum(np.sqrt(sq)))
        del sq
    frame = _frame(X, centers.positions)

    def step(centers: CenterList) -> _Step:
        labels = _nearest_labels(X, centers.positions, frame)
        counts = np.bincount(labels, minlength=len(centers))
        if z == 1:
            exact = _clustering(X, centers, labels, 1)
            cost = exact.total_cost
            return _Step(centers, labels, cost, cost, exact, counts)
        sums = _cluster_sums(X, labels, len(centers))
        lo, hi = _sum_bounds(sums, counts, centers.positions, norms)
        return _Step(centers, labels, lo, hi, counts=counts, sums=sums)

    def decide(holds, prev: _Step, new: _Step) -> bool:
        """holds(T_prev, T_new, T_prev), falling in its first argument and
        rising in the others (rounding is monotone): from the bounds' two
        extreme corners, or the exact totals if they differ."""
        if holds(prev.hi, new.lo, prev.lo) != holds(prev.lo, new.hi, prev.hi):
            prev.settle(X, z)
            new.settle(X, z)
        return holds(prev.hi, new.lo, prev.lo)

    current, prev = step(centers), None
    for _ in range(max_iters):
        if prev is not None:  # only its labels are read again
            prev.exact = None
        labels, counts = current.labels, current.counts
        filled = np.flatnonzero(counts)
        positions = current.centers.positions.copy()
        if z == 2:
            indices = None
            positions[filled] = current.sums[filled] / counts[filled, None]
        else:
            # a cluster with the members its medoid came from keeps it
            if prev is None:
                indices, redo = np.empty(len(counts), dtype=np.intp), filled
            else:
                indices = current.centers.indices.copy()
                moved = labels != prev.labels
                redo = np.union1d(labels[moved], prev.labels[moved])
                redo = redo[counts[redo] > 0]
            bounds, order = _members(labels, len(counts))
            for i in redo:
                rows = order[bounds[i]:bounds[i + 1]]
                indices[i] = rows[_medoid(X[rows])]
            positions[filled] = X[indices[filled]]
        mind = None  # per-point distance^z to the current centers
        for i in np.flatnonzero(counts == 0):
            if mind is None:
                mind = current.settle(X, z).distances ** z
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
    if not costs and current.exact is None:
        return Clustering(current.centers, current.labels, None, float(z),
                          None)
    frame = None  # the float32 operands go before the exact cost pass
    return current.settle(X, z)


def snap_centers(data: Dataset, clustering: Clustering) -> Clustering:
    """Replace each center with a dataset row and recompute assignment and
    costs.  A cluster with members takes the member nearest its center by
    ``cdist``, ties to the lowest row; clusters are disjoint, so no two
    take the same row.  Then each empty cluster, in order, takes the
    nearest row by ``cdist`` that no center has taken, ties to the lowest
    row (row 0 when k > n leaves none).  So for k <= n the snapped centers
    are k distinct rows and a selection run queries k distinct losses.
    """
    X, C = data.rows, clustering.centers.positions
    bounds, order = _members(clustering.assignment, clustering.k)
    counts = np.diff(bounds)
    idx = np.zeros(clustering.k, dtype=np.intp)
    for i in np.flatnonzero(counts):
        lo, hi = bounds[i], bounds[i + 1]
        idx[i] = order[lo + np.argmin(cdist(C[i:i + 1], X[order[lo:hi]])[0])]
    del order  # before `assign` makes its own n x k scores
    taken = np.zeros(data.n, dtype=bool)
    taken[idx[counts > 0]] = True
    for i in np.flatnonzero(counts == 0):
        # every row taken leaves every distance inf, and argmin row 0
        idx[i] = np.argmin(np.where(taken, np.inf, cdist(C[i:i + 1], X)[0]))
        taken[idx[i]] = True
    del taken
    return assign(data, CenterList(X[idx], idx), clustering.z)


def kmedoids(data: Dataset, k: int, rng) -> Clustering:
    """z=1 clustering whose centers are dataset rows: D^1 seeding followed by
    alternating assignment and per-cluster sampled medoid updates
    (`_medoid`; exact for clusters of at most MEDOID_CANDIDATES rows).
    Deterministic given the seeding's rng: equal seeds give equal
    clusterings."""
    seeds = dz_seed(data, k, 1, rng)
    return refine(data, seeds, 1)
