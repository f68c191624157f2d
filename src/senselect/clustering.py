"""(k,z)-clustering machinery: D^z seeding, Lloyd/medoid refinement, snapping,
assignment, and the cost functionals used by the samplers.

All tie-breaking is to the lowest index so results are reproducible.

Numerics of assignment.  A point's label is the argmin of its ``cdist``
distances to the centers, ties to the lowest cluster id, whatever BLAS or
thread count runs the arithmetic.  `_nearest_labels` computes it with one
float32 GEMM per tile of rows and centers centred on the data mean: every
center whose score is within a rigorous rounding margin of the row's least
is a candidate, a row with one candidate takes it, and ``cdist`` measures
again the few rows with more.  Each point's cost is then computed exactly
from the residual to its assigned center, ||x - c||^z, so a point that
coincides with its center costs exactly 0.  Seeding keeps ``cdist``;
snapping measures again with ``cdist`` every row a GEMM filter cannot rule
out (`snap_centers`).  Every n x d or n x k temporary is built in row
blocks of at most BLOCK_ENTRIES entries; each row's arithmetic is its own,
so no result depends on the block size.

The z=2 update copies no rows: `_cluster_sums` adds each cluster's members
with one sparse indicator product, in the order numpy's ``mean(axis=0)``
adds them, so each center is its members' mean bit for bit.

Refinement stops at the Lloyd fixed point: once an update leaves the
assignment unchanged and reseeds no cluster, the next pass would rebuild the
same centers from the same rows, so it is skipped.  Its z=2 cost tests read
rigorous bounds on each state's total from its cluster sums
(`_sum_bounds`), and exact costs only when the bounds cannot decide them
(`refine`), so every result is that of exact costs.

The z=1 medoids are exact (`_medoids`): one ``map`` over the clusters on a
pool with a thread per CPU this process may use (BLAS and ``cdist`` release
the GIL), each task one cluster's whole medoid (`_medoid`).  A convexity
lower bound (`_lower_bounds`) drops the rows that cannot be the medoid,
float32 GEMM tiles (`_tile_sums`) sum each other row's distances to every
row within rigorous margins (`_filter_operands`), which far-apart groups
of rows (`_groups`) keep narrow, and ``cdist`` sums again every row within
its margin of the least, so each medoid is its full matrix's row-sum
argmin, bit for bit, whatever bits the GEMM gives.  Tiles and re-check
blocks are MEDOID_BLOCK rows on any CPU count, so a worker holds one tile
plus one re-check block.  A z=1 refinement recomputes only the medoids of
clusters whose members changed since the last medoid pass.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag
from scipy.sparse import csc_matrix
from scipy.spatial.distance import cdist

from .core import Dataset, _cpu_count, as_generator, blas_threads

#: relative cost improvement below which refinement stops
REFINE_TOL = 1e-9

#: most entries in one row block of an n-sized temporary: the assignment
#: kernel's float32 score tile, and the residuals of the cost pass and of
#: `center_distances`
BLOCK_ENTRIES = 2 ** 16

#: side of a medoid filter tile and rows of one medoid re-check block, on
#: any CPU count: a medoid task holds one MEDOID_BLOCK x MEDOID_BLOCK tile
#: and at most MEDOID_BLOCK x (cluster size) re-checked distances
MEDOID_BLOCK = 256

#: most far-apart groups the medoid's filter cuts one cluster into
MEDOID_GROUPS = 8

#: fewest cells per group of the medoid filter's lower bound on a row's sum
MEDOID_CELLS = 64

#: rows per cell of that bound in a group of more than MEDOID_CELLS x
#: MEDOID_CELL_ROWS rows: every row the bound keeps is summed against the
#: whole cluster, so a large group is worth more cells
MEDOID_CELL_ROWS = 32


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
    U, b = sqrt(d) 2**(-537 - e) (see `_filter_operands`).  For a the ``cdist``
    argmin and r the least score's center, cdist(a) <= cdist(r) gives
    sqrt(t_a) <= ((1 + c) sqrt(t_r) + 2b) / (1 - c); with D_j = |q - p_j|
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


def center_distances(rows: np.ndarray, clustering: Clustering) -> np.ndarray:
    """||x - c|| of every row to its own center, by ``np.linalg.norm``'s
    arithmetic on residual row blocks, squared in place; rounds differently
    from `_point_cost`, which feeds the cluster costs.  A row whose squared
    residual underflows to 0 although the residual is nonzero gets its norm
    again from the residual scaled by its largest entry; every other
    distance keeps the plain norm's bits."""
    centers, labels = clustering.centers.positions, clustering.assignment
    dist = np.empty(rows.shape[0])
    for lo, hi, R in _residuals(rows, centers, labels):
        dist[lo:hi] = np.sqrt(np.add.reduce(np.multiply(R, R, out=R), axis=1))
    zero = np.flatnonzero(dist == 0)
    tiny = zero[np.any(rows[zero] != centers[labels[zero]], axis=1)]
    if tiny.size:
        R = rows[tiny] - centers[labels[tiny]]
        scale = np.max(np.abs(R), axis=1)
        dist[tiny] = scale * np.linalg.norm(R / scale[:, None], axis=1)
    return dist


def _point_cost(X: np.ndarray, C: np.ndarray, labels: np.ndarray,
                z: float) -> np.ndarray:
    """||x - c||^z of every point to its labelled center, from the residual,
    in row blocks."""
    sq = np.empty(X.shape[0])
    for lo, hi, R in _residuals(X, C, labels):
        sq[lo:hi] = np.einsum("ij,ij->i", R, R)
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
    labels = _nearest_labels(data.rows, centers.positions)
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


def _groups(P: np.ndarray, limit: int, side: int):
    """(order, sizes, gaps): the rows P as at most `limit` far-apart groups
    of the given sizes, `order` listing their row offsets group by group,
    ascending within a group (None for one group: the rows in order), and
    gaps[g, h] > 0 bounding every distance between groups g, h from below.

    Rows of more than `side` (a tile's side) are cut at half the projection
    of the row farthest from their mean, on the direction to it, and each
    part again.  A part's ball is centred near its mean and reaches its
    farthest member by ``cdist``; a cut holds when the gap between the
    balls exceeds the larger radius, so a high-dimensional blob, whose
    farthest row clears the rest's ball by a hair, is not peeled row by
    row.  A ``cdist`` distance t is within (d/2 + 3) U t + b of the true
    one, b = sqrt(d) 2**-537 (see `_filter_operands`), so the gap is at
    least delta (1 - c) - (r_A + r_B)(1 + c) - 4 b for the measured centre
    distance delta and radii r, c = 2 g_(d+3) (`_gamma`), whose spare half
    covers the rounding of this sum when it is positive."""
    (m, d), gap, radius = P.shape, 0.0, 0.0
    if limit > 1 and m > side:
        total = np.ones(m) @ P
        far = P[np.argmax(cdist(total[None] / m, P)[0])] - total / m
        first = P @ far > total @ far / m + 0.5 * (far @ far)
        count = np.count_nonzero(first)
        if 0 < count < m:
            part = first @ P
            centres = np.array([part / count, (total - part) / (m - count)])
            dist, c = cdist(centres, P), 2 * _gamma(d + 3)
            radii = (np.max(dist[0], where=first, initial=0),
                     np.max(dist[1], where=~first, initial=0))
            radius = max(radii)
            gap = (cdist(centres[:1], centres[1:])[0, 0] * (1 - c)
                   - sum(radii) * (1 + c) - 4 * np.sqrt(d) * 2.0 ** -537)
    if not gap > radius:
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


@dataclass(frozen=True)
class _Filter:
    """One cluster's rows for the medoid filter (`_filter_operands`), group
    by group: offsets `order` in the cluster (None: row order), group g's
    rows ends[g]:ends[g + 1], and gap[g, h] = t' for groups g, h; ops[g] =
    (start, scale, left, right, norms) for group g's rows from `start` on,
    in its own frame times `scale`, and ops[-1] the whole cluster's, scaled
    by 2**-e."""

    order: np.ndarray | None
    ends: np.ndarray
    gap: np.ndarray
    e: int
    ops: list
    floor: np.ndarray
    err: np.ndarray
    mb: float
    side: int
    spill: float


def _gemm_operands(q: np.ndarray):
    """The float64 norms |q| of float32 rows q, and their GEMM operands
    [q, |q|^2, 1] and [-2q, 1, |q|^2]."""
    d = q.shape[1]
    left = np.empty((q.shape[0], d + 2), dtype=np.float32)
    right = np.empty_like(left)
    left[:, :d] = q
    sq = np.einsum("ij,ij->i", q, q)
    left[:, d], left[:, d + 1] = sq, 1
    np.multiply(q, -2, out=right[:, :d])
    right[:, d], right[:, d + 1] = 1, sq
    return np.sqrt(sq, dtype=np.float64), left, right


def _centred(P: np.ndarray):
    """e, the norms |q| and the GEMM operands of the rows P, centred on
    their mean and scaled by 2**-e, as float32 rows q."""
    R = P - np.ones(P.shape[0]) @ P / P.shape[0]
    e = int(np.frexp(np.max(np.abs(R)))[1])
    return e, *_gemm_operands(np.ldexp(R, -e).astype(np.float32))


def _spread(d: int, n: np.ndarray, count, s1, s2, t: float) -> tuple:
    """(n_iH, r_iH) of `_filter_operands` for rows of norms n against
    `count` points whose norms sum to s1 and their squares to s2, t (if
    > 0) bounding their distances below."""
    g3 = 3 * _gamma(d + 2, 2.0 ** -24)
    reach = count * n + s1
    near = 1.01 * np.sqrt(g3) * reach
    if t > 0:
        near = np.minimum(near, (
            g3 * (count * n ** 2 + 2 * n * s1 + s2)
            + count * (d + 1) * 2.0 ** -123) / t + 1.01 * 2.0 ** -24 * reach)
    return near + count * (np.sqrt(d + 2) * 2.0 ** -60), reach


def _filter_operands(P: np.ndarray, side: int) -> _Filter:
    """The medoid filter's operands and margins for the rows P of one
    cluster, cut into far-apart groups (`_groups`), with tiles of `side`
    rows.  A group's rows, centred on their mean, are scaled by 2**-e below
    1 in magnitude and cast to float32 (q); one product [q, |q|^2, 1] @
    [-2p, 1, |p|^2].T gives squared distances to points p, clamped at 0
    before the sqrt.  Distances between two groups take the whole
    cluster's operands, centred on its mean.

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
    t' > 0; `_spread`), from the whole cluster's q; over i's own group G
    the first, from the group's q and times 2**(e_G - e), an exact power of
    two, into the cluster's units.  A float32 tile sum (`_tile_sums`), of
    any order of at most `side` terms after f <= t' is taken off, is within
    `spill` v = 1.01 (2 side + 1) u of its terms' magnitudes, at most r_iH
    + n_iH - |H| f between groups and r_iG within (the 1.1 below covers
    v n_iG); k_i is the sum of the n_iH, n_iG and v times those magnitudes.
    The float32 sqrt and the float64 sums add a relative a = u + 3 m U, so
    a filtered row sum F_i is within 1.01 k_i + a T_i of T_i, and err_i =
    1.1 (k_i + m b), with sqrt(s_i) for |q_i| (the 1.1 covers that).  m b
    bounds a ``cdist`` row sum's absolute error: a ``cdist`` distance is
    within (d/2 + 3) U t of t plus sqrt(d) 2**-537 in the data's units, as
    a square below 2**-1074 vanishes (subnormal rows may read at distance
    0), so b = sqrt(d) 2**(-537 - e) scaled, and a ``cdist`` row sum is
    within m b + c T of T, c = (m + d + 8) U."""
    m, d = P.shape
    order, sizes, gaps = _groups(P, MEDOID_GROUPS, side)
    ends = np.cumsum([0, *sizes])
    P = P if order is None else P[order]
    e, norm, left, right = whole = _centred(P)
    spill = 1.01 * (2 * side + 1) * 2.0 ** -24
    ops, k = [], np.empty(m)
    for s, t in zip(ends[:-1], ends[1:]):
        e_g, n, left_g, right_g = whole if order is None else _centred(P[s:t])
        scale = np.ldexp(1.0, e_g - e)
        near, reach = _spread(d, n, t - s, np.sum(n), 0.0, 0.0)
        k[s:t] = scale * (near + spill * reach)
        ops.append((s, scale, left_g, right_g, n))
    gap = np.ldexp(gaps, -e) - np.sqrt(d) * 2.0 ** -22  # t' of each pair
    floor = np.where(gap > 0, gap * (1 - 2.0 ** -20), 0).astype(np.float32)
    for g, h in itertools.permutations(range(len(sizes)), 2):
        n_i, n_h = norm[ends[g]:ends[g + 1]], norm[ends[h]:ends[h + 1]]
        near, reach = _spread(d, n_i, n_h.size, np.sum(n_h),
                              np.sum(n_h ** 2), gap[g, h])
        k[ends[g]:ends[g + 1]] += near + spill * (
            near + reach - n_h.size * float(floor[g, h]))
    mb = m * np.sqrt(d) * np.ldexp(1.0, -537 - e)
    ops.append((0, np.float64(1), left, right, norm))
    return _Filter(order, ends, gap, e, ops, floor, 1.1 * (k + mb), mb,
                   side, spill)


def _cells(left: np.ndarray, right: np.ndarray, frames, side: int) -> list:
    """Cuts rows (operands left, right) into one cell per MEDOID_CELL_ROWS
    rows, at least MEDOID_CELLS (or one a row), around evenly strided
    pivot rows, each row to the least float32 score, in row blocks of at
    most side**2 scores; per frame (the rows' float32 coordinates and
    norms), the cells' (right operand, float32 counts, sum of count x norm
    and of count x norm**2, delta of `_lower_bounds`)."""
    m, d = left.shape[0], left.shape[1] - 2
    count = min(max(MEDOID_CELLS, m // MEDOID_CELL_ROWS), m)
    pivots = right[np.arange(count) * m // count]
    block = max(1, side * side // count)
    labels = np.concatenate([
        np.argmin(left[a:a + block] @ pivots.T, axis=1)
        for a in range(0, m, block)]).astype(np.min_scalar_type(count))
    counts = np.bincount(labels)
    counts = counts[counts > 0]
    starts = np.cumsum(counts) - counts
    order = np.argsort(labels, kind="stable")
    out = []
    for q, n in frames:
        sums = np.add.reduceat(q[order], starts, dtype=np.float64)
        norm, _, cell_right = _gemm_operands(
            (sums / counts[:, None]).astype(np.float32))
        s1 = np.add.reduceat(n[order], starts)
        delta = (1.01 * 2.0 ** -24 * norm
                 + 1.01 * (counts + 1) * 2.0 ** -53 * s1 / counts
                 + np.sqrt(d) * 2.0 ** -149)
        out.append((cell_right, counts.astype(np.float32), counts @ norm,
                    counts @ norm ** 2, delta))
    return out


def _lower_bounds(flt: _Filter) -> np.ndarray:
    """lb_i, at most T_i - 1.1 m b, for the distance sum T_i of each row of
    the filter, in the cluster's units.  Each group is cut into cells
    (`_cells`).  For a cell c of n_c rows with mean mu_c, convexity
    (Jensen) gives sum over j in c of |x_i - x_j| >= n_c |x_i - mu_c|, so
    lb_i is the sum over every cell of the cluster of n_c |x_i - mu_c|,
    less a rounding term: one float32 product of the rows' operands with
    the cells' means, in row blocks of at most side**2 entries (cells of
    other groups in the cluster's frame).

    The bound is rigorous.  In the frame of the cells' scores (row i's
    group's for its own cells, times 2**(e_G - e); the cluster's for the
    others), with `_filter_operands`' notation, let mu_c be the exact mean
    of the cast rows q_j of cell c and mu~_c its float32 value.  The cast
    moves sum t_ij over j in c by at most sum 1.01 u (|q_i| + |q_j|);
    Jensen gives n_c |q_i - mu_c|; float64 sums, the division and the cast
    leave |mu~_c - mu_c| <= delta_c = 1.01 u |mu~_c| + 1.01 (n_c + 1) U
    mean |q_j| + sqrt(d) 2**-149; and the clamped root of the score is
    within min(sqrt E, E / tau) of |q_i - mu~_c|, E as there with mu~_c
    for q_j, where tau = t' - max delta_c bounds it below for another
    group's cells (their means lie in that group's ball).  Summed with
    weights n_c, these errors are at most n_iH (n_iG) with the cells'
    counts and norms |mu~_c| for the rows'.  The float32 root and the
    float32 weighted sum over C cells add a relative 1.01 (C + 3) u, so
    lb_i = (1 - 1.01 (C + 3) u) lb~_i - 1.1 (the sum over groups of n_iH,
    the cast and n_c delta_c terms, + m b) - 2**-1022 (the scale's
    underflow) is at most T_i - 1.1 m b."""
    ends, side = flt.ends, flt.side
    _, _, left, _, norm = flt.ops[-1]
    m, d, u = left.shape[0], left.shape[1] - 2, 2.0 ** -24
    many = len(flt.ops) > 2
    own = [_cells(left_g, right_g, [(left_g[:, :d], n_g)] + (
               [(left[s:t, :d], norm[s:t])] if many else []), side)
           for (s, _, left_g, right_g, n_g), t in zip(flt.ops, ends[1:])]
    lb, slack = np.zeros(m), np.full(m, flt.mb)
    for g, (s, scale, left_g, _, n_g) in enumerate(flt.ops[:-1]):
        t = ends[g + 1]
        right, counts, s1, s2, delta = own[g][0]
        near, _ = _spread(d, n_g, t - s, s1, s2, 0.0)
        slack[s:t] += scale * (near + 1.01 * u * ((t - s) * n_g
                                                  + np.sum(n_g))
                               + counts @ delta)
        others = [h for h in range(len(own)) if h != g]
        for h in others:
            _, counts_h, s1, s2, delta = own[h][1]
            n_h = norm[ends[h]:ends[h + 1]]
            tau = flt.gap[g, h] - np.max(delta)
            near, _ = _spread(d, norm[s:t], n_h.size, s1, s2, tau)
            slack[s:t] += near + 1.01 * u * (
                n_h.size * norm[s:t] + np.sum(n_h)) + counts_h @ delta
        if others:
            right_x = np.vstack([own[h][1][0] for h in others])
            counts_x = np.concatenate([own[h][1][1] for h in others])
        block = max(1, side * side // max(
            right.shape[0], right_x.shape[0] if others else 0))
        for a in range(s, t, block):
            ea = min(a + block, t)
            D = left_g[a - s:ea - s] @ right.T
            np.sqrt(np.maximum(D, 0, out=D), out=D)
            lb[a:ea] += scale * (D @ counts)
            if others:
                D = left[a:ea] @ right_x.T
                np.sqrt(np.maximum(D, 0, out=D), out=D)
                lb[a:ea] += D @ counts_x
    cells_total = sum(o[0][1].size for o in own)
    return ((1 - 1.01 * (cells_total + 3) * u) * lb - 1.1 * slack
            - 2.0 ** -1022)


def _tile_sums(flt: _Filter, rows: np.ndarray) -> np.ndarray:
    """The filtered sums F_i of the given rows (ascending offsets in the
    filter's order) against every row of the cluster.  Each group's given
    rows, in blocks of up to `side` rows gathered once per block and group,
    meet each group's rows in column blocks of `side`: one float32 product
    of their operands (a group's own within it, the cluster's between two
    groups), clamped at 0 and square-rooted, less the tile's floor, summed
    by a float32 product with a ones vector, the floor added back in
    float64."""
    ends, side = flt.ends, flt.side
    ones = np.ones(side, dtype=np.float32)
    sums = np.zeros(rows.size)
    cut = np.searchsorted(rows, ends)  # group g's: rows[cut[g]:cut[g + 1]]
    for g, h in itertools.product(range(ends.size - 1), repeat=2):
        s_a, scale, left, _, _ = flt.ops[g if g == h else -1]
        s_b, _, _, right, _ = flt.ops[h if g == h else -1]
        f = float(flt.floor[g, h])
        for a in range(cut[g], cut[g + 1], side):
            L = left[rows[a:min(a + side, cut[g + 1])] - s_a]
            for b in range(ends[h], ends[h + 1], side):
                D = L @ right[b - s_b:min(b + side, ends[h + 1]) - s_b].T
                np.sqrt(np.maximum(D, 0, out=D), out=D)
                if f:
                    D -= f
                sums[a:a + L.shape[0]] += (scale * (D @ ones[:D.shape[1]])
                                           + f * D.shape[1])
                del D  # before the next tile's is computed
    return sums


def _row_sums(P: np.ndarray, rows, side: int) -> np.ndarray:
    """The ``cdist`` distance sums of the rows P[rows] to every row of P, in
    blocks of `side` rows; each row is summed alone, so its bits are those
    of the full matrix's row sum whatever the block."""
    sums = np.empty(len(rows))
    for a in range(0, len(rows), side):
        sums[a:a + side] = np.sum(cdist(P[rows[a:a + side]], P), axis=1)
    return sums


def _medoid(P: np.ndarray, side: int) -> int:
    """Row offset of the medoid of the rows P of one cluster, ``argmin(
    np.sum(cdist(P, P), axis=1))`` with ties to the lowest offset, with
    tiles and re-check blocks of `side` rows (in the notation of
    `_filter_operands`).  A cluster of more than one tile keeps only rows
    whose lower bound (`_lower_bounds`) is at most (1 + 3c)(T~_j 2**-e +
    2 m b), T~_j the ``cdist`` sum of the row j of least bound: the
    ``cdist`` argmin i has T~_i <= T~_j, so lb_i <= T_i <= (1 + 2c)(T~_j +
    m b), the spare c covering the cap's rounding; a cluster of one tile
    keeps every row.  Of the kept rows' filtered sums F against every row
    (`_tile_sums`), row i is re-checked when F_i - err_i <= (1 + 5 (a +
    c)) F_j + err_j for the j that makes the right side least: T_i - T_j
    <= 2 m b + c (T_i + T_j) and T_i + T_j <= 2.01 (F_j + 1.01 k_j + m b),
    so F_i - F_j <= 1.02 (k_i + k_j) + 2.01 m b + 2.03 (a + c) F_j.
    ``cdist`` sums each re-checked row again (`_row_sums`), save the cap's
    row, whose sum it has, and the least sum wins."""
    m, d = P.shape
    flt = _filter_operands(P, side)
    row, total = -1, np.inf  # the cap's row and its sum (no cap: none)
    kept = np.arange(m)
    if m > side:
        lb = _lower_bounds(flt)
        j = int(np.argmin(lb))
        row = j if flt.order is None else int(flt.order[j])
        [total] = _row_sums(P, [row], side)
        c = (m + d + 8) * 2.0 ** -53
        kept = np.flatnonzero(
            lb <= (1 + 3 * c) * (np.ldexp(total, -flt.e) + 2 * flt.mb))
    sums, err = _tile_sums(flt, kept), flt.err[kept]
    rel = 5 * (2.0 ** -24 + (4 * m + d + 8) * 2.0 ** -53)
    at = kept[sums - err <= np.min((1 + rel) * sums + err)]
    rows = at if flt.order is None else np.sort(flt.order[at])
    exact, again = np.full(rows.size, total), rows != row
    exact[again] = _row_sums(P, rows[again], side)
    return int(rows[np.argmin(exact)])


def _medoids(points: np.ndarray, bounds: np.ndarray,
             pool: ThreadPoolExecutor | None = None) -> np.ndarray:
    """Row of `points` that is the medoid of each cluster i, whose members
    are points[bounds[i]:bounds[i + 1]] (at least one), ties to the lowest
    row: one ``map`` over the clusters on `pool` (inline without one), each
    cluster's whole medoid one task (`_medoid`, with tiles and re-check
    blocks of MEDOID_BLOCK rows)."""
    spans = list(zip(bounds[:-1], bounds[1:]))
    run = map if pool is None else pool.map
    found = run(_medoid, [points[lo:hi] for lo, hi in spans],
                [MEDOID_BLOCK] * len(spans))
    return np.array([lo + r for (lo, _), r in zip(spans, found)])


def _members(labels: np.ndarray, k: int) -> tuple:
    """(counts, bounds, order): cluster i's members, in ascending row order,
    are order[bounds[i]:bounds[i + 1]].  A stable sort gives the same
    permutation for any key dtype, and numpy radix-sorts 8- and 16-bit
    keys."""
    counts = np.bincount(labels, minlength=k)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(labels.astype(np.min_scalar_type(k)), kind="stable")
    return counts, bounds, order


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
        _, bounds, order = _members(labels, k)
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
    reports for it, and lo = hi = T once `exact` holds its clustering.  A
    z=2 state also holds its clusters' member counts and sums."""

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

    Each iteration makes one n x k pass of the assignment kernel
    (`_nearest_labels`).  For z=2 the call casts the rows to the kernel's
    float32 operands once, and frees them before the final exact cost pass;
    each state's step also sums its clusters (`_cluster_sums`), which give
    the next update's means and rigorous bounds on the state's total
    (`_sum_bounds`).  The exact O(n d) cost pass runs only when a stop test
    needs it: a test that the bounds on both totals decide is decided, else
    it runs on both states' exact costs.  The returned clustering is always
    exact.  For z=1 one thread pool, with a thread per CPU this process may
    use, serves every medoid of the call, one task per cluster; while it
    exists BLAS runs on one thread, so no idle BLAS worker spins on a CPU
    the pool needs.  A medoid pass recomputes only the clusters that a row
    entered or left since the previous pass; the labels of that pass are
    the previous state's.
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
            frame = _frame(X, centers.positions)

        def step(centers: CenterList) -> _Step:
            if z == 1:
                exact = assign(data, centers, z)
                cost = exact.total_cost
                return _Step(centers, exact.assignment, cost, cost, exact)
            labels = _nearest_labels(X, centers.positions, frame)
            counts = np.bincount(labels, minlength=len(centers))
            sums = _cluster_sums(X, labels, len(centers))
            lo, hi = _sum_bounds(sums, counts, centers.positions, norms)
            return _Step(centers, labels, lo, hi, counts=counts, sums=sums)

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
            positions = current.centers.positions.copy()
            if z == 2:
                counts, indices = current.counts, None
                filled = np.flatnonzero(counts)
                positions[filled] = (current.sums[filled]
                                     / counts[filled, None])
            else:
                counts, bounds, order = _members(labels, k)
                filled = np.flatnonzero(counts)
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
                    indices[redo] = rows[_medoids(X[rows], spans, pool)]
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
        frame = None  # the float32 operands go before the exact cost pass
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
