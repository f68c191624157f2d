"""Reference equivalence of every sampler.

Each property rebuilds a sampler's plan and draw from the formulas written
out below: the score lhat + lam * v, the normalizer lam . Phi + sum(lhat)
(or sum(scores) for leverage and distance-only regression), the weights
1 / (s p) and ``g.choice`` from the sampler's named child stream.  The
sampler's probabilities, weights, sample count, indices and sample weights
must equal the reference's bit for bit.
"""

import math
import shlex
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from senselect.clustering import (assign, dz_seed, kmedoids, refine,
                                  snap_centers)
from senselect import core
from senselect.core import Dataset, LossOracle, RngStream
from senselect.evaluation import exact_expectation_gap
from senselect.hoelder import INFINITY, default_sample_count, estimate_lambda
from senselect.regression import (RegressionInstance, leverage_scores,
                                  leverage_select, regression_sample_size,
                                  regression_select, solve_least_squares)
from senselect.selection import (AUTO, data_select, data_select_rounds,
                                 sample_size)

EXAMPLES = 40


def reference_plan(scores, denom, s):
    """p = scores / denom (uniform when denom <= 0) and w = 1 / (s p) on
    the support; a p whose weight overflows is off the support."""
    n = scores.size
    p = np.full(n, 1.0 / n) if denom <= 0 else scores / denom
    with np.errstate(divide="ignore", over="ignore"):
        w = np.where(p > 0, 1.0 / (s * p), 0.0)
    p[np.isinf(w)] = 0.0
    w[np.isinf(w)] = 0.0
    return p, w


def sums_to_one(p):
    """The check every SamplingPlan makes.  Tiny (subnormal) lam can make
    the reference plan fail it; the sampler then rebuilds the plan at a
    scale where nothing underflows, and must return one that passes."""
    return math.isclose(float(np.sum(p)), 1.0, rel_tol=1e-9, abs_tol=1e-9)


def outcome(fn, *args, **kwargs):
    """fn's result, or the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return exc


def reference_draw(p, w, s, stream):
    idx = stream.generator().choice(p.size, size=s, p=p)
    return idx, w[idx]


def broadcast(lam, k):
    lam = np.asarray(lam, dtype=np.float64).reshape(-1)
    return np.full(k, lam[0]) if lam.size == 1 else lam


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def grid_data(draw, min_rows=1):
    """Rows on a small grid, duplicates likely, plus a positive loss each."""
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-4, 4).map(float)] * d)
    distinct = draw(st.lists(point, min_size=1, max_size=6, unique=True))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=min_rows,
                         max_size=24))
    losses = draw(st.lists(st.floats(0.1, 10.0), min_size=len(rows),
                           max_size=len(rows)))
    return np.array(rows), np.array(losses)


@st.composite
def select_case(draw):
    rows, losses = draw(grid_data())
    k = draw(st.integers(1, min(len(rows), 5)))
    mode = draw(st.sampled_from(["scalar", "vector", "auto"]))
    if mode == "scalar":
        lam = draw(st.floats(0.0, 5.0))
    elif mode == "vector":
        lam = draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k))
    else:
        lam = AUTO
    s = draw(st.none() | st.integers(1, 40))
    return (rows, losses, k, lam, draw(st.sampled_from([1, 2])),
            draw(st.sampled_from([0.3, 0.5, 1.0])), s,
            draw(st.integers(0, 10 ** 6)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(select_case())
def test_data_select_matches_the_reference(case):
    rows, losses, k, lam, z, epsilon, s, seed = case
    data = Dataset(rows)
    rng = RngStream(seed, "ref")
    got = outcome(data_select, data, k, epsilon, lam,
                  LossOracle.from_table(losses), z, rng, s=s)

    want = snap_centers(data, refine(data, dz_seed(data, k, z,
                                                   rng.child("seed")), z))
    lhat = losses[want.centers.indices][want.assignment]
    v = np.linalg.norm(rows - want.centers.positions[want.assignment],
                       axis=1) ** z
    if lam == AUTO:
        lam_vec = estimate_lambda(data, want, LossOracle.from_table(losses),
                                  default_sample_count(k, 0.2),
                                  rng.child("lambda"))
    else:
        lam_vec = broadcast(lam, k)
    scores = lhat + lam_vec[want.assignment] * v
    denom = float(np.dot(lam_vec, want.cluster_cost) + np.sum(lhat))
    draws = sample_size(epsilon) if s is None else s
    p, w = reference_plan(scores, denom, draws)
    if not sums_to_one(p):
        assert not isinstance(got, ValueError)
        return
    idx, weights = reference_draw(p, w, draws, rng.child("draw"))

    sample, report, clustering, plan = got
    assert_bits(clustering.centers.indices, want.centers.indices)
    assert_bits(clustering.cluster_cost, want.cluster_cost)
    assert plan.s == draws == report["s"]
    assert_bits(plan.p, p)
    assert_bits(plan.w, w)
    assert plan.denom == denom
    assert_bits(sample.indices, idx)
    assert_bits(sample.weights, weights)
    assert report["lambda"] == [float(x) for x in lam_vec]


@st.composite
def rounds_case(draw):
    rows, losses = draw(grid_data(min_rows=2))
    rounds = draw(st.integers(1, min(3, len(rows))))
    k = draw(st.integers(1, max(1, len(rows) // rounds)))
    if draw(st.booleans()):
        lam = draw(st.floats(0.0, 5.0))
    else:
        lam = draw(st.lists(st.floats(0.0, 5.0), min_size=k * rounds,
                            max_size=k * rounds))
    return (rows, losses, k, rounds, lam, draw(st.sampled_from([1, 2])),
            draw(st.sampled_from([0.3, 0.5, 1.0])),
            draw(st.integers(0, 10 ** 6)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(rounds_case())
def test_data_select_rounds_matches_the_reference(case):
    rows, losses, k, rounds, lam, z, epsilon, seed = case
    data = Dataset(rows)
    rng = RngStream(seed, "ref")
    got = outcome(data_select_rounds, data, k, rounds, epsilon, lam,
                  LossOracle.from_table(losses), z, rng)

    ordering = dz_seed(data, k * rounds, z, rng.child("seed"))
    lam_vec = broadcast(lam, k * rounds)
    draws = sample_size(epsilon)
    for i in range(1, rounds + 1):
        clustering = assign(data, ordering.prefix(i * k), z)
        lhat = losses[clustering.centers.indices][clustering.assignment]
        v = np.linalg.norm(
            rows - clustering.centers.positions[clustering.assignment],
            axis=1) ** z
        lam_i = lam_vec[: i * k]
        scores = lhat + lam_i[clustering.assignment] * v
        denom = float(np.dot(lam_i, clustering.cluster_cost) + np.sum(lhat))
        p, w = reference_plan(scores, denom, draws)
        if not sums_to_one(p):
            assert not isinstance(got, ValueError)
            return
        idx, weights = reference_draw(p, w, draws,
                                      rng.child(f"draw-round-{i}"))
        sample, report = got[i - 1]
        assert report["s"] == draws
        assert report["denom"] == denom
        assert_bits(sample.indices, idx)
        assert_bits(sample.weights, weights)


@st.composite
def regression_case(draw):
    rows, _ = draw(grid_data())
    n = len(rows)
    b = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                               max_size=n)))
    k = draw(st.integers(1, min(n, 4)))
    mode = draw(st.sampled_from(["scalar", "vector", "infinity"]))
    if mode == "scalar":
        lam = draw(st.floats(0.0, 5.0))
    elif mode == "vector":
        lam = draw(st.lists(st.floats(0.0, 5.0), min_size=k, max_size=k))
    else:
        lam = INFINITY
    s = draw(st.none() | st.integers(1, 40))
    return (rows, b, k, lam, draw(st.sampled_from([0.5, 1.0])), s,
            draw(st.integers(0, 10 ** 6)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(regression_case())
def test_regression_select_matches_the_reference(case):
    A, b, k, lam, epsilon, s, seed = case
    rng = RngStream(seed, "ref")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate normalizer fallback
        got = outcome(regression_select, RegressionInstance(A, b), k,
                      epsilon, lam, rng, s=s)

    data = Dataset(A)
    clustering = kmedoids(data, k, rng.child("cluster"))
    idx = clustering.centers.indices
    sizes = np.bincount(clustering.assignment, minlength=clustering.k)
    x0 = solve_least_squares(A[idx], b[idx], weights=sizes)
    resid = ((A[idx] @ x0 - b[idx]) ** 2)[clustering.assignment]
    dist = np.linalg.norm(
        A - clustering.centers.positions[clustering.assignment], axis=1)
    draws = regression_sample_size(A.shape[1], epsilon) if s is None else s
    if lam == INFINITY:
        scores, denom = dist, float(np.sum(dist))
    else:
        lam_vec = broadcast(lam, k)
        scores = lam_vec[clustering.assignment] * dist + resid
        denom = float(np.dot(lam_vec, clustering.cluster_cost)
                      + np.sum(resid))
    p, w = reference_plan(scores, denom, draws)
    if not sums_to_one(p):
        # only the lam-weighted plan is rebuilt; distance-only is not
        assert isinstance(got, ValueError) == (lam == INFINITY)
        return
    drawn, weights = reference_draw(p, w, draws, rng.child("draw"))

    sample, plan = got
    assert plan.s == draws
    assert_bits(plan.x0, x0)
    assert_bits(plan.clustering.centers.indices, idx)
    assert_bits(plan.p, p)
    assert_bits(plan.w, w)
    assert_bits(sample.indices, drawn)
    assert_bits(sample.weights, weights)


@settings(max_examples=EXAMPLES, deadline=None)
@given(grid_data(min_rows=2), st.integers(1, 40), st.integers(0, 10 ** 6),
       st.booleans())
def test_leverage_select_matches_the_reference(data, s, seed, stream):
    A, b = data
    rng = RngStream(seed, "lev") if stream else np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero rows: uniform fallback
        sample = leverage_select(RegressionInstance(A, b), s, rng)

    tau = leverage_scores(A)
    p, w = reference_plan(tau, float(np.sum(tau)), s)
    g = (RngStream(seed, "lev").generator() if stream
         else np.random.default_rng(seed))
    idx = g.choice(p.size, size=s, p=p)
    assert_bits(sample.indices, idx)
    assert_bits(sample.weights, w[idx])
    assert math.isclose(float(np.sum(p)), 1.0, rel_tol=1e-9)


#: from 0 through subnormal to huge: subnormal lam with zero losses is where
#: the normalizer underflows
LAMBDAS = [0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e300, 1e308,
           np.finfo(float).max]


@st.composite
def lambda_scale_case(draw):
    rows, _ = draw(grid_data())
    n = len(rows)
    values = st.lists(st.sampled_from([0.0, 0.5, 3.0]), min_size=n,
                      max_size=n)
    return (rows, np.array(draw(values)), np.array(draw(values)),
            draw(st.integers(1, min(n, 4))), draw(st.sampled_from(LAMBDAS)),
            draw(st.sampled_from([1, 2])), draw(st.integers(0, 10 ** 6)))


@settings(max_examples=EXAMPLES, deadline=None)
@given(lambda_scale_case())
def test_plans_are_valid_at_every_lambda_scale(case):
    """The benchmark's per-call plan checks: sum(p) within 1e-9 of 1 and the
    unbiasedness identity within 1e-9, for losses and targets that are often
    zero."""
    rows, losses, targets, k, lam, z, seed = case
    rng = RngStream(seed, "scale")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero normalizer: uniform
        plan = data_select(Dataset(rows), k, 0.5, lam,
                           LossOracle.from_table(losses), z, rng)[3]
        instance = RegressionInstance(rows, targets)
        _, reg = regression_select(instance, k, 0.5, lam, rng)
    residuals = (rows @ reg.x0 - targets) ** 2
    for p, w, s, values in [(plan.p, plan.w, plan.s, losses),
                            (reg.p, reg.w, reg.s, residuals)]:
        assert abs(float(np.sum(p)) - 1.0) <= 1e-9
        assert exact_expectation_gap(p, w, s, values) <= 1e-9


@st.composite
def blas_case(draw):
    """Gaussian blobs large enough that OpenBLAS splits the assignment GEMM
    over threads: at n * d * k = 768,000 it does on a 2-CPU host, at
    288,000 it does not."""
    n = draw(st.integers(3000, 4000))
    d = draw(st.integers(16, 24))
    k = draw(st.integers(16, 24))
    seed = draw(st.integers(0, 10 ** 6))
    g = np.random.default_rng(seed)
    rows = g.normal(size=(n, d)) + 4 * g.normal(size=(k, d))[
        g.integers(k, size=n)]
    return rows, g.gamma(2.0, size=n), g.normal(size=n), k, seed


def _selection_bytes(rows, losses, targets, k, z, seed):
    """Every output of data_select and regression_select, as bytes."""
    rng = RngStream(seed, "blas")
    sample, _, clustering, plan = data_select(
        Dataset(rows), k, 0.3, 0.5, LossOracle.from_table(losses), z, rng)
    reg_sample, reg = regression_select(RegressionInstance(rows, targets),
                                        k, 0.5, 1.0, rng)
    arrays = [sample.indices, sample.weights, clustering.assignment,
              clustering.centers.positions, clustering.cluster_cost, plan.p,
              plan.w, reg_sample.indices, reg_sample.weights, reg.p, reg.w,
              reg.x0, reg.clustering.centers.positions,
              reg.clustering.assignment]
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


@pytest.mark.skipif(not core._openblas_controls(),
                    reason="no OpenBLAS loaded")
@settings(max_examples=8, deadline=None)
@given(blas_case(), st.sampled_from([1, 2]))
def test_blas_cap_changes_no_output(case, z):
    """The cap a process oracle and the medoid pool take on BLAS threads
    leaves samples, clusterings and plans bit-identical."""
    rows, losses, targets, k, seed = case
    free = _selection_bytes(rows, losses, targets, k, z, seed)
    with core.blas_threads(1):
        capped = _selection_bytes(rows, losses, targets, k, z, seed)
    assert free == capped


@pytest.mark.skipif(not core._openblas_controls(),
                    reason="no OpenBLAS loaded")
@settings(max_examples=3, deadline=None)
@given(blas_case())
def test_process_oracle_cap_changes_no_sample(case):
    """A process oracle caps BLAS threads while its block is open, so the
    clustering inside runs on fewer threads than with a table oracle; the
    labels and the sample are the same bytes."""
    rows, _, _, k, seed = case
    n = rows.shape[0]
    command = (f"{shlex.quote(sys.executable)} -c 'import sys; "
               "[print(int(l) / 2, flush=True) for l in sys.stdin]'")

    def select(oracle):
        sample, _, clustering, _ = data_select(
            Dataset(rows), k, 0.3, 0.5, oracle, 2, RngStream(seed, "pipe"))
        return [a.tobytes() for a in (sample.indices, sample.weights,
                                      clustering.assignment)]

    table = select(LossOracle.from_table(np.arange(n) / 2))
    with LossOracle.from_command(command, n) as oracle:
        assert select(oracle) == table
