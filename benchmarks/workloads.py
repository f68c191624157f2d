"""The benchmark's workloads: input generation from a seed, the timed set-up,
one timed pipeline call, and the per-call correctness checks.

Each workload is a closed loop with one client: the next call starts only
after the previous one returned.  Calls go through the public functions of
``senselect`` exactly as a user would make them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import shlex
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import senselect.clustering
import senselect.io as sio
import senselect.regression
import senselect.selection
from senselect.core import Dataset, LossOracle, RngStream
from senselect.evaluation import exact_expectation_gap
from senselect.regression import RegressionInstance

from spans import Tracer

FAKE_ORACLE = Path(__file__).resolve().parent / "fake_oracle.py"

#: largest accepted |sum(p) - 1| and unbiasedness-identity gap per call
PLAN_TOL = 1e-9


@dataclass(frozen=True)
class Shape:
    """Input size of one workload, plus how many calls a run makes at least.
    ``min_calls`` calls are always made, and the exact counts are medians
    over those first calls, so they repeat between runs."""

    n: int
    d: int
    k: int
    blobs: int
    spread: float
    min_calls: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fmt: str           # input file format: "binary" or "csv"
    oracle: str        # "table", "pipe", or "targets" for regression
    lam: object        # supplied lambda, or "auto"
    epsilon: float
    full: Shape
    toy: Shape

    @property
    def regression(self) -> bool:
        return self.oracle == "targets"


WORKLOADS = {w.name: w for w in [
    Workload(
        name="select-large",
        why="data_select with a supplied lambda on binary clustered Gaussians: "
            "clustering (seed, refine, snap) does the work and the oracle "
            "makes only k table fetches",
        fmt="binary", oracle="table", lam=0.1, epsilon=0.1,
        full=Shape(n=8000, d=32, k=32, blobs=64, spread=0.5, min_calls=10),
        toy=Shape(n=600, d=8, k=6, blobs=10, spread=1.0, min_calls=2)),
    Workload(
        name="select-auto-pipe",
        why="data_select with lambda auto through a subprocess oracle that "
            "charges 1 ms per wake-up: serial oracle round trips dominate and "
            "clustering is small",
        fmt="csv", oracle="pipe", lam="auto", epsilon=0.1,
        full=Shape(n=5000, d=16, k=16, blobs=100, spread=1.0, min_calls=10),
        toy=Shape(n=400, d=4, k=3, blobs=4, spread=3.0, min_calls=2)),
    Workload(
        name="regression-csv",
        why="CSV load then regression_select: z=1 k-medoids with O(m^2) "
            "medoid matrices sets time and peak memory, and CSV parsing "
            "sets setup time",
        fmt="csv", oracle="targets", lam=1.0, epsilon=0.5,
        full=Shape(n=20000, d=8, k=10, blobs=10, spread=300.0, min_calls=10),
        toy=Shape(n=500, d=3, k=3, blobs=3, spread=300.0, min_calls=2)),
]}

#: latency the fake oracle charges per wake-up
ORACLE_LATENCY_MS = 1.0


# --------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    """Input files plus the ground truth they were written from."""

    data_path: Path
    losses_path: Path | None
    rows: np.ndarray           # rows as the program should load them
    losses: np.ndarray | None  # full loss table (select workloads)


def _blobs(g: np.random.Generator, shape: Shape) -> np.ndarray:
    """Equal-sized isotropic Gaussian blobs with unit variance, centered at
    normal(0, spread) draws."""
    centers = g.normal(0.0, shape.spread, (shape.blobs, shape.d))
    labels = g.permutation(np.arange(shape.n) % shape.blobs)
    return centers[labels] + g.normal(size=(shape.n, shape.d))


def make_inputs(workload: Workload, shape: Shape, seed: int,
                out_dir: Path) -> Inputs:
    """Generate the workload's input files from ``seed``; equal seeds give
    byte-identical files."""
    g = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    X = _blobs(g, shape)
    suffix = ".bin" if workload.fmt == "binary" else ".csv"
    data_path = out_dir / f"data{suffix}"
    if workload.regression:
        b = X @ g.normal(size=shape.d) + g.normal(size=shape.n)
        rows = np.column_stack([X, b])
        sio.save_matrix(Dataset(rows), data_path)
        return Inputs(data_path, None, rows, None)
    # a smooth, nonnegative loss of the embedding plus a little noise
    u = g.normal(size=shape.d)
    losses = (np.logaddexp(0.0, X @ (u / np.linalg.norm(u)))
              + 0.1 * np.abs(g.normal(size=shape.n)))
    sio.save_matrix(Dataset(X), data_path, binary=workload.fmt == "binary")
    losses_path = out_dir / "losses.txt"
    losses_path.write_text("".join(f"{float(v)!r}\n" for v in losses))
    return Inputs(data_path, losses_path, X, losses)


# --------------------------------------------------------------------------
# set-up


@dataclass
class Context:
    """Everything a call needs, as built by the timed set-up."""

    workload: Workload
    shape: Shape
    inputs: Inputs
    data: Dataset | None = None
    table: object = None                    # LossTable for the table oracle
    instance: RegressionInstance | None = None
    oracle_command: str | None = None
    stats_path: Path | None = None


def setup(workload: Workload, shape: Shape, inputs: Inputs,
          work_dir: Path) -> Context:
    """From file paths to a ready dataset or regression instance and oracle,
    as the CLI does it."""
    ctx = Context(workload, shape, inputs)
    matrix = sio.load_matrix(inputs.data_path)
    if workload.regression:
        ctx.instance = RegressionInstance(matrix.rows[:, :-1],
                                          matrix.rows[:, -1])
        return ctx
    ctx.data = matrix
    if workload.oracle == "table":
        ctx.table = sio.load_losses(inputs.losses_path, n=matrix.n)
    else:
        ctx.stats_path = work_dir / "oracle_stats.json"
        ctx.oracle_command = shlex.join([
            sys.executable, str(FAKE_ORACLE), str(inputs.losses_path),
            "--latency-ms", str(ORACLE_LATENCY_MS),
            "--stats", str(ctx.stats_path)])
    return ctx


def setup_matches_inputs(ctx: Context) -> bool:
    """True when the loaded matrices equal the generated ones exactly."""
    loaded = (np.column_stack([ctx.instance.A, ctx.instance.b])
              if ctx.instance is not None else ctx.data.rows)
    if not np.array_equal(loaded, ctx.inputs.rows):
        return False
    return ctx.table is None or np.array_equal(ctx.table.values,
                                               ctx.inputs.losses)


# --------------------------------------------------------------------------
# one call


class _TableBackend:
    """Fetch function of the table oracle; counts its fetches."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.fetched: list[int] = []

    def __call__(self, i: int) -> float:
        self.fetched.append(i)
        return float(self.values[i])


class _CountedTargets(np.ndarray):
    """Regression target vector that logs every read.  ``regression_select``
    reads targets only by indexing ``instance.b``; each indexing is one
    fetch, and the rows it touches are the label queries."""

    def __getitem__(self, key):
        self.reads.append(np.arange(self.size)[key])
        return np.asarray(super().__getitem__(key))


@dataclass
class Outcome:
    """What a call returned, reduced to what the checks and metrics need."""

    sample: object
    p: np.ndarray
    w: np.ndarray
    s: int
    losses: np.ndarray          # the losses the estimator targets
    clustering: object
    round_trips: int
    queries: int
    reported_queries: int
    lambda_queries: int
    child_busy_s: float


def _trace_oracle(tracer: Tracer, oracle: LossOracle):
    """Record a span per ``query`` on this oracle instance, marking misses."""
    inner = oracle.query

    def query(i):
        before = oracle.queries_used
        with tracer.span("core.query") as record:
            value = inner(i)
        record["miss"] = oracle.queries_used > before
        return value

    oracle.query = query


def call(ctx: Context, seed: int, tracer: Tracer | None) -> Outcome:
    """One closed-loop pipeline call, oracle creation and shutdown included."""
    if ctx.workload.regression:
        return _call_regression(ctx, seed, tracer)
    return _call_select(ctx, seed, tracer)


def _call_select(ctx: Context, seed: int, tracer: Tracer | None) -> Outcome:
    wl, shape = ctx.workload, ctx.shape
    if wl.oracle == "pipe":
        backend = None
        oracle = LossOracle.from_command(ctx.oracle_command, ctx.data.n)
    else:
        backend = _TableBackend(ctx.table.values)
        oracle = LossOracle(backend, ctx.data.n, budget=shape.k)
    if tracer is not None:
        _trace_oracle(tracer, oracle)
    rng = RngStream(seed, f"bench/{wl.name}")
    with oracle:
        sample, report, clustering, plan = _span(tracer, "selection.data_select",
                                                 senselect.selection.data_select,
                                                 ctx.data, shape.k, wl.epsilon,
                                                 wl.lam, oracle, 2, rng)
    if backend is None:
        stats = json.loads(ctx.stats_path.read_text())
        ctx.stats_path.unlink()  # the next call's oracle writes a fresh one
        round_trips, queries = stats["round_trips"], stats["items"]
        busy = stats["busy_s"]
    else:
        round_trips, queries = len(backend.fetched), len(set(backend.fetched))
        busy = 0.0
    return Outcome(sample, plan.p, plan.w, plan.s, ctx.inputs.losses,
                   clustering, round_trips, queries, report["queries_used"],
                   report["queries_lambda"], busy)


def _call_regression(ctx: Context, seed: int,
                     tracer: Tracer | None) -> Outcome:
    wl, shape, inst = ctx.workload, ctx.shape, ctx.instance
    targets = inst.b.view(_CountedTargets)
    targets.reads = []
    counted = copy.copy(inst)  # frozen dataclass: swap b on a shallow copy
    object.__setattr__(counted, "b", targets)
    rng = RngStream(seed, f"bench/{wl.name}")
    sample, plan = _span(tracer, "regression.regression_select",
                         senselect.regression.regression_select,
                         counted, shape.k, wl.epsilon, wl.lam, rng)
    read = np.concatenate(targets.reads) if targets.reads else np.empty(0)
    residuals = (inst.A @ plan.x0 - inst.b) ** 2
    medoids = np.unique(plan.clustering.centers.indices)
    return Outcome(sample, plan.p, plan.w, plan.s, residuals, plan.clustering,
                   len(targets.reads), int(np.unique(read).size),
                   int(medoids.size), 0, 0.0)


def _span(tracer: Tracer | None, name: str, fn, *args):
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


# --------------------------------------------------------------------------
# checks and derived numbers


def check(ctx: Context, out: Outcome) -> list[str]:
    """Names of the correctness checks this call failed."""
    failed = []
    n = out.p.size
    if abs(float(np.sum(out.p)) - 1.0) > PLAN_TOL:
        failed.append("plan does not sum to 1")
    if exact_expectation_gap(out.p, out.w, out.s, out.losses) > PLAN_TOL:
        failed.append("expectation gap above 1e-9")
    if out.queries != out.reported_queries:
        failed.append("oracle queries differ from the reported queries_used")
    if ctx.workload.lam != "auto" and out.queries != ctx.shape.k:
        failed.append("supplied lambda did not query exactly k losses")
    idx = np.asarray(out.sample.indices)
    if (idx.size != out.s or np.any(idx < 0) or np.any(idx >= n)
            or np.any(out.p[idx] <= 0)):
        failed.append("sample indices outside the plan's support")
    if not np.all(np.isfinite(out.sample.weights)):
        failed.append("non-finite sample weights")
    return failed


def sample_digest(sample, path: Path) -> str:
    """SHA-256 of the sample CSV that ``senselect.io.save_sample`` writes."""
    sio.save_sample(sample, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def est_rel_rmse(p: np.ndarray, s: int, losses: np.ndarray) -> float:
    """Exact relative RMSE of the weighted-sum estimator sum_j l(x_j)/(s p)
    over s i.i.d. draws from p; loss mass off the support counts as bias."""
    total = float(np.sum(losses))
    on = p > 0
    bias = float(np.sum(losses[~on]))
    var = (float(np.sum(losses[on] ** 2 / p[on]))
           - float(np.sum(losses[on])) ** 2) / s
    return math.sqrt(max(var, 0.0) + bias ** 2) / total


def cost_rel(rows: np.ndarray, clustering) -> float:
    """Clustering cost relative to the cost of the single center mean(rows)."""
    one = float(np.sum(np.linalg.norm(rows - rows.mean(axis=0), axis=1)
                       ** clustering.z))
    return clustering.total_cost / one


def plan_ess(weights: np.ndarray) -> float:
    """Kish effective sample size of the drawn weights."""
    weights = np.asarray(weights, dtype=np.float64)
    return float(np.sum(weights) ** 2 / np.sum(weights ** 2))


# --------------------------------------------------------------------------
# tracing


def _cdist_attrs(XA, XB, *args, **kwargs):
    XA, XB = np.atleast_2d(XA), np.atleast_2d(XB)
    return {"na": int(XA.shape[0]), "nb": int(XB.shape[0]),
            "d": int(XA.shape[1])}


def _load_attrs(path, *args, **kwargs):
    return {"bytes": Path(path).stat().st_size}


def instrument(tracer: Tracer):
    """Wrap the public functions where the pipeline looks them up.  Undo with
    ``tracer.unpatch()``."""
    for attr in ("dz_seed", "refine", "snap_centers", "proxy_losses",
                 "estimate_lambda", "sensitivity_plan", "draw"):
        tracer.patch(senselect.selection, attr, f"selection.{attr}")
    for attr in ("assign", "powered_distances"):
        tracer.patch(senselect.clustering, attr, f"clustering.{attr}")
    tracer.patch(senselect.clustering, "cdist", "clustering.cdist",
                 _cdist_attrs)
    # kmedoids seeds and refines through the clustering module's own names
    for attr in ("dz_seed", "refine"):
        tracer.patch(senselect.clustering, attr, f"clustering.{attr}")
    for attr in ("kmedoids", "solve_least_squares"):
        tracer.patch(senselect.regression, attr, f"regression.{attr}")
    for attr in dir(sio):
        if attr.startswith("load_") and callable(getattr(sio, attr)):
            tracer.patch(sio, attr, f"io.{attr}", _load_attrs)
