"""senselect benchmark: one closed-loop workload per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --write-spec

A run generates the workload's input files from ``--seed``, then makes
pipeline calls one after another, each with its own pipeline seed, for
``--seconds`` seconds (and at least the workload's ``min_calls`` calls), and
times one set-up before the first call and one after every call.  Every call
is checked; a call that raises or fails a check counts as failed.  Untraced
runs then replay their first pipeline seeds, untimed and with allocation
tracing on: the sample CSVs must be byte-identical, and the replays give
peak_mem_mb.

With ``--trace 0`` the last output line is a JSON object holding every
end-to-end metric.  With ``--trace 1`` calls alternate between traced and
untraced (same pipeline seed, so their samples must match), the public
functions of senselect are wrapped where the pipeline looks them up, and the
JSON holds every per-layer metric.  Results, spans and sample digests go to
``.bench_out/<workload>-seed<N>-trace<T>/`` in the checkout.

``--write-spec`` writes ``BENCHMARK.json`` from the definitions below.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_SECONDS = 30
#: runs stop starting calls after this long, even before ``min_calls``
HARD_STOP_S = 120.0
#: untraced runs replay this many of their first pipeline seeds, untimed,
#: with allocation tracing on: the samples must be byte-identical and the
#: replays give peak_mem_mb
REPLAY_CALLS = 5

# name -> (unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "select_s_p50": ("s", "lower", 0.25),
    "select_s_tail": ("s", "lower", 0.25),
    "oracle_round_trips": ("count", "lower", 0.02),
    "oracle_queries": ("count", "lower", 0.02),
    "est_rel_rmse": ("ratio", "lower", 0.2),
    "peak_mem_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better).  Each comment names the end-to-end metric the
# group below it should move, and on which workload.
PER_LAYER = {
    # select_s_p50 on select-large; barely anything on select-auto-pipe
    "clustering.dz_seed_s": ("s", "lower"),
    "clustering.refine_s": ("s", "lower"),
    "clustering.refine_iters": ("count", "lower"),
    "clustering.snap_s": ("s", "lower"),
    "clustering.dist_pairs": ("count", "lower"),
    "clustering.dist_gflop_computed": ("GFLOP", "lower"),
    "clustering.dist_gb_computed": ("GB", "lower"),
    # select_s_p50 and peak_mem_mb on regression-csv
    "clustering.kmedoids_s": ("s", "lower"),
    # est_rel_rmse on every workload
    "clustering.cost_rel": ("ratio", "lower"),
    # select_s_p50 and oracle_queries on select-auto-pipe
    "hoelder.estimate_lambda_self_s": ("s", "lower"),
    "hoelder.lambda_queries": ("count", "lower"),
    # select_s_p50 and oracle_round_trips on select-auto-pipe
    "core.oracle_query_calls": ("count", "lower"),
    "core.oracle_cache_hits": ("count", "higher"),
    "core.oracle_wait_s": ("s", "lower"),
    "core.oracle_fetch_ms_p50": ("ms", "lower"),
    "core.oracle_child_busy_s": ("s", "lower"),
    "core.oracle_pipe_overhead_s": ("s", "lower"),
    # est_rel_rmse on every workload; a small share of select_s_p50 on
    # select-large
    "selection.proxy_s": ("s", "lower"),
    "selection.plan_s": ("s", "lower"),
    "selection.draw_s": ("s", "lower"),
    "selection.plan_support": ("count", "higher"),
    "selection.plan_ess": ("count", "higher"),
    # select_s_p50 on regression-csv
    "regression.x0_s": ("s", "lower"),
    "regression.select_self_s": ("s", "lower"),
    # setup_s on regression-csv and select-auto-pipe, not on select-large
    "io.load_matrix_s": ("s", "lower"),
    "io.load_losses_s": ("s", "lower"),
    "io.bytes_read": ("bytes", "lower"),
    "io.load_mb_per_s": ("MB/s", "higher"),
    # traced select_s_p50, and tracing overhead: traced minus untraced p50
    "trace.select_s_p50": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def spec() -> dict:
    from workloads import WORKLOADS
    return {
        "command": ["python3", f"{HERE.name}/run.py"],
        "paths": [HERE.name],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": k, "unit": u, "better": b, "bound": bound}
                       for k, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": k, "unit": u, "better": b}
                      for k, (u, b) in PER_LAYER.items()],
    }


# --------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest integer
    percentile with at least ten samples beyond it (nearest rank).  With ten
    samples or fewer no percentile qualifies and the maximum is returned as
    percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(math.ceil(pct / 100 * n), 1)
    return ordered[rank - 1], pct, n - rank


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


# --------------------------------------------------------------------------
# the run


def _pipeline_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


def _one_call(ctx, seed, tracer, work_dir, op, memory=False):
    """Time one call; returns its record (outcome, digest, failures).  With
    ``memory`` the record gets the call's peak traced allocation in MB, which
    numpy reports to tracemalloc."""
    import workloads
    if tracer is not None:
        tracer.op = op
        workloads.instrument(tracer)
    record = {"seed": seed, "op": op, "traced": tracer is not None,
              "failed": []}
    if memory:
        tracemalloc.start()
    try:
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.call(ctx, seed, None)
            else:
                with tracer.span("call"):
                    out = workloads.call(ctx, seed, tracer)
        finally:
            record["seconds"] = time.perf_counter() - start
            if tracer is not None:
                tracer.unpatch()
            if memory:
                record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
        record["failed"] = workloads.check(ctx, out)
        record["digest"] = workloads.sample_digest(out.sample,
                                                   work_dir / "sample.csv")
        rows = ctx.data.rows if ctx.data is not None else ctx.instance.A
        record.update(
            round_trips=out.round_trips, queries=out.queries,
            lambda_queries=out.lambda_queries, child_busy_s=out.child_busy_s,
            est_rel_rmse=workloads.est_rel_rmse(out.p, out.s, out.losses),
            cost_rel=workloads.cost_rel(rows, out.clustering),
            plan_support=int((out.p > 0).sum()),
            plan_ess=workloads.plan_ess(out.sample.weights),
            pipe=ctx.oracle_command is not None)
    except Exception as exc:  # a failed call is counted, not fatal
        record["failed"].append(f"{type(exc).__name__}: {exc}")
    return record


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool = False,
        out_root: Path | None = None) -> dict:
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name]
    shape = wl.toy if toy else wl.full
    work_dir = (out_root or OUT) / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    inputs = workloads.make_inputs(wl, shape, seed, work_dir)
    tracer = Tracer() if trace else None
    setup_s = []

    def timed_setup():
        """One set-up sample.  Samples are spread over the whole run, between
        calls, so that they see the same machine as the calls do."""
        gc.collect()  # each set-up starts from the same heap state
        start = time.perf_counter()
        if tracer is None:
            ready = workloads.setup(wl, shape, inputs, work_dir)
        else:
            tracer.op = f"setup-{len(setup_s)}"
            workloads.instrument(tracer)
            try:
                with tracer.span("setup"):
                    ready = workloads.setup(wl, shape, inputs, work_dir)
            finally:
                tracer.unpatch()
        setup_s.append(time.perf_counter() - start)
        return ready

    try:
        ctx = timed_setup()
        if not workloads.setup_matches_inputs(ctx):
            raise RuntimeError("loaded input differs from the generated input")

        calls = []
        begin = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - begin
            if elapsed >= HARD_STOP_S or (i >= shape.min_calls
                                          and elapsed >= seconds):
                break
            s = _pipeline_seed(seed, i)
            if tracer is not None:
                calls.append(_one_call(ctx, s, tracer, work_dir, i))
            calls.append(_one_call(ctx, s, None, work_dir, i))
            timed_setup()
            i += 1
        measured = list(calls)
        if tracer is None:
            for i in range(min(REPLAY_CALLS, shape.min_calls)):
                calls.append(_one_call(ctx, _pipeline_seed(seed, i), None,
                                       work_dir, f"replay-{i}", memory=True))
    finally:
        if tracer is not None:
            tracer.unpatch()
            tracer.write(work_dir / "spans.jsonl")
        for path in (inputs.data_path, inputs.losses_path):
            if path is not None:
                path.unlink(missing_ok=True)

    digests = {}
    for c in calls:
        d = c.get("digest")
        if d is None:
            continue
        first = digests.setdefault(str(c["seed"]), d)
        if d != first:
            c["failed"].append("sample CSV differs from another call with "
                               "the same pipeline seed")
    failed = sum(1 for c in calls if c["failed"])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "toy": toy, "shape": vars(shape), "environment": environment(),
        "attempted": len(calls), "failed": failed,
        "error_rate": failed / len(calls),
        "failures": sorted({f for c in calls for f in c["failed"]}),
        "sample_digests": digests,
    }
    if trace:
        traced = [c for c in measured if c["traced"]]
        untraced = [c for c in measured if not c["traced"]]
        result.update(_layer_metrics(tracer.spans, traced, untraced, shape))
    else:
        replays = [c for c in calls if "peak_mb" in c and not c["failed"]]
        result.update(_end_to_end(measured, replays, setup_s, shape))
    with open(work_dir / "results.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _first(calls, shape, key):
    """Median of ``key`` over the first ``min_calls`` successful calls: the
    values are exact per pipeline seed, so this repeats between runs."""
    values = [c[key] for c in calls[:shape.min_calls] if not c["failed"]]
    return _median(values)


def _end_to_end(calls, replays, setup_s, shape) -> dict:
    times = [c["seconds"] for c in calls]
    value, pct, beyond = tail(times)
    metrics = {
        "setup_s": _median(setup_s),
        "select_s_p50": _median(times),
        "select_s_tail": value,
        "oracle_round_trips": _first(calls, shape, "round_trips"),
        "oracle_queries": _first(calls, shape, "queries"),
        "est_rel_rmse": _first(calls, shape, "est_rel_rmse"),
        "peak_mem_mb": _median([c["peak_mb"] for c in replays]),
    }
    return {"metrics": metrics,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "select_s_tail_info": {"percentile": pct, "beyond": beyond,
                                   "samples": len(times)}}


def _call_layers(sp, selfs, call) -> dict:
    """Per-layer numbers of one traced call from its spans."""
    from spans import total
    refines = {s["id"] for s in sp if s["name"].endswith(".refine")}
    dist = [s for s in sp if s["name"] == "clustering.cdist"]
    queries = [s for s in sp if s["name"] == "core.query"]
    wait = total(sp, "core.query")
    busy = call["child_busy_s"]
    return {
        "clustering.dz_seed_s": total(sp, "dz_seed"),
        "clustering.refine_s": total(sp, "refine"),
        "clustering.refine_iters": sum(
            1 for s in sp
            if s["name"] == "clustering.assign" and s["parent"] in refines)
        - len(refines),
        "clustering.snap_s": total(sp, "snap_centers"),
        "clustering.kmedoids_s": total(sp, "kmedoids"),
        "clustering.dist_pairs": sum(s["na"] * s["nb"] for s in dist),
        "clustering.dist_gflop_computed": sum(
            3 * s["d"] * s["na"] * s["nb"] for s in dist) / 1e9,
        "clustering.dist_gb_computed": sum(
            8 * ((s["na"] + s["nb"]) * s["d"] + s["na"] * s["nb"])
            for s in dist) / 1e9,
        "clustering.cost_rel": call["cost_rel"],
        "hoelder.estimate_lambda_self_s": sum(
            selfs[s["id"]] for s in sp
            if s["name"] == "selection.estimate_lambda"),
        "hoelder.lambda_queries": call["lambda_queries"],
        "core.oracle_query_calls": len(queries),
        "core.oracle_cache_hits": sum(1 for s in queries if not s["miss"]),
        "core.oracle_wait_s": wait,
        "core.oracle_fetch_ms_p50": 1000 * _median(
            [s["end"] - s["start"] for s in queries if s["miss"]]),
        "core.oracle_child_busy_s": busy,
        "core.oracle_pipe_overhead_s": wait - busy if call["pipe"] else 0.0,
        "selection.proxy_s": total(sp, "proxy_losses"),
        "selection.plan_s": total(sp, "sensitivity_plan"),
        "selection.draw_s": total(sp, "draw"),
        "selection.plan_support": call["plan_support"],
        "selection.plan_ess": call["plan_ess"],
        "regression.x0_s": total(sp, "solve_least_squares"),
        "regression.select_self_s": sum(
            selfs[s["id"]] for s in sp
            if s["name"] == "regression.regression_select"),
    }


#: per-layer metrics that are exact per pipeline seed
_EXACT = {name for name, (unit, _) in PER_LAYER.items()
          if unit not in ("s", "ms", "MB/s")}


def _layer_metrics(spans, traced, untraced, shape) -> dict:
    from spans import self_times, total
    by_op = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    selfs = self_times(spans)
    rows = [(c["op"], _call_layers(by_op.get(c["op"], []), selfs, c))
            for c in traced if not c["failed"]]
    metrics = {}
    for name in PER_LAYER:
        values = [r[name] for op, r in rows
                  if name in r and (name not in _EXACT or op < shape.min_calls)]
        metrics[name] = _median(values)

    setups = [sp for op, sp in by_op.items() if str(op).startswith("setup-")]
    load = [(total(sp, "load_matrix"), total(sp, "load_losses"),
             sum(s["bytes"] for s in sp if s["name"].startswith("io.load_")),
             total(sp, "setup")) for sp in setups]
    metrics["io.load_matrix_s"] = _median([m for m, _, _, _ in load])
    metrics["io.load_losses_s"] = _median([l for _, l, _, _ in load])
    metrics["io.bytes_read"] = _median([b for _, _, b, _ in load])
    metrics["io.load_mb_per_s"] = _median(
        [b / 1e6 / (m + l) for m, l, b, _ in load if m + l > 0])
    traced_p50 = _median([c["seconds"] for c in traced])
    metrics["trace.select_s_p50"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - _median(
        [c["seconds"] for c in untraced])

    # the share of time each workload claims to stress
    calls = [(by_op.get(c["op"], []), c["seconds"]) for c in traced
             if not c["failed"]]
    top_clustering = ("selection.dz_seed", "selection.refine",
                      "selection.snap_centers", "regression.kmedoids")
    shares = {
        "clustering_of_call": _median(
            [sum(s["end"] - s["start"] for s in sp
                 if s["name"] in top_clustering) / t for sp, t in calls]),
        "oracle_wait_of_call": _median(
            [total(sp, "core.query") / t for sp, t in calls]),
        "kmedoids_of_call": _median(
            [total(sp, "kmedoids") / t for sp, t in calls]),
        "load_matrix_of_setup": _median(
            [m / s for m, _, _, s in load if s > 0]),
    }
    return {"metrics": metrics, "shares": shares}


def _print_summary(result: dict):
    units = {**{k: v[0] for k, v in END_TO_END.items()},
             **{k: v[0] for k, v in PER_LAYER.items()}}
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {int(result['trace'])}  shape {result['shape']}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    if "select_s_tail_info" in result:
        info = result["select_s_tail_info"]
        print(f"  select_s_tail is p{info['percentile']} of "
              f"{info['samples']} calls ({info['beyond']} beyond it)")
    if "peak_rss_mb" in result:
        print(f"  process peak RSS {result['peak_rss_mb']:.1f} MB")
    for name, value in result.get("shares", {}).items():
        print(f"  share {name:28s} {value:.3f}")
    print(f"  error_rate {result['error_rate']:.4g} "
          f"({result['failed']} of {result['attempted']} calls failed)")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    print(f"  {len(result['sample_digests'])} sample digests; results in "
          f"{OUT.name}/")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="senselect benchmark (see the module docstring)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "senselect" / "__init__.py").is_file():
        print(f"benchmark: no senselect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.toy)
    _print_summary(result)
    names = PER_LAYER if args.trace else END_TO_END
    units = {k: v[0] for k, v in names.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": units[k]}
                    for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
