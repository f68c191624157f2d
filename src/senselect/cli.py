"""Command-line surface.

Exit codes: 0 success, 1 usage, 2 data error, 3 oracle/budget error.
All diagnostics go to stderr; the only stdout output is small JSON results
for the diagnostic subcommands.
"""

from __future__ import annotations

import argparse
import glob
import math
import os
import sys
import time
from contextlib import contextmanager, suppress

import numpy as np

from . import io as sio
from .core import (BudgetExceededError, LossOracle, OracleProtocolError,
                   RngStream)
from .hoelder import (INFINITY, _count, default_sample_count, estimate_lambda,
                      holder_percentiles, holder_ratios, DEFAULT_PERCENTILES)
from .evaluation import delta_error, rademacher_instance, run_trials
from .regression import (RegressionInstance, r2_score, regression_select,
                         solve_least_squares)
from .selection import (AUTO, cluster, data_select, data_select_rounds,
                        uniform_sample_size, uniform_select)

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_ORACLE = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _make_oracle(args, n: int) -> LossOracle:
    budget = getattr(args, "oracle_budget", None)
    if getattr(args, "oracle", None):
        return LossOracle.from_command(args.oracle, n, budget)
    if getattr(args, "losses", None):
        table = sio.load_losses(args.losses, n=n)
        return LossOracle.from_table(table, budget)
    raise sio.DataFormatError("need --losses FILE or --oracle CMD")


def _parse_lambda(args, k: int):
    """--lambda: a number, a file of 1 or k values, or AUTO (`select` only)."""
    if args.lam == "auto":
        if args.command != "select":
            raise sio.DataFormatError(f"{args.command} needs a numeric lambda")
        return AUTO
    try:
        return float(args.lam)
    except ValueError:
        pass
    values = sio.read_vector(args.lam)  # one value per line
    if values.size not in (1, k):
        raise sio.DataFormatError(
            f"lambda file has {values.size} values, expected 1 or {k}")
    return float(values[0]) if values.size == 1 else values


def _save(command: str, result: dict, out_report) -> int:
    """Save the result, tagged with the command, when --out-report is set."""
    if out_report:
        sio.save_report({"command": command, **result}, out_report)
    return EXIT_OK


def _emit(command: str, result: dict, out_report) -> int:
    """Print the result as one JSON line, then `_save` it."""
    print(sio.to_json(result))
    return _save(command, result, out_report)


def _save_clustering(clustering, out_centers=None, out_assignment=None):
    if out_centers:
        with open(out_centers, "w") as fh:
            # `cluster` snaps, so every center is a data row
            for i, row in enumerate(clustering.centers.indices):
                coords = ",".join(repr(float(v))
                                  for v in clustering.centers.positions[i])
                fh.write(f"{i},{row},{coords}\n")
    if out_assignment:
        with open(out_assignment, "w") as fh:
            for label in clustering.assignment:
                fh.write(f"{int(label)}\n")


def cmd_cluster(args) -> int:
    data = sio.load_matrix(args.data)
    t0 = time.perf_counter()
    clustering = cluster(data, args.k, args.z, args.rng)
    _save_clustering(clustering, args.out_centers, args.out_assignment)
    return _save("cluster", {
        "k": args.k, "z": args.z, "seed": args.seed,
        "cost": clustering.total_cost,
        "cluster_cost": [float(c) for c in clustering.cluster_cost],
        "elapsed_seconds": time.perf_counter() - t0,
    }, args.out_report)


def cmd_select(args) -> int:
    if args.budget is not None and args.k is not None:
        raise sio.DataFormatError("give --k or --budget, not both")
    if args.budget is not None:
        k = math.ceil(0.2 * _count(args.budget, int, "--budget"))
        s = args.budget - k
        if s < 1:
            raise sio.DataFormatError(f"--budget {args.budget} leaves no "
                                      "room for sampled points")
    else:
        k, s = args.k, None
        if k is None:
            raise sio.DataFormatError("need --k or --budget")
    data = sio.load_matrix(args.data)
    lam = _parse_lambda(args, k)
    t0 = time.perf_counter()
    with _make_oracle(args, data.n) as oracle:
        sample, report, clustering, plan = data_select(
            data, k, args.epsilon, lam, oracle, args.z, args.rng, s=s)
    elapsed = time.perf_counter() - t0
    sio.save_sample(sample, args.out_sample)
    _save_clustering(clustering, args.out_centers, args.out_assignment)
    return _save("select", {**report, "elapsed_seconds": elapsed,
                            "sample_path": args.out_sample}, args.out_report)


def cmd_select_rounds(args) -> int:
    data = sio.load_matrix(args.data)
    lam = _parse_lambda(args, args.k * args.rounds)
    t0 = time.perf_counter()
    with _make_oracle(args, data.n) as oracle:
        results = data_select_rounds(data, args.k, args.rounds, args.epsilon,
                                     lam, oracle, args.z, args.rng)
    paths = [f"{args.out_prefix}_round{r['round']}.csv" for _, r in results]
    for (sample, _), path in zip(results, paths):
        sio.save_sample(sample, path)
    return _save("select-rounds", {
        "k": args.k, "rounds": args.rounds, "epsilon": args.epsilon,
        "z": args.z, "seed": args.seed, "sample_paths": paths,
        "rounds_detail": [r for _, r in results],
        "elapsed_seconds": time.perf_counter() - t0,
    }, args.out_report)


def _load_regression(args) -> RegressionInstance:
    matrix = sio.load_matrix(args.data)
    if getattr(args, "targets", None):
        # targets may be negative, so read them without the loss-domain check
        b = sio.read_vector(args.targets, matrix.n)
        return RegressionInstance(matrix.rows, b)
    if matrix.d < 2:
        raise sio.DataFormatError("need at least one feature column plus the "
                                  "target column, or a --targets file")
    return RegressionInstance(matrix.rows[:, :-1], matrix.rows[:, -1])


def cmd_select_regression(args) -> int:
    inst = _load_regression(args)
    lam = INFINITY if args.lambda_inf else _parse_lambda(args, args.k)
    t0 = time.perf_counter()
    sample, plan = regression_select(inst, args.k, args.epsilon, lam, args.rng,
                                     delta=args.delta)
    sio.save_sample(sample, args.out_sample)
    return _save("select-regression", {
        "k": args.k, "epsilon": args.epsilon, "delta": args.delta,
        "lambda_mode": ("infinity" if np.isscalar(lam) and lam == INFINITY
                        else "finite"),
        "s": plan.s,
        "seed": args.seed, "x0": [float(v) for v in plan.x0],
        "sample_path": args.out_sample,
        "elapsed_seconds": time.perf_counter() - t0,
    }, args.out_report)


def cmd_lambda_estimate(args) -> int:
    t = (default_sample_count(args.k, args.p) if args.t is None
         else _count(args.t, int, "--t"))
    if t < 1:
        raise ValueError(f"--t must be >= 1, got {t}")
    data = sio.load_matrix(args.data)
    # an oracle process starts up while the data are clustered
    with _make_oracle(args, data.n) as oracle:
        clustering = cluster(data, args.k, args.z, args.rng)
        lam = estimate_lambda(clustering, oracle, t,
                              args.rng.child("estimate"))
    result = {"lambda": [float(v) for v in lam], "t": t,
              "queries_used": oracle.queries_used, "k": args.k, "z": args.z,
              "seed": args.seed}
    return _emit("lambda-estimate", result, args.out_report)


def cmd_holder_diagnose(args) -> int:
    data = sio.load_matrix(args.data)
    table = sio.load_losses(args.losses, n=data.n)
    clustering = cluster(data, args.k, args.z, args.rng)
    ratios = holder_ratios(clustering, table)
    percentiles = [float(p) for p in args.percentiles.split(",")]
    result = {"percentiles": holder_percentiles(ratios, percentiles),
              "ratio_count": int(ratios.size), "k": args.k, "z": args.z,
              "seed": args.seed}
    return _emit("holder-diagnose", result, args.out_report)


def cmd_evaluate(args) -> int:
    result = {"sample_path": args.sample}
    if args.losses:
        table = sio.load_losses(args.losses)
        sample = sio.load_sample(args.sample, n=len(table))
        result["delta"] = delta_error(table, sample)
    elif args.data:
        inst = _load_regression(args)
        sample = sio.load_sample(args.sample, n=inst.n)
        x = solve_least_squares(inst.A[sample.indices],
                                inst.b[sample.indices],
                                weights=sample.weights)
        result["r2"] = r2_score(inst.A @ x, inst.b)
        result["x"] = [float(v) for v in x]
    else:
        raise sio.DataFormatError("need --losses (delta mode) or --data "
                                  "(regression R^2 mode)")
    return _emit("evaluate", result, args.out_report)


def _parse_config(path) -> dict:
    config = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise sio.DataFormatError(
                    f"{path}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            config[key] = value
    return config


def cmd_bench(args) -> int:
    config = _parse_config(args.config)
    report = run_trials(config)
    summary = report.summary()
    print(sio.to_json(summary))
    _save("bench", {"config": config, **summary}, args.out_report)
    if args.out_csv:
        keys = sorted({k for row in report.rows for k in row})
        with open(args.out_csv, "w") as fh:
            fh.write(",".join(keys) + "\n")
            for row in report.rows:
                fh.write(",".join(repr(row.get(k, "")) for k in keys) + "\n")
    return EXIT_OK


def cmd_lowerbound_demo(args) -> int:
    data, signed = rademacher_instance(args.n)
    epsilons = [float(e) for e in args.epsilons.split(",")]
    counts = [uniform_sample_size(eps) for eps in epsilons]
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    sweep = []
    for eps, s in zip(epsilons, counts):
        estimates = []
        for t in range(args.trials):
            sample = uniform_select(data, s, args.rng.child(f"eps{eps}-t{t}"))
            estimates.append(delta_error(signed, sample))
        median = float(np.median(estimates))
        sweep.append({"epsilon": eps, "s": s, "median_abs_estimator": median,
                      "empirical_constant": median * math.sqrt(s) / args.n})
    result = {"n": args.n, "trials": args.trials, "sweep": sweep,
              "seed": args.seed}
    return _emit("lowerbound-demo", result, args.out_report)


#: options of the flags several subcommands share, each written once
_SHARED = {"--data": {"required": True},
           "--k": {"type": int, "required": True},
           "--epsilon": {"type": float, "required": True},
           "--z": {"type": float, "default": 2},
           "--seed": {"type": int, "default": 0},
           "--out-sample": {"required": True}}


def _add_flags(p, *flags):
    """Add each flag with its `_SHARED` options, or none if it has none."""
    for flag in flags:
        p.add_argument(flag, **_SHARED.get(flag, {}))


def _add_oracle_flags(p):
    p.add_argument("--losses", help="loss file (wrapped in a counting oracle)")
    p.add_argument("--oracle", help="external oracle command")
    p.add_argument("--oracle-budget", type=int, default=None,
                   help="max distinct loss queries (default: unlimited)")


def build_parser() -> _Parser:
    parser = _Parser(prog="senselect")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="D^z seeding + refinement + snapping")
    _add_flags(p, "--data", "--k", "--z", "--seed", "--out-centers",
               "--out-assignment", "--out-report")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("select", help="one-round sensitivity selection")
    _add_flags(p, "--data")
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=int,
                   help="total selection budget B: k=ceil(0.2B), s=B-k")
    _add_flags(p, "--epsilon", "--z")
    p.add_argument("--lambda", dest="lam", default="auto",
                   help="per-cluster file, scalar value, or 'auto'")
    _add_oracle_flags(p)
    _add_flags(p, "--seed", "--out-sample", "--out-report", "--out-centers",
               "--out-assignment")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("select-rounds", help="r-round adaptive selection")
    _add_flags(p, "--data", "--k")
    p.add_argument("--rounds", type=int, required=True)
    _add_flags(p, "--epsilon", "--z")
    p.add_argument("--lambda", dest="lam", required=True)
    _add_oracle_flags(p)
    _add_flags(p, "--seed")
    p.add_argument("--out-prefix", required=True)
    _add_flags(p, "--out-report")
    p.set_defaults(func=cmd_select_rounds)

    p = sub.add_parser("select-regression",
                       help="cluster-based selection for least squares")
    p.add_argument("--data", required=True,
                   help="CSV with features + final target column, or matrix "
                        "file plus --targets")
    _add_flags(p, "--targets", "--k", "--epsilon")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--lambda", dest="lam", default="1.0")
    p.add_argument("--lambda-inf", action="store_true",
                   help="distance-only mode")
    _add_flags(p, "--seed", "--out-sample", "--out-report")
    p.set_defaults(func=cmd_select_regression)

    p = sub.add_parser("lambda-estimate",
                       help="query-budgeted per-cluster constant estimation")
    _add_flags(p, "--data", "--k", "--z")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--p", type=float, default=0.2)
    _add_oracle_flags(p)
    _add_flags(p, "--seed", "--out-report")
    p.set_defaults(func=cmd_lambda_estimate)

    p = sub.add_parser("holder-diagnose",
                       help="ratio percentiles over a full loss table")
    _add_flags(p, "--data")
    p.add_argument("--losses", required=True)
    _add_flags(p, "--k", "--z")
    p.add_argument("--percentiles",
                   default=",".join(str(p) for p in DEFAULT_PERCENTILES))
    _add_flags(p, "--seed", "--out-report")
    p.set_defaults(func=cmd_holder_diagnose)

    p = sub.add_parser("evaluate", help="exact Delta(S) or regression R^2")
    p.add_argument("--sample", required=True)
    p.add_argument("--losses")
    p.add_argument("--data")
    _add_flags(p, "--targets", "--out-report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="seeded Monte-Carlo trial runner")
    p.add_argument("--config", required=True)
    _add_flags(p, "--out-report", "--out-csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lowerbound-demo",
                       help="uniform-sampling anti-concentration sweep")
    p.add_argument("--n", type=int, default=10 ** 4)
    p.add_argument("--epsilons", default="0.1")
    p.add_argument("--trials", type=int, default=1000)
    _add_flags(p, "--seed", "--out-report")
    p.set_defaults(func=cmd_lowerbound_demo)

    return parser


@contextmanager
def _removed_on_error(patterns):
    """Remove each file matching a glob in `patterns` that did not exist
    before the block if the block raises, so a failed run leaves no partial
    output."""
    def matches():
        return {path for pattern in patterns for path in glob.glob(pattern)}

    before = matches()
    try:
        yield
    except BaseException:
        for path in matches() - before:
            with suppress(OSError):
                os.remove(path)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # every --out-* file, and (by glob: --rounds may be huge) round files
    outputs = [glob.escape(path) for name, path in vars(args).items()
               if name.startswith("out_") and name != "out_prefix" and path]
    if args.command == "select-rounds":
        outputs.append(glob.escape(args.out_prefix) + "_round[0-9]*.csv")
    if "seed" in args:  # one stream per run, labelled by its subcommand
        args.rng = RngStream(args.seed, f"cli/{args.command}")
    try:
        # a --z the clustering cannot refine fails before any input is read
        if getattr(args, "z", 2) not in (1, 2):
            raise ValueError(f"--z must be 1 or 2, got {args.z}")
        with _removed_on_error(outputs):
            return args.func(args)
    except (BudgetExceededError, OracleProtocolError) as exc:
        print(f"senselect: oracle error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (sio.DataFormatError, OSError, ValueError, MemoryError) as exc:
        print(f"senselect: data error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
