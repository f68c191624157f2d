"""Tests of the benchmark itself, at toy sizes."""

import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
import senselect.selection  # noqa: E402
from senselect.core import LossOracle  # noqa: E402

FAKE_ORACLE = BENCH / "fake_oracle.py"


def _main_json(monkeypatch, tmp_path, capsys, *args) -> dict:
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main([*args, "--seed", "3", "--seconds", "0", "--toy"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, tmp_path, capsys,
                                               workload, trace):
    out = _main_json(monkeypatch, tmp_path, capsys, "--workload", workload,
                     "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(out["metrics"]) == set(names)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == names[name][0]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, name


def test_benchmark_json_matches_the_definitions():
    with open(ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == run.spec()


def _write_losses(path: Path, values) -> list:
    path.write_text("".join(f"{v!r}\n" for v in values))
    return values


def test_fake_oracle_answers_and_counts_wake_ups(tmp_path):
    losses = _write_losses(tmp_path / "losses.txt", [0.5, 1.25, 3.0])
    stats = tmp_path / "stats.json"
    proc = subprocess.Popen(
        [sys.executable, str(FAKE_ORACLE), str(tmp_path / "losses.txt"),
         "--latency-ms", "0", "--stats", str(stats)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        proc.stdin.write(b"0\n2\n1\n")  # one write: one wake-up, three items
        proc.stdin.flush()
        batch = [float(proc.stdout.readline()) for _ in range(3)]
        proc.stdin.write(b"2\n")
        proc.stdin.flush()
        single = float(proc.stdout.readline())
        proc.stdin.close()
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert batch == [losses[0], losses[2], losses[1]]
    assert single == losses[2]
    counts = json.loads(stats.read_text())
    assert (counts["round_trips"], counts["items"]) == (2, 4)
    assert counts["busy_s"] >= 0


def test_fake_oracle_speaks_the_loss_oracle_protocol(tmp_path):
    losses = _write_losses(tmp_path / "losses.txt",
                           [float(v) for v in np.linspace(0.1, 2.0, 7)])
    stats = tmp_path / "stats.json"
    command = shlex.join([sys.executable, str(FAKE_ORACLE),
                          str(tmp_path / "losses.txt"), "--latency-ms", "0.1",
                          "--stats", str(stats)])
    with LossOracle.from_command(command, len(losses)) as oracle:
        got = [oracle.query(i) for i in (6, 0, 3, 0)]
    assert got == [losses[6], losses[0], losses[3], losses[0]]
    counts = json.loads(stats.read_text())
    assert (counts["round_trips"], counts["items"]) == (3, 3)


SELECT_LARGE_SPANS = {
    "call", "setup", "selection.data_select", "core.query",
    "io.load_matrix", "io.load_losses",
    *(f"selection.{f}" for f in ("dz_seed", "refine", "snap_centers",
                                 "proxy_losses", "sensitivity_plan", "draw")),
    *(f"clustering.{f}" for f in ("assign", "powered_distances", "cdist")),
}


def _span_names(result_dir: Path) -> set:
    with open(result_dir / "spans.jsonl") as fh:
        return {json.loads(line)["name"] for line in fh}


def test_traced_select_large_records_every_span(tmp_path):
    originals = {name: getattr(senselect.selection, name)
                 for name in ("dz_seed", "refine", "draw")}
    result = run.run("select-large", 5, 0, True, toy=True, out_root=tmp_path)
    assert result["failed"] == 0
    names = _span_names(tmp_path / "select-large-seed5-trace1")
    assert SELECT_LARGE_SPANS <= names
    for name, fn in originals.items():  # the wrappers are removed again
        assert getattr(senselect.selection, name) is fn


def test_traced_runs_record_lambda_and_regression_spans(tmp_path):
    run.run("select-auto-pipe", 5, 0, True, toy=True, out_root=tmp_path)
    assert "selection.estimate_lambda" in _span_names(
        tmp_path / "select-auto-pipe-seed5-trace1")
    run.run("regression-csv", 5, 0, True, toy=True, out_root=tmp_path)
    names = _span_names(tmp_path / "regression-csv-seed5-trace1")
    assert {"regression.regression_select", "regression.kmedoids",
            "regression.solve_least_squares", "clustering.dz_seed",
            "clustering.refine", "clustering.cdist"} <= names


def test_equal_seeds_give_identical_samples(tmp_path):
    first = run.run("select-large", 7, 0, False, toy=True,
                    out_root=tmp_path / "a")
    second = run.run("select-large", 7, 0, False, toy=True,
                     out_root=tmp_path / "b")
    assert first["sample_digests"] == second["sample_digests"]
    for name in ("oracle_round_trips", "oracle_queries", "est_rel_rmse"):
        assert first["metrics"][name] == second["metrics"][name]
    # allocation peaks include a little interpreter bookkeeping
    assert first["metrics"]["peak_mem_mb"] == pytest.approx(
        second["metrics"]["peak_mem_mb"], rel=0.01)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "select-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = run.tail([float(i) for i in range(60)])
    assert (pct, beyond) == (83, 10) and value == 49.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_est_rel_rmse_matches_the_variance_formula():
    p = np.array([0.5, 0.25, 0.25, 0.0])
    losses = np.array([1.0, 2.0, 3.0, 4.0])
    s = 4
    # one draw of l/p has mean 6 and second moment 1/0.5 + 4/0.25 + 9/0.25
    var = (1 / 0.5 + 4 / 0.25 + 9 / 0.25 - 36) / s
    expected = math.sqrt(var + 4.0 ** 2) / 10.0
    assert workloads.est_rel_rmse(p, s, losses) == pytest.approx(expected)
