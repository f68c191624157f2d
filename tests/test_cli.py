import json
import sys
import time
import warnings

import numpy as np
import pytest

from senselect import cli, core, selection
from senselect.cli import main
from senselect.io import load_report, load_sample

PAIRS_CSV = "0.0\n1.0\n10.0\n11.0\n"
PAIRS_LOSSES = "0.0\n5.0\n10.0\n7.0\n"


@pytest.fixture
def pairs(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(PAIRS_CSV)
    losses = tmp_path / "losses.txt"
    losses.write_text(PAIRS_LOSSES)
    return data, losses


def strict_json(path):
    """The JSON document at ``path``; rejects Infinity and NaN, which strict
    parsers (jq, JavaScript's JSON.parse) do not read."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_missing_required_argument(self):
        assert main(["cluster", "--k", "2"]) == 1

    def test_unknown_flag(self):
        assert main(["cluster", "--data", "x", "--k", "2", "--frob"]) == 1

    @pytest.mark.parametrize("command", ["select", "cluster"])
    def test_abbreviated_flag_is_unknown(self, pairs, tmp_path, capsys,
                                         command):
        # argparse's prefix matching would run `--s 0` as `--seed 0`
        data, losses = pairs
        sample = tmp_path / "s.csv"
        argv = {"select": ["select", "--data", str(data), "--losses",
                           str(losses), "--k", "2", "--lambda", "1",
                           "--epsilon", "1", "--out-sample", str(sample)],
                "cluster": ["cluster", "--data", str(data), "--k", "2"]}
        assert main(argv[command] + ["--s", "0"]) == 1
        captured = capsys.readouterr()
        err = captured.err
        assert err.count("usage:") == 1
        assert err.splitlines()[-1].endswith("unrecognized arguments: --s 0")
        assert "Traceback" not in err and not captured.out
        assert not sample.exists()


class TestDataErrors:
    def test_missing_data_file(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["select", "--data", str(tmp_path / "nope.csv"),
                     "--k", "2", "--epsilon", "1", "--lambda", "1",
                     "--losses", "also-missing", "--out-sample", str(out)])
        assert code == 2

    def test_ragged_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert main(["cluster", "--data", str(bad), "--k", "1"]) == 2

    def test_garbled_first_csv_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,abc,3\n4,5,6\n7,8,9\n")
        assert main(["cluster", "--data", str(bad), "--k", "1"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"senselect: data error: {bad}: unparsable row "
                       f"'1.0,abc,3'"]

    def test_select_needs_loss_source(self, pairs, tmp_path):
        data, _ = pairs
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--out-sample", str(tmp_path / "s.csv")])
        assert code == 2

    def test_select_needs_k_or_budget(self, pairs, tmp_path):
        data, losses = pairs
        code = main(["select", "--data", str(data), "--epsilon", "1",
                     "--lambda", "1", "--losses", str(losses),
                     "--out-sample", str(tmp_path / "s.csv")])
        assert code == 2

    def test_select_takes_k_or_budget_not_both(self, pairs, tmp_path,
                                               capsys):
        # --k is not silently dropped for --budget's k, and no input is read
        _, losses = pairs
        out = tmp_path / "s.csv"
        code = main(["select", "--data", str(tmp_path / "missing.csv"),
                     "--k", "3", "--budget", "10", "--epsilon", "1",
                     "--lambda", "1", "--losses", str(losses),
                     "--out-sample", str(out)])
        assert code == 2
        _one_data_error(capsys, "give --k or --budget, not both")
        assert not out.exists()

    @pytest.mark.parametrize("k, rounds", [("-2", "-1"), ("2", "-1"),
                                           ("0", "2")])
    def test_select_rounds_needs_k_and_rounds_of_1_or_more(
            self, pairs, tmp_path, capsys, k, rounds):
        data, losses = pairs
        report = tmp_path / "r.json"
        code = main(["select-rounds", "--data", str(data), "--k", k,
                     "--rounds", rounds, "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses),
                     "--out-prefix", str(tmp_path / "out"),
                     "--out-report", str(report)])
        assert code == 2
        _one_data_error(capsys, f"k and rounds must be >= 1, got k={k}, "
                                f"rounds={rounds}")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv",
                                                               "losses.txt"]

    @pytest.mark.parametrize("z", ["3", "0.5", "-1", "nan"])
    @pytest.mark.parametrize("command", [
        ["cluster"],
        ["select", "--epsilon", "1", "--lambda", "1", "--losses", "L",
         "--out-sample", "OUT"],
        ["select-rounds", "--rounds", "2", "--epsilon", "1", "--lambda", "1",
         "--losses", "L", "--out-prefix", "OUT"],
        ["lambda-estimate", "--losses", "L"],
        ["holder-diagnose", "--losses", "L"],
    ], ids=lambda c: c[0])
    def test_z_outside_1_and_2_is_rejected_up_front(self, pairs, tmp_path,
                                                    capsys, command, z):
        data, losses = pairs
        paths = {"L": str(losses), "OUT": str(tmp_path / "out")}
        argv = [paths.get(a, a) for a in command]
        argv += ["--data", str(data), "--k", "2", "--z", z]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 2
        assert not caught
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"senselect: data error: --z must be 1 or 2, "
                       f"got {float(z)}"]
        assert not (tmp_path / "out").exists()


class TestCoordinateLimit:
    @pytest.mark.parametrize("k", ["1", "2"])
    def test_rows_too_large_to_square_are_a_data_error(self, tmp_path,
                                                       capsys, k):
        data = tmp_path / "huge.csv"
        data.write_text("0\n1e200\n1.1e200\n3e200\n3.1e200\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["cluster", "--data", str(data), "--k", k]) == 2
        assert not caught
        _one_data_error(capsys)

    def test_rows_just_below_the_limit_select_without_warnings(self,
                                                               tmp_path):
        n, d = 5, 2
        limit = np.sqrt(sys.float_info.max / (4 * n * d))
        rows = np.random.default_rng(3).uniform(-1, 1, (n, d))
        rows *= 0.99 * limit / np.abs(rows).max()
        data = tmp_path / "edge.csv"
        data.write_text("".join(f"{a!r},{b!r}\n" for a, b in rows.tolist()))
        losses = tmp_path / "losses.txt"
        losses.write_text("0\n1\n2\n3\n4\n")
        for lam in ("auto", "1"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["select", "--data", str(data), "--k", "2",
                             "--epsilon", "0.5", "--lambda", lam,
                             "--losses", str(losses),
                             "--out-sample", str(tmp_path / "s.csv")]) == 0


class TestSelect:
    def test_end_to_end_pairs(self, pairs, tmp_path):
        data, losses = pairs
        sample_path = tmp_path / "s.csv"
        report_path = tmp_path / "r.json"
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--z", "2", "--lambda", "1",
                     "--losses", str(losses),
                     "--out-sample", str(sample_path),
                     "--out-report", str(report_path)])
        assert code == 0
        sample = load_sample(sample_path)
        assert len(sample) == 3
        assert set(sample.indices.tolist()) <= {1, 2, 3}
        report = load_report(report_path)
        assert report["queries_used"] == 2
        assert report["denom"] == pytest.approx(22.0)
        assert report["s"] == 3

    def test_deterministic_given_seed(self, pairs, tmp_path):
        data, losses = pairs
        outputs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["select", "--data", str(data), "--k", "2",
                         "--epsilon", "0.5", "--lambda", "1",
                         "--losses", str(losses), "--seed", "5",
                         "--out-sample", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_budget_split(self, pairs, tmp_path):
        # B=10 splits into k = ceil(2) = 2 clustering queries and s = 8 draws
        data, losses = pairs
        sample_path = tmp_path / "s.csv"
        report_path = tmp_path / "r.json"
        assert main(["select", "--data", str(data), "--budget", "10",
                     "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses),
                     "--out-sample", str(sample_path),
                     "--out-report", str(report_path)]) == 0
        report = load_report(report_path)
        assert report["k"] == 2
        assert report["s"] == 8
        assert len(load_sample(sample_path)) == 8

    def test_oracle_budget_abort(self, pairs, tmp_path):
        data, losses = pairs
        sample_path = tmp_path / "s.csv"
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses), "--oracle-budget", "1",
                     "--out-sample", str(sample_path)])
        assert code == 3
        assert not sample_path.exists()

    def test_external_oracle_command(self, pairs, tmp_path):
        # child process answers loss(i) = 2*i
        data, _ = pairs
        sample_path = tmp_path / "s.csv"
        report_path = tmp_path / "r.json"
        cmd = (f'{sys.executable} -c "import sys\n'
               'for line in sys.stdin:\n'
               '    print(2 * int(line))\n'
               '    sys.stdout.flush()"')
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1", "--oracle", cmd,
                     "--out-sample", str(sample_path),
                     "--out-report", str(report_path)])
        assert code == 0
        assert load_report(report_path)["queries_used"] == 2

    def test_oracle_that_ignores_end_of_input(self, pairs, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.setattr(core, "CLOSE_TIMEOUT_S", 0.2)
        data, _ = pairs
        script = tmp_path / "stubborn.py"
        script.write_text("import sys, time\n"
                          "for line in sys.stdin:\n"
                          "    print(1.0, flush=True)\n"
                          "time.sleep(60)\n")
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--oracle", f"{sys.executable} {script}",
                     "--out-sample", str(tmp_path / "s.csv")])
        assert code == 3
        assert "end of input" in capsys.readouterr().err

    def test_data_error_with_an_oracle_that_ignores_end_of_input(
            self, pairs, tmp_path, monkeypatch, capsys):
        # the oracle starts before clustering rejects k; the data error,
        # not the oracle's hung close, sets the exit code
        monkeypatch.setattr(core, "CLOSE_TIMEOUT_S", 0.2)
        data, _ = pairs
        script = tmp_path / "stubborn.py"
        script.write_text("import sys, time\n"
                          "sys.stdin.read()\n"
                          "time.sleep(60)\n")
        code = main(["select", "--data", str(data), "--k", "9",
                     "--epsilon", "1", "--lambda", "1",
                     "--oracle", f"{sys.executable} {script}",
                     "--out-sample", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "k=9 out of range" in err

    def test_data_error_kills_an_oracle_that_ignores_end_of_input(
            self, pairs, tmp_path, capsys):
        # the error is reported at once, not after CLOSE_TIMEOUT_S
        data, _ = pairs
        script = tmp_path / "stubborn.py"
        script.write_text("import sys, time\n"
                          "sys.stdin.read()\n"
                          "time.sleep(60)\n")
        start = time.perf_counter()
        code = main(["select", "--data", str(data), "--k", "9",
                     "--epsilon", "1", "--lambda", "1",
                     "--oracle", f"{sys.executable} {script}",
                     "--out-sample", str(tmp_path / "s.csv")])
        assert code == 2
        assert time.perf_counter() - start < 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "k=9 out of range" in err

    def test_oracle_that_never_answers(self, pairs, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.setattr(core, "REPLY_TIMEOUT_S", 0.5)
        data, _ = pairs
        script = tmp_path / "silent.py"
        script.write_text("import sys, time\n"
                          "sys.stdin.readline()\n"
                          "time.sleep(60)\n")
        start = time.perf_counter()
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--oracle", f"{sys.executable} {script}",
                     "--out-sample", str(tmp_path / "s.csv")])
        assert code == 3
        assert time.perf_counter() - start < 0.5 + 5
        err = capsys.readouterr().err
        assert "no reply for 0.5 s" in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_undecodable_oracle_reply(self, pairs, tmp_path, capsys):
        # an oracle fault, not a data error: exit 3 with one line
        data, _ = pairs
        script = tmp_path / "binary.py"
        script.write_text("import sys\n"
                          "for line in sys.stdin:\n"
                          "    sys.stdout.buffer.write(b'\\xff\\n')\n"
                          "    sys.stdout.flush()\n")
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--oracle", f"{sys.executable} {script}",
                     "--out-sample", str(tmp_path / "s.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "unparsable oracle reply" in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_subnormal_lambda_with_zero_losses(self, tmp_path):
        # lam * v and the normalizer lam . Phi underflow apart; the plan is
        # built at a scale where they do not, so p is v / Phi
        data = tmp_path / "data.csv"
        data.write_text("0,0\n" * 3 + "1,1\n" * 2)
        losses = tmp_path / "losses.txt"
        losses.write_text("0\n" * 5)
        sample_path = tmp_path / "s.csv"
        report_path = tmp_path / "r.json"
        assert main(["select", "--data", str(data), "--losses", str(losses),
                     "--k", "1", "--z", "1", "--lambda", "5e-324",
                     "--epsilon", "0.5", "--out-sample", str(sample_path),
                     "--out-report", str(report_path)]) == 0
        sample = load_sample(sample_path)
        assert set(sample.indices.tolist()) <= {3, 4}
        np.testing.assert_allclose(sample.weights, 2 / len(sample))
        assert load_report(report_path)["denom"] == 3 * 5e-324

    @pytest.mark.parametrize("lam", ["1e308", repr(sys.float_info.max)])
    @pytest.mark.parametrize("losses_text", ["0\n" * 5, "0\n1\n2\n3\n4\n"],
                             ids=["zero-losses", "losses"])
    def test_huge_lambda(self, tmp_path, lam, losses_text):
        # lam . Phi overflows; the plan is built at a scale where it does
        # not, the report holds the true normalizer (inf) and no numpy
        # warning escapes
        data = tmp_path / "data.csv"
        data.write_text("0,0\n" * 3 + "1,1\n" * 2)
        losses = tmp_path / "losses.txt"
        losses.write_text(losses_text)
        sample_path = tmp_path / "s.csv"
        report_path = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["select", "--data", str(data), "--losses",
                         str(losses), "--k", "1", "--z", "1", "--lambda", lam,
                         "--epsilon", "0.5", "--out-sample", str(sample_path),
                         "--out-report", str(report_path)]) == 0
        sample = load_sample(sample_path)
        assert set(sample.indices.tolist()) <= {3, 4}
        np.testing.assert_allclose(sample.weights, 2 / len(sample))
        # JSON has no Infinity: the overflowed values are written as null
        report = strict_json(report_path)
        assert report["denom"] is report["phi_lambda"] is None

    def test_lambda_file(self, pairs, tmp_path):
        data, losses = pairs
        lam = tmp_path / "lam.txt"
        lam.write_text("1.0\n1.0\n")
        report_path = tmp_path / "r.json"
        assert main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", str(lam),
                     "--losses", str(losses),
                     "--out-sample", str(tmp_path / "s.csv"),
                     "--out-report", str(report_path)]) == 0
        assert load_report(report_path)["lambda"] == [1.0, 1.0]


class TestOracleThatCannotStart:
    # every subcommand that builds an oracle from --oracle
    @pytest.mark.parametrize("args", [
        ["select", "--k", "2", "--epsilon", "1", "--lambda", "1",
         "--out-sample", "s.csv", "--out-report", "r.json"],
        ["select-rounds", "--k", "1", "--rounds", "2", "--epsilon", "1",
         "--lambda", "1", "--out-prefix", "out", "--out-report", "r.json"],
        ["lambda-estimate", "--k", "2", "--t", "2",
         "--out-report", "r.json"],
    ])
    def test_exits_3_with_one_line(self, pairs, tmp_path, monkeypatch,
                                   capsys, args):
        data, _ = pairs
        monkeypatch.chdir(tmp_path)
        blas = [get() for get, _ in core._openblas_controls()]
        code = main(args + ["--data", str(data),
                            "--oracle", str(tmp_path / "no-such-oracle")])
        assert code == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "cannot start oracle process" in err
        assert "Traceback" not in err
        assert [get() for get, _ in core._openblas_controls()] == blas
        # no sample, round or report file
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.csv", "losses.txt"]


class TestDuplicateEmbeddings:
    @pytest.mark.parametrize("lam", ["auto", "0.5"])
    def test_k_above_the_distinct_rows(self, tmp_path, lam):
        # 3 distinct points, k=4: the snapped centers are distinct rows, so
        # one center duplicates another's position and its cluster is empty
        data = tmp_path / "dup.csv"
        data.write_text("0\n0\n0\n5\n5\n5\n9\n9\n")
        losses = tmp_path / "losses.txt"
        losses.write_text("1\n1\n1\n2\n2\n2\n3\n3\n")
        sample_path = tmp_path / "s.csv"
        report_path = tmp_path / "r.json"
        assert main(["select", "--data", str(data), "--k", "4",
                     "--epsilon", "1", "--lambda", lam,
                     "--losses", str(losses),
                     "--out-sample", str(sample_path),
                     "--out-report", str(report_path)]) == 0
        report = load_report(report_path)
        assert report["k"] == 4 and report["k_effective"] == 3
        # the empty cluster's center is not queried, and every point sits
        # on its center, so auto finds no ratio to sample
        assert report["queries_used"] == 3
        assert len(load_sample(sample_path, n=8)) == report["s"]


class TestCluster:
    def test_writes_centers_and_assignment(self, pairs, tmp_path):
        data, _ = pairs
        centers = tmp_path / "centers.csv"
        labels = tmp_path / "assignment.txt"
        report = tmp_path / "r.json"
        assert main(["cluster", "--data", str(data), "--k", "2",
                     "--out-centers", str(centers),
                     "--out-assignment", str(labels),
                     "--out-report", str(report)]) == 0
        center_lines = centers.read_text().splitlines()
        assert len(center_lines) == 2
        rows = sorted(int(ln.split(",")[1]) for ln in center_lines)
        assert rows == [0, 2]
        assert [int(v) for v in labels.read_text().split()] == [0, 0, 1, 1] \
            or [int(v) for v in labels.read_text().split()] == [1, 1, 0, 0]
        assert load_report(report)["cost"] == pytest.approx(2.0)


class TestSelectRounds:
    def test_round_files_and_report(self, pairs, tmp_path):
        data, losses = pairs
        prefix = str(tmp_path / "out")
        report_path = tmp_path / "r.json"
        code = main(["select-rounds", "--data", str(data), "--k", "2",
                     "--rounds", "2", "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses), "--out-prefix", prefix,
                     "--out-report", str(report_path)])
        assert code == 0
        report = load_report(report_path)
        assert report["sample_paths"] == [f"{prefix}_round1.csv",
                                          f"{prefix}_round2.csv"]
        for i, path in enumerate(report["sample_paths"], start=1):
            assert len(load_sample(path)) == 3
            assert report["rounds_detail"][i - 1]["queries_used"] == 2 * i

    def test_auto_lambda_rejected(self, pairs, tmp_path):
        data, losses = pairs
        code = main(["select-rounds", "--data", str(data), "--k", "2",
                     "--rounds", "2", "--epsilon", "1", "--lambda", "auto",
                     "--losses", str(losses),
                     "--out-prefix", str(tmp_path / "out")])
        assert code == 2


class TestNoPartialOutput:
    """A run that exits non-zero leaves none of the files it created."""

    def test_select_with_an_unwritable_report(self, pairs, tmp_path,
                                              capsys):
        data, losses = pairs
        sample = tmp_path / "s.csv"
        centers = tmp_path / "c.csv"
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses), "--out-sample", str(sample),
                     "--out-centers", str(centers),
                     "--out-report", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        _one_data_error(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv",
                                                               "losses.txt"]

    def test_an_existing_output_is_not_removed(self, pairs, tmp_path):
        data, losses = pairs
        sample = tmp_path / "s.csv"
        sample.write_text("kept\n")
        code = main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses), "--out-sample", str(sample),
                     "--out-report", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert sample.exists()

    def test_existing_round_files_are_kept(self, pairs, tmp_path):
        data, losses = pairs
        kept = tmp_path / "out_round2.csv"
        kept.write_text("kept\n")
        code = main(["select-rounds", "--data", str(data), "--k", "2",
                     "--rounds", "2", "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses),
                     "--out-prefix", str(tmp_path / "out"),
                     "--out-report", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.csv", "losses.txt", "out_round2.csv"]

    def test_far_too_many_rounds_fail_at_once(self, pairs, tmp_path,
                                              capsys):
        # the guard lists no round paths, so --rounds costs nothing
        data, losses = pairs
        t0 = time.perf_counter()
        assert main(["select-rounds", "--data", str(data), "--k", "1",
                     "--rounds", str(10 ** 12), "--epsilon", "1",
                     "--lambda", "1", "--losses", str(losses),
                     "--out-prefix", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - t0 < 5
        _one_data_error(capsys)

    def test_select_rounds_with_an_unwritable_report(self, pairs, tmp_path):
        data, losses = pairs
        code = main(["select-rounds", "--data", str(data), "--k", "2",
                     "--rounds", "2", "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses),
                     "--out-prefix", str(tmp_path / "out"),
                     "--out-report", str(tmp_path / "missing" / "r.json")])
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv",
                                                               "losses.txt"]


class TestSelectRegression:
    def test_last_column_targets(self, tmp_path):
        rng = np.random.default_rng(33)
        A = rng.normal(size=(30, 2))
        b = A @ [1.0, -2.0]
        data = tmp_path / "reg.csv"
        data.write_text("".join(f"{r[0]},{r[1]},{t}\n" for r, t in zip(A, b)))
        sample_path = tmp_path / "s.csv"
        report_path = tmp_path / "r.json"
        code = main(["select-regression", "--data", str(data), "--k", "3",
                     "--epsilon", "1", "--lambda-inf",
                     "--out-sample", str(sample_path),
                     "--out-report", str(report_path)])
        assert code == 0
        report = load_report(report_path)
        assert report["lambda_mode"] == "infinity"
        assert len(report["x0"]) == 2
        assert len(load_sample(sample_path)) == report["s"]

    def test_finite_lambda_mode(self, tmp_path):
        data = tmp_path / "reg.csv"
        data.write_text("0,1\n1,2\n-3,3\n2,2\n")
        report_path = tmp_path / "r.json"
        assert main(["select-regression", "--data", str(data), "--k", "1",
                     "--epsilon", "1", "--lambda", "2",
                     "--out-sample", str(tmp_path / "s.csv"),
                     "--out-report", str(report_path)]) == 0
        assert load_report(report_path)["lambda_mode"] == "finite"


class TestDiagnostics:
    def test_lambda_estimate_stdout(self, pairs, capsys):
        data, losses = pairs
        code = main(["lambda-estimate", "--data", str(data), "--k", "2",
                     "--t", "2", "--losses", str(losses)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["lambda"]) == 2
        assert out["t"] == 2
        assert out["queries_used"] <= 2 * (2 + 1)

    def test_holder_diagnose_stdout(self, pairs, capsys):
        data, losses = pairs
        code = main(["holder-diagnose", "--data", str(data), "--k", "2",
                     "--losses", str(losses), "--percentiles", "50,99"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["percentiles"]) == {"50.0", "99.0"}
        assert out["ratio_count"] == 2

    @pytest.mark.parametrize("percentiles", ["150", "-5", "50,100.5"])
    def test_holder_diagnose_rejects_a_percentile_outside_0_to_100(
            self, pairs, capsys, percentiles):
        data, losses = pairs
        assert main(["holder-diagnose", "--data", str(data), "--k", "2",
                     "--losses", str(losses),
                     "--percentiles", percentiles]) == 2
        _one_data_error(capsys)


class TestUnderflowingDistancePowers:
    # rows 0 and 1e-200 share a center, and 1e-200 ** 2 underflows to 0:
    # lambda and the ratios become the largest double, with no warning
    @pytest.fixture
    def files(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0\n1e-200\n5\n5.5\n")
        losses = tmp_path / "losses.txt"
        losses.write_text("0\n1\n2\n3\n")
        return ["--data", str(data), "--losses", str(losses), "--k", "2"]

    @staticmethod
    def run(args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(args)

    def test_lambda_estimate_is_finite(self, files, tmp_path):
        report = tmp_path / "r.json"
        assert self.run(["lambda-estimate", *files, "--t", "4",
                         "--out-report", str(report)]) == 0
        lam = strict_json(report)["lambda"]
        assert None not in lam and max(lam) == sys.float_info.max

    def test_auto_select_exits_0(self, files, tmp_path):
        report = tmp_path / "r.json"
        assert self.run(["select", *files, "--epsilon", "0.5",
                         "--out-sample", str(tmp_path / "s.csv"),
                         "--out-report", str(report)]) == 0
        assert strict_json(report)["lambda_mode"] == "auto"

    def test_holder_diagnose_percentiles_are_finite(self, files, tmp_path):
        report = tmp_path / "r.json"
        assert self.run(["holder-diagnose", *files,
                         "--out-report", str(report)]) == 0
        assert None not in strict_json(report)["percentiles"].values()


class TestEvaluate:
    def test_delta_mode_identity_sample(self, pairs, tmp_path, capsys):
        _, losses = pairs
        sample = tmp_path / "s.csv"
        sample.write_text("index,weight\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n")
        code = main(["evaluate", "--sample", str(sample),
                     "--losses", str(losses)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta"] == pytest.approx(0.0)

    def test_r2_mode(self, tmp_path, capsys):
        rng = np.random.default_rng(34)
        A = rng.normal(size=(20, 2))
        b = A @ [2.0, 1.0]
        data = tmp_path / "reg.csv"
        data.write_text("".join(f"{r[0]},{r[1]},{t}\n" for r, t in zip(A, b)))
        sample = tmp_path / "s.csv"
        sample.write_text("index,weight\n" +
                          "".join(f"{i},1.0\n" for i in range(20)))
        code = main(["evaluate", "--sample", str(sample), "--data", str(data)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["r2"] == pytest.approx(1.0)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_is_a_data_error(self, pairs, tmp_path, capsys,
                                               weight):
        _, losses = pairs
        sample = tmp_path / "s.csv"
        sample.write_text(f"index,weight\n0,1.0\n1,{weight}\n")
        assert main(["evaluate", "--sample", str(sample),
                     "--losses", str(losses)]) == 2
        _one_data_error(capsys, f"{sample}: non-finite weight in row "
                                f"'1,{weight}'")

    def test_negative_weight_is_accepted(self, pairs, tmp_path, capsys):
        # a difference estimator's weights may be negative
        _, losses = pairs
        sample = tmp_path / "s.csv"
        sample.write_text("index,weight\n1,-1.0\n2,3.0\n")
        assert main(["evaluate", "--sample", str(sample),
                     "--losses", str(losses)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta"] == pytest.approx(abs(22.0 - (-5.0 + 30.0)))

    def test_needs_a_mode(self, tmp_path):
        sample = tmp_path / "s.csv"
        sample.write_text("index,weight\n0,1.0\n")
        assert main(["evaluate", "--sample", str(sample)]) == 2

    @pytest.mark.parametrize("index", ["-1", "4"])
    def test_sample_index_outside_the_data(self, pairs, tmp_path, capsys,
                                           index):
        _, losses = pairs
        sample = tmp_path / "s.csv"
        sample.write_text(f"index,weight\n0,1.0\n{index},1.0\n")
        code = main(["evaluate", "--sample", str(sample),
                     "--losses", str(losses)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"sample index {index} out of range" in err
        assert "Traceback" not in err


class TestBench:
    def test_uniform_spike_config(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("pipeline = uniform_spike\n"
                          "trials = 5\n"
                          "n = 100  # instance size\n"
                          "epsilon = 0.2\n")
        csv_path = tmp_path / "rows.csv"
        report_path = tmp_path / "r.json"
        code = main(["bench", "--config", str(config),
                     "--out-csv", str(csv_path),
                     "--out-report", str(report_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pipeline"] == "uniform_spike"
        assert summary["trials"] == 5
        assert 0 <= summary["success_rate"] <= 1
        assert len(csv_path.read_text().splitlines()) == 6
        assert load_report(report_path)["config"]["pipeline"] == "uniform_spike"

    def test_bad_config_line(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text("pipeline uniform_spike\n")
        assert main(["bench", "--config", str(config)]) == 2

    @pytest.mark.parametrize("text, named", [
        ("pipeline = data_select\nepsilom = 0.05\n", "'epsilom'"),
        # a key of another pipeline does nothing here either
        ("pipeline = uniform_spike\nrounds = 3\n", "'rounds'"),
        ("pipeline = data_select\nlambda_mode = atuo\n", "'atuo'"),
    ])
    def test_config_typo_is_a_data_error(self, tmp_path, capsys, text,
                                         named):
        config = tmp_path / "bench.cfg"
        config.write_text(text + "trials = 1\nn = 40\n")
        assert main(["bench", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("senselect: data error: ") and named in err


class TestLowerboundDemo:
    def test_sweep_output(self, capsys):
        code = main(["lowerbound-demo", "--n", "400", "--trials", "20",
                     "--epsilons", "0.25"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["sweep"][0]["s"] == 16
        assert out["sweep"][0]["median_abs_estimator"] >= 0


def _regression_files(tmp_path, targets=None):
    """12 rows in two features plus a target column, and optionally a
    --targets file holding the given lines."""
    rng = np.random.default_rng(35)
    A = rng.normal(size=(12, 2))
    data = tmp_path / "reg.csv"
    data.write_text("".join(f"{r[0]},{r[1]},{r[0] - r[1]}\n" for r in A))
    if targets is None:
        return data, None
    path = tmp_path / "targets.txt"
    path.write_text("".join(f"{t}\n" for t in targets))
    return data, path


def _one_data_error(capsys, message=None):
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("senselect: data error: ")
    if message is not None:
        assert lines[0] == f"senselect: data error: {message}"


def _one_count_error(capsys):
    """One data error line: a sample count above the largest array length."""
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("senselect: data error: sample count ")
    assert line.endswith(" is above the largest array length")


class TestLambdaValidation:
    @pytest.mark.parametrize("lam", ["-1", "-100", "nan"])
    @pytest.mark.parametrize("command", [
        ["select", "--k", "2", "--epsilon", "1", "--losses", "L",
         "--out-sample", "OUT", "--out-report", "REPORT"],
        ["select-rounds", "--k", "1", "--rounds", "2", "--epsilon", "1",
         "--losses", "L", "--out-prefix", "OUT", "--out-report", "REPORT"],
        ["select-regression", "--k", "2", "--epsilon", "1",
         "--out-sample", "OUT", "--out-report", "REPORT"],
    ], ids=lambda c: c[0])
    def test_every_select_command_rejects_it(self, pairs, tmp_path, capsys,
                                             command, lam):
        data, losses = pairs
        if command[0] == "select-regression":
            data, _ = _regression_files(tmp_path)
        paths = {"L": str(losses), "OUT": str(tmp_path / "out"),
                 "REPORT": str(tmp_path / "r.json")}
        argv = [paths.get(a, a) for a in command]
        code = main(argv + ["--data", str(data), "--lambda", lam])
        assert code == 2
        _one_data_error(capsys, "lambda must be finite and >= 0")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["data.csv", "losses.txt"]
            + (["reg.csv"] if command[0] == "select-regression" else []))

    def test_regression_lambda_inf_is_the_distance_only_mode(self, tmp_path):
        data, _ = _regression_files(tmp_path)
        samples = []
        for name, flag in (("a", ["--lambda", "inf"]), ("b", ["--lambda-inf"])):
            path = tmp_path / f"{name}.csv"
            assert main(["select-regression", "--data", str(data), "--k", "2",
                         "--epsilon", "1", "--out-sample", str(path),
                         "--out-report", str(tmp_path / f"{name}.json")]
                        + flag) == 0
            samples.append(path.read_bytes())
            assert load_report(tmp_path / f"{name}.json")["lambda_mode"] \
                == "infinity"
        assert samples[0] == samples[1]

    @pytest.mark.parametrize("lines, flag", [
        (["2", "2"], ["--lambda", "2"]),
        (["inf"], ["--lambda-inf"]),
    ], ids=["k-lines", "one-inf-line"])
    def test_regression_lambda_file_acts_as_its_values(self, tmp_path, lines,
                                                       flag):
        data, _ = _regression_files(tmp_path)
        lam = tmp_path / "lam.txt"
        lam.write_text("".join(f"{v}\n" for v in lines))
        samples = []
        for name, given in (("a", ["--lambda", str(lam)]), ("b", flag)):
            path = tmp_path / f"{name}.csv"
            assert main(["select-regression", "--data", str(data), "--k", "2",
                         "--epsilon", "1", "--out-sample", str(path)]
                        + given) == 0
            samples.append(path.read_bytes())
        assert samples[0] == samples[1]

    def test_regression_lambda_auto_is_a_data_error(self, tmp_path, capsys):
        data, _ = _regression_files(tmp_path)
        assert main(["select-regression", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "auto",
                     "--out-sample", str(tmp_path / "s.csv")]) == 2
        _one_data_error(capsys,
                        "select-regression needs a numeric lambda")
        assert not (tmp_path / "s.csv").exists()


class TestTargetsFile:
    def test_negative_targets_are_accepted(self, tmp_path):
        targets = [-3.5, 2.0, -0.25, 7.0, -1.0, 0.0] * 2
        data, path = _regression_files(tmp_path, targets)
        report = tmp_path / "r.json"
        assert main(["select-regression", "--data", str(data),
                     "--targets", str(path), "--k", "2", "--epsilon", "1",
                     "--out-sample", str(tmp_path / "s.csv"),
                     "--out-report", str(report)]) == 0
        # with --targets every data column is a feature
        assert len(load_report(report)["x0"]) == 3

    @pytest.mark.parametrize("targets, message", [
        (["1.0"] * 11, "11 values but dataset has 12 rows"),
        (["1.0"] * 11 + ["one"], "unparsable value"),
    ], ids=["count-mismatch", "unparsable"])
    def test_bad_targets_file(self, tmp_path, capsys, targets, message):
        data, path = _regression_files(tmp_path, targets)
        assert main(["select-regression", "--data", str(data),
                     "--targets", str(path), "--k", "2", "--epsilon", "1",
                     "--out-sample", str(tmp_path / "s.csv")]) == 2
        _one_data_error(capsys, f"{path}: {message}")
        assert not (tmp_path / "s.csv").exists()


class TestUnreadableInputs:
    def test_cluster_data_is_a_directory(self, tmp_path, capsys):
        assert main(["cluster", "--data", str(tmp_path), "--k", "1"]) == 2
        _one_data_error(capsys)

    def test_regression_targets_is_a_directory(self, tmp_path, capsys):
        data, _ = _regression_files(tmp_path)
        assert main(["select-regression", "--data", str(data),
                     "--targets", str(tmp_path), "--k", "2",
                     "--epsilon", "1",
                     "--out-sample", str(tmp_path / "s.csv")]) == 2
        _one_data_error(capsys)
        assert not (tmp_path / "s.csv").exists()


class TestDegenerateSettings:
    @pytest.mark.parametrize("eps", ["0", "-0.5", "nan", "inf", "0.25,0"])
    def test_lowerbound_demo_rejects_epsilon(self, capsys, eps):
        assert main(["lowerbound-demo", "--n", "40", "--trials", "2",
                     "--epsilons", eps]) == 2
        _one_data_error(capsys)

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_is_a_data_error(self, tmp_path, capsys, trials):
        config = tmp_path / "bench.cfg"
        config.write_text(f"pipeline = uniform_spike\ntrials = {trials}\n")
        for argv in (["bench", "--config", str(config)],
                     ["lowerbound-demo", "--n", "40", "--trials", trials]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 2
            assert not caught
            _one_data_error(capsys)

    @pytest.mark.parametrize("text", [
        "pipeline = uniform_spike\ns = 0\n",
        "pipeline = uniform_spike\nn = 0\n",
        "pipeline = uniform_spike\nepsilon = 0\n",
        "pipeline = uniform_rademacher\ns = 0\n",
        "pipeline = data_select\nk = 0\n",
    ], ids=["spike-s0", "spike-n0", "spike-epsilon0", "rademacher-s0",
            "data_select-k0"])
    def test_bench_counts_below_one(self, tmp_path, capsys, text):
        config = tmp_path / "bench.cfg"
        config.write_text(text + "trials = 1\n")
        assert main(["bench", "--config", str(config)]) == 2
        _one_data_error(capsys)

    @pytest.mark.parametrize("command", ["select", "select-rounds",
                                         "select-regression",
                                         "lowerbound-demo"])
    def test_epsilon_with_no_finite_sample_count(self, tmp_path, capsys,
                                                 command):
        data = tmp_path / "data.csv"
        data.write_text("0,0\n0,1\n5,5\n5,6\n9,9\n")
        losses = tmp_path / "losses.txt"
        losses.write_text("1\n2\n3\n4\n5\n")
        out = str(tmp_path / "out")
        select = ["--data", str(data), "--k", "2", "--epsilon", "1e-300"]
        argv = {
            "select": [*select, "--lambda", "1", "--losses", str(losses),
                       "--out-sample", out],
            "select-rounds": [*select, "--rounds", "2", "--lambda", "1",
                              "--losses", str(losses), "--out-prefix", out],
            "select-regression": [*select, "--out-sample", out],
            "lowerbound-demo": ["--n", "4", "--trials", "1",
                                "--epsilons", "1e-300"],
        }[command]
        assert main([command, *argv]) == 2
        _one_data_error(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv",
                                                               "losses.txt"]

    @pytest.mark.parametrize("flag, value", [
        ("--p", "1e-300"), ("--t", "100000000000000000000"),
        ("--t", "9" * 400)], ids=["p", "t-1e20", "t-400-digits"])
    def test_lambda_estimate_with_no_finite_sample_count(self, pairs,
                                                         capsys, flag,
                                                         value):
        data, losses = pairs
        assert main(["lambda-estimate", "--data", str(data), "--k", "2",
                     "--losses", str(losses), flag, value]) == 2
        _one_count_error(capsys)

    @pytest.mark.parametrize("budget", ["100000000000000000000", "9" * 400],
                             ids=["1e20", "400-digits"])
    def test_budget_with_no_finite_sample_count(self, pairs, tmp_path,
                                                capsys, monkeypatch,
                                                budget):
        # refused before the data are read, so before any oracle query
        queries = []
        real_query_many = core.LossOracle.query_many

        def spy(self, indices):
            queries.append(indices)
            return real_query_many(self, indices)

        monkeypatch.setattr(core.LossOracle, "query_many", spy)
        data, losses = pairs
        assert main(["select", "--data", str(data), "--budget", budget,
                     "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses),
                     "--out-sample", str(tmp_path / "s.csv")]) == 2
        _one_count_error(capsys)
        assert queries == []
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("t", ["0", "-3"])
    def test_lambda_estimate_rejects_t_below_1_before_clustering(
            self, pairs, capsys, monkeypatch, t):
        calls = []
        monkeypatch.setattr(cli, "cluster", lambda *a: calls.append(a))
        data, losses = pairs
        assert main(["lambda-estimate", "--data", str(data), "--k", "2",
                     "--losses", str(losses), "--t", t]) == 2
        _one_data_error(capsys, f"--t must be >= 1, got {t}")
        assert calls == []

    def test_out_of_memory_is_a_data_error(self, pairs, tmp_path, capsys,
                                           monkeypatch):
        # what a sample count too large for memory raises; nothing is
        # allocated here
        def draw(plan, rng):
            raise MemoryError()

        monkeypatch.setattr(selection, "draw", draw)
        data, losses = pairs
        assert main(["select", "--data", str(data), "--k", "2",
                     "--epsilon", "1", "--lambda", "1",
                     "--losses", str(losses),
                     "--out-sample", str(tmp_path / "s.csv")]) == 2
        _one_data_error(capsys, "MemoryError")

    def test_bench_regression_with_k_above_n(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("pipeline = regression\ntrials = 1\nn = 5\n"
                          "k = 10\n")
        assert main(["bench", "--config", str(config)]) == 2
        _one_data_error(capsys)


class TestReportWriter:
    # every subcommand's top-level report keys
    KEYS = {
        "cluster": {"cluster_cost", "cost", "elapsed_seconds", "k", "seed",
                    "z"},
        "select": {"denom", "elapsed_seconds", "epsilon", "k", "k_effective",
                   "lambda", "lambda_mode", "phi_lambda", "queries_lambda",
                   "queries_proxy", "queries_used", "rng_label", "s",
                   "sample_path", "seed", "z"},
        "select-rounds": {"elapsed_seconds", "epsilon", "k", "rounds",
                          "rounds_detail", "sample_paths", "seed", "z"},
        "select-regression": {"delta", "elapsed_seconds", "epsilon", "k",
                              "lambda_mode", "s", "sample_path", "seed",
                              "x0"},
        "lambda-estimate": {"k", "lambda", "queries_used", "seed", "t", "z"},
        "holder-diagnose": {"k", "percentiles", "ratio_count", "seed", "z"},
        "evaluate": {"delta", "sample_path"},
        "bench": {"config", "mean_delta", "median_delta", "pipeline",
                  "std_error", "success_rate", "trials"},
        "lowerbound-demo": {"n", "seed", "sweep", "trials"},
    }

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_every_subcommand_writes_a_tagged_strict_report(
            self, pairs, tmp_path, command):
        data, losses = pairs
        reg, _ = _regression_files(tmp_path)
        sample = tmp_path / "s.csv"
        sample.write_text("index,weight\n0,1.0\n3,1.0\n")
        config = tmp_path / "bench.cfg"
        config.write_text("pipeline = uniform_spike\ntrials = 3\nn = 50\n")
        out = tmp_path / "out"
        argv = {
            "cluster": ["--data", data, "--k", "2"],
            "select": ["--data", data, "--k", "2", "--epsilon", "1",
                       "--lambda", "1", "--losses", losses,
                       "--out-sample", out],
            "select-rounds": ["--data", data, "--k", "1", "--rounds", "2",
                              "--epsilon", "1", "--lambda", "1",
                              "--losses", losses, "--out-prefix", out],
            "select-regression": ["--data", reg, "--k", "3",
                                  "--epsilon", "1", "--out-sample", out],
            "lambda-estimate": ["--data", data, "--k", "2", "--t", "2",
                                "--losses", losses],
            "holder-diagnose": ["--data", data, "--k", "2",
                                "--losses", losses],
            "evaluate": ["--sample", sample, "--losses", losses],
            "bench": ["--config", config],
            "lowerbound-demo": ["--n", "40", "--trials", "3",
                                "--epsilons", "0.5"],
        }[command]
        report = tmp_path / "r.json"
        assert main([command, *map(str, argv), "--out-report",
                     str(report)]) == 0
        doc = strict_json(report)
        assert doc["command"] == command
        assert set(doc) == self.KEYS[command] | {"command", "schema_version"}
