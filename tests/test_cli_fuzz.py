"""Every subcommand, fed argv drawn from a small vocabulary of valid, garbled
and out-of-range values, missing and empty files and rows too large to
square, keeps the exit-code contract: a code in {0, 1, 2, 3}, no exception,
and no traceback or RuntimeWarning on stderr.  A `select` that exits
non-zero leaves no file behind."""

import contextlib
import io
import os
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from senselect.cli import main

FILES = {
    "pairs.csv": "0.0\n1.0\n10.0\n11.0\n",
    "reg.csv": "".join(f"{i % 5},{i % 3 - 1},{i / 4}\n" for i in range(12)),
    "huge.csv": "0\n1e200\n1.1e200\n3e200\n3.1e200\n",
    "garbled.csv": "1,2\n3,abc\n",
    "empty.txt": "",
    "losses4.txt": "0.0\n5.0\n10.0\n7.0\n",
    "losses12.txt": "".join(f"{i / 3}\n" for i in range(12)),
    "negative.txt": "1\n-2\n3\n4\n",
    "lam1.txt": "inf\n",
    "lam2.txt": "2\n2\n",
    "sample.csv": "index,weight\n0,1.0\n3,2.0\n",
    "badsample.csv": "index,weight\n99,1.0\n",
    "spike.cfg": "pipeline = uniform_spike\ntrials = 3\nn = 50\n",
    "select.cfg": "pipeline = data_select\ntrials = 2\nn = 40\nd = 4\n"
                  "k = 2\n",
    "auto.cfg": "pipeline = data_select\nlambda_mode = auto\ntrials = 1\n"
                "n = 40\nd = 4\nk = 2\n",
    "rounds.cfg": "pipeline = rounds\ntrials = 1\nn = 40\nd = 4\nk = 2\n"
                  "rounds = 2\n",
    "regression.cfg": "pipeline = regression\ntrials = 1\nn = 30\nd = 3\n"
                      "k = 3\n",
    "zero.cfg": "pipeline = uniform_spike\ntrials = 0\nn = 50\n",
    "badline.cfg": "pipeline uniform_spike\n",
    "unknown.cfg": "pipeline = nope\ntrials = 1\n",
    "spike-s0.cfg": "pipeline = uniform_spike\ntrials = 1\ns = 0\n",
    "spike-n0.cfg": "pipeline = uniform_spike\ntrials = 1\nn = 0\n",
    "spike-eps0.cfg": "pipeline = uniform_spike\ntrials = 1\nn = 50\n"
                      "epsilon = 0\n",
    "rademacher-s0.cfg": "pipeline = uniform_rademacher\ntrials = 1\n"
                         "n = 50\ns = 0\n",
    "select-k0.cfg": "pipeline = data_select\ntrials = 1\nn = 40\nd = 4\n"
                     "k = 0\n",
}
MISSING = "missing.csv"
BAD_DIR = "no-such-dir/out.csv"


def req(good, bad):
    """A required flag: good values, or one bad value or no flag at all."""
    return good, [*bad, None]


def opt(good, bad):
    """An optional flag: a good value or no flag, or one bad value."""
    return [*good, None], bad


COUNT = (["1", "2", "3", "9"], ["0", "-1", "x", ""])
HUGE = "100000000000000000000"  # above the largest array length
SEED = opt(["0", "1", "-1"], ["x", "1.5"])
EPSILON = req(["1", "0.5"], ["0", "-0.5", "2", "nan", "inf", "x", "1e-300"])
Z = opt(["1", "2"], ["3", "0.5", "nan", "x"])
DATA = req(["pairs.csv", "reg.csv"],
           ["huge.csv", "garbled.csv", "empty.txt", MISSING, "."])
LOSSES = (["losses4.txt", "losses12.txt"],
          ["negative.txt", "garbled.csv", "empty.txt", MISSING, "."])
LAMBDA = (["1", "0", "inf", "auto", "lam1.txt", "lam2.txt"],
          ["-1", "nan", "x", "empty.txt", "garbled.csv", MISSING])
OUT = (["out.csv"], [BAD_DIR, "."])
ORACLE = {"--losses": req(*LOSSES),
          "--oracle": opt([], ["no-such-oracle-command", ""]),
          "--oracle-budget": opt(*COUNT)}

FLAGS = {
    "cluster": {"--data": DATA, "--k": req(*COUNT), "--z": Z, "--seed": SEED,
                "--out-centers": opt(*OUT), "--out-assignment": opt(*OUT),
                "--out-report": opt(*OUT)},
    "select": {"--data": DATA, "--k": opt(*COUNT),
               "--budget": opt(COUNT[0], [*COUNT[1], HUGE, "9" * 400]),
               "--epsilon": EPSILON, "--z": Z, "--lambda": opt(*LAMBDA),
               **ORACLE, "--seed": SEED, "--out-sample": req(*OUT),
               "--out-report": opt(*OUT), "--out-centers": opt(*OUT),
               "--out-assignment": opt(*OUT)},
    "select-rounds": {"--data": DATA, "--k": req(*COUNT),
                      "--rounds": req(*COUNT), "--epsilon": EPSILON,
                      "--z": Z, "--lambda": req(*LAMBDA), **ORACLE,
                      "--seed": SEED,
                      "--out-prefix": req(["out"], ["no-such-dir/out"]),
                      "--out-report": opt(*OUT)},
    "select-regression": {"--data": DATA, "--targets": opt(*LOSSES),
                          "--k": req(*COUNT), "--epsilon": EPSILON,
                          "--delta": opt(["0.1", "0.5"], ["0", "1", "nan"]),
                          "--lambda": opt(*LAMBDA),
                          "--lambda-inf": ([True, None], [True]),
                          "--seed": SEED, "--out-sample": req(*OUT),
                          "--out-report": opt(*OUT)},
    "lambda-estimate": {"--data": DATA, "--k": req(*COUNT), "--z": Z,
                        "--t": opt(COUNT[0], [*COUNT[1], HUGE]),
                        "--p": opt(["0.2"], ["0", "1", "1e-300"]),
                        **ORACLE, "--seed": SEED,
                        "--out-report": opt(*OUT)},
    "holder-diagnose": {"--data": DATA, "--losses": req(*LOSSES),
                        "--k": req(*COUNT), "--z": Z,
                        "--percentiles": opt(["50,99", "0,100"],
                                             ["150", "-5", "nan", "x", ""]),
                        "--seed": SEED, "--out-report": opt(*OUT)},
    "evaluate": {"--sample": req(["sample.csv"],
                                 ["badsample.csv", "garbled.csv",
                                  "empty.txt", MISSING]),
                 "--losses": opt(*LOSSES), "--data": opt(*DATA),
                 "--targets": opt(*LOSSES), "--out-report": opt(*OUT)},
    "bench": {"--config": req(["spike.cfg", "select.cfg", "auto.cfg",
                               "rounds.cfg", "regression.cfg"],
                              ["zero.cfg", "badline.cfg", "unknown.cfg",
                               "empty.txt", MISSING, "spike-s0.cfg",
                               "spike-n0.cfg", "spike-eps0.cfg",
                               "rademacher-s0.cfg", "select-k0.cfg"]),
              "--out-report": opt(*OUT), "--out-csv": opt(*OUT)},
    # --n and --trials are always given, so no run takes the slow defaults
    "lowerbound-demo": {"--n": (["40", "8"], ["7", "0", "-2", "x"]),
                        "--trials": (["2"], ["0", "-1", "x"]),
                        "--epsilons": opt(["0.5", "0.25,0.5"],
                                          ["0", "x", "1e-300"]),
                        "--seed": SEED, "--out-report": opt(*OUT)},
}


@st.composite
def argv(draw):
    """A subcommand with good values for every flag but at most one."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    spoiled = draw(st.sampled_from([None, *FLAGS[command]]))
    args = [command]
    for flag, (good, bad) in FLAGS[command].items():
        value = draw(st.sampled_from(bad if flag == spoiled else good))
        if value is True:
            args.append(flag)
        elif value is not None:
            args += [flag, value]
    return args


@pytest.fixture(scope="module")
def in_fuzz_dir(tmp_path_factory):
    """Run every case from a directory holding the vocabulary's files."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        yield


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv())
def test_every_run_keeps_the_exit_code_contract(in_fuzz_dir, args):
    # every output flag names out.csv, so a file the run creates is new
    with contextlib.suppress(FileNotFoundError):
        os.remove("out.csv")
    before = set(os.listdir())
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    err = stderr.getvalue()
    assert code in (0, 1, 2, 3), (args, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err, (args, err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        (args, [str(w.message) for w in caught])
    if args[0] == "select" and code != 0:
        assert set(os.listdir()) <= before, (args, err)
