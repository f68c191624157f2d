import os
import shlex
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from senselect import core
from senselect.core import (BudgetExceededError, Dataset, LossOracle,
                            LossTable, OracleProtocolError, RngStream)
from senselect.selection import AUTO, data_select, data_select_rounds


class TestDataset:
    def test_shape_and_immutability(self):
        data = Dataset([[1, 2], [3, 4]])
        assert (data.n, data.d) == (2, 2)
        with pytest.raises(ValueError):
            data.rows[0, 0] = 9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset([[np.inf]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 3)))


class TestLossTable:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LossTable([1.0, -0.5])

    def test_length(self):
        assert len(LossTable([0.0, 1.0, 2.0])) == 3


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, "draw").generator().random(100)
        b = RngStream(42, "draw").generator().random(100)
        np.testing.assert_array_equal(a, b)

    def test_labels_independent(self):
        a = RngStream(42, "a").generator().random(100)
        b = RngStream(42, "b").generator().random(100)
        assert not np.array_equal(a, b)

    def test_child_labels_nest(self):
        assert RngStream(1, "x").child("y").label == "x/y"


class TestTableOracle:
    def test_cache_does_not_consume_budget(self):
        oracle = LossOracle.from_table([0.5, 0.5])
        assert oracle.query(0) == 0.5
        assert oracle.query(0) == 0.5
        assert oracle.queries_used == 1

    def test_budget_enforced(self):
        oracle = LossOracle.from_table([1.0, 2.0], budget=1)
        oracle.query(0)
        with pytest.raises(BudgetExceededError):
            oracle.query(1)
        # the failed query must not corrupt the counter
        assert oracle.queries_used == 1
        assert oracle.query(0) == 1.0

    def test_counter_counts_distinct(self):
        rng = np.random.default_rng(2)
        oracle = LossOracle.from_table(rng.random(50))
        queried = set()
        for i in rng.integers(50, size=300):
            oracle.query(int(i))
            queried.add(int(i))
            assert oracle.queries_used == len(queried)

    def test_out_of_range(self):
        oracle = LossOracle.from_table([1.0])
        with pytest.raises(IndexError):
            oracle.query(1)


class _BatchBackend:
    """Table fetch with a batch method; records every batch it is handed."""

    def __init__(self, values):
        self.values = values
        self.batches = []

    def fetch_many(self, indices):
        self.batches.append(list(indices))
        return [self.values[i] for i in indices]


@st.composite
def _batch_case(draw):
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    warm = draw(st.lists(index, max_size=6))
    batch = draw(st.lists(index, max_size=30))
    budget = draw(st.none() | st.integers(0, n))
    return values, warm, batch, budget


class TestQueryMany:
    @settings(max_examples=300, deadline=None)
    @given(_batch_case())
    def test_matches_a_loop_of_query(self, case):
        values, warm, batch, budget = case
        backend = _BatchBackend(values)
        batched = LossOracle(backend, len(values), budget)
        looped = LossOracle(lambda i: values[i], len(values), budget)
        if len(set(warm)) > (np.inf if budget is None else budget):
            return
        for i in warm:
            batched.query(i)
            looped.query(i)
        before = dict(batched.cache)
        backend.batches.clear()
        misses = list(dict.fromkeys(i for i in batch if i not in before))
        if len(before) + len(misses) > batched.budget:
            with pytest.raises(BudgetExceededError):
                batched.query_many(batch)
            assert batched.cache == before  # an abort spends nothing
            assert backend.batches == []
            return
        got = batched.query_many(batch)
        expected = [looped.query(i) for i in batch]
        assert got.tolist() == expected
        assert batched.queries_used == looped.queries_used
        assert list(batched.cache.items()) == list(looped.cache.items())
        # misses go to the backend once each, in first-occurrence order
        assert backend.batches == ([misses] if misses else [])

    def test_range_checked_before_any_fetch(self):
        backend = _BatchBackend([1.0, 2.0, 3.0])
        oracle = LossOracle(backend, 3)
        for bad in (3, -1):
            with pytest.raises(IndexError):
                oracle.query_many([0, 1, bad])
        assert backend.batches == [] and oracle.queries_used == 0

    def test_pipeline_round_trips(self):
        # one batch per selection, AUTO included, that starts with the k
        # center rows; one batch of k per round
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(80, 2)))
        for lam in (1.0, AUTO):
            backend = _BatchBackend(rng.random(data.n).tolist())
            _, _, clustering, _ = data_select(
                data, 3, 0.5, lam, LossOracle(backend, data.n), 2,
                RngStream(0, "trips"))
            assert len(backend.batches) == 1
            assert backend.batches[0][:3] == clustering.centers.indices.tolist()
        backend = _BatchBackend(rng.random(data.n).tolist())
        data_select_rounds(data, 3, 4, 0.5, 1.0, LossOracle(backend, data.n),
                           2, RngStream(0, "trips"))
        assert [len(b) for b in backend.batches] == [3, 3, 3, 3]

    def test_invalid_value_caches_nothing(self):
        backend = _BatchBackend([1.0, -2.0, 3.0])
        oracle = LossOracle(backend, 3)
        with pytest.raises(OracleProtocolError):
            oracle.query_many([0, 1, 2])
        assert oracle.cache == {}


ECHO_ORACLE = textwrap.dedent("""
    import sys
    losses = {0: 0.25, 7: 0.25, 1: 1.5}
    for line in sys.stdin:
        print(losses[int(line)])
        sys.stdout.flush()
""").strip()


def _script(tmp_path, name, body) -> str:
    """Command running ``body`` as a Python script."""
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(body))
    return shlex.join([sys.executable, str(path)])


def _open_fds() -> int | None:
    """This process's open file descriptors, where the OS lists them."""
    fd_dir = "/proc/self/fd"
    return len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None


@pytest.fixture
def echo_command(tmp_path):
    """Oracle answering loss(i) = i / 2, one flushed line per query."""
    return _script(tmp_path, "echo", """
        import sys
        for line in sys.stdin:
            print(int(line) / 2, flush=True)
    """)


#: oracle whose reply to index 13 is an early exit, to 14 garbage, to 15 a
#: negative loss and to 16 NaN; every other index i gets i / 2
FAULTY_ORACLE = """
    import sys
    for line in sys.stdin:
        i = int(line)
        reply = {13: None, 14: "garbage", 15: -1.0, 16: "nan"}.get(i, i / 2)
        if reply is None:
            sys.exit(0)
        print(reply, flush=True)
"""


class TestExternalOracle:
    def test_protocol_round_trip(self):
        cmd = f'{sys.executable} -c "{ECHO_ORACLE}"'
        with LossOracle.from_command(cmd, n=10) as oracle:
            assert oracle.query(7) == 0.25
            assert oracle.query(1) == 1.5
            assert oracle.query(7) == 0.25
            assert oracle.queries_used == 2

    def test_malformed_reply(self):
        cmd = f'{sys.executable} -c "print(\'not-a-number\')"'
        with LossOracle.from_command(cmd, n=10) as oracle:
            with pytest.raises(OracleProtocolError):
                oracle.query(0)

    def test_child_exit_is_error(self):
        cmd = f'{sys.executable} -c "raise SystemExit(3)"'
        with LossOracle.from_command(cmd, n=10) as oracle:
            with pytest.raises(OracleProtocolError):
                oracle.query(0)

    def test_negative_loss_rejected(self):
        cmd = f'{sys.executable} -c "print(-1)"'
        with LossOracle.from_command(cmd, n=10) as oracle:
            with pytest.raises(OracleProtocolError):
                oracle.query(0)

    def test_batch_round_trip(self, echo_command):
        with LossOracle.from_command(echo_command, n=100) as oracle:
            assert oracle.query(4) == 2.0
            got = oracle.query_many([9, 4, 9, 60, 0])
            assert got.tolist() == [4.5, 2.0, 4.5, 30.0, 0.0]
            assert oracle.queries_used == 4

    @pytest.mark.parametrize("bad", [13, 14, 15, 16],
                             ids=["early-exit", "garbage", "negative", "nan"])
    def test_failure_mid_batch_is_all_or_nothing(self, tmp_path, bad):
        command = _script(tmp_path, "faulty", FAULTY_ORACLE)
        with LossOracle.from_command(command, n=100) as oracle:
            oracle.query(1)
            with pytest.raises(OracleProtocolError):
                oracle.query_many([2, 3, bad, 4, 5])
            assert oracle.cache == {1: 0.5}
            # the broken child is gone; the next batch gets a fresh one
            assert oracle.query_many([2, 3]).tolist() == [1.0, 1.5]

    def test_close_kills_a_child_that_ignores_end_of_input(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "CLOSE_TIMEOUT_S", 0.2)
        command = _script(tmp_path, "stubborn", """
            import sys, time
            for line in sys.stdin:
                print(1.0, flush=True)
            time.sleep(60)
        """)
        oracle = LossOracle.from_command(command, n=10)
        oracle.query(0)
        proc, threads = oracle._backend._proc, threading.enumerate()
        start = time.perf_counter()
        with pytest.raises(OracleProtocolError, match="end of input"):
            oracle.close()
        assert time.perf_counter() - start < 10
        assert proc.returncode is not None  # killed and reaped
        assert threading.enumerate() == threads  # the waiter is joined

    def test_close_sees_the_exit_at_once(self, tmp_path):
        # Popen.wait(timeout) polls 0.5, 1.5, 3.5, 7.5, 15.5 and 31.5 ms in,
        # so it would see a child that exits 20 ms after end of input only
        # at 31.5 ms; the best of three closes allows for a busy host
        command = _script(tmp_path, "lingering", """
            import os, sys, time
            for line in sys.stdin:
                print(1.0, flush=True)
            time.sleep(0.02)
            os._exit(0)
        """)
        times = []
        for _ in range(3):
            oracle = LossOracle.from_command(command, n=10)
            oracle.query(0)
            proc = oracle._backend._proc
            start = time.perf_counter()
            oracle.close()
            times.append(time.perf_counter() - start)
            assert proc.returncode == 0
        assert 0.02 <= min(times) < 0.03, times

    def test_close_does_not_wait_for_a_grandchild_holding_stdout(
            self, tmp_path):
        # the child exits at end of input; the grandchild it leaves behind
        # keeps the child's stdout open for 3 s more
        command = _script(tmp_path, "parent", """
            import subprocess, sys
            subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(3)"])
            for line in sys.stdin:
                print(1.0, flush=True)
        """)
        open_fds = _open_fds()
        oracle = LossOracle.from_command(command, n=10)
        oracle.query(0)
        proc = oracle._backend._proc
        start = time.perf_counter()
        oracle.close()
        assert time.perf_counter() - start < 1.5
        assert proc.returncode == 0
        assert _open_fds() == open_fds  # the pipes are closed

    @pytest.mark.parametrize("answered", [0, 2],
                             ids=["silent", "stops-mid-batch"])
    def test_reply_timeout_kills_a_silent_child(self, tmp_path, monkeypatch,
                                                answered):
        monkeypatch.setattr(core, "REPLY_TIMEOUT_S", 0.3)
        command = _script(tmp_path, "silent", f"""
            import sys, time
            for _ in range({answered}):
                sys.stdin.readline()
                print(1.0, flush=True)
            sys.stdin.readline()
            time.sleep(60)
        """)
        with LossOracle.from_command(command, n=10) as oracle:
            start = time.perf_counter()
            with pytest.raises(OracleProtocolError, match="no reply for 0.3 s"):
                oracle.query_many(range(5))
            assert time.perf_counter() - start < 5
            assert oracle.queries_used == 0
            assert oracle._backend._proc is None

    def test_slow_replies_within_the_timeout_pass(self, tmp_path,
                                                  monkeypatch):
        # the deadline runs from the last reply, not from the batch start
        monkeypatch.setattr(core, "REPLY_TIMEOUT_S", 0.5)
        command = _script(tmp_path, "slow", """
            import sys, time
            for line in sys.stdin:
                time.sleep(0.2)
                print(int(line) / 2, flush=True)
        """)
        with LossOracle.from_command(command, n=10) as oracle:
            assert oracle.query_many(range(5)).tolist() == [0, 0.5, 1, 1.5, 2]

    def test_batch_larger_than_the_pipe_buffers(self, echo_command):
        # a writer that waits for the whole batch to be sent before reading
        # deadlocks once both pipes fill up
        n = 120_000
        oracle = LossOracle.from_command(echo_command, n=n)
        result = {}
        worker = threading.Thread(
            target=lambda: result.update(values=oracle.query_many(range(n))),
            daemon=True)
        worker.start()
        worker.join(timeout=60)
        if worker.is_alive():
            oracle._backend._proc.kill()
            pytest.fail("query_many of a large batch did not finish in 60 s")
        oracle.close()
        np.testing.assert_array_equal(result["values"], np.arange(n) / 2)
        assert oracle.queries_used == n

    def test_more_replies_than_queries_cache_nothing(self, tmp_path):
        # two lines per query, in one write: the second must not become
        # the next index's loss
        command = _script(tmp_path, "chatty", """
            import os, sys
            for line in sys.stdin:
                i = int(line)
                os.write(1, b"%d\\n%d\\n" % (i, i + 100))
        """)
        with LossOracle.from_command(command, n=10) as oracle:
            with pytest.raises(OracleProtocolError, match="more than 1 repl"):
                oracle.query_many([1])
            assert oracle.queries_used == 0
            assert oracle._backend._proc is None

    def test_a_late_extra_reply_is_not_the_next_loss(self, tmp_path):
        # the child sends a second line once `go` exists, then makes `sent`
        go, sent = tmp_path / "go", tmp_path / "sent"
        command = _script(tmp_path, "late", f"""
            import pathlib, sys, time
            for line in sys.stdin:
                i = int(line)
                print(i, flush=True)
                while not pathlib.Path({str(go)!r}).exists():
                    time.sleep(0.01)
                print(i + 100, flush=True)
                pathlib.Path({str(sent)!r}).write_text("")
        """)
        with LossOracle.from_command(command, n=10) as oracle:
            assert oracle.query_many([1]).tolist() == [1.0]
            go.write_text("")
            deadline = time.monotonic() + 30
            while not sent.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(OracleProtocolError, match="no query"):
                oracle.query_many([2])
            assert oracle.cache == {1: 1.0}

    def test_a_batch_starts_no_thread(self, echo_command, monkeypatch):
        def refuse(thread):
            raise AssertionError("the oracle started a thread")

        with LossOracle.from_command(echo_command, n=10) as oracle:
            with monkeypatch.context() as patch:  # close waits in a thread
                patch.setattr(threading.Thread, "start", refuse)
                got = oracle.query_many(range(5))
            assert got.tolist() == [0, 0.5, 1, 1.5, 2]


#: oracle answering loss(i) = i / 7 that writes its pending replies in
#: chunks of 1..12 bytes, split mid-line and mid-number, with a pause of up
#: to argv[2] seconds after each; it reads all the input already waiting
#: before writing, so a chunk can span replies
CHUNKED_ORACLE = """
    import os, random, select, sys, time
    rng, pause = random.Random(int(sys.argv[1])), float(sys.argv[2])
    tail = pending = b""
    while True:
        if not pending or select.select([0], [], [], 0)[0]:
            data = os.read(0, 4096)
            if not data:
                break
            *lines, tail = (tail + data).split(b"\\n")
            pending += b"".join(b"%r\\n" % (int(i) / 7) for i in lines)
            continue
        size = rng.randint(1, 12)
        os.write(1, pending[:size])
        pending = pending[size:]
        time.sleep(rng.uniform(0, pause))
"""


@pytest.fixture(scope="module")
def chunked_oracle(tmp_path_factory):
    return _script(tmp_path_factory.mktemp("chunked"), "chunked",
                   CHUNKED_ORACLE)


@settings(max_examples=25, deadline=None)
@given(batches=st.lists(st.lists(st.integers(0, 39), min_size=1,
                                 max_size=12), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1),
       pause=st.sampled_from([0.0, 0.002]))
def test_replies_split_anywhere_are_framed_by_line(chunked_oracle, batches,
                                                   seed, pause):
    with LossOracle.from_command(f"{chunked_oracle} {seed} {pause}",
                                 n=40) as oracle:
        seen = set()
        for batch in batches:
            got = oracle.query_many(batch)
            assert got.tolist() == [i / 7 for i in batch]
            seen.update(batch)
            assert oracle.queries_used == len(seen)


def test_auto_select_is_the_same_through_a_process_and_a_table(tmp_path):
    rng = np.random.default_rng(5)
    data = Dataset(np.concatenate([rng.normal(c, 1.0, (60, 3))
                                   for c in (-6, 0, 6)]))
    losses = rng.gamma(2.0, size=data.n)
    (tmp_path / "losses.txt").write_text(
        "".join(f"{float(v)!r}\n" for v in losses))
    command = _script(tmp_path, "table_oracle", f"""
        import sys
        losses = [float(v) for v in open({str(tmp_path / "losses.txt")!r})]
        for line in sys.stdin:
            print(repr(losses[int(line)]), flush=True)
    """)
    runs = []
    for oracle in (LossOracle.from_command(command, data.n),
                   LossOracle.from_table(losses)):
        with oracle:
            sample, report, _, _ = data_select(
                data, 4, 0.3, AUTO, oracle, 2, RngStream(3, "same"))
        runs.append((sample, report))
    (a, ra), (b, rb) = runs
    assert ra["lambda"] == rb["lambda"]
    assert ra["queries_used"] == rb["queries_used"] > 4
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.weights, b.weights)


class _FakeBlas:
    """Thread-count control of one fake BLAS library; logs every set."""

    def __init__(self, count, log):
        self.count, self.log = count, log

    def get(self):
        return self.count

    def set(self, n):
        self.count = n
        self.log.append(("set", n))


@pytest.fixture
def fake_blas(monkeypatch):
    """Two fake libraries at 4 and 2 threads in place of the real ones."""
    log = []
    libs = [_FakeBlas(4, log), _FakeBlas(2, log)]
    monkeypatch.setattr(core, "_openblas_controls",
                        lambda: tuple((lib.get, lib.set) for lib in libs))
    return libs, log


def _counts(libs):
    return [lib.count for lib in libs]


class TestBlasThreads:
    def test_caps_and_restores_on_normal_exit(self, fake_blas):
        libs, _ = fake_blas
        with core.blas_threads(1):
            assert _counts(libs) == [1, 1]
        assert _counts(libs) == [4, 2]
        with core.blas_threads(3):  # a cap never raises a count
            assert _counts(libs) == [3, 2]
        assert _counts(libs) == [4, 2]

    def test_restores_after_an_exception(self, fake_blas):
        libs, _ = fake_blas
        with pytest.raises(KeyError):
            with core.blas_threads(1):
                raise KeyError("inside")
        assert _counts(libs) == [4, 2]

    def test_nested_holders(self, fake_blas):
        libs, _ = fake_blas
        with core.blas_threads(3):
            with core.blas_threads(1):
                assert _counts(libs) == [1, 1]
            assert _counts(libs) == [3, 2]
        assert _counts(libs) == [4, 2]

    def test_overlapping_holders(self, fake_blas):
        # the first holder exits while the second is still open
        libs, _ = fake_blas
        first, second = core.blas_threads(3), core.blas_threads(1)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert _counts(libs) == [1, 1]
        second.__exit__(None, None, None)
        assert _counts(libs) == [4, 2]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 5)),
                    max_size=12))
    def test_any_sequence_of_holders(self, steps):
        # each step opens a holder or closes the oldest open one; the count
        # is always the least of the original and the open caps
        log = []
        libs = [_FakeBlas(4, log), _FakeBlas(2, log)]
        controls = tuple((lib.get, lib.set) for lib in libs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_openblas_controls", lambda: controls)
            open_caps = []
            for opens, n in steps:
                if opens or not open_caps:
                    holder = core.blas_threads(n)
                    holder.__enter__()
                    open_caps.append((n, holder))
                else:
                    open_caps.pop(0)[1].__exit__(None, None, None)
                caps = [c for c, _ in open_caps]
                assert _counts(libs) == [min([4, *caps]), min([2, *caps])]
            for _, holder in open_caps:
                holder.__exit__(None, None, None)
        assert _counts(libs) == [4, 2]

    def test_holders_in_two_threads(self, fake_blas):
        libs, _ = fake_blas
        inside, release = threading.Event(), threading.Event()

        def hold():
            with core.blas_threads(2):
                inside.set()
                release.wait(10)

        worker = threading.Thread(target=hold)
        worker.start()
        assert inside.wait(10)
        with core.blas_threads(1):
            release.set()
            worker.join(10)
            assert not worker.is_alive()
            assert _counts(libs) == [1, 1]
        assert _counts(libs) == [4, 2]

    def test_stress_many_threads(self, fake_blas):
        # more holders than cores, switching threads as often as possible;
        # a lost update would leave a cap behind or a count changed
        libs, _ = fake_blas
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            over = []  # a count above the cap of an open holder

            def churn(seed):
                g = np.random.default_rng(seed)
                for n in g.integers(1, 6, size=300):
                    with core.blas_threads(int(n)):
                        if max(_counts(libs)) > n:
                            over.append(n)

            workers = [threading.Thread(target=churn, args=(i,))
                       for i in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60)
                assert not w.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert over == []
        assert _counts(libs) == [4, 2]
        assert core._blas_caps == []

    def test_no_op_without_openblas(self, monkeypatch):
        monkeypatch.setattr(core, "_openblas_controls", lambda: ())
        with core.blas_threads(1):
            pass

    def test_rejects_fewer_than_one_thread(self, fake_blas):
        libs, log = fake_blas
        with pytest.raises(ValueError):
            with core.blas_threads(0):
                pass
        assert log == []

    @pytest.mark.skipif(not core._openblas_controls(),
                        reason="no OpenBLAS loaded")
    def test_real_openblas(self):
        controls = core._openblas_controls()
        before = [get() for get, _ in controls]
        with core.blas_threads(1):
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before


class TestProcessOracleBlock:
    def test_entering_starts_the_child_before_any_query(self, tmp_path):
        marker = tmp_path / "started"
        command = _script(tmp_path, "marker", f"""
            import pathlib, sys
            pathlib.Path({str(marker)!r}).write_text("up")
            for line in sys.stdin:
                print(int(line) / 2, flush=True)
        """)
        oracle = LossOracle.from_command(command, n=10)
        assert oracle._backend._proc is None  # created, not started
        with oracle:
            deadline = time.monotonic() + 30
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert marker.exists()
            assert oracle.queries_used == 0
            assert oracle.query(4) == 2.0
        assert oracle._backend._proc is None

    def test_without_a_block_the_first_batch_starts_the_child(
            self, echo_command):
        oracle = LossOracle.from_command(echo_command, n=10)
        assert oracle._backend._proc is None
        assert oracle.query_many([3]).tolist() == [1.5]
        assert oracle._backend._proc is not None
        oracle.close()

    @pytest.mark.parametrize("cpus, cap", [(1, 1), (2, 1), (4, 3)])
    def test_caps_blas_while_open(self, fake_blas, echo_command, monkeypatch,
                                  cpus, cap):
        libs, _ = fake_blas
        monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
        with LossOracle.from_command(echo_command, n=10) as oracle:
            assert _counts(libs) == [min(4, cap), min(2, cap)]
            oracle.query(1)
        assert _counts(libs) == [4, 2]

    def test_exit_closes_the_child_before_restoring(self, fake_blas,
                                                    echo_command):
        libs, log = fake_blas
        oracle = LossOracle.from_command(echo_command, n=10)
        close = oracle._backend.close
        oracle._backend.close = lambda: (log.append("close"), close())
        with oracle:
            log.clear()
        assert log == ["close", ("set", 4), ("set", 2)]

    def test_cap_released_when_close_fails(self, fake_blas, tmp_path,
                                           monkeypatch):
        libs, _ = fake_blas
        monkeypatch.setattr(core, "CLOSE_TIMEOUT_S", 0.2)
        command = _script(tmp_path, "stubborn", """
            import sys, time
            for line in sys.stdin:
                print(1.0, flush=True)
            time.sleep(60)
        """)
        with pytest.raises(OracleProtocolError, match="end of input"):
            with LossOracle.from_command(command, n=10) as oracle:
                oracle.query(0)
        assert _counts(libs) == [4, 2]

    def test_block_error_is_not_masked_by_a_failed_close(
            self, fake_blas, tmp_path, monkeypatch):
        # the child starts on entering, before the block fails; closing it
        # then times out, and the block's error is the one raised
        libs, _ = fake_blas
        monkeypatch.setattr(core, "CLOSE_TIMEOUT_S", 0.2)
        command = _script(tmp_path, "stubborn", """
            import sys, time
            sys.stdin.read()
            time.sleep(60)
        """)
        oracle = LossOracle.from_command(command, n=10)
        with pytest.raises(KeyError):
            with oracle:
                proc = oracle._backend._proc
                raise KeyError("block")
        assert proc.returncode is not None
        assert _counts(libs) == [4, 2]

    def test_child_that_cannot_start_keeps_no_cap(self, fake_blas,
                                                  tmp_path):
        libs, _ = fake_blas
        oracle = LossOracle.from_command(str(tmp_path / "no-such-oracle"),
                                         n=10)
        with pytest.raises(OracleProtocolError, match="cannot start"):
            with oracle:
                pytest.fail("the block ran without a child")
        assert _counts(libs) == [4, 2]
        assert oracle._held == []

    def test_table_oracle_leaves_blas_alone(self, fake_blas):
        libs, log = fake_blas
        with LossOracle.from_table([1.0, 2.0]) as oracle:
            oracle.query(1)
        assert log == []
