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
        # one batch with a supplied lambda, two with AUTO, one per round
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(80, 2)))
        for lam, batches in ((1.0, 1), (AUTO, 2)):
            backend = _BatchBackend(rng.random(data.n).tolist())
            data_select(data, 3, 0.5, lam, LossOracle(backend, data.n), 2,
                        RngStream(0, "trips"))
            assert len(backend.batches) == batches
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
        proc = oracle._backend._proc
        start = time.perf_counter()
        with pytest.raises(OracleProtocolError, match="end of input"):
            oracle.close()
        assert time.perf_counter() - start < 10
        assert proc.returncode is not None

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
