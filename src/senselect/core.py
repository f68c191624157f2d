"""Foundational types: datasets, deterministic RNG streams, and loss oracles.

The loss oracle is the central budget abstraction: every distinct index
queried counts as one model inference, and a run that would exceed its
budget must abort rather than silently keep going.
"""

from __future__ import annotations

import hashlib
import shlex
import subprocess
import threading
from dataclasses import dataclass, field

import numpy as np


class BudgetExceededError(RuntimeError):
    """Raised when a query would push the oracle past its inference budget."""


class OracleProtocolError(RuntimeError):
    """Raised when an external oracle process misbehaves (bad reply, early exit)."""


#: seconds ``close()`` waits for an oracle process to exit after end of input
CLOSE_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Dataset:
    """Immutable n x d matrix of float64 embeddings; the row index is the identity
    of each element and never changes."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.float64))
        if rows.ndim != 2:
            raise ValueError(f"dataset must be 2-D, got shape {rows.shape}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise ValueError(f"dataset needs n >= 1 and d >= 1, got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("dataset contains non-finite entries")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class LossTable:
    """Full vector of nonnegative losses, one per dataset row.

    Only diagnostics and evaluation are allowed to see this whole table;
    selection pipelines go through a LossOracle.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if values.size < 1:
            raise ValueError("loss table is empty")
        if not np.all(np.isfinite(values)):
            raise ValueError("loss table contains non-finite entries")
        if np.any(values < 0):
            raise ValueError("losses must be >= 0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class RngStream:
    """Named, splittable randomness source.

    Equal (seed, label) pairs always yield the identical draw sequence;
    distinct labels give independent streams.  Backed by the counter-based
    Philox generator so sequences are stable across platforms.
    """

    seed: int
    label: str = ""

    def generator(self) -> np.random.Generator:
        digest = hashlib.sha256(f"{self.seed}:{self.label}".encode()).digest()
        key = int.from_bytes(digest[:16], "little")
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.label}/{label}")


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or a ready numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def distance_z(x, y, z: float) -> float:
    """Euclidean distance between x and y raised to the power z."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input")
    if not z > 0:
        raise ValueError(f"z must be > 0, got {z}")
    return float(np.linalg.norm(x - y) ** z)


class LossOracle:
    """Query-counted accessor for the per-element loss.

    Repeated queries of the same index are served from the cache and do not
    consume budget; ``queries_used`` therefore equals the number of distinct
    indices queried so far.  Updates are serialized with a lock so concurrent
    callers see a consistent counter.

    ``fetch(i)`` returns the loss of row i; a ``fetch`` object with a
    ``fetch_many(indices)`` method is handed whole batches instead.
    """

    def __init__(self, fetch, n: int, budget: float | None = None):
        self._fetch = fetch
        self.n = int(n)
        self.budget = np.inf if budget is None else budget
        self.cache: dict[int, float] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_table(cls, losses, budget: float | None = None) -> "LossOracle":
        table = losses if isinstance(losses, LossTable) else LossTable(losses)
        return cls(lambda i: float(table.values[i]), len(table), budget)

    @classmethod
    def from_command(cls, command: str, n: int,
                     budget: float | None = None) -> "LossOracle":
        backend = _ProcessBackend(command)
        oracle = cls(backend, n, budget)
        oracle._backend = backend
        return oracle

    @property
    def queries_used(self) -> int:
        return len(self.cache)

    def _check_index(self, i) -> int:
        i = int(i)
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for n={self.n}")
        return i

    def query(self, i: int) -> float:
        i = self._check_index(i)
        with self._lock:
            if i not in self.cache:
                self._fetch_misses([i])
            return self.cache[i]

    def query_many(self, indices) -> np.ndarray:
        """Losses of ``indices`` in order, with every uncached index fetched
        in one batch.

        All-or-nothing: every index is range-checked and the budget is
        checked for all distinct misses before anything is fetched, and the
        fetched values are all validated before any is cached.  A failed
        call leaves the cache and ``queries_used`` as they were.  Backends
        with a ``fetch_many`` method get the misses, deduplicated in
        first-occurrence order, in one call; others get them one at a time.
        """
        indices = [self._check_index(i) for i in indices]
        with self._lock:
            misses = list(dict.fromkeys(i for i in indices
                                        if i not in self.cache))
            if misses:
                self._fetch_misses(misses)
        # all cache hits now; going through query() keeps per-query hooks
        return np.array([self.query(i) for i in indices], dtype=np.float64)

    def _fetch_misses(self, misses: list[int]):
        """Fetch, validate and cache distinct uncached indices; the caller
        holds the lock."""
        if self.queries_used + len(misses) > self.budget:
            raise BudgetExceededError(
                f"loss-oracle budget {self.budget} exhausted "
                f"({self.queries_used} distinct queries made, "
                f"{len(misses)} more requested)")
        fetch_many = getattr(self._fetch, "fetch_many", None)
        if fetch_many is not None:
            values = [float(v) for v in fetch_many(misses)]
            if len(values) != len(misses):
                raise OracleProtocolError(
                    f"oracle answered {len(values)} of {len(misses)} queries")
        else:
            values = [float(self._fetch(i)) for i in misses]
        for i, value in zip(misses, values):
            if not np.isfinite(value) or value < 0:
                raise OracleProtocolError(
                    f"oracle returned invalid loss {value!r} for index {i}")
        self.cache.update(zip(misses, values))

    def close(self):
        backend = getattr(self, "_backend", None)
        if backend is not None:
            backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _ProcessBackend:
    """Line-oriented child process protocol: write "<index>\\n", read one
    decimal real per query.  The child must answer queries in order.

    A batch is pipelined: a writer thread sends every index while the
    replies are read, so a batch larger than the pipe buffers cannot
    deadlock.  A failed batch kills the child; the next batch starts a new
    one."""

    def __init__(self, command: str):
        self.command = command
        self._proc = None

    def _ensure(self):
        if self._proc is None:
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self._proc

    def fetch_many(self, indices) -> list[float]:
        proc = self._ensure()
        payload = "".join(f"{i}\n" for i in indices)

        def send():
            try:
                proc.stdin.write(payload)
                proc.stdin.flush()
            except OSError:
                pass  # the child went away; the reader reports it

        writer = threading.Thread(target=send, daemon=True)
        writer.start()
        try:
            values = [_read_reply(proc) for _ in indices]
        except BaseException:
            proc.kill()  # also unblocks a writer stuck on a full pipe
            writer.join()
            self._proc = None
            proc.wait()
            _close_pipes(proc)
            raise
        writer.join()
        return values

    def close(self):
        if self._proc is not None:
            proc, self._proc = self._proc, None
            try:
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise OracleProtocolError(
                    f"oracle process still running {CLOSE_TIMEOUT_S} s after "
                    "end of input; killed it") from None
            finally:
                _close_pipes(proc)


def _read_reply(proc) -> float:
    line = proc.stdout.readline()
    if line == "":
        raise OracleProtocolError(
            f"oracle process closed stdout (exit code {proc.poll()})")
    try:
        return float(line)
    except ValueError as exc:
        raise OracleProtocolError(f"unparsable oracle reply {line!r}") from exc


def _close_pipes(proc):
    for pipe in (proc.stdin, proc.stdout):
        try:
            pipe.close()
        except OSError:
            pass
