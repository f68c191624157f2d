"""Foundational types: datasets, deterministic RNG streams, and loss oracles.

The loss oracle is the central budget abstraction: every distinct index
queried counts as one model inference, and a run that would exceed its
budget must abort rather than silently keep going.

A process-backed oracle starts its child when its ``with`` block is
entered, so the child starts up while the caller clusters.  While the block
is open, OpenBLAS runs on one thread fewer than this process has CPUs
(`blas_threads`): after each multi-threaded BLAS call an idle OpenBLAS
worker spins for about 0.1 s, and would keep the child off that CPU.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import selectors
import shlex
import subprocess
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np


class BudgetExceededError(RuntimeError):
    """Raised when a query would push the oracle past its inference budget."""


class OracleProtocolError(RuntimeError):
    """Raised when an external oracle process misbehaves (bad reply, early exit)."""


#: seconds ``close()`` waits for an oracle process to exit after end of input
CLOSE_TIMEOUT_S = 10.0

#: seconds an oracle process may go without sending a reply while a batch
#: is outstanding before it is killed
REPLY_TIMEOUT_S = 60.0


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
        # so that n squared distances of d coordinates sum to a finite cost
        largest = max(float(rows.max()), -float(rows.min()))
        limit = float(np.sqrt(np.finfo(float).max / (4 * rows.size)))
        if largest > limit:
            raise ValueError(f"largest |entry| {largest!r} exceeds {limit!r}, "
                             f"the coordinate limit for shape {rows.shape}")
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


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _openblas_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS library loaded
    in this process, found by path in /proc/self/maps; empty where there is
    no /proc or no OpenBLAS (MKL, Accelerate).  numpy's and scipy's wheels
    each bundle one, with prefixed and suffixed symbol names."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6
                    and "openblas" in os.path.basename(f[5]).lower()})
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


_blas_lock = threading.Lock()
_blas_caps: list[int] = []    # the thread counts of the open holders
_blas_saved: list[int] = []   # each library's count before the first holder


@contextmanager
def blas_threads(n: int):
    """Run every loaded OpenBLAS on at most ``n`` threads inside the block.

    Process-wide and re-entrant: holders may nest or overlap, from any
    thread, the least of their counts applies, and each library's count
    from before the first holder comes back when the last one exits.  A
    no-op without OpenBLAS.  A GEMM's last bits can depend on the count
    (``X @ C.T`` at n=20000, d=15, k=195 differed in a few dozen of 3.9M
    entries between 1 and 2 threads); clustering re-checks with ``cdist``
    every result those bits could decide, so none depends on the count.
    OpenBLAS does not guard a count change against a concurrent BLAS call,
    so enter and exit where no other thread is in one."""
    if n < 1:
        raise ValueError(f"need at least one BLAS thread, got {n}")
    controls = _openblas_controls()
    with _blas_lock:
        if not _blas_caps:
            _blas_saved[:] = [get() for get, _ in controls]
        _blas_caps.append(n)
        _apply_blas_caps(controls)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_caps.remove(n)
            _apply_blas_caps(controls)


def _apply_blas_caps(controls):
    for (_, put), saved in zip(controls, _blas_saved):
        put(min([saved, *_blas_caps]))


class LossOracle:
    """Query-counted accessor for the per-element loss.

    Repeated queries of the same index are served from the cache and do not
    consume budget; ``queries_used`` therefore equals the number of distinct
    indices queried so far.  Updates are serialized with a lock so concurrent
    callers see a consistent counter.

    ``fetch(i)`` returns the loss of row i; a ``fetch`` object with a
    ``fetch_many(indices)`` method is handed whole batches instead.

    Entering a process-backed oracle (`from_command`) starts its child and
    caps BLAS at one thread fewer than this process's CPUs until the block
    exits; without a ``with`` block the child starts on the first batch.
    When the block raises, leaving it kills the child without waiting.
    """

    def __init__(self, fetch, n: int, budget: float | None = None):
        self._fetch = fetch
        self.n = int(n)
        self.budget = np.inf if budget is None else budget
        self.cache: dict[int, float] = {}
        self._lock = threading.Lock()
        self._held: list[ExitStack] = []  # a BLAS cap per open `with` block
        self._backend = None  # the child process of `from_command`

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
        if self._backend is not None:
            self._backend.close()

    def __enter__(self):
        if self._backend is not None:
            with ExitStack() as stack:
                stack.enter_context(blas_threads(max(1, _cpu_count() - 1)))
                self._backend.start()  # a failed start releases the cap
                self._held.append(stack.pop_all())
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self.close()
            elif self._backend is not None:
                # the block's own error is the one to report, at once
                self._backend.kill()
        finally:
            if self._held:
                self._held.pop().close()
        return False


class _ProcessBackend:
    """Line-oriented child process protocol: write "<index>\\n", read one
    decimal real per query.  The child must answer queries in order.

    A batch goes through one `selectors` loop on the calling thread: it
    writes the indices to a non-blocking stdin as fast as the pipe takes
    them and reads the replies as they come, so a batch larger than the
    pipe buffers cannot deadlock.  The child is killed once REPLY_TIMEOUT_S
    pass without a reply line, or when it sends more lines than queries,
    in a batch or between batches.  A failed batch kills the child; the
    next batch starts a new one."""

    def __init__(self, command: str):
        self.command = command
        self._proc = None

    def start(self):
        """The running child, started first if there is none."""
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(
                    shlex.split(self.command),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            except OSError as exc:
                raise OracleProtocolError(
                    f"cannot start oracle process {self.command!r}: "
                    f"{exc}") from exc
            os.set_blocking(self._proc.stdin.fileno(), False)
        return self._proc

    def fetch_many(self, indices) -> list[float]:
        proc = self.start()
        stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()
        payload = memoryview("".join(f"{i}\n" for i in indices).encode())
        values, tail = [], b""
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(stdout, selectors.EVENT_READ)
                # end of output falls through to the loop, which reports it
                if sel.select(0) and os.read(stdout, 1 << 16):
                    raise OracleProtocolError(
                        "oracle process sent a reply with no query "
                        "outstanding")
                sel.register(stdin, selectors.EVENT_WRITE)
                while len(values) < len(indices):
                    remaining = deadline - time.monotonic()
                    events = sel.select(remaining) if remaining > 0 else []
                    if not events:
                        raise OracleProtocolError(
                            f"oracle process sent no reply for "
                            f"{REPLY_TIMEOUT_S} s; killed it")
                    for key, _ in events:
                        if key.fd == stdin:
                            try:
                                payload = payload[os.write(stdin, payload):]
                            except BrokenPipeError:
                                payload = payload[:0]  # reported on stdout
                            if not payload:
                                sel.unregister(stdin)
                            continue
                        chunk = os.read(stdout, 1 << 16)
                        if not chunk:
                            raise OracleProtocolError(
                                "oracle process closed stdout "
                                f"(exit code {proc.poll()})")
                        *lines, tail = (tail + chunk).split(b"\n")
                        if lines:
                            values += map(_parse_reply, lines)
                            deadline = time.monotonic() + REPLY_TIMEOUT_S
            if len(values) > len(indices) or tail:
                raise OracleProtocolError(
                    f"oracle process sent more than {len(indices)} replies "
                    f"to {len(indices)} queries")
        except BaseException:
            self.kill()
            raise
        return values

    def kill(self):
        """Stop the child at once; the next batch starts a new one."""
        if self._proc is not None:
            proc, self._proc = self._proc, None
            with proc:  # closes both pipes and reaps the child
                proc.kill()

    def close(self):
        """End input and wait for the child to exit; kill it after
        CLOSE_TIMEOUT_S.  The wait is on the process, not on end of output,
        which a grandchild may hold open."""
        if self._proc is not None:
            try:
                self._proc.stdin.close()
                self._proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise OracleProtocolError(
                    f"oracle process still running {CLOSE_TIMEOUT_S} s after "
                    "end of input; killed it") from None
            finally:
                self.kill()


def _parse_reply(line: bytes) -> float:
    try:
        return float(line)
    except ValueError as exc:
        raise OracleProtocolError(f"unparsable oracle reply {line!r}") from exc
