"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``patch`` replaces a public
function in the module namespace its callers look it up in, so the real
pipeline runs unchanged and each call leaves one span.  Spans are kept in
memory and written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    """Records spans with name, start, end, parent and op id.

    ``op`` is the id of the benchmark operation (one setup or one pipeline
    call) that the spans recorded from now on belong to.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` recording one span per call; ``attrs(*args, **kwargs)``
        gives extra span fields computed from the arguments."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)
        return traced

    def patch(self, module, attr: str, name: str, attrs=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, attrs))

    def unpatch(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def total(spans, name: str) -> float:
    """Summed duration of the spans called ``name`` or ``<module>.name``."""
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name or s["name"].endswith("." + name))


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children.  Spans
    come from one thread, so children never overlap."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
