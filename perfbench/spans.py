"""In-memory spans recorded around calls into the program's modules.

A span is (name, start, end, parent, run id, calls). ``calls`` is 1 for an
ordinary span; an aggregate span sums many short calls made inside one
loop (per-row parsing and routing), so its duration is the summed time,
not end minus start of one call.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def aggregate(self, name: str, seconds: float, calls: int):
        """Record ``calls`` calls totalling ``seconds`` under the open span."""
        start = time.perf_counter()
        self.spans.append({"name": name, "start": start, "end": start + seconds,
                           "parent": self._stack[-1] if self._stack else None,
                           "run_id": self.run_id, "calls": calls})

    def _open(self, name, start):
        self.spans.append({"name": name, "start": start, "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "run_id": self.run_id, "calls": 1})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def write(self, path, info):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "info": info, "spans": self.spans}, fh)


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def aggregate(self, name: str, seconds: float, calls: int):
        pass


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def totals(spans, names=None) -> dict[str, float]:
    """Summed duration per span name (optionally only for ``names``)."""
    out: dict[str, float] = {}
    for s in spans:
        if names is None or s["name"] in names:
            out[s["name"]] = out.get(s["name"], 0.0) + duration(s)
    return out
