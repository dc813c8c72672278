"""In-memory spans around the benchmark's calls into pixelret modules.

A span records its name, the operation it belongs to, its parent span, and
start and end times relative to the tracer's creation.  A disabled tracer
records nothing, so the untraced run pays one branch per span.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.op: int | None = None  # operation id shared by spans of one request
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def op_median_s(self, name: str) -> float:
        """Median over operations of the per-operation total of this span,
        so one slow operation (the warm-up, a slow stretch of the host) does
        not move it.
        """
        per_op: dict = {}
        for s in self.spans:
            if s["name"] == name and s["op"] is not None:
                per_op[s["op"]] = per_op.get(s["op"], 0.0) + s["end"] - s["start"]
        return statistics.median(per_op.values()) if per_op else 0.0

    def mean_ms(self, name: str) -> float:
        n = self.count(name)
        return 1000.0 * self.seconds(name) / n if n else 0.0
