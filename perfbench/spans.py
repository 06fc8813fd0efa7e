"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around the calls it
makes into each layer of ``repro``; the program itself is not
instrumented.  Every span keeps its name, start, end, parent span and the
id of the op it belongs to.  With ``memory=True`` each leaf span also
records its ``tracemalloc`` peak (allocations made inside the span, in
MiB); the peak is reset on entry, so only leaf spans carry one.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Iterator


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them at the end."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.memory = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int, leaf: bool = True) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "memory": self.memory,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        measure = self.memory and leaf
        if measure:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if measure:
                record["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            self._stack.pop()

    def duration(self, record: dict[str, Any]) -> float:
        return record["end"] - record["start"]

    def _child_time(self) -> dict[int, float]:
        covered: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + self.duration(s)
        return covered

    def median_self(self, name: str) -> float:
        """Median self time (duration minus direct children) of the spans
        called ``name``, leaving out memory-traced ops, whose times
        ``tracemalloc`` inflates."""
        covered = self._child_time()
        values = [
            self.duration(s) - covered.get(s["id"], 0.0)
            for s in self.spans
            if s["name"] == name and not s["memory"]
        ]
        return statistics.median(values) if values else 0.0

    def peak(self, name: str) -> float:
        """Largest recorded ``tracemalloc`` peak of the spans called ``name``."""
        values = [s["peak_mb"] for s in self.spans if s["name"] == name and "peak_mb" in s]
        return max(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)
