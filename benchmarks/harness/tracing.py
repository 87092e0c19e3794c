"""The harness's own span list.

Spans are recorded from the benchmark's files, around the calls into
each layer's public functions; nothing inside ``src/`` is touched and
no ``telemetry=`` argument is passed.  Spans stay in memory and are
written out once, when the traced pass ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Nested spans of one workload: name, start, end, parent, and the
    workload id every span of the run shares."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block.  ``counts`` are recorded at the same
        boundary; the yielded dict takes more of them from inside."""
        record = self.add(name, time.perf_counter(), None, **counts)
        self._stack.append(record["id"])
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float | None, **counts) -> dict:
        """Append a span under the one currently open; with ``end`` it
        is one the caller timed (the import span starts before this
        module exists)."""
        record = {
            "id": len(self.spans), "name": name, "workload": self.workload,
            "parent": self._stack[-1] if self._stack else None,
            "start": start, "end": end, "counts": dict(counts),
        }
        self.spans.append(record)
        return record

    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(
            s["end"] - s["start"] for s in self.spans if s["name"] == name
        )

    def with_self_times(self) -> list[dict]:
        """Spans plus each one's self time: its duration minus what its
        child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [
            {**s, "self_s": (s["end"] - s["start"]) - covered[s["id"]]}
            for s in self.spans
        ]

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump(
                {"workload": self.workload, "spans": self.with_self_times()},
                out, indent=1,
            )
