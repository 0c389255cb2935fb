"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing inside the program is touched.
They stay in memory and are written as one JSON document when the run
ends.  The untraced run never constructs a recorder.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator


class SpanRecorder:
    """Nested spans of one workload: name, start, end, parent, counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts) -> Iterator[dict]:
        """Record one span; the yielded dict's ``counts`` may be filled in."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": 0.0,
            "end": 0.0,
            "counts": counts,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover.

    The benchmark is single-threaded, so siblings never overlap and the
    covered part is the sum of the children's durations.
    """
    result = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            result[s["parent"]] -= s["end"] - s["start"]
    return result
