"""Worker-side observability capture and driver-side replay.

Pool workers must not mutate the driver's process-wide observability
state (they literally can't — they're separate processes), yet the hard
invariant says profiles, counters and traces must be byte-identical with
the pool on or off.  The protocol:

* the worker wraps task execution in :func:`capture_observability`,
  which gives the task a fresh tracer, a fresh (buffering, path-less)
  event sink, and swaps the registry's dicts so every ``REGISTRY.inc``
  lands task-locally;
* the resulting :class:`ObsCapture` (root spans + counter/gauge/histogram
  deltas + structured events) ships back with the task result —
  everything in it is picklable;
* the driver calls :func:`apply_capture` while merging results in
  deterministic task order, folding counters into the real registry,
  grafting the worker's spans under the currently open driver span, and
  replaying the worker's events into the real sink (which is where they
  first touch the JSONL file — workers never write to the driver's
  forked file handle).

Counter values throughout the codebase are integer-valued floats (bytes,
rows, tiles), so driver-side summation is exact regardless of how tasks
were grouped across workers.

As a side benefit of running inside a real worker, the capture knows its
physical placement: root spans get ``worker``/``worker_pid`` attrs (so
Chrome-trace export can lay one lane per worker) and, when the event sink
is enabled, one ``WorkerHeartbeat`` event is recorded per captured task.
Both are placement facts that only exist on the pooled path; neither is
compared by the equivalence suite nor survives
:func:`~repro.obs.events.normalize_events`.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.events import EventLog, get_event_log, set_event_log
from repro.obs.registry import REGISTRY
from repro.obs.tracer import Span, Tracer, get_tracer, set_tracer

__all__ = [
    "ObsCapture",
    "capture_observability",
    "apply_capture",
    "discard_observability",
]

# Per-worker count of captured tasks, reported in WorkerHeartbeat events.
_TASKS_DONE = 0


@dataclass
class ObsCapture:
    """Everything a task did to observability state, in picklable form."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, list[float]] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)


@contextlib.contextmanager
def capture_observability(capture: ObsCapture) -> Iterator[ObsCapture]:
    """Redirect spans, registry writes and events into ``capture``.

    :func:`repro.runtime.dispatch.run_tasks` captures exactly when a
    task's result crosses a process boundary (a real pool) or may be
    discarded (a fault plan is active: a losing speculative attempt
    leaves nothing behind); otherwise the same task body runs inline
    against the real driver state, which is what the equivalence suite
    pins the captured runs to.
    """
    global _TASKS_DONE
    from repro.runtime.pool import current_worker_id

    previous_tracer = get_tracer()
    worker_tracer = set_tracer(Tracer(enabled=previous_tracer.enabled))
    previous_sink = get_event_log()
    # Same enabled bit, no path: events buffer in memory and ship back.
    worker_sink = set_event_log(EventLog(path=None, enabled=previous_sink.enabled))
    token = REGISTRY.begin_capture()
    try:
        yield capture
    finally:
        counters, gauges, histograms = REGISTRY.end_capture(token)
        set_tracer(previous_tracer)
        set_event_log(previous_sink)
        worker = current_worker_id()
        if worker is not None:
            for span in worker_tracer.roots:
                span.attrs.setdefault("worker", worker)
                span.attrs.setdefault("worker_pid", os.getpid())
            if worker_sink.enabled:
                _TASKS_DONE += 1
                worker_sink.emit(
                    "WorkerHeartbeat",
                    worker=worker,
                    pid=os.getpid(),
                    wall_time=time.perf_counter(),
                    tasks_done=_TASKS_DONE,
                )
        capture.spans = worker_tracer.roots
        capture.counters = counters
        capture.gauges = gauges
        capture.histograms = {
            name: hist.values for name, hist in histograms.items()
        }
        capture.events = worker_sink.events


def apply_capture(capture: ObsCapture) -> None:
    """Replay a shipped capture into the driver's observability state."""
    REGISTRY.merge(capture.counters, capture.gauges, capture.histograms)
    get_tracer().graft(capture.spans)
    sink = get_event_log()
    for record in capture.events:
        sink.emit_raw(record)


def discard_observability():
    """A block whose spans, registry writes and events are dropped (lineage
    repair restores lost state without billing the work again)."""
    return capture_observability(ObsCapture())
