"""Structured event log: Spark-style durable, replayable telemetry.

Real Spark persists every scheduler event behind its UI as a JSONL event
log; real Impala exposes live per-fragment state over its webserver.
:class:`EventLog` is the reproduction's equivalent: a versioned stream of
structured events (:data:`EVENT_TYPES`) emitted by the Spark
``DAGScheduler``, the Impala coordinator, the core join API and the
executor-pool workers, appended to an in-memory list and — when a path is
given — written to a JSONL file line by line (flushed in small batches),
so the log survives the process.

Like the tracer and the metrics registry, the process-wide sink starts
**disabled**: instrumented code tests one boolean
(``get_event_log().enabled``) and does nothing else, so results,
counters and profiles are byte-identical with the sink off.  Enable it
scoped::

    with logging_events("events.jsonl") as log:
        run_query(...)
    # log.events holds the stream; events.jsonl holds the same lines

or attach a sink to one engine through its runtime's ``events_out``
(``runtime=RuntimeConfig(events_out=...)`` on
:class:`~repro.spark.context.SparkContext`,
:class:`~repro.impala.coordinator.ImpalaBackend` and
:class:`~repro.core.api.JoinConfig`).

Pool workers never write to the driver's sink (they cannot — separate
processes, and the forked file handle must stay untouched):
:func:`~repro.runtime.shipping.capture_observability` swaps in a fresh
buffering sink, the recorded events ship back inside the
:class:`~repro.runtime.shipping.ObsCapture`, and the driver replays them
in deterministic task order.  Consequently a pooled run's event *set* is
identical to the serial run's modulo the volatile placement/wall-clock
fields (:data:`VOLATILE_FIELDS`) and ``WorkerHeartbeat`` events, which is
exactly what :func:`normalize_events` strips.

The schema (``schema_version`` in the ``LogStart`` header; bump on any
incompatible field change — readers accept every version back to
:data:`MIN_SCHEMA_VERSION`):

=================  ========================================================
event              fields beyond ``event``
=================  ========================================================
LogStart           schema_version, source, unix_time
QueryStart         query, name, engine, wall_start
StageSubmitted     query, stage, name, num_tasks
TaskStart          query, stage, task, partition, label, worker, pid,
                   wall_start
TaskEnd            TaskStart's fields + wall_end, sim_seconds, counters,
                   failures
ShuffleWrite       query, stage, task, shuffle_id, bytes
FragmentStart      query, fragment, worker, pid, wall_start
FragmentEnd        FragmentStart's fields + wall_end, sim_seconds,
                   counters, row_batches
WorkerHeartbeat    worker, pid, wall_time, tasks_done
QueryEnd           query, name, sim_seconds, rows, wall_end
TaskRetried        query, stage, task, attempt, reason, backoff_seconds,
                   vworker                                  *(since v2)*
TaskSpeculated     query, stage, task, factor, sim_seconds,
                   effective_seconds, median_seconds, winner *(since v2)*
WorkerBlacklisted  query, vworker, failures, reason          *(since v2)*
StageRecomputed    query, stage, shuffle_id, map_partition, reason
                                                             *(since v2)*
QueryRestarted     query, restart, reason, fragment          *(since v2)*
CacheHit           kind, key, size_bytes                     *(since v3)*
CacheMiss          kind, key                                 *(since v3)*
CacheEvict         kind, key, size_bytes, reason             *(since v3)*
=================  ========================================================

``query``/``stage`` ids are small integers allocated driver-side
(:meth:`EventLog.next_id`); ``task`` is the task's index within its
stage; ``partition`` is the split / tile id the task processed (the field
that makes stragglers attributable to hot tiles); ``wall_*`` values are
``perf_counter`` readings (CLOCK_MONOTONIC, shared with forked workers).

The ``since v2`` recovery events (emitted by
:mod:`repro.runtime.recovery`, the Spark scheduler's lineage recompute
and the Impala coordinator's restart loop) carry ``vworker`` — the fault
plan's deterministic *virtual* worker id — rather than the volatile
physical ``worker`` field, so they survive :func:`normalize_events`
intact and pin byte-identically across executor counts.

The ``since v3`` cache events (emitted by
:class:`repro.cache.manager.CacheManager`) describe whether a query
*reused* an artifact — inherently dependent on what ran before in the
process — so :func:`normalize_events` drops them entirely, preserving
the cache-on vs cache-off stream-identity invariant (DESIGN.md §12).
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Any, Iterator

from repro.errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "MIN_SCHEMA_VERSION",
    "EVENT_TYPES",
    "RECOVERY_EVENT_TYPES",
    "CACHE_EVENT_TYPES",
    "VOLATILE_FIELDS",
    "EventLog",
    "get_event_log",
    "set_event_log",
    "logging_events",
    "install_event_log",
    "emit_query_start",
    "emit_query_end",
    "emit_stage_submitted",
    "emit_task_start",
    "emit_task_end",
    "read_events",
    "normalize_events",
    "check_task_pairing",
]

# v2 added the recovery events (TaskRetried, TaskSpeculated,
# WorkerBlacklisted, StageRecomputed, QueryRestarted); v3 added the
# cross-query cache events (CacheHit, CacheMiss, CacheEvict).  Older
# logs are strict subsets and remain readable.
SCHEMA_VERSION = 3
MIN_SCHEMA_VERSION = 1

# How many events may ride in the userspace file buffer before a flush.
FLUSH_EVERY = 32

# The recovery decisions of repro.runtime.recovery, the Spark lineage
# recompute, and the Impala restart loop (schema v2).
RECOVERY_EVENT_TYPES = frozenset(
    {
        "TaskRetried",
        "TaskSpeculated",
        "WorkerBlacklisted",
        "StageRecomputed",
        "QueryRestarted",
    }
)

# Cross-query cache bookkeeping (schema v3).  Whether a lookup hits
# depends on process history, not on the query itself, so these are
# stripped by normalize_events (cache-on and cache-off runs of one query
# must produce equal normalized streams).
CACHE_EVENT_TYPES = frozenset({"CacheHit", "CacheMiss", "CacheEvict"})

EVENT_TYPES = (
    frozenset(
        {
            "LogStart",
            "QueryStart",
            "StageSubmitted",
            "TaskStart",
            "TaskEnd",
            "ShuffleWrite",
            "FragmentStart",
            "FragmentEnd",
            "WorkerHeartbeat",
            "QueryEnd",
        }
    )
    | RECOVERY_EVENT_TYPES
    | CACHE_EVENT_TYPES
)

# Fields whose values legitimately differ between a serial run and a
# pooled run of the same query (or between two wall-clock runs): real
# clocks and physical task placement.  Everything else is deterministic.
VOLATILE_FIELDS = ("wall_start", "wall_end", "wall_time", "unix_time", "pid", "worker")


class EventLog:
    """An append-only sink of structured events, optionally JSONL-backed.

    ``emit`` is a strict no-op while ``enabled`` is False — one boolean
    test, no allocation.  With a ``path``, every event is written as one
    JSON line after a ``LogStart`` header line carrying
    :data:`SCHEMA_VERSION`; the stream is flushed every
    :data:`FLUSH_EVERY` events and on :meth:`close`, so a crash loses at
    most the tail of the log while the flush syscall stays off the
    per-event hot path (the benchmark's traced run records the whole
    sink's cost as ``obs.events_overhead_ratio``).
    """

    def __init__(self, path: str | None = None, enabled: bool = True):
        self.enabled = enabled
        self.path = path
        self.events: list[dict] = []
        self._handle = None
        self._ids: dict[str, int] = {}
        self._unflushed = 0

    # -- id allocation (driver-side only) ---------------------------------------

    def next_id(self, kind: str) -> int:
        """Allocate the next small integer id for ``kind`` (1-based)."""
        value = self._ids.get(kind, 0) + 1
        self._ids[kind] = value
        return value

    # -- write side -------------------------------------------------------------

    def emit(self, event: str, **fields: Any) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        record = {"event": event}
        record.update(fields)
        self._write(record)

    def emit_raw(self, record: dict) -> None:
        """Replay an already-built event (a worker capture's shipment)."""
        if not self.enabled:
            return
        self._write(record)

    def _write(self, record: dict) -> None:
        self.events.append(record)
        if self.path is None:
            return
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
            header = {
                "event": "LogStart",
                "schema_version": SCHEMA_VERSION,
                "source": "repro.obs.events",
                "unix_time": time.time(),
            }
            self._handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        # Near-write-through: batch the flush syscall so enabling the log
        # stays cheap, but never let more than FLUSH_EVERY events ride in
        # the userspace buffer (a crash mid-query keeps all but the tail;
        # forked workers exit via os._exit and never re-flush the
        # inherited buffer).
        self._unflushed += 1
        if self._unflushed >= FLUSH_EVERY:
            self._handle.flush()
            self._unflushed = 0

    def close(self) -> None:
        """Flush and close the backing file (the in-memory event list stays)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._unflushed = 0


# The process-wide sink instrumented code reports to: disabled until
# someone opts in, exactly like the tracer and the metrics registry.
_SINK = EventLog(enabled=False)


def get_event_log() -> EventLog:
    """The process-wide event sink instrumented code reports to."""
    return _SINK


def set_event_log(log: EventLog) -> EventLog:
    """Install ``log`` process-wide; returns it for chaining."""
    global _SINK
    _SINK = log
    return log


@contextlib.contextmanager
def logging_events(path: str | None = None, enabled: bool = True) -> Iterator[EventLog]:
    """Install a fresh sink for the block, restoring the previous after::

        with logging_events("events.jsonl") as log:
            run_query(...)
        assert any(e["event"] == "QueryEnd" for e in log.events)
    """
    log = EventLog(path=path, enabled=enabled)
    with install_event_log(log):
        try:
            yield log
        finally:
            log.close()


@contextlib.contextmanager
def install_event_log(log: EventLog | None) -> Iterator[EventLog]:
    """Temporarily install ``log`` as the process-wide sink.

    ``None`` leaves the current sink in place — the engines use this so a
    runtime without ``events_out`` composes with an enclosing
    :func:`logging_events` block instead of silencing it.
    """
    global _SINK
    if log is None:
        yield _SINK
        return
    previous = _SINK
    _SINK = log
    try:
        yield log
    finally:
        _SINK = previous


# -- query and stage frames -----------------------------------------------------
#
# The one writer of QueryStart / QueryEnd / StageSubmitted, shared by the
# Spark scheduler, the Impala coordinator and the core join API.  Ids are
# allocated here, on the driver; ``None`` stands for "the sink is off" and
# makes every later call a no-op.


def emit_query_start(name: str, engine: str) -> int | None:
    """Allocate a query id and emit QueryStart (None while disabled)."""
    if not _SINK.enabled:
        return None
    query = _SINK.next_id("query")
    _SINK.emit(
        "QueryStart", query=query, name=name, engine=engine,
        wall_start=time.perf_counter(),
    )
    return query


def emit_query_end(query: int | None, name: str, sim_seconds, rows: int) -> None:
    """Emit QueryEnd for ``query`` (a no-op for None)."""
    if query is not None:
        _SINK.emit(
            "QueryEnd", query=query, name=name, sim_seconds=sim_seconds,
            rows=rows, wall_end=time.perf_counter(),
        )


def emit_stage_submitted(query: int | None, name: str, num_tasks: int) -> int | None:
    """Allocate a stage id and emit StageSubmitted (None while disabled)."""
    if query is None or not _SINK.enabled:
        return None
    stage = _SINK.next_id("stage")
    _SINK.emit("StageSubmitted", query=query, stage=stage, name=name, num_tasks=num_tasks)
    return stage


# -- task records ---------------------------------------------------------------
#
# The one writer of TaskStart / TaskEnd, shared by the Spark scheduler and
# the core join API.  ``ids`` is the driver-allocated ``(query, stage,
# task)`` triple; the sink, placement and the wall stamp are read where the
# task runs.


def _task_fields(ids, partition, label) -> dict:
    from repro.runtime.pool import current_worker_id

    query, stage, task = ids
    return {
        "query": query,
        "stage": stage,
        "task": task,
        "partition": partition,
        "label": label,
        "worker": current_worker_id(),
        "pid": os.getpid(),
    }


def emit_task_start(ids, partition, label: str) -> None:
    _SINK.emit(
        "TaskStart",
        **_task_fields(ids, partition, label),
        wall_start=time.perf_counter(),
    )


def emit_task_end(
    ids, partition, label: str, sim_seconds, counters, failures=0
) -> None:
    _SINK.emit(
        "TaskEnd",
        **_task_fields(ids, partition, label),
        wall_end=time.perf_counter(),
        sim_seconds=sim_seconds,
        counters=dict(counters),
        failures=failures,
    )


# -- replay side ----------------------------------------------------------------


def read_events(path: str) -> list[dict]:
    """Load a JSONL event log, validating the ``LogStart`` header.

    Accepts every schema version from :data:`MIN_SCHEMA_VERSION` up to
    :data:`SCHEMA_VERSION` (older logs carry a subset of today's event
    types, so the read path is forward-compatible by construction) and
    rejects both out-of-range versions and records whose event type this
    build does not know, with messages naming the offending line.
    Raises :class:`ReproError` on a missing/foreign header too.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{path}:{line_no}: not JSON: {exc}") from exc
            if not isinstance(record, dict) or "event" not in record:
                raise ReproError(f"{path}:{line_no}: not an event record")
            kind = record["event"]
            if kind not in EVENT_TYPES:
                known = ", ".join(sorted(EVENT_TYPES))
                raise ReproError(
                    f"{path}:{line_no}: unknown event type {kind!r} "
                    f"(this build understands: {known}); was the log "
                    "written by a newer schema version?"
                )
            events.append(record)
    if not events or events[0].get("event") != "LogStart":
        raise ReproError(f"{path}: missing LogStart header line")
    version = events[0].get("schema_version")
    if (
        not isinstance(version, int)
        or not MIN_SCHEMA_VERSION <= version <= SCHEMA_VERSION
    ):
        raise ReproError(
            f"{path}: event schema version {version!r} unsupported "
            f"(this build reads versions {MIN_SCHEMA_VERSION}"
            f"..{SCHEMA_VERSION})"
        )
    return events


def normalize_events(events: list[dict]) -> list[dict]:
    """The deterministic core of an event stream, for replay comparisons.

    Drops the ``LogStart`` header, ``WorkerHeartbeat`` events (pure
    placement/liveness, absent from serial runs) and the
    :data:`CACHE_EVENT_TYPES` (reuse bookkeeping, dependent on process
    history rather than the query), and strips :data:`VOLATILE_FIELDS`
    from the rest.  Two runs of the same query with different
    ``executors`` — or with the cache on vs off — produce equal
    normalized streams — the event-log flavour of the byte-identity
    invariant.
    """
    normalized = []
    for record in events:
        kind = record.get("event")
        if kind in ("LogStart", "WorkerHeartbeat") or kind in CACHE_EVENT_TYPES:
            continue
        normalized.append(
            {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}
        )
    return normalized


def check_task_pairing(events: list[dict]) -> list[str]:
    """Validate start/end pairing; returns human-readable problems.

    Every ``TaskStart`` must have exactly one ``TaskEnd`` with the same
    ``(query, stage, task)`` key (and vice versa); same for
    ``FragmentStart``/``FragmentEnd`` on ``(query, fragment)``.  An empty
    return value means the log is well-formed.
    """
    problems: list[str] = []
    for start_kind, end_kind, keys in (
        ("TaskStart", "TaskEnd", ("query", "stage", "task")),
        ("FragmentStart", "FragmentEnd", ("query", "fragment")),
    ):
        starts: dict[tuple, int] = {}
        ends: dict[tuple, int] = {}
        for record in events:
            if record.get("event") == start_kind:
                key = tuple(record.get(k) for k in keys)
                starts[key] = starts.get(key, 0) + 1
            elif record.get("event") == end_kind:
                key = tuple(record.get(k) for k in keys)
                ends[key] = ends.get(key, 0) + 1
        for key, count in starts.items():
            if ends.get(key, 0) != count:
                problems.append(
                    f"{start_kind} {key} has {count} start(s) but "
                    f"{ends.get(key, 0)} end(s)"
                )
        for key, count in ends.items():
            if key not in starts:
                problems.append(f"{end_kind} {key} has no matching {start_kind}")
    return problems
