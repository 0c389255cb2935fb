"""Driver-side recovery: retries, backoff, blacklisting, speculation.

This is the half of the fault-tolerance story that *survives* the faults
:mod:`repro.runtime.faults` injects.  The entry point is
:func:`run_recovered`, which takes the place of a bare ``pool.run``
whenever a :class:`~repro.runtime.faults.FaultPlan` is active (the one
dispatch path, :func:`repro.runtime.dispatch.run_tasks`, chooses between
the two):

* each task attempt first consults the plan; injected crashes/transients/
  hangs/heartbeat losses are retried with exponential backoff + seeded
  jitter (recorded as ``TaskRetried`` events; delays are simulated, the
  driver never sleeps);
* failures are charged to the plan's *virtual* worker; after
  ``blacklist_after`` of them the worker is blacklisted
  (``WorkerBlacklisted``) and further faults attributed to it are
  suppressed — the schedulers' model of "stop placing work there";
* ``shuffle_loss`` faults invoke the caller's ``repair`` hook (the Spark
  scheduler's lineage recompute, emitting ``StageRecomputed``) before
  the retry; callers without lineage treat them as transients;
* ``slow`` faults dispatch normally carrying a slowdown factor; after
  the batch completes, tasks whose *effective* duration (simulated
  seconds x factor) exceeds ``speculation_k`` x the stage median
  (:func:`repro.obs.monitor.median_sim_seconds` — the same statistic the
  monitor's straggler detector uses) get a duplicate attempt.  First
  completion wins with a deterministic tie-break: the duplicate wins
  only if strictly faster on the simulated clock, ties go to the
  original.  The loser's observability capture is *discarded*, so
  counters and event streams stay byte-identical to the fault-free run;
* ``fatal`` faults and exhausted attempt budgets escalate
  (:class:`FatalFault` / :class:`FaultEscalation`) *before* the batch is
  dispatched — an eager cancel, so an aborted wave leaves no partial
  captures behind (the Impala coordinator relies on this for clean
  whole-query restarts).

Every decision here is a pure function of logical task identity, which
is what keeps recovery deterministic across ``executors`` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.events import get_event_log
from repro.runtime.faults import Fault, FaultEscalation, make_fault_error

__all__ = [
    "Outcome",
    "RecoveryContext",
    "resolve_faults",
    "run_recovered",
]


@dataclass
class Outcome:
    """One task's final result plus its recovery history."""

    value: Any
    attempts: int = 1
    slow_factor: float = 1.0
    speculated: bool = False


class RecoveryContext:
    """Per-engine recovery state: the plan, failure counts, the blacklist."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.plan = runtime.fault_plan
        self.blacklisted: set[int] = set()
        self._failures: dict[int, int] = {}

    @property
    def active(self) -> bool:
        """True when a fault plan is installed (the chaos path is on)."""
        return self.plan is not None

    def consult(self, scope: str, task: int, round: int) -> Fault | None:
        """The fault this attempt suffers, after blacklist suppression.

        A blacklisted virtual worker no longer receives work, so faults
        the plan attributes to it simply never happen.
        """
        if self.plan is None:
            return None
        fault = self.plan.fault_for(scope, task, round)
        if fault is not None and fault.worker in self.blacklisted:
            return None
        return fault

    def record_failure(self, worker: int) -> bool:
        """Charge one failure to ``worker``; True when it just got blacklisted."""
        count = self._failures.get(worker, 0) + 1
        self._failures[worker] = count
        if count == self.runtime.blacklist_after and worker not in self.blacklisted:
            self.blacklisted.add(worker)
            return True
        return False

    def failures(self, worker: int) -> int:
        return self._failures.get(worker, 0)

    def backoff_seconds(self, scope: str, task: int, attempt: int) -> float:
        """Simulated retry delay: exponential with seeded, bounded jitter."""
        rt = self.runtime
        delay = rt.backoff_base * (rt.backoff_factor ** attempt)
        if rt.backoff_jitter > 0 and self.plan is not None:
            u = self.plan.uniform(scope, task, attempt, salt="backoff")
            delay *= 1.0 + rt.backoff_jitter * (2.0 * u - 1.0)
        return delay


def _emit(events, kind: str, **fields) -> None:
    """Emit a recovery event when logging is on and ids are allocated.

    ``events`` is ``(query_id, stage_id)``; recovery events use
    ``vworker`` (the deterministic virtual worker) rather than the
    volatile physical ``worker`` field, so they survive
    ``normalize_events`` intact.
    """
    log = get_event_log()
    if not log.enabled or events is None:
        return
    query, stage = events
    if query is None:
        return
    record = {"query": query}
    if stage is not None:
        record["stage"] = stage
    record.update(fields)
    log.emit(kind, **record)


# TaskRetried reasons are stable strings, independent of exception text.
_RETRY_REASON = {
    "hang": "timeout",
    "heartbeat_loss": "heartbeat-loss",
    "shuffle_loss": "shuffle-loss",
}


def resolve_faults(
    recovery: RecoveryContext,
    n: int,
    *,
    scope: str,
    events: tuple | None = None,
    limit: int = 1,
    base_round: int = 0,
    repair: Callable[[int, Fault], None] | None = None,
) -> tuple[list[int], list[float]]:
    """Resolve every task's injected faults *before* any work happens.

    Returns ``(attempts, slow_factors)`` per task.  Injected failures are
    consumed here (the faulted attempt never runs, so it charges
    nothing); an exhausted budget raises eagerly — with ``limit=1`` the
    original fault's error class (the Impala coordinator calls this
    directly, ahead of its build side, and turns the error into a
    whole-query restart), otherwise :class:`FaultEscalation`.
    """
    attempts = [1] * n
    factors = [1.0] * n
    for i in range(n):
        attempt = 0
        while True:
            fault = recovery.consult(scope, i, base_round + attempt)
            if fault is None:
                break
            if fault.kind == "slow":
                factors[i] = max(factors[i], fault.factor)
                break
            if fault.kind == "fatal":
                raise make_fault_error(fault, scope, i, base_round + attempt)
            newly = recovery.record_failure(fault.worker)
            if newly:
                _emit(
                    events,
                    "WorkerBlacklisted",
                    vworker=fault.worker,
                    failures=recovery.failures(fault.worker),
                    reason=fault.kind,
                )
            if fault.kind == "shuffle_loss" and repair is not None:
                repair(i, fault)
            if attempt + 1 >= limit:
                if limit <= 1:
                    # No retry budget at all: surface the fault itself
                    # (the Impala path wants the original error class).
                    raise make_fault_error(fault, scope, i, base_round + attempt)
                raise FaultEscalation(fault, scope, i, attempt + 1)
            _emit(
                events,
                "TaskRetried",
                task=i,
                attempt=attempt + 1,
                reason=_RETRY_REASON.get(fault.kind, fault.kind),
                backoff_seconds=round(
                    recovery.backoff_seconds(scope, i, attempt), 6
                ),
                vworker=fault.worker,
            )
            attempt += 1
        attempts[i] = attempt + 1
    return attempts, factors


def run_recovered(
    pool,
    thunks: Sequence[Callable[[], Any]],
    recovery: RecoveryContext,
    *,
    scope: str,
    events: tuple | None = None,
    sim_seconds: Callable[[int, Any], float] | None = None,
    repair: Callable[[int, Fault], None] | None = None,
    max_attempts: int | None = None,
    base_round: int = 0,
    speculation: bool = True,
) -> list[Outcome]:
    """Run ``thunks`` under the fault plan; returns per-task `Outcome`s.

    ``scope`` names the batch in plan draws and events (stable across
    executor counts — stage names, not physical ids).  ``events`` is the
    ``(query_id, stage_id)`` pair recovery events are tagged with.
    ``sim_seconds(index, value)`` extracts a task's simulated duration
    from its result — required for speculation, which is skipped when
    absent.  ``repair(index, fault)`` restores lost shuffle output from
    lineage; without it ``shuffle_loss`` degrades to a transient.
    ``base_round`` offsets the plan's round dimension (the Impala
    coordinator passes its restart number; Spark passes 0 and the round
    is the attempt).  ``max_attempts`` overrides the runtime policy.
    """
    rt = recovery.runtime
    limit = rt.max_task_attempts if max_attempts is None else max_attempts
    n = len(thunks)
    attempts, factors = resolve_faults(
        recovery,
        n,
        scope=scope,
        events=events,
        limit=limit,
        base_round=base_round,
        repair=repair,
    )

    values = pool.run(list(thunks))
    outcomes = [
        Outcome(value=values[i], attempts=attempts[i], slow_factor=factors[i])
        for i in range(n)
    ]

    if not (
        speculation
        and rt.speculation
        and recovery.active
        and sim_seconds is not None
        and n >= rt.speculation_min_tasks
    ):
        return outcomes

    # Straggler speculation: judge *effective* durations (clean simulated
    # seconds x injected slowdown) against the stage median, the same
    # statistic bench monitor's straggler detector uses.
    from repro.obs.monitor import median_sim_seconds

    durations = [float(sim_seconds(i, outcomes[i].value)) for i in range(n)]
    effective = [durations[i] * outcomes[i].slow_factor for i in range(n)]
    median = median_sim_seconds(effective)
    if median <= 0:
        return outcomes
    candidates = [
        i
        for i in range(n)
        if outcomes[i].slow_factor > 1.0
        and effective[i] > rt.speculation_k * median
    ]
    if not candidates:
        return outcomes
    duplicates = pool.run([thunks[i] for i in candidates])
    for i, duplicate in zip(candidates, duplicates):
        # The duplicate attempt runs at full speed (its worker is not
        # slowed); first completion on the simulated clock wins, ties go
        # to the original — deterministic, and since the task is a pure
        # function the winning value is byte-identical either way.
        winner = "speculative" if durations[i] < effective[i] else "original"
        _emit(
            events,
            "TaskSpeculated",
            task=i,
            factor=outcomes[i].slow_factor,
            sim_seconds=round(durations[i], 6),
            effective_seconds=round(effective[i], 6),
            median_seconds=round(median, 6),
            winner=winner,
        )
        if winner == "speculative":
            outcomes[i] = Outcome(
                value=duplicate,
                attempts=outcomes[i].attempts + 1,
                slow_factor=1.0,
                speculated=True,
            )
    return outcomes

