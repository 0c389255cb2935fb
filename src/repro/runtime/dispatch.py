"""One task-dispatch path for every executor.

The Spark scheduler's stages, the Impala coordinator's fragment instances
and the core join API's probe chunks and tiles all reach their workers
through :func:`run_tasks`.  The substrates differ in how they *place*
work (Section III: Spark dynamically, Impala statically bound); how a
task reaches a worker and how its side effects come back is the same
for all three, and is decided here, one rule per decision:

* *Which pool runs a stage.*  A real pool with at least two tasks
  dispatches them to its workers; anything else runs inline on the
  driver.
* *When a task body runs under* :func:`capture_observability`.  Only on
  a real pool (its writes land in another process) or under an active
  fault plan (a losing speculative attempt must leave nothing behind).
  Otherwise the body runs against the driver's tracer, registry and
  event sink directly — the run the equivalence suites pin the captured
  ones to.  :func:`runs_inline` tells a caller which case a stage is in
  before it starts (the batched probes prefetch only inline).
* *How results come home.*  A captured task ships ``(value, capture,
  error)``; the driver absorbs the shipments in task order, replaying
  each capture, then re-raising the task's error or handing its value
  to the caller.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from repro.runtime.faults import Fault
from repro.runtime.pool import SerialBackend, TaskPool, picklable_error
from repro.runtime.recovery import RecoveryContext, run_recovered
from repro.runtime.shipping import ObsCapture, apply_capture, capture_observability

__all__ = ["runs_inline", "run_tasks"]

_INLINE = SerialBackend()


def _dispatches(pool: TaskPool, num_tasks: int) -> bool:
    return num_tasks >= 2 and not pool.is_serial


def runs_inline(
    pool: TaskPool, num_tasks: int, recovery: RecoveryContext | None = None
) -> bool:
    """True when a stage of ``num_tasks`` tasks runs inline, uncaptured."""
    return not _dispatches(pool, num_tasks) and (
        recovery is None or not recovery.active
    )


def _shipped(body: Callable[[], Any]) -> tuple:
    """Run ``body`` under a capture; returns its ``(value, capture, error)``."""
    capture = ObsCapture()
    value = error = None
    with capture_observability(capture):
        try:
            value = body()
        except Exception as exc:  # noqa: BLE001 - re-raised at absorb time
            error = picklable_error(exc)
    return value, capture, error


def run_tasks(
    pool: TaskPool,
    bodies: Sequence[Callable[[], Any]],
    recovery: RecoveryContext | None,
    absorb: Callable[[int, Any], None],
    *,
    scope: str = "",
    events: tuple | None = None,
    sim_seconds: Callable[[int, Any], float] | None = None,
    repair: Callable[[int, Fault], None] | None = None,
) -> None:
    """Run ``bodies`` as one stage; hand each value to ``absorb(index,
    value)`` in task order.

    Inline, each body runs and is absorbed before the next starts, so an
    ``absorb`` (or a body) that raises stops the stage there.  Captured,
    the stage drains first.  Under an active fault plan the stage runs
    through :func:`~repro.runtime.recovery.run_recovered`: ``scope`` and
    ``events`` name it in plan draws and recovery events,
    ``sim_seconds(index, value)`` prices a task for speculation and
    ``repair`` restores lost shuffle output.  ``recovery`` is None for a
    caller that resolves its faults itself.
    """
    if runs_inline(pool, len(bodies), recovery):
        for index, body in enumerate(bodies):
            absorb(index, body())
        return
    if not _dispatches(pool, len(bodies)):
        pool = _INLINE
    thunks = [partial(_shipped, body) for body in bodies]
    if recovery is not None and recovery.active:

        def price(index, shipment):
            value, _, error = shipment
            return 0.0 if error is not None else sim_seconds(index, value)

        outcomes = run_recovered(
            pool, thunks, recovery, scope=scope, events=events,
            sim_seconds=None if sim_seconds is None else price, repair=repair,
        )
        shipments = [outcome.value for outcome in outcomes]
    else:
        shipments = pool.run(thunks)
    for index, (value, capture, error) in enumerate(shipments):
        apply_capture(capture)
        if error is not None:
            raise error
        absorb(index, value)
