"""Executor pools: real multicore execution under both substrates.

Until this layer existed, every Spark task and every Impala plan fragment
ran serially in one Python process — parallelism lived only in the
simulated-time accounting.  :class:`TaskPool` is the shared abstraction
both substrates dispatch through (by way of
:func:`repro.runtime.dispatch.run_tasks`):

* :class:`SerialBackend` — the default: tasks run inline, in submission
  order, on the driver.  The schedulers hand it the same task thunks a
  process pool gets, so there is one task body whatever the pool.
* :class:`ProcessBackend` — ``multiprocessing`` workers started with
  ``fork``: task closures and every broadcast/index payload they capture
  are inherited by the worker processes at fork time and never
  serialised at all.  Where ``fork`` is missing, :func:`make_pool` gives
  the serial backend instead.

Workers pull task indices from a shared queue — free worker takes the
next task, i.e. *dynamic* placement — and the driver consumes completed
results as they land, then returns them in deterministic task order.
Results must be picklable; tasks that raise ship the exception back and
the driver re-raises the lowest-indexed failure after the batch drains.

The hard invariant carried by both substrates: results are byte-identical
with the pool on or off (pairs, pair order, counter totals, profiles and
simulated seconds), so the simulation model stays the ground truth and
real parallelism is purely a wall-clock win.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as queue_mod
import traceback
from typing import Any, Callable, Sequence

from repro.errors import ReproError

__all__ = [
    "PoolError",
    "TaskPool",
    "SerialBackend",
    "ProcessBackend",
    "validate_executors",
    "make_pool",
    "picklable_error",
    "current_worker_id",
]


class PoolError(ReproError):
    """Task-pool failure: bad configuration, dead worker, unpicklable data."""


# Tasks for the current run; workers inherit the reference at
# fork time, so closures (and everything they capture) cross the process
# boundary without ever touching pickle.
_FORK_TASKS: Sequence[Callable[[], Any]] | None = None

# This process's worker index within its pool (None on the driver).  Set
# by the worker main before the task loop; observability shipping reads
# it to label captured spans and events with their physical executor.
_WORKER_ID: int | None = None


def current_worker_id() -> int | None:
    """This process's pool worker index, or ``None`` on the driver."""
    return _WORKER_ID


def validate_executors(executors, what: str = "executors") -> int:
    """Normalise the executors knob to a worker count.

    Accepts ``None`` / ``"serial"`` (run inline) or an integer >= 1;
    anything else raises :class:`ReproError` with a clear message.
    """
    if executors is None or executors == "serial":
        return 1
    if isinstance(executors, bool) or not isinstance(executors, int):
        raise ReproError(
            f"{what} must be 'serial' or an integer >= 1, got {executors!r}"
        )
    if executors < 1:
        raise ReproError(
            f"{what} must be 'serial' or an integer >= 1, got {executors}"
        )
    return executors


def make_pool(executors=None) -> "TaskPool":
    """Build the pool for an ``executors`` knob value.

    ``None``/``"serial"``/``1`` give the inline :class:`SerialBackend`;
    larger integers give a :class:`ProcessBackend` with that many workers
    where ``fork`` is available, and the serial backend elsewhere (the
    same results, without the parallelism).  An existing
    :class:`TaskPool` instance passes through unchanged.
    """
    if isinstance(executors, TaskPool):
        return executors
    workers = validate_executors(executors)
    if workers <= 1 or not hasattr(os, "fork"):
        return SerialBackend()
    return ProcessBackend(workers)


class TaskPool:
    """Executes a batch of zero-argument tasks, preserving task order."""

    workers: int = 1
    name: str = "pool"

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    def run(
        self,
        tasks: Sequence[Callable[[], Any]],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> list:
        """Run every task; returns their results in task order.

        ``on_result(index, value)`` is invoked as completions land (in
        completion order under a process pool), before the ordered list is
        returned — the hook dynamic schedulers use to consume stragglers'
        siblings early.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (workers are per-run; this is a no-op)."""


class SerialBackend(TaskPool):
    """Run tasks inline on the driver, in submission order."""

    workers = 1
    name = "serial"

    def run(self, tasks, on_result=None) -> list:
        results = []
        for index, task in enumerate(tasks):
            value = task()
            if on_result is not None:
                on_result(index, value)
            results.append(value)
        return results


def picklable_error(error: BaseException) -> BaseException:
    """Ship ``error`` across the process boundary, degrading gracefully.

    Tries the exception itself, then a same-type rebuild from its message,
    then a :class:`PoolError` carrying the repr.  The message the driver
    re-raises is unchanged in the first two cases, which is what the
    retry-semantics tests pin.  A picklable ``__cause__`` survives with
    the exception itself; an unpicklable one is dropped.
    """
    cause = error.__cause__
    if cause is not None:
        try:
            pickle.dumps(cause)
        except Exception:
            pass
        else:
            # Exceptions pickle as (type, args, __dict__), without their
            # __cause__; in the instance state it rides along, and
            # BaseException.__setstate__ puts it back with setattr.
            error.__dict__["__cause__"] = cause
    try:
        pickle.dumps(error)
        return error
    except Exception:
        pass
    try:
        rebuilt = type(error)(str(error))
        pickle.dumps(rebuilt)
        return rebuilt
    except Exception:
        return PoolError(
            f"task raised unpicklable {type(error).__name__}: {error}"
        )


def _worker_main(worker_id, task_queue, result_queue) -> None:
    """Pull task indices until the poison pill; ship pre-pickled results.

    Results are pickled *in this thread* (not ``mp.Queue``'s feeder
    thread) so serialisation failures are catchable and shipped as
    errors instead of hanging the driver.
    """
    global _WORKER_ID
    _WORKER_ID = worker_id
    tasks = _FORK_TASKS
    while True:
        index = task_queue.get()
        if index is None:
            return
        try:
            value = tasks[index]()
            blob = pickle.dumps((index, True, value))
        except BaseException as exc:  # noqa: BLE001 - everything ships back
            blob = pickle.dumps(
                (index, False, (picklable_error(exc), traceback.format_exc()))
            )
        result_queue.put(blob)


class ProcessBackend(TaskPool):
    """``multiprocessing`` workers forked per :meth:`run` call.

    Forking per run means workers always see the driver's current state —
    shuffle blocks, caches, broadcast values — without any per-task
    serialisation.  The fork cost is paid once per stage and amortised by
    coarse batch tasks.
    """

    name = "process"

    def __init__(self, workers: int):
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise PoolError(f"workers must be an integer >= 1, got {workers!r}")
        self.workers = workers

    def run(self, tasks, on_result=None) -> list:
        global _FORK_TASKS
        tasks = list(tasks)
        if not tasks:
            return []
        ctx = mp.get_context("fork")
        n = len(tasks)
        workers = min(self.workers, n)
        task_queue = ctx.Queue()
        result_queue = ctx.Queue()
        for index in range(n):
            task_queue.put(index)
        for _ in range(workers):
            task_queue.put(None)
        _FORK_TASKS = tasks
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(worker_id, task_queue, result_queue),
                daemon=True,
            )
            for worker_id in range(workers)
        ]
        try:
            self._start_all(procs)
        finally:
            _FORK_TASKS = None
        return self._collect(n, task_queue, result_queue, procs, on_result)

    # -- lifecycle --------------------------------------------------------------

    @staticmethod
    def _start_all(procs) -> None:
        """Start every worker; on a mid-startup failure, reap the started ones."""
        started = []
        try:
            for proc in procs:
                proc.start()
                started.append(proc)
        except BaseException:
            for proc in started:
                proc.terminate()
            for proc in started:
                proc.join(timeout=5.0)
            raise

    @staticmethod
    def _shutdown(procs, task_queue, result_queue, graceful: bool) -> None:
        """Reap every worker, leaving no zombie behind.

        ``graceful`` (the batch drained) waits briefly for workers to see
        their poison pills; the error path (a driver-side ``on_result``
        callback raised mid-dispatch, an unpicklable result, a lost
        worker) terminates immediately — the remaining queued tasks are
        abandoned, not worth up to 5 s of join timeout per worker.
        Either way stragglers are terminated *and then joined*, which is
        the fix for the old leak: ``terminate()`` without a follow-up
        ``join()`` left zombies (and, with queued work still pending,
        live workers) behind a raising callback.
        """
        if graceful:
            for proc in procs:
                proc.join(timeout=5.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.is_alive():
                proc.join(timeout=5.0)
        # Abandoned queues must not block interpreter exit on their
        # feeder threads (the driver wrote task indices it may never
        # consume back); dropping the unsent tail is fine — the batch is
        # over either way.
        for q in (task_queue, result_queue):
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass

    # -- completion consumption ------------------------------------------------

    def _collect(self, n, task_queue, result_queue, procs, on_result) -> list:
        """Consume completions as they land; return results in task order."""
        results: list = [None] * n
        errors: list[tuple[int, BaseException, str]] = []
        remaining = n
        try:
            while remaining:
                try:
                    blob = result_queue.get(timeout=1.0)
                except queue_mod.Empty:
                    # A worker that died abnormally (SIGKILL, OOM) lost its
                    # task, and may have died holding a queue lock the
                    # survivors wait on.
                    if any(proc.exitcode for proc in procs) or not any(
                        proc.is_alive() for proc in procs
                    ):
                        raise PoolError(
                            f"{remaining} task(s) lost: worker process(es) "
                            "died without reporting results"
                        ) from None
                    continue
                index, ok, value = pickle.loads(blob)
                if ok:
                    results[index] = value
                    if on_result is not None:
                        on_result(index, value)
                else:
                    errors.append((index, *value))
                remaining -= 1
        except BaseException:
            self._shutdown(procs, task_queue, result_queue, graceful=False)
            raise
        self._shutdown(procs, task_queue, result_queue, graceful=True)
        if errors:
            errors.sort(key=lambda e: e[0])
            _, exc, tb = errors[0]
            exc.add_note(f"(in pool worker)\n{tb}")
            raise exc
        return results
