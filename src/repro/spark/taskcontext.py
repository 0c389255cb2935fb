"""Per-task metric context.

While an executor computes a partition, instrumented code anywhere in the
stack (WKT readers, refinement engines, join operators) accrues resource
counts against the *current task* without threading a handle through every
call — mirroring how Spark's ``TaskContext.get()`` works.
"""

from __future__ import annotations

import threading

from repro.cluster.metrics import TaskMetrics

__all__ = ["current_task", "task_scope"]

_LOCAL = threading.local()


def current_task() -> TaskMetrics:
    """The metrics sink for the task being computed.

    Outside any task (driver-side code, plain unit tests) a throwaway
    sink is returned, so instrumented code never needs a null check.
    """
    task = getattr(_LOCAL, "task", None)
    if task is None:
        return TaskMetrics()
    return task


class task_scope:
    """Install ``task`` as the current task for the duration of the block
    (a plain context manager: it is entered several times per task)."""

    __slots__ = ("task", "previous")

    def __init__(self, task: TaskMetrics):
        self.task = task

    def __enter__(self) -> TaskMetrics:
        self.previous = getattr(_LOCAL, "task", None)
        _LOCAL.task = self.task
        return self.task

    def __exit__(self, *exc) -> None:
        _LOCAL.task = self.previous
