"""Task/stage/query metrics accounting.

Engines accrue resource-unit counts into :class:`TaskMetrics` while they
do real work; the simulation layer converts counts to simulated seconds
via the cost model and composes them into stage and query makespans.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from repro.cluster.model import CostModel
from repro.obs.profile import ProfileNode, QueryProfile

__all__ = ["TaskMetrics", "StageMetrics", "QueryMetrics", "scatter_units", "straggler_stats"]

# Up to this many entries a unit column is summed in Python, beyond it
# by ``cumsum``: the same left-to-right sum.  The two cost the same near
# 64 entries (about 4 us each on a 2-core Xeon); a 9-15 row column (a
# g10m-wwf or taxi-lion-500 task) sums 3x quicker in Python, a
# 1 024-row one 7x quicker by ``cumsum`` (taxi-nycb tasks hold 85-90).
_SHORT_COLUMN = 64


def scatter_units(units: dict[str, np.ndarray], rows, size: int) -> dict[str, np.ndarray]:
    """The unit columns of the rows at positions ``rows`` of a ``size``-row
    batch: same keys, same order, zero at every other row."""
    placed = {resource: np.zeros(size) for resource in units}
    for resource, column in units.items():
        placed[resource][rows] = column
    return placed


def straggler_stats(seconds: list[float]) -> dict[str, float]:
    """The straggler statistics from one pass over task durations:
    ``max_task_seconds`` (0.0 with no tasks), ``median_task_seconds``
    (0.0 with no tasks) and ``skew``, max/median — the paper's straggler
    diagnostic.

    A skew of 1.0 means perfectly balanced; the static-scheduling runs of
    Section V show it climbing well past 1 on spatially-ordered inputs.
    It is 1.0 when there are no tasks or the median is 0.
    """
    longest = max(seconds, default=0.0)
    median = statistics.median(seconds) if seconds else 0.0
    return {
        "max_task_seconds": longest,
        "median_task_seconds": median,
        "skew": longest / median if median > 0.0 else 1.0,
    }


@dataclass
class TaskMetrics:
    """Resource counters for one task (one partition / one fragment instance)."""

    counts: dict[str, float] = field(default_factory=dict)

    def add(self, resource: str, units: float) -> None:
        """Accrue ``units`` of ``resource``."""
        self.counts[resource] = self.counts.get(resource, 0.0) + units

    def add_columns(self, units: dict[str, np.ndarray]) -> None:
        """Accrue a batch's unit columns (one entry per row) — what
        :meth:`add` called row by row, each row's keys in column order,
        leaves: new keys arrive in column order, and each count is the
        same left-to-right float sum (a row's 0 adds nothing), so even a
        fractional count (a cost-weighted charge) keeps its bits."""
        counts = self.counts
        for resource, column in units.items():
            size = len(column)
            if not size:
                continue
            start = counts.get(resource, 0.0)
            if size <= _SHORT_COLUMN:
                counts[resource] = reduce(add, column.tolist(), start)
            else:
                counts[resource] = float(np.concatenate(([start], column)).cumsum()[-1])

    def merge(self, other: "TaskMetrics") -> None:
        """Accumulate another task's counters into this one."""
        for resource, units in other.counts.items():
            self.add(resource, units)

    def seconds(self, model: CostModel) -> float:
        """Simulated duration of this task under ``model``."""
        return model.task_seconds(self.counts)

    def get(self, resource: str) -> float:
        """Current count for ``resource`` (0.0 when never accrued)."""
        return self.counts.get(resource, 0.0)


@dataclass
class StageMetrics:
    """One scheduling stage: a set of tasks plus stage-level overhead."""

    name: str
    tasks: list[TaskMetrics] = field(default_factory=list)
    overhead_seconds: float = 0.0
    makespan_seconds: float = 0.0

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    def total_task_seconds(self, model: CostModel) -> float:
        """Sum of all task durations (the serial-equivalent work)."""
        return sum(task.seconds(model) for task in self.tasks)

    def task_seconds(self, model: CostModel) -> list[float]:
        """Per-task simulated durations, in task order."""
        return [task.seconds(model) for task in self.tasks]

    def task_stats(self, model: CostModel) -> dict[str, float]:
        """:func:`straggler_stats` of the task durations."""
        return straggler_stats(self.task_seconds(model))

    def max_task_seconds(self, model: CostModel) -> float:
        """The straggler task's duration (0.0 with no tasks)."""
        return self.task_stats(model)["max_task_seconds"]

    def median_task_seconds(self, model: CostModel) -> float:
        """The median task duration (0.0 with no tasks)."""
        return self.task_stats(model)["median_task_seconds"]

    def skew(self, model: CostModel) -> float:
        """Max/median task time (see :meth:`task_stats`)."""
        return self.task_stats(model)["skew"]

    def counter_totals(self) -> dict[str, float]:
        """Aggregate resource counters over this stage's tasks."""
        merged = TaskMetrics()
        for task in self.tasks:
            merged.merge(task)
        return dict(merged.counts)


@dataclass
class QueryMetrics:
    """A whole query: ordered stages plus query-level overhead."""

    name: str
    stages: list[StageMetrics] = field(default_factory=list)
    overhead_seconds: float = 0.0

    def add_stage(self, stage: StageMetrics) -> None:
        self.stages.append(stage)

    @property
    def simulated_seconds(self) -> float:
        """Total simulated runtime: stage makespans + overheads."""
        return self.overhead_seconds + sum(
            stage.makespan_seconds + stage.overhead_seconds for stage in self.stages
        )

    def total_task_seconds(self, model: CostModel) -> float:
        """Serial-equivalent work across all stages."""
        return sum(stage.total_task_seconds(model) for stage in self.stages)

    def totals(self) -> dict[str, float]:
        """Aggregate resource counters over every task (for reports)."""
        merged = TaskMetrics()
        for stage in self.stages:
            for task in stage.tasks:
                merged.merge(task)
        return dict(merged.counts)

    def to_profile(
        self, model: CostModel | None = None, name: str | None = None
    ) -> QueryProfile:
        """Build the Impala-style profile tree for this query.

        The tree preserves the accounting identity exactly: the root's
        duration is :attr:`simulated_seconds`, and its children (one per
        stage, plus a query-overhead node when present) sum to it —
        ``makespan + overhead`` per stage.  Each stage node carries the
        stage's aggregated resource counters and task-skew statistics
        (task count, serial-equivalent work, max/median task time).
        """
        model = model or CostModel()
        root = ProfileNode(name or self.name, sim_seconds=self.simulated_seconds)
        if self.overhead_seconds:
            root.add_child(
                ProfileNode(
                    "query-overhead",
                    sim_seconds=self.overhead_seconds,
                    info={"kind": "driver/setup overhead"},
                )
            )
        for stage in self.stages:
            node = ProfileNode(
                stage.name,
                sim_seconds=stage.makespan_seconds + stage.overhead_seconds,
                counters=stage.counter_totals(),
                info={
                    "tasks": stage.num_tasks,
                    "makespan_seconds": stage.makespan_seconds,
                    "overhead_seconds": stage.overhead_seconds,
                    "total_task_seconds": stage.total_task_seconds(model),
                    **stage.task_stats(model),
                },
                concurrent=True,  # a stage's tasks overlap in time
            )
            root.add_child(node)
        return QueryProfile(root, metrics=self)
