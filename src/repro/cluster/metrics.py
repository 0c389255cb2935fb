"""Task/stage/query metrics accounting.

Engines accrue resource-unit counts into :class:`TaskMetrics` while they
do real work; the simulation layer converts counts to simulated seconds
via the cost model and composes them into stage and query makespans.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from typing import Sequence

import numpy as np

from repro.cluster.model import CostModel
from repro.obs.profile import ProfileNode, QueryProfile

__all__ = [
    "TaskMetrics",
    "StageMetrics",
    "QueryMetrics",
    "UnitSlices",
    "charge_members",
    "price_tasks",
    "scatter_units",
    "straggler_stats",
]

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


class UnitSlices:
    """A batch's per-row unit columns, cut into members at ``stops``.

    Member ``b`` is charged rows ``stops[b]:stops[b + 1]`` of every
    column, but a column named in ``sparse`` only when one of those rows
    is charged one — the work done on the member alone would not have
    made it.  Called with a member it gives that member's columns;
    :func:`charge_members` charges every member.
    """

    __slots__ = ("units", "stops", "sparse")

    def __init__(
        self, units: dict[str, np.ndarray], stops: Sequence[int], sparse: frozenset = frozenset()
    ):
        self.units = units
        self.stops = stops
        self.sparse = sparse

    def __call__(self, member: int) -> dict[str, np.ndarray]:
        start, stop = self.stops[member], self.stops[member + 1]
        return {
            resource: column[start:stop]
            for resource, column in self.units.items()
            if resource not in self.sparse or column[start:stop].any()
        }

    def cut(self, stops: Sequence[int]) -> "UnitSlices":
        """The same columns cut at other ``stops``."""
        return UnitSlices(self.units, stops, self.sparse)


def charge_members(tasks: Sequence["TaskMetrics"], charges: Sequence[UnitSlices]) -> None:
    """Charge ``tasks[b]`` member ``b`` of every step's
    :class:`UnitSlices`, upstream step first.

    Each task ends as :meth:`TaskMetrics.add_columns` of its member's
    columns, the steps merged key by key (:func:`_member_units`), leaves
    it.  Many members are charged at once, as one table
    (:func:`_charge_table`); a lone member — a pooled, fault-plan or
    retried task, a ``take`` — by that very ``add_columns`` call, since
    the table's numpy set-up (~0.15 ms) costs ten times its charge.
    """
    if len(tasks) == 1:
        tasks[0].add_columns(_member_units(charges, 0))
    else:
        _charge_table(tasks, charges)


def _member_units(charges: Sequence[UnitSlices], member: int) -> dict[str, np.ndarray]:
    """Member ``member``'s columns of every step, merged: keys in the
    order the steps make them, a key two steps share holding both
    steps' entries in step order, so
    :meth:`TaskMetrics.add_columns` sums it as the two charges in turn
    would."""
    merged: dict[str, np.ndarray] = {}
    for charge in charges:
        for resource, column in charge(member).items():
            held = merged.get(resource)
            merged[resource] = column if held is None else np.concatenate((held, column))
    return merged


def _charge_table(tasks: Sequence["TaskMetrics"], charges: Sequence[UnitSlices]) -> None:
    """:func:`charge_members` of every member at once.

    A member's new keys come in the order the steps list them (a key two
    steps share sits where the first step charging the member lists it),
    a key is created only where the member has an entry for it, and each
    count is the left-to-right sum of the task's prior count and the
    member's entries.  The sums run for all members at once, one
    resource at a time: members sorted by entry count are cut into runs
    (:func:`_runs`), and a run is one zero-padded matrix, the prior
    count first, whose row-wise ``cumsum`` is read at each member's last
    entry.
    """
    n = len(tasks)
    if not n or not charges:
        return
    # Per resource: each listing step's (column, starts, lengths), and the
    # rank of the (step, key) at which each member first lists it.
    segments: dict[str, list] = {}
    places: dict[str, np.ndarray] = {}
    unlisted = np.iinfo(np.int64).max
    rank = 0
    for step in charges:
        stops = np.asarray(step.stops, dtype=np.int64)
        starts, ends = stops[:n], stops[1 : n + 1]
        lengths = ends - starts
        for resource, column in step.units.items():
            place = np.full(n, rank)
            listed_lengths = lengths
            if resource in step.sparse:
                nonzero = np.concatenate(([0], np.cumsum(column != 0)))
                listed = nonzero[ends] > nonzero[starts]
                listed_lengths = np.where(listed, lengths, 0)
                place[~listed] = unlisted
            segments.setdefault(resource, []).append((column, starts, listed_lengths))
            places[resource] = np.minimum(places.get(resource, unlisted), place)
            rank += 1
    keys = list(segments)
    if not keys:
        return
    counts = [task.counts for task in tasks]
    held = set().union(*counts)
    # Resources cut at the same rows of the same steps are summed together.
    alike: dict[tuple, list[str]] = {}
    for resource in keys:
        cut = tuple((id(first), id(size), len(c)) for c, first, size in segments[resource])
        alike.setdefault(cut, []).append(resource)
    sums, totals = {}, {}
    for resources in alike.values():
        priors = np.array([
            np.fromiter((c.get(r, 0.0) for c in counts), np.float64, n)
            if r in held
            else np.zeros(n)
            for r in resources
        ])
        columns = [[column for column, _, _ in segments[r]] for r in resources]
        summed, total = _row_sums(priors, columns, segments[resources[0]])
        for resource, row in zip(resources, summed):
            sums[resource], totals[resource] = row, total
    values = np.stack([sums[r] for r in keys], axis=1)
    signature = np.stack([np.where(totals[r] > 0, places[r], -1) for r in keys], axis=1)
    # Members whose keys are created in one order share one update.
    groups: dict[bytes, list[int]] = {}
    if (signature == signature[0]).all():
        groups[b""] = list(range(n))
    else:
        for b, sig in enumerate(signature.view(f"V{8 * len(keys)}").ravel().tolist()):
            groups.setdefault(sig, []).append(b)
    for rows in groups.values():
        place = signature[rows[0]].tolist()
        cols = sorted((k for k, at in enumerate(place) if at >= 0), key=place.__getitem__)
        names = [keys[k] for k in cols]
        for b, row in zip(rows, values[np.ix_(rows, cols)].tolist()):
            counts[b].update(zip(names, row))


def _row_sums(
    priors: np.ndarray, columns: list[list[np.ndarray]], segments: list[tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """Each member's prior count of each resource (a row of ``priors``)
    plus its entries of that resource's step ``columns``, cut as
    ``segments`` — each step's ``(column, starts, lengths)`` — cuts them,
    in step order, summed left to right; and each member's entry count."""
    offsets = np.cumsum([0] + [len(column) for column, _, _ in segments[:-1]])
    starts = np.stack([first + offset for (_, first, _), offset in zip(segments, offsets)], 1)
    lengths = np.stack([size for _, _, size in segments], 1)
    sources = [steps[0] if len(steps) == 1 else np.concatenate(steps) for steps in columns]
    total = lengths.sum(axis=1)
    sums = priors.copy()
    for rows in _runs(total):
        width = total[rows[0]]
        row_lengths = lengths[rows].ravel()
        ends = np.cumsum(row_lengths)
        at = np.repeat(starts[rows].ravel() - ends + row_lengths, row_lengths)
        at += np.arange(ends[-1])
        filled = np.arange(width) < total[rows, None]
        last = (np.arange(len(rows)), total[rows])
        for prior, source, summed in zip(priors, sources, sums):
            padded = np.zeros((len(rows), width + 1))
            padded[:, 0] = prior[rows]
            padded[:, 1:][filled] = source[at]
            np.cumsum(padded, axis=1, out=padded)
            summed[rows] = padded[last]
    return sums, total


def _runs(total: np.ndarray):
    """The members with entries, longest first, in runs that a matrix as
    wide as the run's longest member holds in at most twice their
    entries: a skewed stage's long member never widens the short ones'."""
    charged = np.flatnonzero(total)
    order = charged[np.argsort(-total[charged], kind="stable")]
    lengths = total[order]
    entries = np.concatenate(([0], np.cumsum(lengths)))
    start = 0
    while start < len(order):
        fits = np.arange(1, len(order) - start + 1) * lengths[start] <= 2 * (
            entries[start + 1 :] - entries[start]
        )
        stop = start + 1 + int(np.flatnonzero(fits)[-1])
        yield order[start:stop]
        start = stop


def price_tasks(model: CostModel, tasks: Sequence["TaskMetrics"]) -> np.ndarray:
    """:meth:`TaskMetrics.seconds` of every task, from one
    :meth:`~repro.cluster.model.CostModel.row_seconds` call over the
    (task x resource) table.

    The table's columns are the tasks' keys in first-seen order.  A task
    whose keys come in that order is a row, its missing keys ``-0.0``
    (which leaves any running sum as it is), so its price is
    ``task_seconds``' by bits; tasks whose keys come in another order are
    priced apart, one table per key order.
    """
    orders: dict[tuple, list[int]] = {}
    for b, task in enumerate(tasks):
        orders.setdefault(tuple(task.counts), []).append(b)
    columns = {key: k for k, key in enumerate(dict.fromkeys(chain.from_iterable(orders)))}
    in_table, apart = [], []
    for keys, rows in orders.items():
        at = [columns[key] for key in keys]
        (in_table if at == sorted(at) else apart).append((keys, rows))
    seconds = np.zeros(len(tasks))

    def price(columns: dict[str, int], groups: list[tuple[tuple, list[int]]]) -> None:
        rows = list(chain.from_iterable(group for _, group in groups))
        table = np.full((len(rows), len(columns)), -0.0)
        start = 0
        for keys, group in groups:
            held = chain.from_iterable(tasks[b].counts.values() for b in group)
            values = np.fromiter(held, np.float64, len(group) * len(keys))
            stop = start + len(group)
            at = [columns[key] for key in keys]
            table[start:stop, at] = values.reshape(len(group), len(keys))
            start = stop
        units = {key: table[:, k] for key, k in columns.items()}
        seconds[rows] = model.row_seconds(units, len(rows))

    if in_table:
        price(columns, in_table)
    for keys, rows in apart:
        price({key: k for k, key in enumerate(keys)}, [(keys, rows)])
    return seconds


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
        return sum(self.task_seconds(model))

    def task_seconds(self, model: CostModel) -> list[float]:
        """Per-task simulated durations, in task order."""
        return price_tasks(model, self.tasks).tolist()

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
            seconds = stage.task_seconds(model)
            node = ProfileNode(
                stage.name,
                sim_seconds=stage.makespan_seconds + stage.overhead_seconds,
                counters=stage.counter_totals(),
                info={
                    "tasks": stage.num_tasks,
                    "makespan_seconds": stage.makespan_seconds,
                    "overhead_seconds": stage.overhead_seconds,
                    "total_task_seconds": sum(seconds),
                    **straggler_stats(seconds),
                },
                concurrent=True,  # a stage's tasks overlap in time
            )
            root.add_child(node)
        return QueryProfile(root, metrics=self)
