"""Backend execution nodes: scan, filter, cross join, aggregation.

Each node pulls row batches from its child, the pull-based
asynchronous-ish execution style of Impala's backend.  Scans produce
:class:`~repro.impala.rowbatch.ColumnBatch` columns — each scan range's
text typed in one vectorised pass (:meth:`Table.parse_lines`) — and so
does the spatial join, gathering its probe and build columns at the
matching (probe row, build row) index pairs; the cross join produces
:class:`~repro.impala.rowbatch.RowBatch` lists of row tuples.  Both
answer the same questions, so a filter or aggregator above either sees
the same rows; row tuples are built only where a node asks for them.
Nodes are instantiated *per fragment instance* (per node) by the
coordinator, and charge their work to the instance's
:class:`InstanceContext` so static scheduling effects are visible in the
simulated makespan.

The indexed ``SpatialJoinNode`` — the paper's contribution — lives in
:mod:`repro.core.isp` and subclasses :class:`BlockingJoinNode` from here,
mirroring how ISP-MC subclasses Impala's ``BlockingJoinNode``.  The
:class:`Aggregator` folds an input row and a partial state with one
per-function fold and finalizes rows in the SELECT order the planner
records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from repro.cluster.metrics import TaskMetrics
from repro.cluster.model import CostModel, Resource
from repro.cluster.simulation import simulate_static_chunked
from repro.errors import ImpalaError
from repro.hdfs import SimulatedHDFS, read_split_lines
from repro.impala.ast_nodes import AGGREGATES
from repro.impala.catalog import Table
from repro.impala.rowbatch import BATCH_SIZE, ColumnBatch, RowBatch
from repro.obs.registry import REGISTRY

__all__ = [
    "InstanceContext",
    "ExecNode",
    "ScanNode",
    "FilterNode",
    "BlockingJoinNode",
    "CrossJoinNode",
    "Aggregator",
]


@dataclass
class InstanceContext:
    """Per-fragment-instance accounting (one instance per worker node).

    ``serial_seconds`` accrues single-threaded phases (index build, result
    exchange); ``parallel_seconds`` accrues phases parallelised across the
    node's cores with OpenMP *static* chunking — the intra-node scheduling
    the paper was forced into by GEOS thread-safety and LLVM-JIT issues
    (Section V.B), and the source of intra-node imbalance.
    """

    node_id: int
    cores: int
    cost_model: CostModel
    metrics: TaskMetrics = field(default_factory=TaskMetrics)
    serial_seconds: float = 0.0
    parallel_seconds: float = 0.0
    row_batches: int = 0

    def charge_serial(self, resource: str, units: float) -> None:
        """Accrue single-threaded work."""
        self.metrics.add(resource, units)
        self.serial_seconds += self.cost_model.task_seconds({resource: units})

    def charge_parallel(self, resource: str, units: float) -> None:
        """Accrue work spread evenly across the node's cores.

        Used for Impala's multi-threaded scanners ("multi-threaded disk
        I/Os", Section VI), which keep all cores busy with no chunking
        imbalance.
        """
        self.metrics.add(resource, units)
        self.parallel_seconds += (
            self.cost_model.task_seconds({resource: units}) / self.cores
        )

    def charge_batch(self, units: dict[str, np.ndarray], rows: int) -> None:
        """Accrue one row batch of ``rows`` rows processed by
        statically-chunked threads.

        ``units`` holds the rows' resource counts as unit columns (one
        entry per row, as ``probe_wkt_rows`` returns them); the batch's
        duration is the makespan of the rows' seconds under OpenMP static
        chunking across the node's cores.
        """
        self.row_batches += 1
        self.metrics.add(Resource.ROW_BATCHES, 1)
        self.serial_seconds += self.cost_model.impala_batch_overhead
        if rows:
            self.metrics.add_columns(units)
            self.parallel_seconds += simulate_static_chunked(
                self.cost_model.row_seconds(units, rows).tolist(), self.cores
            )

    @property
    def total_seconds(self) -> float:
        """The instance's simulated execution time."""
        return self.serial_seconds + self.parallel_seconds


class ExecNode:
    """Base class: an iterator of row batches."""

    def batches(self) -> Iterator[RowBatch]:
        """Yield this operator's output row batches."""
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        """Convenience: flatten batches into rows."""
        for batch in self.batches():
            yield from batch


class ScanNode(ExecNode):
    """HDFS text scan over this instance's statically assigned ranges.

    Impala assigns scan ranges to backends at plan time; the ranges this
    node receives are the instance's share and never migrate.  Bad rows
    (wrong arity / unparsable numerics) are skipped, like Impala's text
    scanners — and like the ``Try(...)`` filter in the paper's Fig 2.

    Each range's lines are typed as columns at once
    (:meth:`~repro.impala.catalog.Table.parse_lines`) and cut into
    ``batch_size``-row :class:`ColumnBatch` es that may span ranges.  The
    range's ``HDFS_BYTES`` are charged before any of its rows is
    filtered, and a batch leaves as soon as its last row is kept, so the
    consumer's charges for it interleave with the scan's exactly as a
    row-at-a-time scanner's would.  :meth:`read_ahead` reads and types
    (and, with a ``row_filter`` that charges nothing, filters) every
    range up front and returns the batches :meth:`batches` will yield;
    :meth:`batches` still makes every charge and every ``impala.*``
    counter increment in order.
    """

    def __init__(
        self,
        ctx: InstanceContext,
        hdfs: SimulatedHDFS,
        table: Table,
        scan_ranges: list[tuple[int, int]],
        row_filter: Callable[[tuple], object] | None = None,
        batch_size: int = BATCH_SIZE,
    ):
        if batch_size < 1:
            raise ImpalaError(f"batch_size must be positive, got {batch_size}")
        self.ctx = ctx
        self.hdfs = hdfs
        self.table = table
        self.scan_ranges = scan_ranges
        self.row_filter = row_filter
        self.batch_size = batch_size
        self.rows_skipped = 0
        self._ahead: list[tuple[ColumnBatch, int]] | None = None

    def _typed_range(self, offset: int, length: int) -> tuple[ColumnBatch, int]:
        """One range's rows as a column batch, and its skipped lines."""
        lines = read_split_lines(self.hdfs, self.table.path, offset, length)
        columns, skipped = self.table.parse_lines(lines)
        return ColumnBatch(columns), skipped

    def read_ahead(self) -> list[ColumnBatch]:
        """Read, type and filter every range now, charging nothing;
        returns the batches :meth:`batches` will yield.  Only the HDFS
        reads' own ``hdfs.*`` counters move here.  The ``row_filter`` must
        charge nothing (a spatial UDF charges the running task)."""
        self._ahead = []
        for offset, length in self.scan_ranges:
            part, skipped = self._typed_range(offset, length)
            if self.row_filter is not None:
                part = part.take(list(_kept_rows(part, self.row_filter)))
            self._ahead.append((part, skipped))
        return list(ColumnBatch.concat([part for part, _ in self._ahead]).chunks(self.batch_size))

    def batches(self) -> Iterator[ColumnBatch]:
        size = self.batch_size
        pending: list[ColumnBatch] = []
        held = rows_out = 0
        REGISTRY.inc("impala.scan_ranges", len(self.scan_ranges))
        for k, (offset, length) in enumerate(self.scan_ranges):
            self.ctx.charge_parallel(Resource.HDFS_BYTES, length)
            if self._ahead is not None:
                part, skipped = self._ahead[k]
                kept = None
            else:
                part, skipped = self._typed_range(offset, length)
                # Filtered lazily, so a filter's charges for the rows after
                # a full batch land after the batch's consumer's.
                kept = None if self.row_filter is None else _kept_rows(part, self.row_filter)
            self.rows_skipped += skipped
            start = 0
            while True:
                if kept is None:
                    piece = part.slice(start, start + size - held)
                    start += len(piece)
                else:
                    piece = part.take(list(islice(kept, size - held)))
                if len(piece):
                    pending.append(piece)
                    held += len(piece)
                    rows_out += len(piece)
                if held < size:
                    break
                yield ColumnBatch.concat(pending)
                pending, held = [], 0
        if held:
            yield ColumnBatch.concat(pending)
        REGISTRY.inc("impala.rows_scanned", rows_out)
        REGISTRY.inc("impala.rows_skipped", self.rows_skipped)


def _kept_rows(batch: ColumnBatch, row_filter: Callable[[tuple], object]) -> Iterator[int]:
    """The positions of ``batch``'s rows ``row_filter`` keeps, evaluated
    as they are drawn."""
    return (i for i, row in enumerate(batch.rows) if row_filter(row))


class FilterNode(ExecNode):
    """Applies a compiled predicate to the child's rows (SQL semantics:
    NULL is not a match).

    When ``vector_predicate`` is supplied it is handed the batch's column
    lists and may return a boolean mask covering every row; returning
    ``None`` (e.g. for types it cannot vectorize) falls back to the
    row-at-a-time predicate.  Both paths keep identical rows and charge
    identical (zero) time, so plans produce the same simulated runtimes.
    """

    def __init__(
        self,
        ctx: InstanceContext,
        child: ExecNode,
        predicate,
        vector_predicate: Callable[[list[list]], object] | None = None,
    ):
        self.ctx = ctx
        self.child = child
        self.predicate = predicate
        self.vector_predicate = vector_predicate

    def batches(self) -> Iterator[RowBatch]:
        predicate = self.predicate
        vector_predicate = self.vector_predicate
        for batch in self.child.batches():
            mask = None
            if vector_predicate is not None and len(batch):
                mask = vector_predicate(batch.columns())
            if mask is not None:
                kept = np.flatnonzero(mask)
            else:
                kept = [i for i, row in enumerate(batch.rows) if predicate(row) is True]
            if len(kept):
                yield batch.take(kept)


class BlockingJoinNode(ExecNode):
    """A join that fully consumes (blocks on) its build side first.

    Subclasses implement :meth:`build` (consume build rows into an
    internal structure) and :meth:`probe_batch` (emit one probe batch's
    joined rows as one batch, re-chunked to ``batch_size`` here).
    Execution order mirrors Impala: build completes before the first
    probe batch is pulled.
    """

    def __init__(
        self,
        ctx: InstanceContext,
        probe: ExecNode,
        build_rows: list[tuple] | ColumnBatch,
        batch_size: int = BATCH_SIZE,
    ):
        if batch_size < 1:
            raise ImpalaError(f"batch_size must be positive, got {batch_size}")
        self.ctx = ctx
        self.probe = probe
        self.build_rows = build_rows
        self.batch_size = batch_size
        self._built = False

    def build(self) -> None:
        """Consume the build side into the join's internal structure."""
        raise NotImplementedError

    def probe_batch(self, batch: RowBatch | ColumnBatch) -> RowBatch | ColumnBatch:
        """Emit joined rows for one probe batch."""
        raise NotImplementedError

    def batches(self) -> Iterator[RowBatch]:
        if not self._built:
            self.build()
            self._built = True
        probe_batch = self.probe_batch
        for batch in self.probe.batches():
            yield from probe_batch(batch).chunks(self.batch_size)


class CrossJoinNode(BlockingJoinNode):
    """Naive nested-loop join with an optional residual predicate.

    This is Impala's stock fallback the paper criticises: every probe row
    pairs with every build row, and — matching the observation that
    Impala's cross join "can only use a single CPU core per instance" —
    the work is charged serially, not to the multi-core batch path.
    """

    def __init__(
        self,
        ctx: InstanceContext,
        probe: ExecNode,
        build_rows: list[tuple],
        residual: Callable[[tuple], object] | None = None,
    ):
        super().__init__(ctx, probe, build_rows)
        self.residual = residual

    def build(self) -> None:
        # Nothing to index: the build side is kept as a plain row list.
        self.ctx.charge_serial(Resource.ROWS_OUT, 0)

    def probe_batch(self, batch: RowBatch) -> RowBatch:
        joined: list[tuple] = []
        residual = self.residual
        for left_row in batch:
            for right_row in self.build_rows:
                row = left_row + right_row
                if residual is None or residual(row) is True:
                    joined.append(row)
        # Single-core execution: all pairing work lands on serial time.
        self.ctx.charge_serial(
            Resource.ROWS_OUT, len(batch) * len(self.build_rows) * 0.05 + len(joined)
        )
        self.ctx.metrics.add(Resource.ROW_BATCHES, 1)
        return RowBatch(joined, capacity=self.batch_size)


class Aggregator:
    """Hash aggregation supporting partial/merge/final phases.

    ``specs`` is a list of (func_name, value_getter_or_None, distinct)
    triples; group keys are computed by ``key_getters``.  Partial states:
    COUNT -> int, SUM -> number, MIN/MAX -> value, AVG -> (sum, count),
    COUNT DISTINCT -> set.  An input row folds in as the partial state of
    that row alone, so accumulating and merging share one fold.
    ``layout`` (the planner's :attr:`AggregateSpec.layout`) orders each
    finalized ``(keys..., aggregates...)`` row; by default it stays so.
    """

    def __init__(self, key_getters, specs, layout: list[int] | None = None):
        unknown = {name for name, _, _ in specs} - AGGREGATES
        if unknown:
            raise ImpalaError(f"unknown aggregate {sorted(unknown)[0]!r}")
        self.key_getters = key_getters
        self.specs = specs
        self.layout = layout
        self.groups: dict[tuple, list] = {}

    def accumulate(self, row: tuple) -> None:
        """Fold one input row into its group's states."""
        key = tuple(getter(row) for getter in self.key_getters)
        self.merge(
            key,
            [
                _row_state(name, distinct, 1 if getter is None else getter(row))
                for name, getter, distinct in self.specs
            ],
        )

    def merge(self, key: tuple, states: list) -> None:
        """Fold another aggregator's partial states (the merge phase)."""
        mine = self.groups.get(key)
        if mine is None:
            self.groups[key] = list(states)
            return
        for i, (name, _, distinct) in enumerate(self.specs):
            mine[i] = _fold(name, distinct, mine[i], states[i])

    def partials(self) -> Iterator[tuple[tuple, list]]:
        """Yield (group_key, states) pairs for the exchange."""
        yield from self.groups.items()

    def finalize(self) -> Iterator[tuple]:
        """Yield final output rows: group key values then aggregate
        values, in ``layout`` order when one is given.  Without group keys
        there is one row even over no input: each aggregate of no values."""
        empty = {(): [_row_state(name, distinct, None) for name, _, distinct in self.specs]}
        for key, states in (self.groups or ({} if self.key_getters else empty)).items():
            values = []
            for i, (name, _, distinct) in enumerate(self.specs):
                state = states[i]
                if name == "COUNT" and distinct:
                    values.append(len(state))
                elif name == "AVG":
                    total, count = state
                    values.append(total / count if count else None)
                else:
                    values.append(state)
            row = key + tuple(values)
            yield row if self.layout is None else tuple(row[i] for i in self.layout)


def _row_state(name: str, distinct: bool, value):
    """The partial state of one input row holding ``value`` (NULL: None)."""
    if name == "COUNT":
        if distinct:
            return set() if value is None else {value}
        return int(value is not None)
    if name == "AVG":
        return (0.0, 0) if value is None else (0.0 + value, 1)
    return value


def _fold(name: str, distinct: bool, mine, theirs):
    """Two partial states of one aggregate, combined (``mine`` may be
    updated in place)."""
    if name == "COUNT" and distinct:
        mine |= theirs
        return mine
    if name == "COUNT":
        return mine + theirs
    if name == "AVG":
        return (mine[0] + theirs[0], mine[1] + theirs[1])
    if theirs is None:
        return mine
    if mine is None:
        return theirs
    if name == "SUM":
        return mine + theirs
    return min(mine, theirs) if name == "MIN" else max(mine, theirs)
