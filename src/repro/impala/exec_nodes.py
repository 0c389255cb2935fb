"""Backend execution nodes: scan, filter, cross join, aggregation.

Each node pulls row batches from its child, the pull-based
asynchronous-ish execution style of Impala's backend.  Scans and the
cross join produce :class:`~repro.impala.rowbatch.RowBatch` lists of row
tuples; the spatial join produces
:class:`~repro.impala.rowbatch.PairBatch` columns — object arrays
gathered at the matching (probe row, build row) index pairs — which
answer every question a ``RowBatch`` does, so a filter or aggregator
above either sees the same rows.  Nodes are instantiated *per fragment
instance* (per node) by the coordinator, and charge their work to the
instance's :class:`InstanceContext` so static scheduling effects are
visible in the simulated makespan.

The indexed ``SpatialJoinNode`` — the paper's contribution — lives in
:mod:`repro.core.isp` and subclasses :class:`BlockingJoinNode` from here,
mirroring how ISP-MC subclasses Impala's ``BlockingJoinNode``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.cluster.metrics import TaskMetrics
from repro.cluster.model import CostModel, Resource
from repro.cluster.simulation import simulate_static_chunked
from repro.errors import ImpalaError
from repro.hdfs import SimulatedHDFS, read_split_lines
from repro.impala.catalog import Table
from repro.impala.rowbatch import BATCH_SIZE, PairBatch, RowBatch
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

    def batches(self) -> Iterator[RowBatch]:
        batch = RowBatch(capacity=self.batch_size)
        rows_out = 0
        REGISTRY.inc("impala.scan_ranges", len(self.scan_ranges))
        for offset, length in self.scan_ranges:
            self.ctx.charge_parallel(Resource.HDFS_BYTES, length)
            for line in read_split_lines(self.hdfs, self.table.path, offset, length):
                row = self.table.parse_row(line)
                if row is None:
                    self.rows_skipped += 1
                    continue
                if self.row_filter is not None and not self.row_filter(row):
                    continue
                batch.add(row)
                rows_out += 1
                if batch.is_full:
                    yield batch
                    batch = RowBatch(capacity=self.batch_size)
        if len(batch):
            yield batch
        REGISTRY.inc("impala.rows_scanned", rows_out)
        REGISTRY.inc("impala.rows_skipped", self.rows_skipped)


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
        build_rows: list[tuple],
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

    def probe_batch(self, batch: RowBatch) -> RowBatch | PairBatch:
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
    COUNT DISTINCT -> set.
    """

    def __init__(self, key_getters, specs):
        self.key_getters = key_getters
        self.specs = specs
        self.groups: dict[tuple, list] = {}

    def _new_states(self) -> list:
        states = []
        for name, _, distinct in self.specs:
            if name == "COUNT" and distinct:
                states.append(set())
            elif name == "COUNT":
                states.append(0)
            elif name == "AVG":
                states.append((0.0, 0))
            else:
                states.append(None)  # SUM/MIN/MAX start empty
        return states

    def accumulate(self, row: tuple) -> None:
        """Fold one input row into its group's states."""
        key = tuple(getter(row) for getter in self.key_getters)
        states = self.groups.get(key)
        if states is None:
            states = self._new_states()
            self.groups[key] = states
        for i, (name, getter, distinct) in enumerate(self.specs):
            value = getter(row) if getter is not None else 1
            if name == "COUNT":
                if distinct:
                    if value is not None:
                        states[i].add(value)
                elif getter is None or value is not None:
                    states[i] += 1
            elif value is None:
                continue
            elif name == "SUM":
                states[i] = value if states[i] is None else states[i] + value
            elif name == "MIN":
                states[i] = value if states[i] is None else min(states[i], value)
            elif name == "MAX":
                states[i] = value if states[i] is None else max(states[i], value)
            elif name == "AVG":
                total, count = states[i]
                states[i] = (total + value, count + 1)
            else:
                raise ImpalaError(f"unknown aggregate {name!r}")

    def merge(self, key: tuple, states: list) -> None:
        """Fold another aggregator's partial states (the merge phase)."""
        mine = self.groups.get(key)
        if mine is None:
            self.groups[key] = list(states)
            return
        for i, (name, _, distinct) in enumerate(self.specs):
            theirs = states[i]
            if name == "COUNT" and distinct:
                mine[i] |= theirs
            elif name == "COUNT":
                mine[i] += theirs
            elif theirs is None:
                continue
            elif name == "SUM":
                mine[i] = theirs if mine[i] is None else mine[i] + theirs
            elif name == "MIN":
                mine[i] = theirs if mine[i] is None else min(mine[i], theirs)
            elif name == "MAX":
                mine[i] = theirs if mine[i] is None else max(mine[i], theirs)
            elif name == "AVG":
                total, count = mine[i]
                mine[i] = (total + theirs[0], count + theirs[1])

    def partials(self) -> Iterator[tuple[tuple, list]]:
        """Yield (group_key, states) pairs for the exchange."""
        yield from self.groups.items()

    def finalize(self) -> Iterator[tuple]:
        """Yield final output rows: group key values then aggregate values."""
        for key, states in self.groups.items():
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
            yield key + tuple(values)
