"""ISP-MC: the indexed SpatialJoin exec node plugged into mini-Impala.

Fig 3 of the paper shows the four ISP-MC components; this module is the
third and fourth: the ``SpatialJoin`` subclass of Impala's blocking join
(build an in-memory R-tree from the broadcast right side, probe it with
every left row batch) and the OpenMP-style multi-core refinement over row
batches.  Both sides parse WKT a column at a time, through
:func:`~repro.columnar.io.parse_wkt_column` (:func:`build_spatial_index`,
:func:`probe_wkt_blocks`), as standalone ISP-MC does.  The frontend
keyword and plan wiring live in :mod:`repro.impala.planner`; the static
inter-node scheduling lives in :mod:`repro.impala.coordinator`.
"""

from __future__ import annotations

from itertools import chain, compress, islice, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.cluster.metrics import scatter_units
from repro.cluster.model import Resource
from repro.columnar import io as columnar_io
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex, unit_slices
from repro.impala.exec_nodes import BlockingJoinNode, ExecNode, InstanceContext
from repro.impala.rowbatch import BATCH_SIZE, ColumnBatch
from repro.obs.registry import REGISTRY

__all__ = ["build_spatial_index", "probe_wkt_blocks", "probe_wkt_rows", "SpatialJoinNode"]


def build_spatial_index(
    build_rows: Iterable[tuple],
    geometry_slot: int,
    operator: SpatialOperator,
    radius: float,
    engine: str = "slow",
) -> tuple[BroadcastIndex, int, int]:
    """Build the broadcast R-tree over the right side's WKT geometry column.

    Returns ``(index, wkt_bytes_parsed, rows_dropped)``; an entry's
    payload is its row's position in ``build_rows`` (a
    :class:`~repro.impala.rowbatch.ColumnBatch` hands its column over
    whole).  A row too short for the slot, a value that is no string or
    no WKT, and a type no join can evaluate (a ``GEOMETRYCOLLECTION``)
    are dropped, matching the scanners' dirty-row policy.
    The paper notes this parse ("building an R-Tree for all tuples of the
    table on the right side") is one of ISP-MC's three string-parsing
    costs — the byte count lets the coordinator charge it per instance.
    """
    if isinstance(build_rows, ColumnBatch):
        # A batch of no rows (no scan batch at all) holds no columns.
        texts = build_rows.column(geometry_slot) if len(build_rows) else []
    else:
        texts = [row[geometry_slot] if len(row) > geometry_slot else None for row in build_rows]
    column, dropped = columnar_io.parse_wkt_column(texts, range(len(texts)))
    wkt_bytes = sum(len(text) for text in texts if isinstance(text, str))
    index = BroadcastIndex(column, operator, radius=radius, engine=engine)
    return index, wkt_bytes, len(dropped)


def probe_wkt_rows(
    index: BroadcastIndex, texts: Iterable[object]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Probe one row batch's WKT column: bulk-parse, then
    :meth:`~repro.core.probe.BroadcastIndex.probe_pairs`.

    Returns ``(kept, rows, entries, units)``, the arrays int64.  ``kept``
    lists the positions whose value parsed; any other row — not a string,
    or not WKT a join can evaluate — is dropped: it has no pairs and its
    units hold only the parse charge.  Position ``rows[k]`` matches build
    row ``entries[k]``, in :meth:`probe_pairs` order.  ``units`` are unit
    columns, one entry per position, keyed ``WKT_BYTES, INDEX_VISIT,
    ROWS_OUT, REFINE_*`` in that order — row ``i`` is exactly what
    parsing the row and probing it alone charges — so
    :meth:`~repro.cluster.model.CostModel.row_seconds` gives each row's
    simulated seconds, and with them the OpenMP static-chunk makespans
    behind Tables 1-2, bit for bit as the row loop did.
    """
    return probe_wkt_blocks(index, [list(texts)])[0]


def probe_wkt_blocks(
    index: BroadcastIndex, blocks: Sequence[Sequence[object]]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]]:
    """:func:`probe_wkt_rows` over several row batches' WKT columns: one
    :func:`~repro.columnar.io.parse_wkt_column` call over every batch's
    values, one :meth:`~repro.core.probe.BroadcastIndex.probe_pairs`
    call over the column, and one cut of the outcome at the batches'
    stops.

    Block ``b``'s outcome equals ``probe_wkt_rows(index, blocks[b])``
    alone — positions numbered within the block, the same units under
    the same keys — because a row's parse, pairs and units do not depend
    on the rows beside it: the block has a ``WKT_BYTES`` column when one
    of its values is a string, the probe's columns when one of its rows
    parsed, and a vertex or allocation column only when one of its rows
    is charged one.
    """
    texts = list(chain.from_iterable(blocks))
    # Row positions ride along as payloads, so the kept rows say where
    # they came from.
    column, _ = columnar_io.parse_wkt_column(texts, range(len(texts)))
    rows, entries, probe_units = index.probe_pairs(column)
    kept = np.array(column.payloads(), dtype=np.int64)
    strings = np.fromiter(map(isinstance, texts, repeat(str)), dtype=bool, count=len(texts))
    lengths = np.zeros(len(texts))
    lengths[strings] = np.fromiter(map(len, compress(texts, strings)), dtype=np.float64)
    stops = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    charge = unit_slices(scatter_units(probe_units, kept, len(texts)), stops)
    kept_stops = np.searchsorted(kept, stops).tolist()
    pair_stops = np.searchsorted(rows, kept_stops).tolist()
    outcomes = []
    for b in range(len(blocks)):
        start, stop = stops[b], stops[b + 1]
        units = {Resource.WKT_BYTES: lengths[start:stop]} if strings[start:stop].any() else {}
        if kept_stops[b + 1] > kept_stops[b]:
            units.update(charge(b))
        lo, hi = pair_stops[b], pair_stops[b + 1]
        outcomes.append(
            (
                kept[kept_stops[b] : kept_stops[b + 1]] - start,
                kept[rows[lo:hi]] - start,
                entries[lo:hi],
                units,
            )
        )
    return outcomes


class SpatialJoinNode(BlockingJoinNode):
    """Indexed nested-loop spatial join over row batches (Fig 3's core).

    The build side arrives pre-indexed (the coordinator builds one
    :class:`~repro.core.probe.BroadcastIndex` and charges every instance
    for its own copy, as each real Impala instance builds its own tree
    from the broadcast stream).  Each probe batch is consumed whole —
    parse the left WKT column, bulk-query the R-tree, refine the candidate
    pairs with the engine's pair kernels — with per-row costs recorded so
    the batch's duration reflects OpenMP *static* chunking across the
    node's cores; :meth:`probe_ahead` computes those outcomes for several
    nodes' batches at once, leaving each node only to charge and gather.
    The joined rows leave as a :class:`~repro.impala.rowbatch.ColumnBatch`:
    the probe batch's columns taken at the matching probe rows beside
    the columns of ``build`` — the build rows the index holds, row ``k``
    its entry ``k`` — taken at the matching entries.  Rows whose WKT is
    dropped are counted in ``rows_dropped`` and in the
    ``impala.rows_skipped`` registry counter.
    """

    def __init__(
        self,
        ctx: InstanceContext,
        probe: ExecNode,
        index: BroadcastIndex,
        build: ColumnBatch,
        probe_geometry_slot: int,
        build_cost_weight: float = 1.0,
        batch_size: int = BATCH_SIZE,
    ):
        super().__init__(ctx, probe, build_rows=build, batch_size=batch_size)
        self.index = index
        self.probe_geometry_slot = probe_geometry_slot
        self.build_cost_weight = build_cost_weight
        self.rows_dropped = 0
        self._probes: Iterator[tuple] | None = None

    @staticmethod
    def probe_ahead(joins: Sequence["SpatialJoinNode"]) -> None:
        """Read every join's probe scan ahead
        (:meth:`~repro.impala.exec_nodes.ScanNode.read_ahead`) and probe
        all their row batches with one :func:`probe_wkt_blocks` call, one
        block per row batch.  Computes only: each join then charges its
        batches' outcomes, in order, as its scan yields them.  The joins
        share one index; each one's probe child is a scan whose filter
        charges nothing."""
        if not joins:
            return
        batches = [join.probe.read_ahead() for join in joins]
        outcomes = iter(
            probe_wkt_blocks(
                joins[0].index,
                [
                    batch.column(join.probe_geometry_slot)
                    for join, group in zip(joins, batches)
                    for batch in group
                ],
            )
        )
        for join, group in zip(joins, batches):
            join._probes = iter(list(islice(outcomes, len(group))))

    def build(self) -> None:
        """Charge this instance for its copy of the broadcast index."""
        self.ctx.charge_serial(
            Resource.INDEX_BUILD, len(self.index) * self.build_cost_weight
        )

    def probe_batch(self, batch: ColumnBatch) -> ColumnBatch:
        if self._probes is not None:
            kept, rows, entries, units = next(self._probes)
        else:
            kept, rows, entries, units = probe_wkt_rows(
                self.index, batch.column(self.probe_geometry_slot)
            )
        dropped = len(batch) - len(kept)
        if dropped:
            self.rows_dropped += dropped
            REGISTRY.inc("impala.rows_skipped", dropped)
        self.ctx.charge_batch(units, len(batch))
        return batch.take(rows).beside(self.build_rows.take(entries))
