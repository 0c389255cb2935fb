"""ISP-MC: the indexed SpatialJoin exec node plugged into mini-Impala.

Fig 3 of the paper shows the four ISP-MC components; this module is the
third and fourth: the ``SpatialJoin`` subclass of Impala's blocking join
(build an in-memory R-tree from the broadcast right side, probe it with
every left row batch) and the OpenMP-style multi-core refinement over row
batches.  The frontend keyword and plan wiring live in
:mod:`repro.impala.planner`; the static inter-node scheduling lives in
:mod:`repro.impala.coordinator`.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.model import Resource
from repro.columnar.column import GeometryColumn
from repro.columnar.io import parse_wkt_column
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.geometry.wkt import WKTReader
from repro.impala.exec_nodes import BlockingJoinNode, ExecNode, InstanceContext
from repro.impala.rowbatch import BATCH_SIZE, RowBatch

__all__ = ["build_spatial_index", "probe_wkt_rows", "SpatialJoinNode"]

_READER = WKTReader()


def build_spatial_index(
    build_rows: Iterable[tuple],
    geometry_slot: int,
    operator: SpatialOperator,
    radius: float,
    engine: str = "slow",
) -> tuple[BroadcastIndex, int, int]:
    """Build the broadcast R-tree over the right side's WKT geometry column.

    Returns ``(index, wkt_bytes_parsed, rows_dropped)``.  Rows whose WKT
    fails to parse, or parses to a type no join can evaluate (a
    ``GEOMETRYCOLLECTION``), are dropped, matching the scanners'
    dirty-row policy.
    The paper notes this parse ("building an R-Tree for all tuples of the
    table on the right side") is one of ISP-MC's three string-parsing
    costs — the byte count lets the coordinator charge it per instance.
    """
    entries = []
    wkt_bytes = 0
    dropped = 0
    for row in build_rows:
        text = row[geometry_slot]
        if not isinstance(text, str):
            dropped += 1
            continue
        wkt_bytes += len(text)
        geometry = _READER.try_read(text)
        if not GeometryColumn.holds(geometry):
            dropped += 1
            continue
        entries.append((row, geometry))
    index = BroadcastIndex(entries, operator, radius=radius, engine=engine)
    return index, wkt_bytes, dropped


def probe_wkt_rows(
    index: BroadcastIndex, texts: Iterable[object]
) -> tuple[list[list | None], list[dict[str, float]]]:
    """Probe one row batch's WKT column: bulk-parse, bulk-probe, batch-refine.

    Returns ``(matches_per_row, units_per_row)``.  A row whose value is
    not a string or fails to parse is dropped: its matches slot is
    ``None`` and its units hold only the parse charge.  Each unit dict is
    keyed ``WKT_BYTES, INDEX_VISIT, ROWS_OUT, REFINE_*`` in that order —
    exactly what parsing the row and calling ``probe_with_cost`` on it
    charges — so per-row simulated seconds, and with them the OpenMP
    static-chunk makespans behind Tables 1-2, are those of the row loop.
    """
    texts = list(texts)
    units_per_row: list[dict[str, float]] = [
        {Resource.WKT_BYTES: float(len(text))} if isinstance(text, str) else {}
        for text in texts
    ]
    # Row positions ride along as payloads, so the kept rows say where
    # they came from.
    probes, _ = parse_wkt_column(texts, range(len(texts)))
    matches, probe_units = index.probe_batch(probes, per_row=True)
    matches_per_row: list[list | None] = [None] * len(texts)
    for row, row_matches, units in zip(probes.payloads(), matches, probe_units):
        matches_per_row[row] = row_matches
        units_per_row[row].update(units)
    return matches_per_row, units_per_row


class SpatialJoinNode(BlockingJoinNode):
    """Indexed nested-loop spatial join over row batches (Fig 3's core).

    The build side arrives pre-indexed (the coordinator builds one
    :class:`~repro.core.probe.BroadcastIndex` and charges every instance
    for its own copy, as each real Impala instance builds its own tree
    from the broadcast stream).  Each probe batch is consumed whole —
    parse the left WKT column, bulk-query the R-tree, refine with the
    engine's batch kernels — with per-row costs recorded so the batch's
    duration reflects OpenMP *static* chunking across the node's cores.
    """

    def __init__(
        self,
        ctx: InstanceContext,
        probe: ExecNode,
        index: BroadcastIndex,
        probe_geometry_slot: int,
        build_cost_weight: float = 1.0,
        batch_size: int = BATCH_SIZE,
    ):
        super().__init__(ctx, probe, build_rows=[], batch_size=batch_size)
        self.index = index
        self.probe_geometry_slot = probe_geometry_slot
        self.build_cost_weight = build_cost_weight
        self.rows_dropped = 0

    def build(self) -> None:
        """Charge this instance for its copy of the broadcast index."""
        self.ctx.charge_serial(
            Resource.INDEX_BUILD, len(self.index) * self.build_cost_weight
        )

    def probe_batch(self, batch: RowBatch) -> list[tuple]:
        matches_per_row, units_per_row = probe_wkt_rows(
            self.index, batch.column(self.probe_geometry_slot)
        )
        joined: list[tuple] = []
        for left_row, matches in zip(batch.rows, matches_per_row):
            if matches is None:
                self.rows_dropped += 1
                continue
            for right_row in matches:
                joined.append(left_row + right_row)
        self.ctx.charge_batch(units_per_row)
        return joined
