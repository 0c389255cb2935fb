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

import numpy as np

from repro.cluster.metrics import scatter_units
from repro.cluster.model import Resource
from repro.columnar.column import GeometryColumn
from repro.columnar.io import parse_wkt_column
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.geometry.wkt import WKTReader
from repro.impala.exec_nodes import BlockingJoinNode, ExecNode, InstanceContext
from repro.impala.rowbatch import BATCH_SIZE, PairBatch, RowBatch, object_columns
from repro.obs.registry import REGISTRY

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
    texts = list(texts)
    lengths = [float(len(text)) if isinstance(text, str) else None for text in texts]
    units = {}
    if any(length is not None for length in lengths):
        units[Resource.WKT_BYTES] = np.array([length or 0.0 for length in lengths])
    # Row positions ride along as payloads, so the kept rows say where
    # they came from.
    probes, _ = parse_wkt_column(texts, range(len(texts)))
    rows, entries, probe_units = index.probe_pairs(probes)
    kept = np.array(probes.payloads(), dtype=np.int64)
    units.update(scatter_units(probe_units, kept.tolist(), len(texts)))
    return kept, kept[rows], entries, units


class SpatialJoinNode(BlockingJoinNode):
    """Indexed nested-loop spatial join over row batches (Fig 3's core).

    The build side arrives pre-indexed (the coordinator builds one
    :class:`~repro.core.probe.BroadcastIndex` and charges every instance
    for its own copy, as each real Impala instance builds its own tree
    from the broadcast stream).  Each probe batch is consumed whole —
    parse the left WKT column, bulk-query the R-tree, refine the candidate
    pairs with the engine's pair kernels — with per-row costs recorded so
    the batch's duration reflects OpenMP *static* chunking across the
    node's cores.  The joined rows leave as a
    :class:`~repro.impala.rowbatch.PairBatch`: the probe batch's columns
    taken at the matching probe rows beside the build rows' columns
    (materialised once, in :meth:`build`) taken at the matching build
    rows.  Rows whose WKT is dropped are counted in ``rows_dropped`` and
    in the ``impala.rows_skipped`` registry counter.
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
        self._build_columns: list[np.ndarray] = []

    def build(self) -> None:
        """Charge this instance for its copy of the broadcast index, and
        lay the build rows out as columns."""
        self.ctx.charge_serial(
            Resource.INDEX_BUILD, len(self.index) * self.build_cost_weight
        )
        build_rows = self.index.entry_payloads(np.arange(len(self.index)))
        if build_rows:
            self._build_columns = object_columns(build_rows, len(build_rows[0]))

    def probe_batch(self, batch: RowBatch) -> PairBatch:
        kept, rows, entries, units = probe_wkt_rows(
            self.index, batch.column(self.probe_geometry_slot)
        )
        dropped = len(batch) - len(kept)
        if dropped:
            self.rows_dropped += dropped
            REGISTRY.inc("impala.rows_skipped", dropped)
        self.ctx.charge_batch(units, len(batch))
        probe_columns = object_columns(batch.rows, len(batch.rows[0]) if len(batch) else 0)
        return PairBatch(
            [column[rows] for column in probe_columns]
            + [column[entries] for column in self._build_columns]
        )
