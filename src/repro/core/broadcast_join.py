"""SpatialSpark's broadcast spatial join — the port of the paper's Fig 2.

The right (smaller) side is collected to the driver, packed into an
STR-tree whose envelopes are expanded by the NearestD radius, broadcast to
every executor, and probed by a ``flatMap`` over the left side.  The
skeleton below mirrors the Scala code in Fig 2 step for step; each step
takes a whole partition (a block) where Fig 2 takes a record:

=====================================  =====================================
Fig 2 (Scala)                          here
=====================================  =====================================
``sc.textFile(...)``                   ``sc.text_file(...)``: one line list
                                       per split
``.zipWithIndex()``                    ``.zip_with_index()``: a ``len`` per
                                       split, then a base index per block
``.map(_.split)``                      :func:`read_geometry_pairs`' split
                                       step: split and number the lines
``Try(new WKTReader().read(...))``     ``parse_wkt_column`` (drops counted),
                                       one call per inline stage
``val strtree = new STRtree()``        :class:`~repro.core.probe.BroadcastIndex`
``y.expandBy(radius)``                 ``BroadcastIndex(radius=...)``
``sc.broadcast(strtree)``              ``sc.broadcast(index)``
``leftGeometryWithId.flatMap(...)``    a :class:`~repro.spark.rdd.FusedPartitionsRDD`
                                       over ``left``: one
                                       :meth:`~repro.core.probe.BroadcastIndex.probe_blocks`
                                       per result stage
=====================================  =====================================

Both the parse and the probe are fused steps
(:class:`~repro.spark.rdd.FusedPartitionsRDD`): a stage whose tasks run
inline makes one parse call and one probe call for all its partitions.
Every charge is the record-at-a-time pipeline's: per-row ``WKT_BYTES`` /
``RDD_RECORDS`` and probe units reach each task as unit columns through
:meth:`~repro.cluster.metrics.TaskMetrics.add_columns`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cache.artifacts import fetch, slot_for
from repro.cluster.model import Resource
from repro.columnar.block import ColumnRecords, partition_column
from repro.columnar.column import GeometryColumn
from repro.columnar.io import parse_wkt_blocks
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex, gather
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry import wkb as wkb_mod
from repro.obs.events import install_event_log
from repro.obs.registry import REGISTRY
from repro.obs.tracer import get_tracer
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD, FusedPartitionsRDD
from repro.spark.taskcontext import current_task

__all__ = [
    "broadcast_spatial_join",
    "BroadcastSpatialJoin",
    "read_geometry_pairs",
    "read_geometry_pairs_wkb",
]


def read_geometry_pairs(
    sc: SparkContext,
    path: str,
    geometry_index: int,
    separator: str = "\t",
    num_partitions: int | None = None,
    cost_weight: float = 1.0,
) -> RDD[tuple[int, Geometry]]:
    """Load ``(record_index, geometry)`` pairs from a WKT text file.

    This is the pre-processing block of Fig 2: split each line on the
    separator, pair it with its global index, parse the geometry column,
    and *drop* rows whose WKT fails to parse (the ``Try``/``isSuccess``
    filter) instead of failing the job.  A row that parses to a type no
    join can evaluate (a ``GEOMETRYCOLLECTION``) is dropped the same way.
    Every dropped row is counted in ``spark.rows_skipped``.

    The parse is a fused step (:class:`~repro.spark.rdd.FusedPartitionsRDD`):
    each text split arrives as its line list and is split and numbered
    in its own task, then every split of an inline stage is parsed with
    one :func:`~repro.columnar.io.parse_wkt_blocks` call (a batch of one
    under a pool or a fault plan) and cut back per split — each split's
    column, unit columns and ``spark.rows_skipped`` those of parsing it
    alone.  Every partition comes back as
    :class:`~repro.columnar.block.ColumnRecords` — it iterates as
    ``(record_id, geometry)`` records for any RDD operator, and the joins
    read its column directly.

    A split is parsed once per RDD: the partitioned join's sample job and
    its left map stage, say, run over one parse.  The RDD keeps each
    successful parse by the split's base record index, and a later task
    of the split still reads its lines (``HDFS_BYTES`` and the ``hdfs.*``
    counters as before); if they equal the kept lines it is charged the
    kept parse's unit columns and ``spark.rows_skipped`` again, as if it
    had parsed them, otherwise (the file was rewritten) it parses anew.
    Under a pool a parse is kept in the worker that made it.
    """

    # Each successful parse, by its split's base record index: ``(lines,
    # column, units, skipped)``.  A later job over this RDD that reads the
    # same lines takes it instead of parsing again.
    parsed: dict[int, tuple] = {}

    def split_block(numbered):
        """One split's lines, split and numbered (read in its task) — or
        the kept parse of these very lines, as ``(None, kept)``."""
        lines, base = numbered.records, numbered.base
        kept = parsed.get(base)
        if kept is not None and kept[0] == lines:
            return None, kept
        texts: list[str] = []
        record_ids: list[int] = []
        for record_id, line in enumerate(lines, base):
            fields = line.split(separator)
            if geometry_index < len(fields):
                texts.append(fields[geometry_index])
                record_ids.append(record_id)
        return (lines, base, texts, record_ids), None

    def parse_blocks(blocks):
        """Every fresh block's texts parsed in one call, cut back per
        block; a kept parse passes through and is charged again."""
        fresh = [split for split, _ in blocks if split is not None]
        parsed_blocks = iter(
            parse_wkt_blocks(
                [texts for _, _, texts, _ in fresh], [ids for _, _, _, ids in fresh]
            ) if fresh else ()
        )
        outcomes = []
        for split, kept in blocks:
            if kept is None:
                lines, base, texts, _ = split
                column, dropped = next(parsed_blocks)
                # Two pipeline hops per record (zipWithIndex pass + parse pass).
                units = {
                    Resource.WKT_BYTES: np.fromiter(map(len, texts), np.float64, len(texts))
                    * cost_weight,
                    Resource.RDD_RECORDS: np.full(len(texts), 2.0),
                }
                skipped = len(lines) - len(texts) + len(dropped)
                kept = parsed[base] = (lines, column, units, skipped)
            _, column, units, skipped = kept
            if skipped:
                REGISTRY.inc("spark.rows_skipped", skipped)
            outcomes.append((ColumnRecords(column), units))
        return outcomes

    if num_partitions is None:
        # Spark's rule of thumb: ~2 tasks per core keeps the dynamic
        # scheduler's waves balanced (the a1 ablation varies this).
        num_partitions = sc.default_parallelism
    return FusedPartitionsRDD(
        sc.text_file(path, num_partitions).zip_with_index(), split_block, parse_blocks
    )


def read_geometry_pairs_wkb(
    sc: SparkContext,
    path: str,
    num_partitions: int | None = None,
    cost_weight: float = 1.0,
) -> RDD[tuple[int, Geometry]]:
    """Load ``(record_index, geometry)`` pairs from a binary WKB file.

    The paper's Section III future-work item, end to end: geometry stays
    binary on HDFS (paged record files) and in memory (numpy coordinate
    buffers), skipping string parsing entirely.  Decode cost is charged
    per WKB byte — roughly an order of magnitude below the WKT rate.
    Corrupt records, and records of a type no join can evaluate (a
    ``GeometryCollection``), are dropped and counted, mirroring the WKT
    dirty-row filter.
    """
    from repro.errors import WKBParseError

    def parse(pair: tuple[bytes, int]):
        payload, record_id = pair
        current_task().add(Resource.WKB_BYTES, len(payload) * cost_weight)
        try:
            geometry = wkb_mod.loads(payload)
        except WKBParseError:
            geometry = None
        if not GeometryColumn.holds(geometry):
            REGISTRY.inc("spark.rows_skipped")
            return []
        return [(record_id, geometry)]

    if num_partitions is None:
        num_partitions = sc.default_parallelism
    data = sc.binary_records(path, num_partitions).zip_with_index()
    return data.flat_map(parse)


def broadcast_spatial_join(
    sc: SparkContext,
    left: RDD[tuple[Any, Geometry]],
    right: RDD[tuple[Any, Geometry]],
    operator: SpatialOperator,
    radius: float = 0.0,
    engine: str = "fast",
    build_cost_weight: float = 1.0,
) -> RDD[tuple[Any, Any]]:
    """Join two (id, geometry) RDDs, returning matching (left_id, right_id).

    SpatialSpark pairs a JTS-like refinement engine (``engine="fast"``)
    with dynamic Spark scheduling; passing ``engine="slow"`` isolates the
    geometry-library axis for the ablation benchmarks.

    The probe side is a :class:`~repro.spark.rdd.FusedPartitionsRDD`:
    each task packs its partition into a column, and the partitions'
    columns go through the batched filter+refine pipeline together
    (:meth:`BroadcastIndex.probe_blocks`) — one bulk index probe, then
    one pair-kernel call over the candidate pairs (point probes under
    Within / NearestD, polyline / polygon probes under Intersects) — per
    result stage when its tasks run inline, per task otherwise.  Each
    task gets its own pairs' ids and is charged its own rows' units.
    """
    if operator.needs_radius and radius <= 0.0:
        raise ReproError(f"{operator} requires a positive radius")
    sc.record_plan({"join": "broadcast"})
    tracer = get_tracer()
    # Driver side: collect + bulk-load + broadcast (Fig 2's apply()).
    # The collect always runs (its tasks charge parse/pipeline costs);
    # only the STR-tree construction is skippable via the cross-query
    # cache, keyed on the collected content — and the build charge below
    # is billed either way, so simulated seconds never see the cache.
    with tracer.span("collect-build-side", category="phase"):
        right_local = right.collect()
    slot = slot_for(
        sc.cache, "spark-broadcast-index", right_local,
        operator=operator, radius=radius, engine=engine,
    )
    with tracer.span("build-index", category="phase") as build_span:
        # The scheduler installs the context's event log only inside
        # run_job; this driver-side section installs it too so cache
        # hit/miss events reach the same events.jsonl stream.
        with install_event_log(sc.event_log):
            index = fetch(
                slot, lambda: BroadcastIndex(right_local, operator, radius=radius, engine=engine)
            )
        build_units = {
            resource: units * build_cost_weight
            for resource, units in index.build_cost_units().items()
        }
        build_seconds = (
            sc.cost_model.task_seconds(build_units) * sc.cost_model.spark_jvm_factor
        )
        sc.broadcast_overhead_seconds += build_seconds
        build_span.add_sim(build_seconds)
        build_span.set_attr("index_entries", len(index))
    with tracer.span("broadcast", category="phase") as bc_span:
        ship_before = sc.broadcast_overhead_seconds
        index_broadcast = sc.broadcast(
            index, cost_weight=build_cost_weight, fingerprint=slot.key if slot else None
        )
        bc_span.add_sim(sc.broadcast_overhead_seconds - ship_before)

    def query_rtree_partitions(columns):
        # A freshly parsed partition's column is probed as it is: packed
        # coordinates, no geometry object ever built.
        index = index_broadcast.value
        return [
            (list(zip(gather(column.payloads(), found), index.entry_payloads(entries))), units)
            for column, (found, entries, units) in zip(columns, index.probe_blocks(columns))
        ]

    return FusedPartitionsRDD(left, partition_column, query_rtree_partitions)


# The paper's object name, for Fig 2-style call sites.
BroadcastSpatialJoin = broadcast_spatial_join
