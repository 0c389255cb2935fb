"""SpatialSpark's broadcast spatial join — the port of the paper's Fig 2.

The right (smaller) side is collected to the driver, packed into an
STR-tree whose envelopes are expanded by the NearestD radius, broadcast to
every executor, and probed by a ``flatMap`` over the left side.  The
skeleton below deliberately mirrors the Scala code in Fig 2 line for line:

=====================================  =====================================
Fig 2 (Scala)                          here
=====================================  =====================================
``sc.textFile(...).map(_.split)``      :func:`read_geometry_pairs`
``.zipWithIndex()``                    ``.zip_with_index()``
``Try(new WKTReader().read(...))``     ``parse_wkt_column`` (drops counted)
``val strtree = new STRtree()``        :class:`~repro.core.probe.BroadcastIndex`
``y.expandBy(radius)``                 ``BroadcastIndex(radius=...)``
``sc.broadcast(strtree)``              ``sc.broadcast(index)``
``leftGeometryWithId.flatMap(...)``    ``left.flat_map(probe)``
=====================================  =====================================
"""

from __future__ import annotations

from typing import Any

from repro.cluster.model import Resource
from repro.columnar.column import GeometryColumn
from repro.columnar.io import parse_wkt_column
from repro.core.operators import SpatialOperator
from repro.core.probe import cached_index, gather, index_cache_key
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry import wkb as wkb_mod
from repro.obs.events import install_event_log
from repro.obs.registry import REGISTRY
from repro.obs.tracer import get_tracer
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD
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

    Each partition is parsed in one bulk pass
    (:func:`~repro.columnar.io.parse_wkt_column`); the charges stay per
    row.  Every partition comes back as :class:`ColumnRecords` — it
    iterates as ``(record_id, geometry)`` records for any RDD operator,
    and the joins read its column directly.
    """

    def parse_partition(pairs):
        task = current_task()
        texts: list[str] = []
        record_ids: list[int] = []
        skipped = 0
        for fields, record_id in pairs:
            if geometry_index >= len(fields):
                skipped += 1
                continue
            text = fields[geometry_index]
            task.add(Resource.WKT_BYTES, len(text) * cost_weight)
            # Two pipeline hops per record (zipWithIndex pass + parse pass).
            task.add(Resource.RDD_RECORDS, 2.0)
            texts.append(text)
            record_ids.append(record_id)
        column, dropped = parse_wkt_column(texts, record_ids)
        skipped += len(dropped)
        if skipped:
            REGISTRY.inc("spark.rows_skipped", skipped)
        return ColumnRecords(column)

    if num_partitions is None:
        # Spark's rule of thumb: ~2 tasks per core keeps the dynamic
        # scheduler's waves balanced (the a1 ablation varies this).
        num_partitions = sc.default_parallelism
    data = sc.text_file(path, num_partitions).map(
        lambda line: line.split(separator)
    ).zip_with_index()
    return data.map_partitions(parse_partition)


class ColumnRecords:
    """A parsed partition: ``(record_id, geometry)`` records over a column.

    It is its own iterator, so it survives ``MapPartitionsRDD.compute``'s
    ``iter()`` and reaches the next operator as itself: one that wants
    the rows packed reads ``column`` (the whole partition), any other
    just iterates, and gets one geometry built per record consumed.
    """

    __slots__ = ("column", "_records")

    def __init__(self, column: GeometryColumn):
        self.column = column
        self._records = column.entries()

    def __iter__(self) -> "ColumnRecords":
        return self

    def __next__(self) -> tuple[int, Geometry]:
        return next(self._records)


def partition_column(records) -> GeometryColumn:
    """One partition of ``(id, geometry)`` records as a column, ids as
    payloads: a parsed partition's own, anything else packed once."""
    if isinstance(records, ColumnRecords):
        return records.column
    return GeometryColumn.from_entries(records)


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

    Each task runs its partition's probes through the batched
    filter+refine pipeline (:meth:`BroadcastIndex.probe_pairs`) — one bulk
    index probe, then one pair-kernel call over the candidate pairs (point
    probes under Within / NearestD, polyline / polygon probes under
    Intersects) — and gathers the matching pairs' ids once.
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
    cache = sc.cache
    kind = "spark-broadcast-index"
    cache_key = (
        index_cache_key(kind, right_local, operator, radius, engine)
        if cache is not None
        else None
    )
    with tracer.span("build-index", category="phase") as build_span:
        # The scheduler installs the context's event log only inside
        # run_job; this driver-side section installs it too so cache
        # hit/miss events reach the same events.jsonl stream.
        with install_event_log(sc.event_log):
            index = cached_index(
                cache, kind, right_local, operator, radius, engine, key=cache_key
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
            index, cost_weight=build_cost_weight, fingerprint=cache_key
        )
        bc_span.add_sim(sc.broadcast_overhead_seconds - ship_before)

    def query_rtree_partition(rows):
        # A freshly parsed partition is probed as it is: packed
        # coordinates, no geometry object ever built.
        probes = partition_column(rows)
        if not len(probes):
            return []
        index = index_broadcast.value
        found, entries, units = index.probe_pairs(probes)
        current_task().add_columns(units)
        return list(zip(gather(probes.payloads(), found), index.entry_payloads(entries)))

    return left.map_partitions(query_rtree_partition)


# The paper's object name, for Fig 2-style call sites.
BroadcastSpatialJoin = broadcast_spatial_join
