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
``.map(_.split)``                      :func:`read_geometry_pairs`: every
                                       split's lines split and numbered
                                       in one pass per inline stage
the ``Try(...)``-wrapped WKT read      ``parse_wkt_column`` (drops counted)
                                       into one column per inline stage
``val strtree = new STRtree()``        :class:`~repro.core.probe.BroadcastIndex`
``y.expandBy(radius)``                 ``BroadcastIndex(radius=...)``
``sc.broadcast(strtree)``              ``sc.broadcast(index)``
``leftGeometryWithId.flatMap(...)``    a :class:`~repro.spark.rdd.FusedPartitionsRDD`
                                       over ``left``: one
                                       :meth:`~repro.core.probe.BroadcastIndex.probe_pairs`
                                       over the parse's column per
                                       result stage
=====================================  =====================================

Both the parse and the probe are fused steps
(:class:`~repro.spark.rdd.FusedPartitionsRDD`), so a stage whose tasks
run inline hands one :class:`~repro.spark.rdd.StageBatch` from the parse
to the probe: one parse call, one probe call, no column cut or glued
back between them.  The stage is cut per task at the end — each task
takes its slice of the pair list — and every task is charged its rows'
``WKT_BYTES`` / ``RDD_RECORDS`` and probe units at once, as one table
(:func:`~repro.cluster.metrics.charge_members`), every count the
record-at-a-time pipeline's, bit for bit.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

import numpy as np

from repro.cache.artifacts import fetch, slot_for
from repro.cluster.model import Resource
from repro.columnar.block import ColumnRecords, batch_column, partition_column
from repro.columnar.column import GeometryColumn
from repro.columnar import io as columnar_io
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex, gather, unit_slices
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry import wkb as wkb_mod
from repro.hdfs import split_fields
from repro.obs.events import install_event_log
from repro.obs.registry import REGISTRY
from repro.obs.tracer import get_tracer
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD, FusedPartitionsRDD, StageBatch
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
    each text split arrives in its own task as its numbered line list,
    then every split of an inline stage is split into fields and parsed
    with one :func:`~repro.columnar.io.parse_wkt_column` call into one
    column (a batch of one under a pool or a fault plan) — a
    :class:`~repro.spark.rdd.StageBatch` whose per-row ``WKT_BYTES`` /
    ``RDD_RECORDS`` columns and ``spark.rows_skipped`` are, split by
    split, those of parsing it alone.  A join's probe or route takes that
    column as it is; any other consumer gets each partition as
    :class:`~repro.columnar.block.ColumnRecords` over its rows — it
    iterates as ``(record_id, geometry)`` records for any RDD operator.

    A split is parsed once per RDD: the partitioned join's sample job and
    its left map stage, say, run over one parse.  The RDD keeps each
    successful parse by the split's ``(offset, length)`` with the file's
    :class:`~repro.hdfs.FileStatus` it was read under, not the lines.  A
    later task of the split still reads it (``HDFS_BYTES`` and the
    ``hdfs.*`` counters as before).  A job whose splits are consecutive
    members of one earlier batch, in its order, from the same file (a
    rewrite makes a new ``FileStatus``), takes those members and is
    charged their unit columns and ``spark.rows_skipped`` again, as if
    it had parsed them; any other job parses all its splits anew.  Under
    a pool a parse is kept in the worker that made it.
    """

    # Each successful parse, by the ``(offset, length)`` of its split:
    # ``(status, batch, member, skipped)`` — the file version
    # (:class:`~repro.hdfs.FileStatus`) the split was read from, and its
    # place in the batch that parsed it.  A later job over this RDD whose
    # splits are a run of one batch's members, read from the same file
    # version, takes them instead of parsing again.
    parsed: dict[tuple[int, int], tuple] = {}

    def split_block(numbered):
        """One split's numbered lines (read in its task), and its kept
        parse if that was read from the same file version."""
        lines = numbered.records
        kept = parsed.get(lines.split)
        return numbered, kept if kept is not None and kept[0] is lines.status else None

    def parse_blocks(batch):
        """Every split's lines split and parsed in one call, into one
        column — or, when the splits are consecutive members of one
        earlier parse, in its order, those members, charged again."""
        blocks = batch.rows
        kept = [kept for _, kept in blocks]
        first = kept[0]
        if first is None or any(
            k is None or k[1] is not first[1] or k[2] != first[2] + offset
            for offset, k in enumerate(kept)
        ):
            kept = parse_fresh([numbered for numbered, _ in blocks])
        for _, _, _, skipped in kept:
            if skipped:
                REGISTRY.inc("spark.rows_skipped", skipped)
        _, parse, member, _ = kept[0]
        return parse if len(kept) == len(parse) else _members(parse, member, len(kept))

    def parse_fresh(blocks):
        """Parse ``blocks`` into one batch; keep and return each one's
        ``(status, batch, member, skipped)``."""
        texts, record_ids, text_stops = _geometry_texts(blocks, separator, geometry_index)
        column, dropped = columnar_io.parse_wkt_column(texts, record_ids)
        drop_stops = np.searchsorted(dropped, text_stops)
        # Two pipeline hops per record (zipWithIndex pass + parse pass).
        units = {
            Resource.WKT_BYTES: np.fromiter(map(len, texts), np.float64, len(texts))
            * cost_weight,
            Resource.RDD_RECORDS: np.full(len(texts), 2.0),
        }
        parse = StageBatch(
            column,
            (np.array(text_stops) - drop_stops).tolist(),
            ColumnRecords,
            (unit_slices(units, text_stops),),
        )
        drops = np.diff(drop_stops).tolist()
        kept = []
        for member, numbered in enumerate(blocks):
            lines = numbered.records
            num_texts = text_stops[member + 1] - text_stops[member]
            skipped = len(lines) - num_texts + drops[member]
            kept.append((lines.status, parse, member, skipped))
            parsed[lines.split] = kept[-1]
        return kept

    if num_partitions is None:
        # Spark's rule of thumb: ~2 tasks per core keeps the dynamic
        # scheduler's waves balanced (the a1 ablation varies this).
        num_partitions = sc.default_parallelism
    return FusedPartitionsRDD(
        sc.text_file(path, num_partitions).zip_with_index(), split_block, parse_blocks
    )


def _geometry_texts(
    blocks: list, separator: str, geometry_index: int
) -> tuple[list[str], list[int], list[int]]:
    """The WKT field of every numbered line of ``blocks`` that has one,
    its record id, and each block's stop in that list.

    When every line has exactly the fields up to the geometry's, all the
    blocks' lines are split at once (:func:`~repro.hdfs.split_fields`,
    the Impala scan's splitter); otherwise each line is split on its own,
    and a line with too few fields has no geometry.
    """
    lines = [numbered.records for numbered in blocks]
    fields = split_fields(list(chain.from_iterable(lines)), separator, geometry_index + 1)
    if fields is not None:
        record_ids = chain.from_iterable(
            range(numbered.base, numbered.base + len(numbered.records)) for numbered in blocks
        )
        text_stops = np.cumsum([0, *map(len, lines)]).tolist()
        return fields[geometry_index], list(record_ids), text_stops
    texts: list[str] = []
    record_ids: list[int] = []
    text_stops = [0]
    for numbered in blocks:
        for record_id, line in enumerate(numbered.records, numbered.base):
            row = line.split(separator, geometry_index + 1)
            if geometry_index < len(row):
                texts.append(row[geometry_index])
                record_ids.append(record_id)
        text_stops.append(len(texts))
    return texts, record_ids, text_stops


def _members(parse: StageBatch, first: int, count: int) -> StageBatch:
    """Members ``first:first + count`` of a parse on their own — their
    rows of its column, each charged as in the parse — for a job over
    some of its splits (``take`` computes one partition per job)."""
    stops = parse.stops[first : first + count + 1]
    [charge] = parse.charges
    return StageBatch(
        parse.rows.slice(stops[0], stops[-1]),
        [stop - stops[0] for stop in stops],
        ColumnRecords,
        (charge.cut(charge.stops[first : first + count + 1]),),
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
    it takes a parse's column as it is (any other left side is packed
    into a column per partition), and the whole batch goes through the
    filter+refine pipeline in one :meth:`BroadcastIndex.probe_pairs`
    call — one bulk index probe, then one pair-kernel call over the
    candidate pairs (point probes under Within / NearestD, polyline /
    polygon probes under Intersects) — per result stage when its tasks
    run inline, per task otherwise.  Each task gets its own pairs' ids
    and is charged its own rows' units.
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

    def query_rtree_partitions(batch):
        # The parse's column is probed as it is: packed coordinates, no
        # geometry object ever built.
        column, stops = batch_column(batch)
        index = index_broadcast.value
        rows, entries, units = index.probe_pairs(column)
        pairs = list(zip(gather(column.payloads(), rows), index.entry_payloads(entries)))
        return StageBatch(
            pairs,
            np.searchsorted(rows, stops).tolist(),
            _pair_slice,
            (*batch.charges, unit_slices(units, stops)),
        )

    return FusedPartitionsRDD(left, partition_column, query_rtree_partitions)


def _pair_slice(pairs: list, start: int, stop: int) -> list:
    """A member's pairs: its slice of the batch's pair list."""
    return pairs[start:stop]


# The paper's object name, for Fig 2-style call sites.
BroadcastSpatialJoin = broadcast_spatial_join
