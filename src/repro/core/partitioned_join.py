"""SpatialSpark's partitioned spatial join.

The broadcast join requires the build side to fit on one node; when both
sides are large, SpatialSpark (like SpatialHadoop and HadoopGIS, Section
II) spatially partitions *both* sides, co-locates overlapping partitions
with a shuffle, and runs an indexed join inside each tile.  Duplicate
pairs — possible because objects of either side are replicated to every
tile they overlap — are suppressed with the owner rule: of the tiles both
sides of a pair reach, only the lowest-indexed one emits it.

Rows move a block at a time, and every stage batches its blocks when its
tasks run inline (:class:`~repro.spark.rdd.FusedPartitionsRDD`; under a
pool or a fault plan each partition is a batch of one).  A map stage
parses its side into one column and routes that column as it is, with
one batch-router call over its bounding boxes, bucketing all the routed
rows by (partition, tile) in one pass (:meth:`RoutedRows.route
<repro.columnar.block.RoutedRows.route>`); each map task then cuts its
own column-slice shuffle blocks.  A side read by
:func:`~repro.core.broadcast_join.read_geometry_pairs` is parsed once
for the sample job and its map stage together.  The tile stage prepares
the distinct right rows its tiles slice once and probes every tile in
one :meth:`~repro.core.probe.PreparedBuild.probe_tiles` call: every
tile's STR-tree is packed into one
:class:`~repro.index.rtree.STRForest` and walked in one query.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cluster.model import Resource
from repro.columnar.block import RoutedRows, batch_column, distinct_rows, partition_column
from repro.columnar.column import GeometryColumn
from repro.core.operators import SpatialOperator
from repro.core.probe import PreparedBuild, gather, unit_slices
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.index.partitioner import SortTilePartitioner, SpatialPartitioning, cover_plane
from repro.obs.registry import REGISTRY
from repro.obs.tracer import get_tracer
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD, FusedPartitionsRDD, StageBatch
from repro.spark.taskcontext import current_task

__all__ = ["partitioned_spatial_join", "derive_partitioning"]


def derive_partitioning(
    left: RDD[tuple[Any, Geometry]],
    num_tiles: int,
    sample_fraction: float = 0.05,
    right: RDD[tuple[Any, Geometry]] | None = None,
    radius: float = 0.0,
    cost_model=None,
    skew_factor: float | None = None,
) -> SpatialPartitioning:
    """Sample the left side's centroids and build a sort-tile partitioning.

    Sampling the *probe* side equalises per-tile probe work, which is the
    dominant cost for the paper's point-heavy workloads.  The tiles cover
    the plane (:func:`~repro.index.partitioner.cover_plane`): rows outside
    the sample's box reach the outer tiles they intersect.

    With ``right`` and ``skew_factor`` given, the layout additionally runs
    the optimizer's LocationSpark-style refinement: per-tile costs are
    estimated from both samples and hot tiles (cost above ``skew_factor x
    median``) are recursively split before any task is formed, which is
    what flattens the straggler tail of clustered workloads.
    """
    skewed = right is not None and skew_factor is not None

    def sampled(rows):
        # The plain layout tiles the rows' centres.  An empty row has none
        # (and routes to no tile anyway): a sample of empty rows only is
        # an empty sample.
        return rows if skewed else [(key, g) for key, g in rows if not g.is_empty]

    left_sample = sampled(left.sample(sample_fraction).collect()) or sampled(left.take(1000))
    if not left_sample:
        raise ReproError("cannot partition an empty left side")
    if skewed:
        from repro.optimizer import collect_join_stats
        from repro.optimizer.planner import derive_skew_aware_partitioning

        right_sample = right.sample(sample_fraction).collect()
        if not right_sample:
            right_sample = right.take(1000)
        if right_sample:
            # Sample-sized counts keep per-tile estimates *relatively*
            # correct, which is all hot-tile detection needs.
            stats = collect_join_stats(left_sample, right_sample, radius=radius)
            partitioning, _, _ = derive_skew_aware_partitioning(
                stats, num_tiles, cost_model, skew_factor=skew_factor
            )
            return partitioning
    sample_pairs = [g.envelope.center for _, g in left_sample]
    min_x = min(p[0] for p in sample_pairs)
    min_y = min(p[1] for p in sample_pairs)
    max_x = max(p[0] for p in sample_pairs)
    max_y = max(p[1] for p in sample_pairs)
    pad_x = max((max_x - min_x) * 0.05, 1e-9)
    pad_y = max((max_y - min_y) * 0.05, 1e-9)
    extent = Envelope(min_x - pad_x, min_y - pad_y, max_x + pad_x, max_y + pad_y)
    return cover_plane(SortTilePartitioner(num_tiles).partition(extent, sample_pairs))


def partitioned_spatial_join(
    sc: SparkContext,
    left: RDD[tuple[Any, Geometry]],
    right: RDD[tuple[Any, Geometry]],
    operator: SpatialOperator,
    radius: float = 0.0,
    num_tiles: int | None = None,
    engine: str = "fast",
    partitioning: SpatialPartitioning | None = None,
    skew_factor: float | None = 2.0,
) -> RDD[tuple[Any, Any]]:
    """Join two (id, geometry) RDDs via spatial partitioning + shuffle.

    Returns matching (left_id, right_id) pairs, exactly the broadcast
    join's output (tests assert the two plans agree).  Unless an explicit
    ``partitioning`` is supplied, the tile layout is skew-aware by
    default: hot tiles are split per ``skew_factor`` (pass ``None`` to
    restore the plain sort-tile layout).
    """
    if operator.needs_radius and radius <= 0.0:
        raise ReproError(f"{operator} requires a positive radius")
    if partitioning is None:
        with get_tracer().span("derive-partitioning", category="phase") as span:
            partitioning = derive_partitioning(
                left,
                num_tiles or sc.cluster.total_cores,
                right=right,
                radius=radius if operator.needs_radius else 0.0,
                cost_model=sc.cost_model,
                skew_factor=skew_factor,
            )
            span.set_attr("tiles", len(partitioning))
    tiles = partitioning
    sc.record_plan(
        {
            "join": "partitioned",
            "tiles": len(tiles),
            "skew_factor": skew_factor if skew_factor is not None else "off",
        }
    )
    expand = radius if operator.needs_radius else 0.0

    def route_by(grow: float):
        def route_partitions(batch):
            """Route partitions to ``(tile, (id, geometry))`` records,
            empty geometries dropped: one router call, one bucketing pass."""
            column, stops = batch_column(batch)
            routed = RoutedRows.route(
                column, stops, lambda *bounds: tiles.route_rows(*bounds, expand=grow)
            )
            return StageBatch(routed, range(len(routed) + 1), _member, batch.charges)

        return route_partitions

    left_routed = FusedPartitionsRDD(left, partition_column, route_by(0.0))
    right_routed = FusedPartitionsRDD(right, partition_column, route_by(expand))
    grouped = left_routed.cogroup(right_routed, num_partitions=max(1, len(tiles)))

    def prepare_tile(records):
        """A reduce partition's tile as ``(tile_id, left chunks, right
        chunks)``, charged to its task; None unless it has both sides."""
        records = list(records)
        if not records:
            return None
        # Reduce partition i holds tile i alone: an int key hashes to itself.
        [(tile_id, (left_entries, right_entries))] = records
        if not left_entries or not right_entries:
            REGISTRY.inc("partitioned.tiles_empty")
            return None
        REGISTRY.inc("partitioned.tiles_joined")
        current_task().add(Resource.INDEX_BUILD, len(right_entries))
        # Every block of this shuffle is a column slice, so a side that
        # has rows has them as EntryChunks.
        return tile_id, left_entries.chunks, right_entries.chunks

    def run_tiles(batch):
        """Probe every tile of the batch against one prepared build side."""
        blocks = batch.rows
        joined = [tile for tile in blocks if tile is not None]
        found, charge = iter(()), unit_slices({}, [0])
        if joined:
            build_column, tile_rows = distinct_rows([right for _, _, right in joined])
            build = PreparedBuild(build_column, operator, radius, engine)
            right_ids = build_column.payloads()
            lefts = [GeometryColumn.concat(left) for _, left, _ in joined]
            probed, charge = build.probe_tile_table(
                tile_rows, lefts, tiles, [t for t, _, _ in joined]
            )
            found = iter(
                list(zip(gather(left.payloads(), rows), gather(right_ids, entries)))
                for left, (rows, entries) in zip(lefts, probed)
            )
        pairs = [[] if tile is None else next(found) for tile in blocks]
        # A member without a tile to join owns no row of the tiles' units.
        joined_before = np.cumsum([0] + [tile is not None for tile in blocks]).tolist()
        member_stops = [charge.stops[j] for j in joined_before]
        return StageBatch(pairs, batch.stops, _member, (charge.cut(member_stops),))

    return FusedPartitionsRDD(grouped, prepare_tile, run_tiles)


def _member(rows: list, start: int, _stop: int):
    """Member ``start``'s own part of a batch held one entry per member."""
    return rows[start]
