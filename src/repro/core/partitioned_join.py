"""SpatialSpark's partitioned spatial join.

The broadcast join requires the build side to fit on one node; when both
sides are large, SpatialSpark (like SpatialHadoop and HadoopGIS, Section
II) spatially partitions *both* sides, co-locates overlapping partitions
with a shuffle, and runs an indexed join inside each tile.  Duplicate
pairs — possible because objects of either side are replicated to every
tile they overlap — are suppressed with the owner rule: of the tiles both
sides of a pair reach, only the lowest-indexed one emits it.

Rows move a block at a time: each scanned partition is routed with one
batch-router call over its column's bounding boxes, the shuffle carries
column slices, and each tile probes one concatenated left column.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.model import Resource
from repro.columnar.block import RoutedRows
from repro.core.broadcast_join import partition_column
from repro.core.operators import SpatialOperator
from repro.core.probe import cached_index, join_tile
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.index.partitioner import SortTilePartitioner, SpatialPartitioning, cover_plane
from repro.obs.registry import REGISTRY
from repro.obs.tracer import get_tracer
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD
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
    left_sample = left.sample(sample_fraction).collect()
    if not left_sample:
        left_sample = left.take(1000)
    if not left_sample:
        raise ReproError("cannot partition an empty left side")
    if right is not None and skew_factor is not None:
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
        def route_partition(records):
            """Route one partition to ``(tile, (id, geometry))`` records,
            empty geometries dropped."""
            column = partition_column(records)
            rows, tile_ids = tiles.route_rows(*column.bounds(), expand=grow)
            return RoutedRows(column, rows, tile_ids)

        return route_partition

    left_routed = left.map_partitions(route_by(0.0))
    right_routed = right.map_partitions(route_by(expand))
    grouped = left_routed.cogroup(
        right_routed, num_partitions=max(1, len(tiles))
    )

    cache = sc.cache

    def tile_task(entry):
        tile_id, (left_entries, right_entries) = entry
        if not left_entries or not right_entries:
            REGISTRY.inc("partitioned.tiles_empty")
            return []
        REGISTRY.inc("partitioned.tiles_joined")
        # Payload = the whole (id, geometry) pair so duplicate suppression
        # can route the matched geometry.  The per-tile index is reused
        # through the cross-query cache when a repeated query routes the
        # same content to the same tile; INDEX_BUILD is charged either
        # way, so the simulated cluster cannot tell (pooled workers see a
        # fork-inherited snapshot of the cache — hits there save worker
        # wall-clock, and their puts die with the worker process).
        build_entries = [(pair, pair[1]) for pair in right_entries]
        index = cached_index(
            cache, "spark-tile-index", build_entries, operator, radius, engine
        )
        task = current_task()
        task.add(Resource.INDEX_BUILD, len(index))
        # Every block of this shuffle is a column slice, so a side that
        # has rows has them as EntryChunks.
        pairs, units = join_tile(index, left_entries.column(), tiles, tile_id, expand)
        task.add_columns(units)
        return pairs

    return grouped.flat_map(tile_task)
