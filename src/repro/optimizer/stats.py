"""Sampling-based table and tile statistics for plan selection.

Everything the planner needs is derived from a small stratified sample of
each input plus the existing :class:`~repro.cluster.model.CostModel`:

* :class:`TableStats` — cardinality, extent, vertex and byte estimates;
* :class:`JoinStats` — both sides plus an envelope-level candidate
  estimate (how many build envelopes an average probe envelope hits),
  measured by cross-testing the two samples — the quantity that separates
  sparse point-in-polygon joins from dense radius joins;
* :class:`TileHistogram` — per-tile row counts and estimated task
  seconds under a partitioning, the substrate for LocationSpark-style
  hot-tile detection and for makespan prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.cluster.model import CostModel, Resource
from repro.columnar.column import GeometryColumn
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope, bounds_rows
from repro.geometry.point import Point
from repro.index.partitioner import SpatialPartitioning
from repro.optimizer.sampler import extent_of, populated_column, stratified_sample

__all__ = [
    "TableStats",
    "JoinStats",
    "TileHistogram",
    "collect_table_stats",
    "collect_join_stats",
    "tile_histogram",
    "estimate_tile_seconds",
    "probe_units",
    "DEFAULT_SAMPLE_SIZE",
]

DEFAULT_SAMPLE_SIZE = 256
# Estimated in-memory bytes per record: envelope + payload + per-vertex
# coordinates (two float64s). Used for broadcast/shuffle byte estimates.
_RECORD_BASE_BYTES = 48.0
_VERTEX_BYTES = 16.0


@dataclass(frozen=True)
class TableStats:
    """Summary of one join input, estimated from a sample."""

    count: int
    extent: Envelope
    mean_vertices: float
    mean_envelope_area: float
    point_fraction: float
    sample: tuple[tuple[Any, Geometry], ...] = field(repr=False, default=())

    @property
    def estimated_bytes(self) -> float:
        """Approximate serialized size of the full table."""
        return self.count * (_RECORD_BASE_BYTES + _VERTEX_BYTES * self.mean_vertices)

    def sample_centers(self) -> list[tuple[float, float]]:
        """Envelope centers of the sample (partitioner input)."""
        return [g.envelope.center for _, g in self.sample]

    def to_info(self) -> dict:
        """Flat summary for profiles / EXPLAIN output."""
        return {
            "rows": self.count,
            "mean_vertices": round(self.mean_vertices, 2),
            "point_fraction": round(self.point_fraction, 3),
            "est_bytes": int(self.estimated_bytes),
            "sampled": len(self.sample),
        }


def collect_table_stats(
    entries: Sequence[tuple[Any, Geometry]] | GeometryColumn,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 17,
) -> TableStats:
    """Count and extent off the column's bounds arrays, plus a stratified
    sample — the only rows whose geometries are materialised."""
    column = populated_column(entries)
    sample = stratified_sample(column, max(1, sample_size), seed=seed)
    if sample:
        mean_vertices = sum(g.num_points for _, g in sample) / len(sample)
        mean_area = sum(g.envelope.area for _, g in sample) / len(sample)
        point_fraction = sum(
            1 for _, g in sample if isinstance(g, Point)
        ) / len(sample)
    else:
        mean_vertices = mean_area = point_fraction = 0.0
    return TableStats(
        count=len(column),
        extent=extent_of(column),
        mean_vertices=mean_vertices,
        mean_envelope_area=mean_area,
        point_fraction=point_fraction,
        sample=tuple(sample),
    )


@dataclass(frozen=True)
class JoinStats:
    """Both sides of a join plus cross-sample selectivity estimates."""

    left: TableStats
    right: TableStats
    # Expected number of build (right) envelopes intersecting an average
    # probe (left) envelope, after radius expansion — the filter phase's
    # per-probe candidate count.
    candidates_per_probe: float
    radius: float = 0.0

    @property
    def estimated_pairs(self) -> float:
        """Expected candidate pairs surviving the filter phase."""
        return self.left.count * self.candidates_per_probe

    def to_info(self) -> dict:
        return {
            "left": self.left.to_info(),
            "right": self.right.to_info(),
            "candidates_per_probe": round(self.candidates_per_probe, 4),
            "estimated_pairs": int(self.estimated_pairs),
        }


def collect_join_stats(
    left: Sequence[tuple[Any, Geometry]] | GeometryColumn,
    right: Sequence[tuple[Any, Geometry]] | GeometryColumn,
    radius: float = 0.0,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 17,
) -> JoinStats:
    """Sample both inputs and estimate filter-phase selectivity.

    The candidate estimate cross-tests the two samples' envelopes
    (one ``O(sample^2)`` grid with a small cap), then rescales by the
    build side's sampling fraction — cheap, and unbiased enough for plan
    choice.
    """
    left_stats = collect_table_stats(left, sample_size, seed=seed)
    right_stats = collect_table_stats(right, sample_size, seed=seed + 1)
    probe_sample = left_stats.sample[:64]
    build_sample = right_stats.sample[:256]
    candidates = 0.0
    if probe_sample and build_sample and right_stats.count:
        # Envelope.expand_by + Envelope.intersects over a (build, probe) grid.
        b_min_x, b_min_y, b_max_x, b_max_y = bounds_rows(
            geometry.envelope for _, geometry in build_sample
        )[:, :, None]
        b_min_x, b_min_y = b_min_x - radius, b_min_y - radius
        b_max_x, b_max_y = b_max_x + radius, b_max_y + radius
        p_min_x, p_min_y, p_max_x, p_max_y = bounds_rows(
            geometry.envelope for _, geometry in probe_sample
        )
        hits = np.count_nonzero(
            (b_min_x <= p_max_x)
            & (p_min_x <= b_max_x)
            & (b_min_y <= p_max_y)
            & (p_min_y <= b_max_y)
        )
        per_probe_in_sample = int(hits) / len(probe_sample)
        candidates = per_probe_in_sample * right_stats.count / len(build_sample)
    return JoinStats(
        left=left_stats,
        right=right_stats,
        candidates_per_probe=candidates,
        radius=radius,
    )


@dataclass
class TileHistogram:
    """Per-tile row counts and estimated cost under a partitioning."""

    partitioning: SpatialPartitioning
    left_counts: list[float]
    right_counts: list[float]
    seconds: list[float]

    def __len__(self) -> int:
        return len(self.partitioning)

    @property
    def median_seconds(self) -> float:
        if not self.seconds:
            return 0.0
        ordered = sorted(self.seconds)
        return ordered[len(ordered) // 2]

    @property
    def max_seconds(self) -> float:
        return max(self.seconds, default=0.0)

    def hot_tiles(self, skew_factor: float) -> list[int]:
        """Indices of tiles whose estimated cost exceeds
        ``skew_factor x median`` (LocationSpark's hot-partition test)."""
        threshold = self.skew_threshold(skew_factor)
        return [i for i, s in enumerate(self.seconds) if s > threshold]

    def skew_threshold(self, skew_factor: float) -> float:
        # The median alone collapses to ~0 when most tiles are empty;
        # anchoring on the mean as well keeps the test meaningful there.
        baseline = max(
            self.median_seconds,
            sum(self.seconds) / len(self.seconds) if self.seconds else 0.0,
        )
        return skew_factor * baseline


def tile_histogram(
    partitioning: SpatialPartitioning,
    stats: JoinStats,
    cost_model: CostModel | None = None,
    engine: str = "fast",
) -> TileHistogram:
    """Estimate per-tile task seconds from the join's samples.

    Each sampled row is routed exactly like the real join routes full
    rows (multi-assignment to every overlapping tile), counts are scaled
    to full-table cardinalities, and per-tile cost is the CostModel dot
    product of estimated build + probe + refine units — the same formula
    the engines charge for real work, applied to estimates.
    """
    model = cost_model or CostModel()
    tiles = len(partitioning)
    left_counts = [0.0] * tiles
    right_counts = [0.0] * tiles
    left_sample = stats.left.sample
    right_sample = stats.right.sample
    left_scale = stats.left.count / len(left_sample) if left_sample else 0.0
    right_scale = stats.right.count / len(right_sample) if right_sample else 0.0
    _, left_tiles = partitioning.route_envelopes(
        geometry.envelope for _, geometry in left_sample
    )
    _, right_tiles = partitioning.route_envelopes(
        (geometry.envelope for _, geometry in right_sample), expand=stats.radius
    )
    # Repeated `+= scale`, not `hits * scale`: the estimates (and every
    # plan choice priced from them) stay bit-identical.
    for tile in left_tiles.tolist():
        left_counts[tile] += left_scale
    for tile in right_tiles.tolist():
        right_counts[tile] += right_scale
    seconds = [
        estimate_tile_seconds(
            left_counts[i], right_counts[i], stats, model, engine=engine
        )
        for i in range(tiles)
    ]
    return TileHistogram(partitioning, left_counts, right_counts, seconds)


def estimate_tile_seconds(
    left_rows: float,
    right_rows: float,
    stats: JoinStats,
    model: CostModel,
    engine: str = "fast",
) -> float:
    """Estimated seconds to index ``right_rows`` and probe ``left_rows``.

    Candidates per probe stay at the *global* estimate: spatial
    partitioning co-locates a probe with its candidates, so a tile holding
    only a fraction of the build rows still holds (nearly) all of the
    candidates of the probes routed to it.
    """
    if left_rows <= 0.0 or right_rows <= 0.0:
        return 0.0
    candidates = stats.candidates_per_probe
    units = probe_units(
        left_rows, right_rows, candidates, stats.right.mean_vertices, engine
    )
    units[Resource.INDEX_BUILD] = right_rows
    return model.task_seconds(units)


def probe_units(
    probes: float,
    indexed_rows: float,
    candidates_per_probe: float,
    build_vertices: float,
    engine: str = "fast",
) -> dict[str, float]:
    """Estimated filter+refine resource units for ``probes`` lookups
    against an R-tree of ``indexed_rows`` entries."""
    descent = math.log(max(indexed_rows, 2.0), 10) + 1.0
    visits = probes * (descent + 1.5 * candidates_per_probe)
    refine_vertices = probes * candidates_per_probe * max(build_vertices, 2.0)
    units: dict[str, float] = {
        Resource.INDEX_VISIT: visits,
        Resource.ROWS_OUT: probes * candidates_per_probe * 0.5,
    }
    if engine == "slow":
        units[Resource.REFINE_VERTEX_SLOW] = refine_vertices
        units[Resource.REFINE_ALLOC] = refine_vertices
    else:
        units[Resource.REFINE_VERTEX_FAST] = refine_vertices
    return units
