"""Spatial partitioners for partitioned (non-broadcast) joins.

SpatialHadoop and HadoopGIS both *spatially partition* the joined datasets
(Section II of the paper); SpatialSpark supports the same strategy as an
alternative to broadcast joins when the right side is too large for one
node's memory.  A partitioner derives a set of tile envelopes from a
sample, after which both sides are routed to every tile their envelope
overlaps and joined tile-by-tile (with duplicates suppressed by the owner
rule: of the tiles both sides of a pair reach, only the lowest-indexed
one emits it — see :func:`repro.core.probe.join_tile`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import SpatialIndexError
from repro.geometry.envelope import Envelope, bounds_rows

__all__ = [
    "SpatialPartitioning",
    "FixedGridPartitioner",
    "BinarySplitPartitioner",
    "SortTilePartitioner",
    "cover_plane",
    "reference_point_in",
]

# Rows x tiles cells one router chunk may compare at once: bounds the
# boolean overlap matrix (and its few temporaries) to about a megabyte
# each however many rows a caller routes.
_ROUTE_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True)
class SpatialPartitioning:
    """A set of tile envelopes covering the data extent.

    ``tiles[i]`` is the envelope of partition ``i``.  Tiles may overlap
    data envelopes arbitrarily; router semantics are *multi-assignment*
    (an object goes to every tile it intersects), and the join suppresses
    the duplicates that creates with the lowest-common-tile owner rule.
    """

    extent: Envelope
    tiles: tuple[Envelope, ...]

    def __len__(self) -> int:
        return len(self.tiles)

    @cached_property
    def _tile_bounds(self) -> tuple[np.ndarray, ...]:
        """The tiles' ``min_x, min_y, max_x, max_y`` as four ``(T,)`` arrays
        (the columns of one ``(T, 4)`` array), then the mask of empty
        tiles — ``None`` when, as in every derived layout, there is none."""
        bounds = np.array(
            [(t.min_x, t.min_y, t.max_x, t.max_y) for t in self.tiles],
            dtype=np.float64,
        ).reshape(len(self.tiles), 4)
        min_x, min_y, max_x, max_y = bounds.T
        dead = (min_x > max_x) | (min_y > max_y)
        return min_x, min_y, max_x, max_y, dead if dead.any() else None

    def route_rows(
        self,
        min_x: np.ndarray,
        min_y: np.ndarray,
        max_x: np.ndarray,
        max_y: np.ndarray,
        expand: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route a batch of envelopes, given as four bbox arrays.

        Returns ``(rows, tiles)`` index arrays in row-major order: row
        ``rows[k]`` goes to tile ``tiles[k]``, rows ascending and each
        row's tiles ascending.  A row reaches every tile its envelope —
        grown by ``expand`` on every side, as ``Envelope.expand_by`` grows
        it — intersects (boundary contact counts); an empty envelope
        (``min > max``, before or after a negative ``expand``) reaches no
        tile; a row outside every tile (possible when the tiling was
        derived from a sample) goes to the nearest tile, ties to the
        lowest index, so no data is lost.
        """
        min_x = np.asarray(min_x, dtype=np.float64)
        min_y = np.asarray(min_y, dtype=np.float64)
        max_x = np.asarray(max_x, dtype=np.float64)
        max_y = np.asarray(max_y, dtype=np.float64)
        empty = (min_x > max_x) | (min_y > max_y)
        if expand:
            # The same IEEE operations as Envelope.expand_by.
            min_x, min_y = min_x - expand, min_y - expand
            max_x, max_y = max_x + expand, max_y + expand
            empty |= (min_x > max_x) | (min_y > max_y)
        empty = empty if empty.any() else None
        tile_min_x, tile_min_y, tile_max_x, tile_max_y, dead_tiles = self._tile_bounds
        rows_out: list[np.ndarray] = []
        tiles_out: list[np.ndarray] = []
        step = max(1, _ROUTE_CHUNK_CELLS // max(1, len(self.tiles)))
        for start in range(0, len(min_x), step):
            chunk = slice(start, start + step)
            # Envelope.intersects' own closed-interval comparisons.
            hit = (
                (tile_min_x <= max_x[chunk, None])
                & (min_x[chunk, None] <= tile_max_x)
                & (tile_min_y <= max_y[chunk, None])
                & (min_y[chunk, None] <= tile_max_y)
            )
            if dead_tiles is not None:
                hit[:, dead_tiles] = False
            orphans = ~hit.any(axis=1)
            if empty is not None:
                hit[empty[chunk]] = False
                orphans &= ~empty[chunk]
            for row in np.flatnonzero(orphans).tolist():
                i = start + row
                orphan = Envelope(
                    float(min_x[i]), float(min_y[i]), float(max_x[i]), float(max_y[i])
                )
                hit[row, self._nearest_tile(orphan)] = True
            rows, tiles = np.nonzero(hit)
            rows_out.append(rows + start if start else rows)
            tiles_out.append(tiles)
        if len(rows_out) == 1:
            return rows_out[0], tiles_out[0]
        if not rows_out:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.concatenate(rows_out), np.concatenate(tiles_out)

    def _nearest_tile(self, envelope: Envelope) -> int:
        """The tile nearest an envelope that overlaps none, ties to the
        lowest index.  Stays on ``Envelope.distance``: ``np.hypot`` and
        ``math.hypot`` can differ in the last ulp, which would move ties."""
        return min(
            range(len(self.tiles)), key=lambda i: self.tiles[i].distance(envelope)
        )

    def route_envelopes(
        self, envelopes: Iterable[Envelope], expand: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`route_rows` over envelope objects (rows in iteration order)."""
        return self.route_rows(*bounds_rows(envelopes), expand=expand)

    def route(self, envelope: Envelope) -> list[int]:
        """Return indices of every tile the envelope intersects.

        The one-row case of :meth:`route_rows`: objects falling outside
        all tiles are routed to the nearest tile so no data is lost.
        """
        return self.route_envelopes((envelope,))[1].tolist()

    def route_point(self, x: float, y: float) -> int:
        """Return the single tile owning a point (ties to lowest index).

        No production caller: the joins multi-assign by envelope
        (:meth:`route_rows`); kept for its tests.
        """
        for i, tile in enumerate(self.tiles):
            if tile.contains_point(x, y):
                return i
        return min(
            range(len(self.tiles)),
            key=lambda i: self.tiles[i].distance_to_point(x, y),
        )


def cover_plane(partitioning: SpatialPartitioning) -> SpatialPartitioning:
    """The same tiles with every edge that lies on the layout's extent
    pushed to +-inf, so the tiles cover the plane.

    A derived layout tiles a sample's box.  A row outside every tile goes
    to the nearest tile only, and a pair that meets outside the box can
    then have no common tile: its two rows land in different tiles and
    the pair is lost.  With the outer edges unbounded a row outside the
    box reaches exactly the tiles it intersects, like any other row.
    """
    extent = partitioning.extent
    return SpatialPartitioning(
        extent,
        tuple(
            Envelope(
                -math.inf if tile.min_x <= extent.min_x else tile.min_x,
                -math.inf if tile.min_y <= extent.min_y else tile.min_y,
                math.inf if tile.max_x >= extent.max_x else tile.max_x,
                math.inf if tile.max_y >= extent.max_y else tile.max_y,
            )
            for tile in partitioning.tiles
        ),
    )


def reference_point_in(pair_envelope: Envelope, tile: Envelope) -> bool:
    """Duplicate-suppression test for multi-assignment joins.

    When both sides of a pair were replicated to several tiles the pair is
    produced in each, so only the tile containing the pair's *reference
    point* (the envelope-intersection's lower-left corner) reports it.

    No production caller: the joins dedupe with the lowest-common-tile
    owner rule (:func:`repro.core.probe.join_tile`); kept for its tests.
    """
    if pair_envelope.is_empty or tile.is_empty:
        return False
    return tile.contains_point(pair_envelope.min_x, pair_envelope.min_y)


class FixedGridPartitioner:
    """Partition the extent into a uniform ``nx`` x ``ny`` grid of tiles."""

    def __init__(self, nx: int, ny: int):
        if nx < 1 or ny < 1:
            raise SpatialIndexError(f"grid partitioner needs >= 1 tile per axis, got {nx}x{ny}")
        self.nx = nx
        self.ny = ny

    def partition(
        self, extent: Envelope, sample: Sequence[tuple[float, float]] = ()
    ) -> SpatialPartitioning:
        """Create the grid tiles (the sample is ignored for a fixed grid)."""
        if extent.is_empty:
            raise SpatialIndexError("cannot partition an empty extent")
        tiles = []
        width = extent.width / self.nx
        height = extent.height / self.ny
        for row in range(self.ny):
            for col in range(self.nx):
                tiles.append(
                    Envelope(
                        extent.min_x + col * width,
                        extent.min_y + row * height,
                        extent.min_x + (col + 1) * width,
                        extent.min_y + (row + 1) * height,
                    )
                )
        return SpatialPartitioning(extent, tuple(tiles))


class BinarySplitPartitioner:
    """Recursive median splits (a KD/BSP decomposition) from a point sample.

    Produces ``2**levels`` tiles with approximately equal sample counts,
    which equalises per-tile work for skewed data (Manhattan taxi density
    vs outer boroughs).
    """

    def __init__(self, levels: int):
        if levels < 0:
            raise SpatialIndexError(f"levels must be >= 0, got {levels}")
        self.levels = levels

    def partition(
        self, extent: Envelope, sample: Sequence[tuple[float, float]]
    ) -> SpatialPartitioning:
        """Split the extent on alternating-axis sample medians."""
        if extent.is_empty:
            raise SpatialIndexError("cannot partition an empty extent")
        tiles: list[Envelope] = []
        self._split(extent, list(sample), self.levels, True, tiles)
        return SpatialPartitioning(extent, tuple(tiles))

    def _split(
        self,
        extent: Envelope,
        points: list[tuple[float, float]],
        levels: int,
        vertical: bool,
        out: list[Envelope],
    ) -> None:
        if levels == 0 or len(points) < 2:
            out.append(extent)
            return
        axis = 0 if vertical else 1
        points.sort(key=lambda p: p[axis])
        median = points[len(points) // 2][axis]
        if vertical:
            if not (extent.min_x < median < extent.max_x):
                median = (extent.min_x + extent.max_x) / 2.0
            left = Envelope(extent.min_x, extent.min_y, median, extent.max_y)
            right = Envelope(median, extent.min_y, extent.max_x, extent.max_y)
            low = [p for p in points if p[0] <= median]
            high = [p for p in points if p[0] > median]
        else:
            if not (extent.min_y < median < extent.max_y):
                median = (extent.min_y + extent.max_y) / 2.0
            left = Envelope(extent.min_x, extent.min_y, extent.max_x, median)
            right = Envelope(extent.min_x, median, extent.max_x, extent.max_y)
            low = [p for p in points if p[1] <= median]
            high = [p for p in points if p[1] > median]
        self._split(left, low, levels - 1, not vertical, out)
        self._split(right, high, levels - 1, not vertical, out)


class SortTilePartitioner:
    """Sort-Tile-Recursive tiling from a point sample (STR packing).

    Mirrors the leaf-packing step of the STR bulk load: the sample is cut
    into vertical slices by x, each slice into tiles by y, yielding about
    ``target_tiles`` tiles with near-equal sample counts.  Tiles are then
    expanded to cover the full extent so routing never misses.
    """

    def __init__(self, target_tiles: int):
        if target_tiles < 1:
            raise SpatialIndexError(f"target_tiles must be >= 1, got {target_tiles}")
        self.target_tiles = target_tiles

    def partition(
        self, extent: Envelope, sample: Sequence[tuple[float, float]]
    ) -> SpatialPartitioning:
        """Derive ~target_tiles tiles from the sample."""
        if extent.is_empty:
            raise SpatialIndexError("cannot partition an empty extent")
        points = sorted(sample)
        if not points or self.target_tiles == 1:
            return SpatialPartitioning(extent, (extent,))
        slices = max(1, round(math.sqrt(self.target_tiles)))
        per_slice = max(1, math.ceil(self.target_tiles / slices))
        slice_size = max(1, math.ceil(len(points) / slices))
        tiles: list[Envelope] = []
        x_cursor = extent.min_x
        for s in range(slices):
            chunk = points[s * slice_size : (s + 1) * slice_size]
            if not chunk:
                break
            next_start = (s + 1) * slice_size
            if next_start < len(points):
                x_hi = max(points[next_start][0], x_cursor)
            else:
                x_hi = extent.max_x
            rows = sorted(chunk, key=lambda p: p[1])
            row_size = max(1, math.ceil(len(rows) / per_slice))
            y_cursor = extent.min_y
            for r in range(per_slice):
                next_row_start = (r + 1) * row_size
                is_last = r == per_slice - 1 or next_row_start >= len(rows)
                if is_last:
                    y_hi = extent.max_y
                else:
                    y_hi = max(rows[next_row_start][1], y_cursor)
                tile = Envelope(x_cursor, y_cursor, x_hi, y_hi)
                if tile.width > 0 and tile.height > 0:
                    tiles.append(tile)
                y_cursor = y_hi
                if is_last:
                    break
            x_cursor = x_hi
        if not tiles:
            tiles = [extent]
        return SpatialPartitioning(extent, tuple(tiles))
