"""Prepared geometries: precomputed structures for repeated predicate tests.

JTS's speed advantage over GEOS in the paper's Section V.B comes from
avoiding per-call small-object churn.  The fast refinement engine goes one
step further and *prepares* each right-side geometry once (the right side
is broadcast and probed millions of times): polygons get a per-edge
interval table grouped into horizontal strips so each point-in-polygon
test touches only the edges whose y-interval contains the query point, and
polylines get a segment-envelope table for early distance pruning.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from repro.errors import GeometryError
from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.multi import MultiLineString, MultiPolygon
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

__all__ = [
    "PreparedPolygon",
    "PreparedLineString",
    "prepare",
    "prepare_cached",
    "clear_prepared_cache",
]

_EPS = 1e-12



class PreparedPolygon:
    """A polygon preprocessed for fast repeated point-in-polygon tests.

    All ring edges (shell and holes together — crossing parity over the
    union of rings gives the even-odd interior, which for valid polygons
    with properly-oriented holes equals shell-minus-holes) are stored in
    flat numpy arrays sorted into ``num_strips`` horizontal strips.
    """

    __slots__ = (
        "polygon",
        "envelope",
        "_strip_edges",
        "_strip_edge_lists",
        "_batch_tables_cache",
        "_y_min",
        "_strip_height",
        "_num_strips",
        "edge_count",
        "mean_edges_per_strip",
    )

    # Below this edge count a scalar loop over precomputed tuples beats
    # numpy's per-call overhead (measured on CPython 3.11); both paths
    # compute the identical crossing-count answer.
    _SCALAR_THRESHOLD = 48

    def __init__(self, polygon: Polygon, num_strips: int | None = None):
        if polygon.is_empty:
            raise GeometryError("cannot prepare an empty polygon")
        self.polygon = polygon
        self.envelope = polygon.envelope
        edges = []
        for ring in polygon.rings:
            coords = ring.coords
            for i in range(len(coords) - 1):
                edges.append(
                    (coords[i, 0], coords[i, 1], coords[i + 1, 0], coords[i + 1, 1])
                )
        edge_array = np.asarray(edges, dtype=np.float64)
        self.edge_count = len(edge_array)
        if num_strips is None:
            num_strips = max(1, min(16, self.edge_count // 8))
        self._num_strips = num_strips
        self._y_min = self.envelope.min_y
        height = max(self.envelope.height, 1e-300)
        self._strip_height = height / num_strips
        # Assign each edge to every strip its y-interval overlaps.
        strip_edges: list[list[int]] = [[] for _ in range(num_strips)]
        y_lo = np.minimum(edge_array[:, 1], edge_array[:, 3])
        y_hi = np.maximum(edge_array[:, 1], edge_array[:, 3])
        lo_strip = np.clip(
            ((y_lo - self._y_min) / self._strip_height).astype(int), 0, num_strips - 1
        )
        hi_strip = np.clip(
            ((y_hi - self._y_min) / self._strip_height).astype(int), 0, num_strips - 1
        )
        for edge_idx in range(self.edge_count):
            for strip in range(lo_strip[edge_idx], hi_strip[edge_idx] + 1):
                strip_edges[strip].append(edge_idx)
        self._strip_edges = [
            edge_array[indices] if indices else np.empty((0, 4), dtype=np.float64)
            for indices in strip_edges
        ]
        self.mean_edges_per_strip = max(
            1, sum(len(s) for s in self._strip_edges) // num_strips
        )
        if self.edge_count <= self._SCALAR_THRESHOLD:
            # Plain-tuple edge lists for the scalar fast path.  Each tuple
            # carries the edge endpoints plus a precomputed bbox and the
            # scaled epsilon for its boundary test, so the per-probe loop
            # does only comparisons and one multiply in the common case.
            self._strip_edge_lists = [
                [self._edge_tuple(edge) for edge in strip]
                for strip in self._strip_edges
            ]
        else:
            self._strip_edge_lists = None
        self._batch_tables_cache = None

    @staticmethod
    def _edge_tuple(edge) -> tuple:
        x1, y1, x2, y2 = (float(v) for v in edge)
        eps = _EPS * max(abs(x2 - x1) + abs(y2 - y1), 1.0)
        return (
            x1,
            y1,
            x2,
            y2,
            min(x1, x2) - eps,
            min(y1, y2) - eps,
            max(x1, x2) + eps,
            max(y1, y2) + eps,
            eps,
        )

    def _strip_index(self, y: float) -> int:
        strip = int((y - self._y_min) / self._strip_height)
        if strip < 0:
            return 0
        if strip >= self._num_strips:
            return self._num_strips - 1
        return strip

    def _strip_for(self, y: float) -> np.ndarray:
        return self._strip_edges[self._strip_index(y)]

    def contains_point(self, x: float, y: float) -> bool:
        """Point-in-polygon via crossing count on one strip's edges.

        Boundary points count as contained (closed-region semantics,
        matching :func:`repro.geometry.algorithms.predicates.point_in_polygon`).
        Small polygons take a scalar loop over prepared tuples; large ones
        a vectorised numpy pass — same answer, different constant factors.
        """
        if not self.envelope.contains_point(x, y):
            return False
        if self._strip_edge_lists is not None:
            return self._contains_point_scalar(x, y)
        edges = self._strip_for(y)
        if len(edges) == 0:
            return False
        x1 = edges[:, 0]
        y1 = edges[:, 1]
        x2 = edges[:, 2]
        y2 = edges[:, 3]
        # Boundary test: |cross| small and point within the segment box.
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        scale = np.maximum(np.abs(x2 - x1) + np.abs(y2 - y1), 1.0)
        on_edge = (
            (np.abs(cross) <= _EPS * scale)
            & (np.minimum(x1, x2) - _EPS <= x)
            & (x <= np.maximum(x1, x2) + _EPS)
            & (np.minimum(y1, y2) - _EPS <= y)
            & (y <= np.maximum(y1, y2) + _EPS)
        )
        if bool(on_edge.any()):
            return True
        straddles = (y1 > y) != (y2 > y)
        if not bool(straddles.any()):
            return False
        sx1 = x1[straddles]
        sy1 = y1[straddles]
        sx2 = x2[straddles]
        sy2 = y2[straddles]
        x_cross = sx1 + (y - sy1) * (sx2 - sx1) / (sy2 - sy1)
        return bool(np.count_nonzero(x < x_cross) % 2 == 1)

    def _contains_point_scalar(self, x: float, y: float) -> bool:
        inside = False
        for x1, y1, x2, y2, bx0, by0, bx1, by1, eps in self._strip_edge_lists[
            self._strip_index(y)
        ]:
            if by0 <= y <= by1 and bx0 <= x <= bx1:
                cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
                if -eps <= cross <= eps:
                    return True
            if (y1 > y) != (y2 > y):
                if x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
                    inside = not inside
        return inside

    def count_edges_tested(self, y: float) -> int:
        """Number of edges a query at ``y`` inspects (for cost accounting)."""
        return len(self._strip_for(y))

    def _batch_tables(self) -> list[np.ndarray]:
        """Per-strip edge tables for the pair kernels, built lazily.

        Each table row is ``(x1, y1, x2, y2, bx0, by0, bx1, by1, ceps)``;
        the boundary test is ``in-bbox AND |cross| <= ceps`` for both of
        the scalar code paths, they only bake different epsilons into the
        bbox — so the tables reuse the exact per-path constants and
        :func:`repro.geometry.point_pairs.points_in_parts` reproduces
        either path bit-for-bit.
        """
        tables = self._batch_tables_cache
        if tables is None:
            if self._strip_edge_lists is not None:
                tables = [
                    np.asarray(strip, dtype=np.float64).reshape(-1, 9)
                    for strip in self._strip_edge_lists
                ]
            else:
                tables = [
                    self._numpy_strip_table(edges) for edges in self._strip_edges
                ]
            self._batch_tables_cache = tables
        return tables

    @staticmethod
    def _numpy_strip_table(edges: np.ndarray) -> np.ndarray:
        x1, y1, x2, y2 = edges[:, 0], edges[:, 1], edges[:, 2], edges[:, 3]
        scale = np.maximum(np.abs(x2 - x1) + np.abs(y2 - y1), 1.0)
        return np.column_stack(
            [
                x1,
                y1,
                x2,
                y2,
                np.minimum(x1, x2) - _EPS,
                np.minimum(y1, y2) - _EPS,
                np.maximum(x1, x2) + _EPS,
                np.maximum(y1, y2) + _EPS,
                _EPS * scale,
            ]
        )


def _envelope_within_distance(envelope, xs: np.ndarray, ys: np.ndarray, d: float) -> np.ndarray:
    """Mask of the points a scalar ``envelope.distance_to_point(x, y) > d``
    prune lets through.

    np.hypot and math.hypot may round differently in the last ulp, so
    borderline points are re-decided with math.hypot, which is what the
    scalar prune uses — the mask agrees with N scalar tests exactly.
    """
    dxe = np.maximum(np.maximum(envelope.min_x - xs, xs - envelope.max_x), 0.0)
    dye = np.maximum(np.maximum(envelope.min_y - ys, ys - envelope.max_y), 0.0)
    env_d = np.hypot(dxe, dye)
    live = env_d <= d
    borderline = np.flatnonzero(np.abs(env_d - d) <= 1e-9 * max(abs(d), 1.0))
    for i in borderline:
        live[i] = math.hypot(float(dxe[i]), float(dye[i])) <= d
    return live


class PreparedLineString:
    """A polyline preprocessed for fast repeated distance queries."""

    __slots__ = (
        "line",
        "envelope",
        "_starts",
        "_deltas",
        "_seg_len_sq",
        "_seg_boxes",
        "_segment_tuples",
    )

    _SCALAR_THRESHOLD = 24

    def __init__(self, line: LineString):
        if line.is_empty:
            raise GeometryError("cannot prepare an empty linestring")
        self.line = line
        self.envelope = line.envelope
        coords = line.coords
        if len(coords) == 1:
            self._starts = coords
            self._deltas = np.zeros_like(coords)
        else:
            self._starts = coords[:-1]
            self._deltas = coords[1:] - coords[:-1]
        self._seg_len_sq = np.einsum("ij,ij->i", self._deltas, self._deltas)
        ends = self._starts + self._deltas
        self._seg_boxes = np.column_stack(
            [
                np.minimum(self._starts[:, 0], ends[:, 0]),
                np.minimum(self._starts[:, 1], ends[:, 1]),
                np.maximum(self._starts[:, 0], ends[:, 0]),
                np.maximum(self._starts[:, 1], ends[:, 1]),
            ]
        )
        if len(self._starts) <= self._SCALAR_THRESHOLD:
            self._segment_tuples = [
                (
                    float(self._starts[i, 0]),
                    float(self._starts[i, 1]),
                    float(self._deltas[i, 0]),
                    float(self._deltas[i, 1]),
                    float(self._seg_len_sq[i]),
                )
                for i in range(len(self._starts))
            ]
        else:
            self._segment_tuples = None

    def distance_to_point(self, x: float, y: float) -> float:
        """Minimum distance from a point to the polyline.

        Small polylines use a scalar loop over prepared segment tuples;
        large ones a vectorised numpy pass.
        """
        if self._segment_tuples is not None:
            return self._distance_to_point_scalar(x, y)
        return self._distance_to_point_vectorized(x, y)

    def _distance_to_point_scalar(self, x: float, y: float) -> float:
        best_sq = math.inf
        for x1, y1, dx, dy, seg_len_sq in self._segment_tuples:
            rel_x = x - x1
            rel_y = y - y1
            if seg_len_sq > 0.0:
                t = (rel_x * dx + rel_y * dy) / seg_len_sq
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                rel_x -= t * dx
                rel_y -= t * dy
            d_sq = rel_x * rel_x + rel_y * rel_y
            if d_sq < best_sq:
                best_sq = d_sq
        return math.sqrt(best_sq)

    def _distance_to_point_vectorized(self, x: float, y: float) -> float:
        """Minimum distance from a point to the polyline (vectorised)."""
        rel_x = x - self._starts[:, 0]
        rel_y = y - self._starts[:, 1]
        dot = rel_x * self._deltas[:, 0] + rel_y * self._deltas[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(self._seg_len_sq > 0.0, dot / self._seg_len_sq, 0.0)
        t = np.clip(t, 0.0, 1.0)
        dx = rel_x - t * self._deltas[:, 0]
        dy = rel_y - t * self._deltas[:, 1]
        return float(np.sqrt((dx * dx + dy * dy).min()))

    def within_distance(self, x: float, y: float, d: float) -> bool:
        """True when the point lies within distance ``d`` of the polyline.

        Applies an envelope lower bound before the exact kernel — the
        standard refine-with-early-exit used by NearestD joins.
        """
        return self.within_distance_counted(x, y, d)[0]

    def within_distance_counted(self, x: float, y: float, d: float) -> tuple[bool, int]:
        """Threshold test plus the number of segments actually examined.

        JTS's ``isWithinDistance`` stops at the first segment within the
        threshold; the count lets the cost model charge only the work a
        JTS-style engine performs (a GEOS-style engine computes the full
        minimum distance before comparing — see the slow engine).
        """
        if self.envelope.distance_to_point(x, y) > d:
            return (False, 1)
        d_sq = d * d
        if self._segment_tuples is not None:
            examined = 0
            for x1, y1, dx, dy, seg_len_sq in self._segment_tuples:
                examined += 1
                rel_x = x - x1
                rel_y = y - y1
                if seg_len_sq > 0.0:
                    t = (rel_x * dx + rel_y * dy) / seg_len_sq
                    if t < 0.0:
                        t = 0.0
                    elif t > 1.0:
                        t = 1.0
                    rel_x -= t * dx
                    rel_y -= t * dy
                if rel_x * rel_x + rel_y * rel_y <= d_sq:
                    return (True, examined)
            return (False, examined)
        distances_sq = self._segment_distances_sq(x, y)
        within = distances_sq <= d_sq
        if bool(within.any()):
            return (True, int(np.argmax(within)) + 1)
        return (False, len(distances_sq))

    def _segment_distances_sq(self, x: float, y: float) -> np.ndarray:
        rel_x = x - self._starts[:, 0]
        rel_y = y - self._starts[:, 1]
        dot = rel_x * self._deltas[:, 0] + rel_y * self._deltas[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(self._seg_len_sq > 0.0, dot / self._seg_len_sq, 0.0)
        t = np.clip(t, 0.0, 1.0)
        dx = rel_x - t * self._deltas[:, 0]
        dy = rel_y - t * self._deltas[:, 1]
        return dx * dx + dy * dy


def prepare(geometry: Geometry):
    """Prepare a geometry for repeated probing.

    Returns a :class:`PreparedPolygon`, :class:`PreparedLineString`, a list
    of prepared parts for Multi* inputs, or the geometry itself for points
    (which need no preparation).
    """
    if isinstance(geometry, Polygon):
        return PreparedPolygon(geometry)
    if isinstance(geometry, LineString):
        return PreparedLineString(geometry)
    if isinstance(geometry, MultiPolygon):
        return [PreparedPolygon(part) for part in geometry.parts if not part.is_empty]
    if isinstance(geometry, MultiLineString):
        return [PreparedLineString(part) for part in geometry.parts if not part.is_empty]
    if isinstance(geometry, Point):
        return geometry
    raise GeometryError(f"cannot prepare geometry type {geometry.geometry_type}")


# Prepared handles keyed by *content* fingerprint (repro.cache).  Broadcast/
# partitioned joins repeatedly prepare the same right-side geometry (every
# tile that a polygon's envelope overlaps builds its own index over it), and
# repeated queries over the same polygon table re-load equal geometries as
# fresh objects — a content key lets both cases share one strip index, where
# the old id()-keyed memo only helped within a single load.  The fingerprint
# is recomputed from coordinate bytes on every lookup, so a geometry mutated
# in place simply hashes to a new key and can never see a stale handle.
_PREPARED_CACHE_CAPACITY = 4096
_prepared_cache: OrderedDict[bytes, object] = OrderedDict()


def prepare_cached(geometry: Geometry):
    """Like :func:`prepare` but memoised by content fingerprint (LRU)."""
    if isinstance(geometry, Point):
        # Points prepare to themselves; caching them would only add churn.
        return geometry
    from repro.cache.fingerprint import fingerprint_geometry

    key = fingerprint_geometry(geometry)
    handle = _prepared_cache.get(key)
    if handle is not None:
        _prepared_cache.move_to_end(key)
        return handle
    handle = prepare(geometry)
    _prepared_cache[key] = handle
    while len(_prepared_cache) > _PREPARED_CACHE_CAPACITY:
        _prepared_cache.popitem(last=False)
    return handle


def clear_prepared_cache() -> None:
    """Drop every cached prepared geometry (tests, memory pressure)."""
    _prepared_cache.clear()
