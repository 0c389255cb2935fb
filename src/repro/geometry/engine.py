"""Refinement engines: the JTS-vs-GEOS axis of the paper.

Section V.B of the paper traces most of the SpatialSpark-vs-ISP-MC gap to
the spatial-refinement libraries: JTS (used by SpatialSpark) was measured
3.3x / 3.9x faster than GEOS (used by ISP-MC) on the Within predicate,
because "GEOS frequently creates and destroys small objects ... operations
[that] are cache unfriendly and very expensive on modern CPUs".

We reproduce that axis with two engines over the *same* geometry model:

* :class:`FastGeometryEngine` — models JTS as the paper experienced it:
  right-side geometries are prepared once (strip-indexed edge tables,
  contiguous segment buffers) and probed with vectorised kernels.

* :class:`SlowGeometryEngine` — models GEOS's behaviour: every scalar
  predicate call rebuilds fresh per-call coordinate objects (the
  small-object churn) and walks them with a scalar loop, discarding all
  work afterwards.

Both engines produce identical predicate results; only cost differs — so
swapping engines in a join changes Table 1/2 runtimes but never results.

Modelled work is *charged*, not *performed*, on the query paths.  The
cost model bills the library the paper ran — JTS's full edge scan for the
fast engine (whose strip index does less), GEOS's clone-and-walk for the
slow one — through the ``vertex_ops`` / ``allocations`` counters, and the
batch kernels every join calls advance those counters arithmetically
around vectorised numpy code.  The slow engine's churn is acted out only
by its scalar predicates (``point_within``, ``point_within_distance``,
``point_distance``): they are the reference its batch kernels are tested
against, counter for counter, and the engine the Section V.B wall-clock
micro-benchmark (``benchmarks/test_geometry_engines.py``) measures.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString
from repro.geometry.multi import MultiLineString, MultiPolygon
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.prepared import (
    _BATCH_CELL_BUDGET,
    PreparedLineString,
    PreparedPolygon,
    _edges_contain_batch,
    _envelope_within_distance,
    prepare_cached,
)
from repro.geometry.algorithms import distance as distance_mod
from repro.geometry import point_pairs

__all__ = [
    "EngineCounters",
    "GeometryEngine",
    "FastGeometryEngine",
    "SlowGeometryEngine",
    "create_engine",
]


@dataclass
class EngineCounters:
    """Operation counters a refinement engine accrues.

    ``vertex_ops`` approximates vertices touched; ``allocations``
    approximates transient objects created (the GEOS churn); both feed the
    deterministic cluster cost model so simulated runtimes reflect the
    engines' measured cost asymmetry.
    """

    predicate_calls: int = 0
    vertex_ops: int = 0
    allocations: int = 0

    def merge(self, other: "EngineCounters") -> None:
        """Accumulate another counter set into this one."""
        self.predicate_calls += other.predicate_calls
        self.vertex_ops += other.vertex_ops
        self.allocations += other.allocations

    def reset(self) -> None:
        """Zero all counters."""
        self.predicate_calls = 0
        self.vertex_ops = 0
        self.allocations = 0


class GeometryEngine(Protocol):
    """Interface every refinement engine implements.

    The engine owns preparation (what to cache per right-side geometry)
    and predicate evaluation; the join operators never touch geometry
    internals directly.
    """

    name: str
    counters: EngineCounters

    def prepare(self, geometry: Geometry) -> object:
        """Return an engine-private handle used for subsequent probes."""
        ...

    def point_within(self, point: Point, handle: object) -> bool:
        """Within(point, polygonal-geometry) against a prepared handle."""
        ...

    def point_within_distance(self, point: Point, handle: object, d: float) -> bool:
        """True when the point lies within distance ``d`` of the handle."""
        ...

    def point_distance(self, point: Point, handle: object) -> float:
        """Exact minimum distance from a point to the handle."""
        ...

    def contains_batch_counted(
        self, handle: object, xs, ys
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Batched Within: (results, vertex_ops, allocations) per point.

        Counter totals accrued by one batch call equal those of N scalar
        :meth:`point_within` calls; the per-point arrays carry each point's
        share, for schedulers that charge per row.
        """
        ...

    def within_distance_batch_counted(
        self, handle: object, xs, ys, d: float
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Batched NearestD threshold test with per-point counter shares."""
        ...

    def contains_pair_tables(self, handles: Sequence[object]) -> point_pairs.PolygonParts:
        """Pack a build side's handles for :meth:`contains_pairs_counted`.

        ``tables.tabled[k]`` says whether handle ``k`` is in the tables; a
        pair against any other handle is
        :func:`~repro.core.probe.refine_pair`'s, one :meth:`point_within`
        call.
        """
        ...

    def contains_pairs_counted(
        self, tables: point_pairs.PolygonParts, px, py, entries
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Pair-major Within: point ``(px[k], py[k])`` against the handle
        packed as ``entries[k]`` — (results, vertex_ops, allocations) per
        pair, the counters advancing as under one scalar call per pair."""
        ...

    def within_distance_pair_tables(self, handles: Sequence[object]) -> point_pairs.LineParts:
        """Pack a build side's handles for :meth:`within_distance_pairs_counted`;
        a pair against a handle not in them is
        :func:`~repro.core.probe.refine_pair`'s."""
        ...

    def within_distance_pairs_counted(
        self, tables: point_pairs.LineParts, px, py, entries, d: float
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Pair-major NearestD threshold test with per-pair counter shares."""
        ...


class FastGeometryEngine:
    """Prepared-geometry engine (the JTS-like fast path)."""

    name = "fast"

    def __init__(self) -> None:
        self.counters = EngineCounters()

    def prepare(self, geometry: Geometry) -> object:
        if isinstance(
            geometry, (Polygon, LineString, MultiPolygon, MultiLineString, Point)
        ):
            # Shared identity-keyed cache: tasks probing the same broadcast
            # or tile geometry reuse one strip index instead of rebuilding.
            return prepare_cached(geometry)
        raise GeometryError(f"fast engine cannot prepare {geometry.geometry_type}")

    def point_within(self, point: Point, handle: object) -> bool:
        self.counters.predicate_calls += 1
        if isinstance(handle, PreparedPolygon):
            # Charge a full edge scan: the cost model represents JTS, whose
            # (non-prepared) point-in-polygon walks every ring edge.  Our
            # strip index is faster in wall-clock; simulated tables charge
            # the library the paper actually ran.
            self.counters.vertex_ops += handle.edge_count
            return handle.contains_point(point.x, point.y)
        if isinstance(handle, list):
            for part in handle:
                if self.point_within(point, part):
                    return True
            return False
        raise GeometryError(f"point_within against {type(handle).__name__}")

    def point_within_distance(self, point: Point, handle: object, d: float) -> bool:
        self.counters.predicate_calls += 1
        if isinstance(handle, PreparedLineString):
            # JTS isWithinDistance early-exits; charge segments examined.
            result, examined = handle.within_distance_counted(point.x, point.y, d)
            self.counters.vertex_ops += examined
            return result
        if isinstance(handle, PreparedPolygon):
            self.counters.vertex_ops += handle.edge_count
            if handle.contains_point(point.x, point.y):
                return True
            return (
                distance_mod.distance(point, handle.polygon) <= d
            )
        if isinstance(handle, list):
            for part in handle:
                if self.point_within_distance(point, part, d):
                    return True
            return False
        if isinstance(handle, Point):
            return math.hypot(point.x - handle.x, point.y - handle.y) <= d
        raise GeometryError(f"point_within_distance against {type(handle).__name__}")

    def point_distance(self, point: Point, handle: object) -> float:
        self.counters.predicate_calls += 1
        if isinstance(handle, PreparedLineString):
            self.counters.vertex_ops += len(handle.line.coords)
            return handle.distance_to_point(point.x, point.y)
        if isinstance(handle, PreparedPolygon):
            self.counters.vertex_ops += handle.edge_count
            return distance_mod.distance(point, handle.polygon)
        if isinstance(handle, list):
            return min(self.point_distance(point, part) for part in handle)
        if isinstance(handle, Point):
            return math.hypot(point.x - handle.x, point.y - handle.y)
        raise GeometryError(f"point_distance against {type(handle).__name__}")

    # -- batch kernels ----------------------------------------------------
    #
    # One numpy dispatch refines a whole coordinate batch against a handle.
    # Results are bit-identical to N scalar calls (the prepared kernels
    # evaluate the same IEEE expressions) and the counter totals match,
    # including the early-exit accounting on Multi* handles: a point stops
    # being charged for later parts once an earlier part matched it.

    def contains_batch_counted(self, handle, xs, ys):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        results, vertex, pred = self._contains_arrays(handle, xs, ys)
        self.counters.predicate_calls += int(pred.sum())
        self.counters.vertex_ops += int(vertex.sum())
        return results, vertex, np.zeros(len(xs), dtype=np.int64)

    def within_distance_batch_counted(self, handle, xs, ys, d):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        results, vertex, pred = self._within_distance_arrays(handle, xs, ys, d)
        self.counters.predicate_calls += int(pred.sum())
        self.counters.vertex_ops += int(vertex.sum())
        return results, vertex, np.zeros(len(xs), dtype=np.int64)

    def _contains_arrays(self, handle, xs, ys):
        n = len(xs)
        pred = np.ones(n, dtype=np.int64)
        vertex = np.zeros(n, dtype=np.int64)
        if isinstance(handle, PreparedPolygon):
            vertex += handle.edge_count
            return handle.contains_batch(xs, ys), vertex, pred
        if isinstance(handle, list):
            results = np.zeros(n, dtype=bool)
            active = np.arange(n)
            for part in handle:
                if active.size == 0:
                    break
                hit, part_vertex, part_pred = self._contains_arrays(
                    part, xs[active], ys[active]
                )
                pred[active] += part_pred
                vertex[active] += part_vertex
                results[active[hit]] = True
                active = active[~hit]
            return results, vertex, pred
        raise GeometryError(f"point_within against {type(handle).__name__}")

    def _within_distance_arrays(self, handle, xs, ys, d):
        n = len(xs)
        pred = np.ones(n, dtype=np.int64)
        vertex = np.zeros(n, dtype=np.int64)
        if isinstance(handle, PreparedLineString):
            results, examined = handle.within_distance_batch_counted(xs, ys, d)
            vertex += examined
            return results, vertex, pred
        if isinstance(handle, PreparedPolygon):
            vertex += handle.edge_count
            results = handle.contains_batch(xs, ys)
            for i in np.flatnonzero(~results):
                point = Point(float(xs[i]), float(ys[i]))
                results[i] = distance_mod.distance(point, handle.polygon) <= d
            return results, vertex, pred
        if isinstance(handle, list):
            results = np.zeros(n, dtype=bool)
            active = np.arange(n)
            for part in handle:
                if active.size == 0:
                    break
                hit, part_vertex, part_pred = self._within_distance_arrays(
                    part, xs[active], ys[active], d
                )
                pred[active] += part_pred
                vertex[active] += part_vertex
                results[active[hit]] = True
                active = active[~hit]
            return results, vertex, pred
        if isinstance(handle, Point):
            results = np.fromiter(
                (
                    math.hypot(float(x) - handle.x, float(y) - handle.y) <= d
                    for x, y in zip(xs, ys)
                ),
                dtype=bool,
                count=n,
            )
            return results, vertex, pred
        raise GeometryError(f"point_within_distance against {type(handle).__name__}")

    # -- pair kernels -------------------------------------------------------
    #
    # One dispatch refines a whole array of (point, build entry) candidate
    # pairs against the prepared handles' own tables, packed once per build
    # side.  A pair's answer and charges are those of the per-handle batch
    # kernels above: ``edge_count`` (Within) or the segments examined
    # (NearestD) per part reached, and one predicate call per part reached
    # on top of the pair's own under a Multi* handle.

    def contains_pair_tables(self, handles):
        return point_pairs.pack_polygon_parts(
            [_parts_of(handle, PreparedPolygon, _strip_spec) for handle in handles]
        )

    def contains_pairs_counted(self, tables, px, py, entries):
        hit, vertex, reached = point_pairs.first_hit_rounds(
            point_pairs.points_in_parts, tables, px, py, entries
        )
        return self._charged_pairs(tables, entries, hit, vertex, reached)

    def within_distance_pair_tables(self, handles):
        return point_pairs.pack_line_parts(
            [_parts_of(handle, PreparedLineString, _segment_spec) for handle in handles]
        )

    def within_distance_pairs_counted(self, tables, px, py, entries, d):
        hit, vertex, reached = point_pairs.first_hit_rounds(
            point_pairs.first_segment_within, tables, px, py, entries, d
        )
        return self._charged_pairs(tables, entries, hit, vertex, reached)

    def _charged_pairs(self, tables, entries, hit, vertex, reached):
        self.counters.predicate_calls += len(entries) + int(
            reached[tables.multi[entries]].sum()
        )
        self.counters.vertex_ops += int(vertex.sum())
        return hit, vertex, np.zeros(len(entries), dtype=np.int64)


def _parts_of(handle, part_type: type, spec):
    """A fast-engine handle as a packer entry: the prepared part itself,
    or a Multi* handle's list of them; ``None`` for anything else."""
    if isinstance(handle, part_type):
        return False, [spec(handle)]
    if isinstance(handle, list) and all(isinstance(part, part_type) for part in handle):
        return True, [spec(part) for part in handle]
    return None


def _bounds(envelope: Envelope) -> tuple[float, float, float, float]:
    """An envelope's four floats (``dataclasses.astuple`` deep-copies them)."""
    return envelope.min_x, envelope.min_y, envelope.max_x, envelope.max_y


def _strip_spec(polygon: PreparedPolygon) -> tuple:
    return (
        polygon._batch_tables(),
        polygon._y_min,
        polygon._strip_height,
        _bounds(polygon.envelope),
        polygon.edge_count,
    )


def _segment_spec(line: PreparedLineString) -> tuple:
    starts, deltas = line._starts, line._deltas
    return (
        starts[:, 0], starts[:, 1], deltas[:, 0], deltas[:, 1], line._seg_len_sq,
        _bounds(line.envelope), 0,
    )


class _Coordinate:
    """A GEOS-style heap-allocated coordinate.

    GEOS materialises ``Coordinate`` objects during predicate evaluation;
    the slow engine mirrors that by creating one of these per vertex per
    call, which is the cache-unfriendly small-object churn the paper
    blames for the JTS/GEOS gap.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


class SlowGeometryEngine:
    """Object-churning engine (the GEOS-like slow path).

    ``prepare`` returns the raw geometry; every scalar predicate call then
    materialises throwaway Python-level coordinate objects before running
    a scalar loop — reproducing the allocate/compute/destroy pattern the
    paper identified as GEOS's bottleneck.  The churn factor is real work
    (not a sleep), so wall-clock microbenchmarks show the same 3-4x gap
    the paper measured.  The batch kernels the joins call charge that
    work (same counters, same per-point shares) without performing it.
    """

    name = "slow"

    def __init__(self) -> None:
        self.counters = EngineCounters()

    def prepare(self, geometry: Geometry) -> object:
        return geometry

    def _churn_rings(self, polygon: Polygon) -> list[list[_Coordinate]]:
        """Clone every ring into fresh coordinate objects (GEOS-style churn)."""
        rings = []
        for ring in polygon.rings:
            fresh = [_Coordinate(float(x), float(y)) for x, y in ring.coords]
            self.counters.allocations += len(fresh)
            rings.append(fresh)
        return rings

    def _churn_line(self, line: LineString) -> list[_Coordinate]:
        fresh = [_Coordinate(float(x), float(y)) for x, y in line.coords]
        self.counters.allocations += len(fresh)
        return fresh

    def point_within(self, point: Point, handle: object) -> bool:
        self.counters.predicate_calls += 1
        if isinstance(handle, Polygon):
            return self._point_in_churned_polygon(point.x, point.y, handle)
        if isinstance(handle, MultiPolygon):
            return any(
                self._point_in_churned_polygon(point.x, point.y, part)
                for part in handle.parts
                if not part.is_empty
            )
        raise GeometryError(f"point_within against {type(handle).__name__}")

    def _point_in_churned_polygon(self, x: float, y: float, polygon: Polygon) -> bool:
        if polygon.is_empty:
            return False
        rings = self._churn_rings(polygon)
        self.counters.vertex_ops += sum(len(r) for r in rings)
        # GEOS-style: the envelope is re-derived from the freshly built
        # coordinate sequence rather than read from a prepared cache.
        shell = rings[0]
        min_x = min(c.x for c in shell)
        max_x = max(c.x for c in shell)
        min_y = min(c.y for c in shell)
        max_y = max(c.y for c in shell)
        if not (min_x <= x <= max_x and min_y <= y <= max_y):
            return False
        inside = False
        boundary = False
        for ring in rings:
            for i in range(len(ring) - 1):
                a = ring[i]
                b = ring[i + 1]
                x1, y1 = a.x, a.y
                x2, y2 = b.x, b.y
                cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
                if abs(cross) <= 1e-12 * max(abs(x2 - x1) + abs(y2 - y1), 1.0):
                    if min(x1, x2) - 1e-12 <= x <= max(x1, x2) + 1e-12 and (
                        min(y1, y2) - 1e-12 <= y <= max(y1, y2) + 1e-12
                    ):
                        boundary = True
                if (y1 > y) != (y2 > y):
                    x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                    if x < x_cross:
                        inside = not inside
        return boundary or inside

    def point_within_distance(self, point: Point, handle: object, d: float) -> bool:
        self.counters.predicate_calls += 1
        if isinstance(handle, LineString):
            if handle.envelope.distance_to_point(point.x, point.y) > d:
                return False
            # GEOS computes the full minimum distance, then compares — no
            # early exit (the asymmetry the lion-500 experiment amplifies).
            return self._churned_line_distance(point.x, point.y, handle) <= d
        if isinstance(handle, MultiLineString):
            return any(
                self.point_within_distance(point, part, d)
                for part in handle.parts
                if not part.is_empty
            )
        if isinstance(handle, (Polygon, MultiPolygon)):
            if isinstance(handle, Polygon) and self._point_in_churned_polygon(
                point.x, point.y, handle
            ):
                return True
            return distance_mod.distance(point, handle) <= d
        if isinstance(handle, Point):
            return math.hypot(point.x - handle.x, point.y - handle.y) <= d
        raise GeometryError(f"point_within_distance against {type(handle).__name__}")

    def _churned_line_distance(
        self, px: float, py: float, line: LineString, early_exit_at: float = -1.0
    ) -> float:
        coords = self._churn_line(line)
        self.counters.vertex_ops += len(coords)
        if len(coords) == 1:
            return math.hypot(px - coords[0].x, py - coords[0].y)
        best = math.inf
        for i in range(len(coords) - 1):
            a = coords[i]
            b = coords[i + 1]
            x1, y1 = a.x, a.y
            x2, y2 = b.x, b.y
            dx = x2 - x1
            dy = y2 - y1
            seg_len_sq = dx * dx + dy * dy
            if seg_len_sq == 0.0:
                candidate = math.hypot(px - x1, py - y1)
            else:
                t = ((px - x1) * dx + (py - y1) * dy) / seg_len_sq
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                candidate = math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))
            if candidate < best:
                best = candidate
                if 0.0 <= early_exit_at and best <= early_exit_at:
                    break
        return best

    def point_distance(self, point: Point, handle: object) -> float:
        self.counters.predicate_calls += 1
        if isinstance(handle, LineString):
            return self._churned_line_distance(point.x, point.y, handle)
        if isinstance(handle, MultiLineString):
            return min(
                self._churned_line_distance(point.x, point.y, part)
                for part in handle.parts
                if not part.is_empty
            )
        if isinstance(handle, (Polygon, MultiPolygon)):
            return distance_mod.distance(point, handle)
        if isinstance(handle, Point):
            return math.hypot(point.x - handle.x, point.y - handle.y)
        raise GeometryError(f"point_distance against {type(handle).__name__}")

    # -- batch kernels ----------------------------------------------------
    #
    # GEOS has no columnar path, and the cost model does not need one acted
    # out: the two kernels (Within on polygons, NearestD on polylines)
    # evaluate the churn loop's *own* IEEE expressions over arrays and
    # advance the counters arithmetically, so results, per-point charges
    # and totals are those of N scalar calls while no ``_Coordinate`` is
    # ever built.  The scalar predicates above stay the reference (and
    # the engine the Section V.B micro-benchmark times); every other
    # handle type keeps the per-point scalar loop.  The handle's type
    # picks the route.

    def contains_batch_counted(self, handle, xs, ys):
        if isinstance(handle, Polygon):
            parts = (handle,)
        elif isinstance(handle, MultiPolygon):
            parts = handle.parts
        else:
            return self._scalar_batch(lambda point: self.point_within(point, handle), xs, ys)
        results, churned, _ = _first_hit_over_parts(parts, xs, ys, _polygon_hits)
        return self._charged(len(results), results, churned)

    def within_distance_batch_counted(self, handle, xs, ys, d):
        multi = isinstance(handle, MultiLineString)
        if not multi and (not isinstance(handle, LineString) or handle.is_empty):
            return self._scalar_batch(
                lambda point: self.point_within_distance(point, handle, d), xs, ys
            )
        results, churned, reached = _first_hit_over_parts(
            handle.parts if multi else (handle,),
            xs,
            ys,
            lambda part, px, py: _line_hits(part, px, py, d),
        )
        # The scalar any() re-enters point_within_distance once per part
        # a point reaches.
        calls = len(results) + (reached if multi else 0)
        return self._charged(calls, results, churned)

    # -- pair kernels -------------------------------------------------------
    #
    # The same two kernels over (point, build entry) candidate-pair arrays
    # and the churn tables of a whole build side, packed once: a pair is
    # charged the ring vertices (Within) or, past the envelope prune, the
    # coordinates (NearestD) of every part it reaches.

    def contains_pair_tables(self, handles):
        def parts_of(handle):
            if isinstance(handle, Polygon):
                return False, [] if handle.is_empty else [_churn_strip_spec(handle)]
            if isinstance(handle, MultiPolygon):
                return True, [
                    _churn_strip_spec(part) for part in handle.parts if not part.is_empty
                ]
            return None

        return point_pairs.pack_polygon_parts([parts_of(handle) for handle in handles])

    def contains_pairs_counted(self, tables, px, py, entries):
        hit, churned, _ = point_pairs.first_hit_rounds(
            point_pairs.points_in_parts, tables, px, py, entries
        )
        return self._charged(len(entries), hit, churned)

    def within_distance_pair_tables(self, handles):
        def parts_of(handle):
            if isinstance(handle, MultiLineString):
                return True, [
                    _churn_segment_spec(part) for part in handle.parts if not part.is_empty
                ]
            if isinstance(handle, LineString) and not handle.is_empty:
                return False, [_churn_segment_spec(handle)]
            return None

        return point_pairs.pack_line_parts([parts_of(handle) for handle in handles])

    def within_distance_pairs_counted(self, tables, px, py, entries, d):
        hit, churned, reached = point_pairs.first_hit_rounds(
            point_pairs.min_distance_within, tables, px, py, entries, d
        )
        # The scalar any() re-enters point_within_distance once per part
        # a point reaches.
        calls = len(entries) + int(reached[tables.multi[entries]].sum())
        return self._charged(calls, hit, churned)

    def _charged(self, calls: int, results: np.ndarray, churned: np.ndarray):
        """Advance the counters as the churn loop would have — one vertex
        op and one allocation per cloned coordinate — and shape the
        ``*_counted`` return value."""
        total = int(churned.sum())
        self.counters.predicate_calls += calls
        self.counters.vertex_ops += total
        self.counters.allocations += total
        return results, churned, churned.copy()

    def _scalar_batch(self, call, xs, ys):
        n = len(xs)
        results = np.zeros(n, dtype=bool)
        vertex = np.zeros(n, dtype=np.int64)
        alloc = np.zeros(n, dtype=np.int64)
        counters = self.counters
        for i in range(n):
            vertex_before = counters.vertex_ops
            alloc_before = counters.allocations
            results[i] = call(Point(float(xs[i]), float(ys[i])))
            vertex[i] = counters.vertex_ops - vertex_before
            alloc[i] = counters.allocations - alloc_before
        return results, vertex, alloc


def _first_hit_over_parts(parts, xs, ys, part_hits):
    """``any(hit(point, part) for part in parts if not part.is_empty)``
    for many points, with any()'s early exit.

    ``part_hits(part, px, py)`` answers one part for the points still
    active and says what the churn loop would have cloned for each (a
    count, or an array of counts); a point leaves the active set at its
    first hit, so later parts neither test nor charge it.  Returns
    ``(results, churned per point, part evaluations summed over points)``.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    results = np.zeros(len(xs), dtype=bool)
    churned = np.zeros(len(xs), dtype=np.int64)
    reached = 0
    active = np.arange(len(xs))
    for part in parts:
        if active.size == 0:
            break
        if part.is_empty:
            continue
        reached += len(active)
        hit, cloned = part_hits(part, xs[active], ys[active])
        churned[active] += cloned
        results[active[hit]] = True
        active = active[~hit]
    return results, churned, reached


def _polygon_hits(polygon: Polygon, px: np.ndarray, py: np.ndarray):
    """``_point_in_churned_polygon`` for many points: every ring is
    cloned for every point, then the shell's envelope gates the edge walk."""
    table, num_vertices, (min_x, min_y, max_x, max_y) = _churn_tables(polygon)
    inside = np.flatnonzero((min_x <= px) & (px <= max_x) & (min_y <= py) & (py <= max_y))
    hit = np.zeros(len(px), dtype=bool)
    hit[inside] = _edges_contain_batch(table, px[inside], py[inside])
    return hit, num_vertices


def _line_hits(line: LineString, px: np.ndarray, py: np.ndarray, d: float):
    """``point_within_distance`` against one polyline for many points: an
    envelope-pruned line is never cloned, so it charges nothing."""
    near = _envelope_within_distance(line.envelope, px, py, d)
    hit = np.zeros(len(px), dtype=bool)
    hit[near] = _segments_within(_churn_tables(line), px[near], py[near], d)
    return hit, near * len(line.coords)


# Edge / segment tables behind the slow engine's vector kernels, memoised
# per process by geometry identity (the entry pins its geometry, so an id
# cannot be recycled while it is a key; coordinate buffers are read-only).
_CHURN_TABLE_CAPACITY = 4096
_churn_table_cache: OrderedDict[int, tuple[Geometry, tuple]] = OrderedDict()


def _churn_tables(part: Polygon | LineString) -> tuple:
    entry = _churn_table_cache.get(id(part))
    if entry is not None and entry[0] is part:
        _churn_table_cache.move_to_end(id(part))
        return entry[1]
    tables = _polygon_tables(part) if isinstance(part, Polygon) else _line_tables(part)
    _churn_table_cache[id(part)] = (part, tables)
    while len(_churn_table_cache) > _CHURN_TABLE_CAPACITY:
        _churn_table_cache.popitem(last=False)
    return tables


def _churn_strip_spec(polygon: Polygon) -> tuple:
    """A polygon's churn tables as a ``pack_polygon_parts`` part: the
    unstripped edge table is the one strip, spanning the shell envelope."""
    table, num_vertices, envelope = _churn_tables(polygon)
    height = max(envelope[3] - envelope[1], 1e-300)
    return [table], envelope[1], height, envelope, num_vertices


def _churn_segment_spec(line: LineString) -> tuple:
    return *_churn_tables(line), _bounds(line.envelope), len(line.coords)


def _polygon_tables(polygon: Polygon) -> tuple:
    """``(edge table, ring-vertex count, shell envelope)`` of one polygon.

    One *unstripped* table over every ring's edges, with the constants of
    ``_point_in_churned_polygon``: an unscaled +-1e-12 box and a
    ``1e-12 * scale`` cross bound per edge.
    """
    edges = np.concatenate(
        [np.hstack([ring.coords[:-1], ring.coords[1:]]) for ring in polygon.rings]
    )
    shell = polygon.rings[0].coords
    envelope = (
        float(shell[:, 0].min()),
        float(shell[:, 1].min()),
        float(shell[:, 0].max()),
        float(shell[:, 1].max()),
    )
    num_vertices = sum(len(ring.coords) for ring in polygon.rings)
    return PreparedPolygon._numpy_strip_table(edges), num_vertices, envelope


def _line_tables(line: LineString) -> tuple:
    """``(x1, y1, dx, dy, seg_len_sq)`` per segment of one (non-empty,
    so two-or-more-vertex) polyline."""
    coords = line.coords
    x1 = np.ascontiguousarray(coords[:-1, 0])
    y1 = np.ascontiguousarray(coords[:-1, 1])
    dx = coords[1:, 0] - x1
    dy = coords[1:, 1] - y1
    return x1, y1, dx, dy, dx * dx + dy * dy


def _segments_within(tables: tuple, px: np.ndarray, py: np.ndarray, d: float) -> np.ndarray:
    """``_churned_line_distance(px, py, line) <= d`` for many points.

    Everything up to the hypot is the loop's own arithmetic, elementwise;
    np.hypot and math.hypot may differ in the last ulp, so a point whose
    minimum lands within rounding reach of ``d`` is re-decided with
    math.hypot over the same hypot arguments.
    """
    x1, y1, dx, dy, seg_len_sq = tables
    degenerate = seg_len_sq == 0.0
    out = np.empty(len(px), dtype=bool)
    chunk = max(1, _BATCH_CELL_BUDGET // len(x1))
    tolerance = 1e-9 * max(abs(d), 1.0)
    for lo in range(0, len(px), chunk):
        X = px[lo : lo + chunk, None]
        Y = py[lo : lo + chunk, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((X - x1) * dx + (Y - y1) * dy) / seg_len_sq
        # A zero-length segment measures to its start point: x1 + 0 * dx.
        t = np.where(degenerate, 0.0, np.clip(t, 0.0, 1.0))
        off_x = X - (x1 + t * dx)
        off_y = Y - (y1 + t * dy)
        # fmin skips NaN candidates, as the loop's ``candidate < best`` does.
        best = np.fmin.reduce(np.hypot(off_x, off_y), axis=1, initial=np.inf)
        within = best <= d
        for i in np.flatnonzero(np.abs(best - d) <= tolerance):
            exact = math.inf
            for a, b in zip(off_x[i].tolist(), off_y[i].tolist()):
                candidate = math.hypot(a, b)
                if candidate < exact:
                    exact = candidate
            within[i] = exact <= d
        out[lo : lo + chunk] = within
    return out


_ENGINES = {
    "fast": FastGeometryEngine,
    "slow": SlowGeometryEngine,
    # Aliases matching the libraries each engine models in the paper.
    "jts": FastGeometryEngine,
    "geos": SlowGeometryEngine,
}


def create_engine(name: str) -> GeometryEngine:
    """Instantiate a refinement engine by name (``fast``/``jts``/``slow``/``geos``)."""
    try:
        factory = _ENGINES[name.lower()]
    except KeyError:
        raise GeometryError(
            f"unknown geometry engine {name!r}; choose from {sorted(_ENGINES)}"
        ) from None
    return factory()
