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
pair kernels every join calls (``contains_pairs_counted`` /
``within_distance_pairs_counted`` over :mod:`repro.geometry.point_pairs`)
advance those counters arithmetically around vectorised numpy code.  The
per-handle ``*_batch_counted`` calls are one-entry pair-kernel calls.  The
slow engine's churn is acted out only by its scalar predicates
(``point_within``, ``point_within_distance``, ``point_distance``): they
are the reference every kernel is tested against, counter for counter,
and the engine the Section V.B wall-clock micro-benchmark
(``benchmarks/test_geometry_engines.py``) measures.
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
from repro.geometry.prepared import PreparedLineString, PreparedPolygon, prepare_cached
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
        """Within for many points against one handle: (results, vertex_ops,
        allocations) per point, as N scalar :meth:`point_within` calls.

        One :meth:`contains_pairs_counted` call over the handle packed
        alone, or :meth:`point_within` point by point when the handle has
        no pair tables.  No join calls it.
        """
        ...

    def within_distance_batch_counted(
        self, handle: object, xs, ys, d: float
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """NearestD for many points against one handle, as N scalar
        :meth:`point_within_distance` calls: the one-entry
        :meth:`within_distance_pairs_counted` call, or the scalar loop."""
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


class _PerHandleKernels:
    """An engine's per-handle batch calls, as one-entry pair-kernel calls.

    The handle is packed alone and every point is paired with entry 0, so
    answers and charges are the pair kernel's.  A handle the pair tables
    do not take runs the scalar predicate once per point.  No join calls
    these; the pair kernels serve every join directly.
    """

    def contains_batch_counted(self, handle, xs, ys):
        return self._one_entry(
            self.contains_pair_tables, self.contains_pairs_counted, self.point_within,
            handle, xs, ys,
        )

    def within_distance_batch_counted(self, handle, xs, ys, d):
        return self._one_entry(
            self.within_distance_pair_tables, self.within_distance_pairs_counted,
            self.point_within_distance, handle, xs, ys, d,
        )

    def _one_entry(self, pack, pairs_counted, predicate, handle, xs, ys, *args):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        tables = pack([handle])
        if tables.tabled[0]:
            return pairs_counted(tables, xs, ys, np.zeros(len(xs), dtype=np.int64), *args)
        return _scalar_batch(
            self.counters, lambda point: predicate(point, handle, *args), xs, ys
        )


def _scalar_batch(counters: EngineCounters, call, xs, ys):
    """``call`` once per point: (results, vertex_ops, allocations) per point,
    each point's share read off the counters around its call."""
    n = len(xs)
    results = np.zeros(n, dtype=bool)
    vertex = np.zeros(n, dtype=np.int64)
    alloc = np.zeros(n, dtype=np.int64)
    for i in range(n):
        vertex_before = counters.vertex_ops
        alloc_before = counters.allocations
        results[i] = call(Point(float(xs[i]), float(ys[i])))
        vertex[i] = counters.vertex_ops - vertex_before
        alloc[i] = counters.allocations - alloc_before
    return results, vertex, alloc


class FastGeometryEngine(_PerHandleKernels):
    """Prepared-geometry engine (the JTS-like fast path)."""

    name = "fast"

    def __init__(self) -> None:
        self.counters = EngineCounters()

    def prepare(self, geometry: Geometry) -> object:
        if isinstance(
            geometry, (Polygon, LineString, MultiPolygon, MultiLineString, Point)
        ):
            # Shared content-keyed cache: tasks probing the same broadcast
            # or tile geometry, or an equal one reloaded, reuse one strip
            # index instead of rebuilding.
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

    # -- pair kernels -------------------------------------------------------
    #
    # One dispatch refines a whole array of (point, build entry) candidate
    # pairs against the prepared handles' own tables, packed once per build
    # side.  A pair's answer and charges are those of one scalar
    # ``point_within`` / ``point_within_distance`` call: ``edge_count``
    # (Within) or the segments examined (NearestD) per part reached, and one
    # predicate call per part reached on top of the pair's own under a
    # Multi* handle.

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


class SlowGeometryEngine(_PerHandleKernels):
    """Object-churning engine (the GEOS-like slow path).

    ``prepare`` returns the raw geometry; every scalar predicate call then
    materialises throwaway Python-level coordinate objects before running
    a scalar loop — reproducing the allocate/compute/destroy pattern the
    paper identified as GEOS's bottleneck.  The churn factor is real work
    (not a sleep), so wall-clock microbenchmarks show the same 3-4x gap
    the paper measured.  The pair kernels the joins call charge that work
    (same counters, same per-pair shares) without performing it.
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

    # -- pair kernels -------------------------------------------------------
    #
    # GEOS has no columnar path, and the cost model does not need one acted
    # out: the two kernels (Within on polygons, NearestD on polylines)
    # evaluate the churn loop's *own* IEEE expressions over (point, build
    # entry) candidate-pair arrays and the churn tables of a whole build
    # side, packed once, and advance the counters arithmetically, so
    # results, per-pair charges and totals are those of one scalar call per
    # pair while no ``_Coordinate`` is ever built.  A pair is charged the
    # ring vertices (Within) or, past the envelope prune, the coordinates
    # (NearestD) of every part it reaches.  Every other handle type is
    # untabled: its pairs take the scalar predicates.

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

# Edge / segment tables behind the slow engine's pair kernels, memoised
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
