"""Spatial refinement predicates: point-in-polygon, within, intersects.

Section II of the paper defines a spatial join by a predicate theta over
object pairs; its two evaluated predicates are ``Within`` (point in
polygon) and ``NearestD`` (point within distance D of a polyline, in
:mod:`repro.geometry.algorithms.distance`).  This module also provides the
general intersects/contains predicates the ISP-MC UDF wrappers expose
(`ST_INTERSECTS`, `ST_CONTAINS`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.base import Geometry, GeometryType
from repro.geometry.linestring import LineString
from repro.geometry.multi import MultiLineString, MultiPoint, MultiPolygon
from repro.geometry.point import Point
from repro.geometry.polygon import LinearRing, Polygon

from repro.geometry.algorithms.segments import segments_intersect

__all__ = [
    "point_in_ring",
    "point_in_polygon",
    "point_on_linestring",
    "within",
    "intersects",
]

_EPS = 1e-12

# Ray-crossing location codes for point_in_ring.
_OUTSIDE = 0
_INSIDE = 1
_BOUNDARY = 2


def point_in_ring(x: float, y: float, coords: np.ndarray) -> int:
    """Classify a point against a closed ring by ray crossing.

    Returns ``0`` outside, ``1`` inside, ``2`` on the boundary.  ``coords``
    is the ring's ``(n, 2)`` closed coordinate array (first == last).  This
    is the classic crossing-number algorithm referenced in footnote 5 of
    the paper, with explicit boundary detection so ``Within`` can treat
    boundary points consistently (a boundary point *is* within, matching
    JTS ``within`` semantics for point/polygon where the point must be in
    the interior — see :func:`point_in_polygon` for the exact rule).
    """
    inside = False
    n = len(coords)
    for i in range(n - 1):
        x1, y1 = coords[i]
        x2, y2 = coords[i + 1]
        # Boundary check: point on the closed segment (x1,y1)-(x2,y2)?
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) <= _EPS * max(abs(x2 - x1) + abs(y2 - y1), 1.0):
            if min(x1, x2) - _EPS <= x <= max(x1, x2) + _EPS and (
                min(y1, y2) - _EPS <= y <= max(y1, y2) + _EPS
            ):
                return _BOUNDARY
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_cross:
                inside = not inside
    return _INSIDE if inside else _OUTSIDE


def point_in_polygon(x: float, y: float, polygon: Polygon, boundary_counts: bool = True) -> bool:
    """True when the point lies in the polygon (shell minus holes).

    ``boundary_counts`` selects whether boundary points match; the default
    True mirrors the closed-region semantics of ``ST_WITHIN`` over point/
    polygon pairs as used by the paper's census-block aggregation (a taxi
    pickup exactly on a block edge should land in some block, not vanish).
    Points on a *hole* boundary are treated like shell boundary points.
    """
    if polygon.is_empty:
        return False
    if not polygon.envelope.contains_point(x, y):
        return False
    shell_loc = point_in_ring(x, y, polygon.shell.coords)
    if shell_loc == _OUTSIDE:
        return False
    if shell_loc == _BOUNDARY:
        return boundary_counts
    for hole in polygon.holes:
        hole_loc = point_in_ring(x, y, hole.coords)
        if hole_loc == _INSIDE:
            return False
        if hole_loc == _BOUNDARY:
            return boundary_counts
    return True


def point_on_linestring(x: float, y: float, line: LineString) -> bool:
    """True when the point lies on (any segment of) the polyline."""
    coords = line.coords
    for i in range(len(coords) - 1):
        x1, y1 = coords[i]
        x2, y2 = coords[i + 1]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if abs(cross) <= _EPS * max(abs(x2 - x1) + abs(y2 - y1), 1.0):
            if min(x1, x2) - _EPS <= x <= max(x1, x2) + _EPS and (
                min(y1, y2) - _EPS <= y <= max(y1, y2) + _EPS
            ):
                return True
    return False


def _ring_intersects_ring(a: LinearRing, b: LinearRing) -> bool:
    for i in range(len(a.coords) - 1):
        ax1, ay1 = a.coords[i]
        ax2, ay2 = a.coords[i + 1]
        for j in range(len(b.coords) - 1):
            bx1, by1 = b.coords[j]
            bx2, by2 = b.coords[j + 1]
            if segments_intersect(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2):
                return True
    return False


def _linestring_crosses_ring(line: LineString, ring: LinearRing) -> bool:
    for i in range(len(line.coords) - 1):
        x1, y1 = line.coords[i]
        x2, y2 = line.coords[i + 1]
        for j in range(len(ring.coords) - 1):
            rx1, ry1 = ring.coords[j]
            rx2, ry2 = ring.coords[j + 1]
            if segments_intersect(x1, y1, x2, y2, rx1, ry1, rx2, ry2):
                return True
    return False


def _linestrings_intersect(a: LineString, b: LineString) -> bool:
    for i in range(len(a.coords) - 1):
        x1, y1 = a.coords[i]
        x2, y2 = a.coords[i + 1]
        for j in range(len(b.coords) - 1):
            u1, v1 = b.coords[j]
            u2, v2 = b.coords[j + 1]
            if segments_intersect(x1, y1, x2, y2, u1, v1, u2, v2):
                return True
    return False


def _linestring_in_polygon(line: LineString, polygon: Polygon) -> bool:
    """True when the polyline lies entirely inside the closed polygon.

    Containment is decided by sampling: every vertex and every segment
    midpoint must lie inside the closed region.  This matches the exact
    answer whenever consecutive boundary crossings are farther apart than
    half a segment — true for the street/zone data shapes this library
    generates — and errs toward False only through the midpoint test.
    """
    if line.is_empty or polygon.is_empty:
        return False
    coords = line.coords
    for x, y in coords:
        if not point_in_polygon(float(x), float(y), polygon):
            return False
    for i in range(len(coords) - 1):
        mx = (coords[i, 0] + coords[i + 1, 0]) / 2.0
        my = (coords[i, 1] + coords[i + 1, 1]) / 2.0
        if not point_in_polygon(float(mx), float(my), polygon):
            return False
    return True


def _polygon_in_polygon(inner: Polygon, outer: Polygon) -> bool:
    """True when ``inner`` (shell and holes) lies inside ``outer``."""
    if inner.is_empty or outer.is_empty:
        return False
    if not outer.envelope.contains(inner.envelope):
        return False
    for x, y in inner.shell.coords:
        if not point_in_polygon(float(x), float(y), outer):
            return False
    # Touching boundaries are allowed for closed-region containment, so a
    # segment-crossing test alone cannot distinguish touch from cross; we
    # additionally require every inner-edge midpoint to stay inside.
    for i in range(len(inner.shell.coords) - 1):
        mx = (inner.shell.coords[i, 0] + inner.shell.coords[i + 1, 0]) / 2.0
        my = (inner.shell.coords[i, 1] + inner.shell.coords[i + 1, 1]) / 2.0
        if not point_in_polygon(float(mx), float(my), outer):
            return False
    for hole in outer.holes:
        for x, y in hole.coords[:-1]:
            if point_in_polygon(float(x), float(y), inner):
                return False
    return True


def within(a: Geometry, b: Geometry) -> bool:
    """True when geometry ``a`` lies within geometry ``b``.

    Supports the combinations the paper's joins and UDFs need: any part
    of a Multi* left side distributes with *all* semantics (every part
    within), and Multi* right sides distribute with *any* semantics for
    points (a point is within a multipolygon when it is within some part).
    """
    if a.is_empty or b.is_empty:
        return False
    if isinstance(a, (MultiPoint, MultiLineString, MultiPolygon)):
        return all(within(part, b) for part in a.parts if not part.is_empty)
    if isinstance(b, MultiPolygon):
        return any(within(a, part) for part in b.parts)
    if isinstance(a, Point):
        if isinstance(b, Polygon):
            return point_in_polygon(a.x, a.y, b)
        if isinstance(b, LineString):
            return point_on_linestring(a.x, a.y, b)
        if isinstance(b, MultiLineString):
            return any(point_on_linestring(a.x, a.y, part) for part in b.parts)
        if isinstance(b, Point):
            return a.x == b.x and a.y == b.y
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _linestring_in_polygon(a, b)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygon_in_polygon(a, b)
    # A higher-dimensional geometry can never lie within a lower-dimensional
    # one (a polygon has interior area; points and lines have none).
    rank = {GeometryType.POINT: 0, GeometryType.LINESTRING: 1, GeometryType.POLYGON: 2}
    rank_a = rank.get(a.geometry_type)
    rank_b = rank.get(b.geometry_type)
    if rank_a is not None and rank_b is not None and rank_a > rank_b:
        return False
    raise GeometryError(
        f"within({a.geometry_type.value}, {b.geometry_type.value}) is not supported"
    )


def intersects(a: Geometry, b: Geometry) -> bool:
    """True when the geometries share at least one point."""
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.intersects(b.envelope):
        return False
    if isinstance(a, (MultiPoint, MultiLineString, MultiPolygon)):
        return any(intersects(part, b) for part in a.parts)
    if isinstance(b, (MultiPoint, MultiLineString, MultiPolygon)):
        return any(intersects(a, part) for part in b.parts)
    # Normalise ordering: Point < LineString < Polygon.
    rank = {GeometryType.POINT: 0, GeometryType.LINESTRING: 1, GeometryType.POLYGON: 2}
    if a.geometry_type not in rank or b.geometry_type not in rank:
        raise GeometryError(
            f"intersects({a.geometry_type.value}, {b.geometry_type.value}) is not supported"
        )
    if rank[a.geometry_type] > rank[b.geometry_type]:
        a, b = b, a
    if isinstance(a, Point):
        if isinstance(b, Point):
            return a.x == b.x and a.y == b.y
        if isinstance(b, LineString):
            return point_on_linestring(a.x, a.y, b)
        return point_in_polygon(a.x, a.y, b)
    if isinstance(a, LineString):
        if isinstance(b, LineString):
            return _linestrings_intersect(a, b)
        # line vs polygon: any vertex inside, or any segment crossing a ring
        if any(point_in_polygon(float(x), float(y), b) for x, y in a.coords):
            return True
        return any(_linestring_crosses_ring(a, ring) for ring in b.rings)
    # polygon vs polygon: ring crossing, or one fully containing the other
    assert isinstance(a, Polygon) and isinstance(b, Polygon)
    for ring_a in a.rings:
        for ring_b in b.rings:
            if _ring_intersects_ring(ring_a, ring_b):
                return True
    ax, ay = a.shell.coords[0]
    bx, by = b.shell.coords[0]
    return point_in_polygon(float(ax), float(ay), b) or point_in_polygon(
        float(bx), float(by), a
    )
