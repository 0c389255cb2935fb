"""Pair-major ``Intersects``: one vector pass over candidate-pair arrays.

The scalar refinement (:func:`repro.geometry.algorithms.predicates.intersects`)
answers one ``(probe, build)`` pair per call from geometry objects.
:func:`intersects_pairs` answers a whole array of pairs straight from two
packed columns' ``coords / rings / parts / geoms`` buffers — no geometry
object is touched — for LineString, Polygon, MultiLineString and
MultiPolygon rows on either side.

It is staged the way the scalar code is:

1. every Multi* pair expands to its part pairs behind the per-part
   envelope precheck (``any`` over the survivors);
2. vertex-in-polygon, behind the polygon-envelope precheck and with
   holes: every line vertex for line x polygon, the two shell starts for
   polygon x polygon;
3. segment x ring-edge crossings, only for part pairs stage 2 left
   undecided (and for line x line, which has no stage 2).

Every float expression is the scalar predicate's own — ``point_in_ring``'s
boundary and crossing tests, ``orientation``'s relative-epsilon turn,
``on_segment``'s padded box — evaluated elementwise in the same IEEE
order, so each answer is bit-for-bit the scalar one (the scalar functions
stay as the oracle the boundary-parity tests compare against).

The two ragged grids (vertices x ring edges, segments x ring edges) are
walked in blocks of ``_BLOCK_CELLS`` cells, so the temporaries stay a
fixed size however many candidate pairs a batch holds; a block may end in
the middle of a pair.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol

import numpy as np

__all__ = ["PAIR_TYPES", "RingTables", "intersects_pairs", "ring_tables"]

_EPS = 1e-12

# Cells of a (vertex x edge) or (segment x edge) grid evaluated per numpy
# pass: ~30 float64 temporaries of this length are alive at once.
_BLOCK_CELLS = 1 << 14

# The columns' type codes (``repro.columnar.column``, which imports this
# module for its ring tables).
_LINESTRING = 2
_POLYGON = 3
_MULTILINESTRING = 5
_MULTIPOLYGON = 6

#: Indexed by column type code: the types the kernel answers (anything
#: else is the scalar predicate's), and which of them are polygonal.
PAIR_TYPES = np.zeros(8, dtype=bool)
PAIR_TYPES[[_LINESTRING, _POLYGON, _MULTILINESTRING, _MULTIPOLYGON]] = True
_POLYGONAL = np.zeros(8, dtype=bool)
_POLYGONAL[[_POLYGON, _MULTIPOLYGON]] = True

_OUTSIDE = 0
_INSIDE = 1
_BOUNDARY = 2


class RingTables(NamedTuple):
    """Offsets the kernel derives once per buffer set (see :func:`ring_tables`)."""

    part_box: np.ndarray  # (nparts, 4): the part's envelope, inverted when empty
    part_live: np.ndarray  # (nparts,) bool: the part is not empty
    ring_edges: np.ndarray  # (nrings,): edges in each ring (vertices - 1)
    part_edge_start: np.ndarray  # (nparts + 1,): a part's edges, as a range of...
    edge_coord: np.ndarray  # (nedges,): ...the coords row each edge starts at


class PackedGeometries(Protocol):
    """What the kernel reads of a column's shared buffer set."""

    coords: np.ndarray
    rings: np.ndarray
    parts: np.ndarray
    geoms: np.ndarray
    types: np.ndarray
    ring_tables: RingTables


def ring_tables(coords: np.ndarray, rings: np.ndarray, parts: np.ndarray) -> RingTables:
    """Derive the per-part envelopes and edge offsets of one buffer set.

    A part's envelope is its first ring's — the polyline itself, or the
    polygon's shell, exactly ``LineString`` / ``Polygon._compute_envelope``.
    """
    rings = rings.astype(np.int64)
    parts = parts.astype(np.int64)
    nparts = len(parts) - 1
    part_live = parts[1:] > parts[:-1]
    part_box = np.empty((nparts, 4), dtype=np.float64)
    part_box[:, :2] = np.inf
    part_box[:, 2:] = -np.inf
    live = np.flatnonzero(part_live)
    if len(live):
        first = parts[live]
        # reduceat wants segment starts; each first ring is a segment and
        # the gap up to the next first ring is a second one, discarded.
        cuts = np.column_stack([rings[first], rings[first + 1]]).ravel()
        if cuts[-1] == len(coords):
            cuts = cuts[:-1]
        part_box[live, :2] = np.minimum.reduceat(coords, cuts, axis=0)[::2]
        part_box[live, 2:] = np.maximum.reduceat(coords, cuts, axis=0)[::2]
    ring_edges = np.maximum(np.diff(rings) - 1, 0)
    ring_edge_start = np.concatenate([[0], np.cumsum(ring_edges)])
    edge_coord = np.arange(ring_edge_start[-1], dtype=np.int64) + np.repeat(
        rings[:-1] - ring_edge_start[:-1], ring_edges
    )
    return RingTables(part_box, part_live, ring_edges, ring_edge_start[parts], edge_coord)


def _ranges(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten ``counts[k]`` cells per item: each cell's item and its
    position within the item (``[2, 3]`` -> ``[0 0 1 1 1]``, ``[0 1 0 1 2]``)."""
    item = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return item, np.arange(len(item), dtype=np.int64) - (np.cumsum(counts) - counts)[item]


def _cell_blocks(counts: np.ndarray):
    """:func:`_ranges`, at most ``_BLOCK_CELLS`` cells at a time."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    starts = ends - counts
    for lo in range(0, total, _BLOCK_CELLS):
        hi = min(lo + _BLOCK_CELLS, total)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(starts, hi, side="left"))
        held = np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo)
        item = np.repeat(np.arange(first, last, dtype=np.int64), held)
        yield item, np.arange(lo, hi, dtype=np.int64) - starts[item]


# -- the segment predicates, elementwise ----------------------------------------


def _orientation(abx, aby, ax, ay, cx, cy) -> np.ndarray:
    """``segments.orientation`` for a->b->c, given ``b - a`` as ``(abx, aby)``."""
    acx = cx - ax
    acy = cy - ay
    cross = abx * acy - aby * acx
    scale = np.abs(abx) + np.abs(aby) + np.abs(acx) + np.abs(acy)
    turn = np.where(cross > 0.0, 1, -1).astype(np.int8)
    turn[np.abs(cross) <= _EPS * np.maximum(scale, 1.0)] = 0
    return turn


def _on_segment(ax, ay, bx, by, px, py) -> np.ndarray:
    """``segments.on_segment``: p inside the padded box of a-b."""
    return (
        (np.minimum(ax, bx) - _EPS <= px)
        & (px <= np.maximum(ax, bx) + _EPS)
        & (np.minimum(ay, by) - _EPS <= py)
        & (py <= np.maximum(ay, by) + _EPS)
    )


def _segments_intersect(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """``segments.segments_intersect`` for closed segments a-b and c-d."""
    abx = bx - ax
    aby = by - ay
    cdx = dx - cx
    cdy = dy - cy
    o1 = _orientation(abx, aby, ax, ay, cx, cy)
    o2 = _orientation(abx, aby, ax, ay, dx, dy)
    o3 = _orientation(cdx, cdy, cx, cy, ax, ay)
    o4 = _orientation(cdx, cdy, cx, cy, bx, by)
    hit = (o1 != o2) & (o3 != o4)
    for turn, (sx, sy, tx, ty), (px, py) in (
        (o1, (ax, ay, bx, by), (cx, cy)),
        (o2, (ax, ay, bx, by), (dx, dy)),
        (o3, (cx, cy, dx, dy), (ax, ay)),
        (o4, (cx, cy, dx, dy), (bx, by)),
    ):
        flat = np.flatnonzero(turn == 0)
        if len(flat):
            hit[flat] |= _on_segment(
                sx[flat], sy[flat], tx[flat], ty[flat], px[flat], py[flat]
            )
    return hit


def _ring_locations(px, py, data: PackedGeometries, ring_ids) -> np.ndarray:
    """``predicates.point_in_ring`` of point ``k`` against ring ``ring_ids[k]``."""
    coords = data.coords
    ring_start = data.rings[ring_ids].astype(np.int64)
    boundary = np.zeros(len(ring_ids), dtype=bool)
    crossings = np.zeros(len(ring_ids), dtype=np.int64)
    for item, edge in _cell_blocks(data.ring_tables.ring_edges[ring_ids]):
        start = ring_start[item] + edge
        x1 = coords[start, 0]
        y1 = coords[start, 1]
        x2 = coords[start + 1, 0]
        y2 = coords[start + 1, 1]
        x = px[item]
        y = py[item]
        dx = x2 - x1
        dy = y2 - y1
        cross = dx * (y - y1) - dy * (x - x1)
        on_edge = (
            (np.abs(cross) <= _EPS * np.maximum(np.abs(dx) + np.abs(dy), 1.0))
            & (np.minimum(x1, x2) - _EPS <= x)
            & (x <= np.maximum(x1, x2) + _EPS)
            & (np.minimum(y1, y2) - _EPS <= y)
            & (y <= np.maximum(y1, y2) + _EPS)
        )
        boundary[item[on_edge]] = True
        straddles = np.flatnonzero((y1 > y) != (y2 > y))
        if len(straddles):
            s = straddles
            x_cross = x1[s] + (y[s] - y1[s]) * dx[s] / dy[s]
            crossed = item[s[x[s] < x_cross]]
            if len(crossed):
                low = int(item[0])
                crossings[low : int(item[-1]) + 1] += np.bincount(
                    crossed - low, minlength=int(item[-1]) - low + 1
                )
    return np.where(boundary, _BOUNDARY, crossings & 1)


def _points_in_polygons(px, py, data: PackedGeometries, poly_parts) -> np.ndarray:
    """``predicates.point_in_polygon`` of point ``k`` in polygon part
    ``poly_parts[k]`` (a non-empty part), boundary counting as inside."""
    box = data.ring_tables.part_box[poly_parts]
    inside = np.zeros(len(px), dtype=bool)
    near = np.flatnonzero(
        (box[:, 0] <= px) & (px <= box[:, 2]) & (box[:, 1] <= py) & (py <= box[:, 3])
    )
    if not len(near):
        return inside
    first_ring = data.parts[poly_parts[near]].astype(np.int64)
    ring_count = data.parts[poly_parts[near] + 1] - first_ring
    query, ring = _ranges(ring_count)
    location = _ring_locations(
        px[near][query], py[near][query], data, first_ring[query] + ring
    )
    shell = location[np.cumsum(ring_count) - ring_count]
    # The first hole a point is not outside of decides: strictly inside
    # it the point is out of the polygon, on its boundary it is in.
    in_hole = np.zeros(len(near), dtype=bool)
    holes = np.flatnonzero((ring > 0) & (location != _OUTSIDE))
    if len(holes):
        hit_query, first = np.unique(query[holes], return_index=True)
        in_hole[hit_query] = location[holes[first]] == _INSIDE
    inside[near] = (shell == _BOUNDARY) | ((shell == _INSIDE) & ~in_hole)
    return inside


def _edges_cross(first: PackedGeometries, first_parts, second: PackedGeometries, second_parts):
    """Whether any edge of part ``first_parts[k]`` meets any edge of part
    ``second_parts[k]`` — ``_linestring_crosses_ring`` over every ring,
    ``_linestrings_intersect`` and ``_ring_intersects_ring`` in one grid."""
    tables_a = first.ring_tables
    tables_b = second.ring_tables
    start_a = tables_a.part_edge_start[first_parts]
    start_b = tables_b.part_edge_start[second_parts]
    count_b = tables_b.part_edge_start[second_parts + 1] - start_b
    cells = (tables_a.part_edge_start[first_parts + 1] - start_a) * count_b
    crossed = np.zeros(len(first_parts), dtype=bool)
    a = first.coords
    b = second.coords
    for item, cell in _cell_blocks(cells):
        ia = tables_a.edge_coord[start_a[item] + cell // count_b[item]]
        ib = tables_b.edge_coord[start_b[item] + cell % count_b[item]]
        hit = _segments_intersect(
            a[ia, 0], a[ia, 1], a[ia + 1, 0], a[ia + 1, 1],
            b[ib, 0], b[ib, 1], b[ib + 1, 0], b[ib + 1, 1],
        )
        crossed[item[hit]] = True
    return crossed


def _decide(first: PackedGeometries, first_parts, first_poly, second: PackedGeometries,
            second_parts, second_poly) -> np.ndarray:
    """Simple x simple ``intersects`` for non-empty part pairs whose first
    part ranks no higher than the second (line before polygon)."""
    met = np.zeros(len(first_parts), dtype=bool)
    # Stage 2a, line x polygon: any line vertex in the polygon.
    lines = np.flatnonzero(~first_poly & second_poly)
    if len(lines):
        rings = first.rings
        ring = first.parts[first_parts[lines]]
        start = rings[ring].astype(np.int64)
        pair, vertex = _ranges(rings[ring + 1] - start)
        at = start[pair] + vertex
        inside = _points_in_polygons(
            first.coords[at, 0], first.coords[at, 1], second, second_parts[lines][pair]
        )
        met[lines[pair[inside]]] = True
    # Stage 2b, polygon x polygon: either shell's first vertex in the other.
    polygons = np.flatnonzero(first_poly & second_poly)
    if len(polygons):
        for (a, a_parts), (b, b_parts) in (
            ((first, first_parts[polygons]), (second, second_parts[polygons])),
            ((second, second_parts[polygons]), (first, first_parts[polygons])),
        ):
            at = a.rings[a.parts[a_parts]].astype(np.int64)
            inside = _points_in_polygons(a.coords[at, 0], a.coords[at, 1], b, b_parts)
            met[polygons[inside]] = True
    # Stage 3: edge crossings decide whatever is still open.
    undecided = np.flatnonzero(~met)
    if len(undecided):
        crossed = _edges_cross(
            first, first_parts[undecided], second, second_parts[undecided]
        )
        met[undecided[crossed]] = True
    return met


def intersects_pairs(
    probe: PackedGeometries, probe_rows, build: PackedGeometries, build_rows
) -> np.ndarray:
    """``predicates.intersects(probe row, build row)`` for parallel row arrays.

    ``probe`` / ``build`` are columns' shared buffer sets and the rows
    index their ``geoms`` / ``types`` buffers; every row's type must be
    one :data:`PAIR_TYPES` marks.  Returns one bool per pair.
    """
    probe_rows = np.asarray(probe_rows, dtype=np.int64)
    build_rows = np.asarray(build_rows, dtype=np.int64)
    answers = np.zeros(len(probe_rows), dtype=bool)
    if not len(answers):
        return answers
    # Stage 1: Multi* rows distribute over their parts (probe parts outer,
    # build parts inner); an empty part or disjoint part envelopes is the
    # scalar recursion's early False.
    probe_first = probe.geoms[probe_rows].astype(np.int64)
    build_first = build.geoms[build_rows].astype(np.int64)
    build_count = build.geoms[build_rows + 1] - build_first
    pair, cell = _ranges((probe.geoms[probe_rows + 1] - probe_first) * build_count)
    probe_parts = probe_first[pair] + cell // build_count[pair]
    build_parts = build_first[pair] + cell % build_count[pair]
    a = probe.ring_tables.part_box[probe_parts]
    b = build.ring_tables.part_box[build_parts]
    near = np.flatnonzero(
        probe.ring_tables.part_live[probe_parts]
        & build.ring_tables.part_live[build_parts]
        & (a[:, 0] <= b[:, 2])
        & (b[:, 0] <= a[:, 2])
        & (a[:, 1] <= b[:, 3])
        & (b[:, 1] <= a[:, 3])
    )
    pair = pair[near]
    probe_parts = probe_parts[near]
    build_parts = build_parts[near]
    probe_poly = _POLYGONAL[probe.types[probe_rows[pair]]]
    build_poly = _POLYGONAL[build.types[build_rows[pair]]]
    # The scalar code orders a pair line-before-polygon, probe first on a
    # tie; only polygon-probe x line-build pairs swap sides.
    swap = probe_poly & ~build_poly
    keep = np.flatnonzero(~swap)
    swap = np.flatnonzero(swap)
    if len(keep):
        met = _decide(probe, probe_parts[keep], probe_poly[keep],
                      build, build_parts[keep], build_poly[keep])
        answers[pair[keep[met]]] = True
    if len(swap):
        met = _decide(build, build_parts[swap], build_poly[swap],
                      probe, probe_parts[swap], probe_poly[swap])
        answers[pair[swap[met]]] = True
    return answers
