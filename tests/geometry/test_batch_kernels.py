"""Batch refinement kernels agree with the scalar predicates, bit for bit.

The per-handle ``contains_batch_counted`` / ``within_distance_batch_counted``
kernels over N points return exactly what N scalar calls return — same
booleans, same per-point charges and the same counter totals on both the
fast (JTS-like) and slow (GEOS-like) engines.  These tests check that
promise on seeded random geometry as well as the degenerate shapes the
strip index is most likely to get wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import (
    LineString,
    MultiLineString,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry.engine import create_engine
from repro.geometry.prepared import clear_prepared_cache, prepare_cached


@pytest.fixture(params=["fast", "slow"])
def engine(request):
    return create_engine(request.param)


def random_polygon(rng, cx, cy, num_vertices=8, radius=3.0):
    """A simple star-shaped polygon around (cx, cy)."""
    angles = sorted(rng.uniform(0, 2 * np.pi) for _ in range(num_vertices))
    return Polygon(
        [
            (
                cx + rng.uniform(0.3, 1.0) * radius * np.cos(a),
                cy + rng.uniform(0.3, 1.0) * radius * np.sin(a),
            )
            for a in angles
        ]
    )


def random_polyline(rng, num_vertices=6):
    x, y = rng.uniform(-5, 5), rng.uniform(-5, 5)
    coords = [(x, y)]
    for _ in range(num_vertices - 1):
        x += rng.uniform(-3, 3)
        y += rng.uniform(-3, 3)
        coords.append((x, y))
    return LineString(coords)


def batch_xy(points):
    xs = np.array([p.x for p in points], dtype=np.float64)
    ys = np.array([p.y for p in points], dtype=np.float64)
    return xs, ys


def assert_contains_parity(engine, geometry, points):
    handle = engine.prepare(geometry)
    xs, ys = batch_xy(points)
    batch = engine.contains_batch_counted(handle, xs, ys)[0]
    scalar = [engine.point_within(p, handle) for p in points]
    assert batch.tolist() == scalar


def assert_distance_parity(engine, geometry, points, d):
    handle = engine.prepare(geometry)
    xs, ys = batch_xy(points)
    within = engine.within_distance_batch_counted(handle, xs, ys, d)[0]
    assert within.tolist() == [
        engine.point_within_distance(p, handle, d) for p in points
    ]


class TestRandomizedEquivalence:
    def test_contains_random_polygons(self, engine, rng):
        for _ in range(20):
            polygon = random_polygon(
                rng, rng.uniform(-5, 5), rng.uniform(-5, 5), rng.randint(3, 12)
            )
            points = [
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                for _ in range(40)
            ]
            assert_contains_parity(engine, polygon, points)

    def test_within_distance_random_polylines(self, engine, rng):
        for _ in range(20):
            line = random_polyline(rng, rng.randint(2, 10))
            points = [
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                for _ in range(40)
            ]
            assert_distance_parity(engine, line, points, rng.uniform(0.5, 4.0))

    def test_random_multipolygons(self, engine, rng):
        for _ in range(10):
            multi = MultiPolygon(
                [
                    random_polygon(rng, rng.uniform(-6, 6), rng.uniform(-6, 6))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            points = [
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                for _ in range(30)
            ]
            assert_contains_parity(engine, multi, points)

    def test_random_multilinestrings(self, engine, rng):
        for _ in range(10):
            multi = MultiLineString(
                [random_polyline(rng) for _ in range(rng.randint(1, 3))]
            )
            points = [
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                for _ in range(30)
            ]
            assert_distance_parity(engine, multi, points, rng.uniform(0.5, 4.0))

    def test_point_build_geometry(self, engine, rng):
        target = Point(1.5, -2.5)
        points = [
            Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(50)
        ]
        assert_distance_parity(engine, target, points, 2.0)


class TestEdgeCases:
    def test_point_on_vertex(self, engine, unit_square):
        assert_contains_parity(engine, unit_square, [Point(0, 0), Point(10, 10)])

    def test_point_on_edge(self, engine, unit_square):
        assert_contains_parity(engine, unit_square, [Point(5, 0), Point(0, 5)])

    def test_empty_batch(self, engine, unit_square):
        handle = engine.prepare(unit_square)
        xs = np.array([], dtype=np.float64)
        result = engine.contains_batch_counted(handle, xs, xs)[0]
        assert result.shape == (0,)
        within = engine.within_distance_batch_counted(handle, xs, xs, 1.0)[0]
        assert within.shape == (0,)

    def test_all_outside_batch(self, engine, unit_square):
        points = [Point(100 + i, 100 + i) for i in range(20)]
        assert_contains_parity(engine, unit_square, points)
        handle = engine.prepare(unit_square)
        xs, ys = batch_xy(points)
        assert not engine.contains_batch_counted(handle, xs, ys)[0].any()

    def test_single_strip_polygon(self, engine):
        # A triangle: few enough edges that the strip index degenerates to
        # a single strip, exercising the one-bucket binning path.
        triangle = Polygon([(0, 0), (4, 0), (2, 3)])
        points = [
            Point(2, 1),  # inside
            Point(2, 3),  # apex vertex
            Point(2, 0),  # on the base edge
            Point(5, 5),  # outside
        ]
        assert_contains_parity(engine, triangle, points)

    def test_hole_and_concave(self, engine, square_with_hole, l_shape, random_points):
        assert_contains_parity(engine, square_with_hole, random_points)
        assert_contains_parity(engine, l_shape, random_points)

    def test_polyline_distances(self, engine, diagonal_line, random_points):
        assert_distance_parity(engine, diagonal_line, random_points, 1.5)


class TestCounterParity:
    """A batch of N charges exactly what N scalar calls charge."""

    @pytest.mark.parametrize("name", ["fast", "slow"])
    def test_contains_counters(self, name, unit_square, random_points):
        scalar_engine = create_engine(name)
        handle = scalar_engine.prepare(unit_square)
        for p in random_points:
            scalar_engine.point_within(p, handle)

        batch_engine = create_engine(name)
        handle = batch_engine.prepare(unit_square)
        xs, ys = batch_xy(random_points)
        batch_engine.contains_batch_counted(handle, xs, ys)

        assert (
            batch_engine.counters.predicate_calls
            == scalar_engine.counters.predicate_calls
        )
        assert batch_engine.counters.vertex_ops == scalar_engine.counters.vertex_ops
        assert (
            batch_engine.counters.allocations == scalar_engine.counters.allocations
        )

    @pytest.mark.parametrize("name", ["fast", "slow"])
    def test_distance_counters(self, name, diagonal_line, random_points):
        scalar_engine = create_engine(name)
        handle = scalar_engine.prepare(diagonal_line)
        for p in random_points:
            scalar_engine.point_within_distance(p, handle, 2.0)

        batch_engine = create_engine(name)
        handle = batch_engine.prepare(diagonal_line)
        xs, ys = batch_xy(random_points)
        batch_engine.within_distance_batch_counted(handle, xs, ys, 2.0)

        assert (
            batch_engine.counters.predicate_calls
            == scalar_engine.counters.predicate_calls
        )
        assert batch_engine.counters.vertex_ops == scalar_engine.counters.vertex_ops
        assert (
            batch_engine.counters.allocations == scalar_engine.counters.allocations
        )

    def test_counted_per_point_arrays(self, engine, unit_square, random_points):
        """The counted variant's per-point arrays sum to the counter delta."""
        handle = engine.prepare(unit_square)
        xs, ys = batch_xy(random_points)
        before = engine.counters.vertex_ops
        results, vertex, alloc = engine.contains_batch_counted(handle, xs, ys)
        assert len(results) == len(vertex) == len(alloc) == len(random_points)
        assert engine.counters.vertex_ops - before == int(vertex.sum())


def scalar_counted(name, call, points):
    """N scalar calls: results, per-point (vertex, alloc) deltas, counters."""
    engine = create_engine(name)
    results, vertex, alloc = [], [], []
    for point in points:
        vertex_before = engine.counters.vertex_ops
        alloc_before = engine.counters.allocations
        results.append(call(engine, point))
        vertex.append(engine.counters.vertex_ops - vertex_before)
        alloc.append(engine.counters.allocations - alloc_before)
    return results, vertex, alloc, engine.counters


def assert_counted_parity(name, geometry, points, d=None):
    """One ``*_counted`` batch call == N scalar calls, in every output:
    results, the three counters and the per-point vertex / alloc arrays."""
    points = [Point(*p) if isinstance(p, tuple) else p for p in points]
    probe = create_engine(name)
    handle = probe.prepare(geometry)
    xs, ys = batch_xy(points)
    if d is None:
        want = scalar_counted(name, lambda e, p: e.point_within(p, handle), points)
        got = probe.contains_batch_counted(handle, xs, ys)
    else:
        want = scalar_counted(
            name, lambda e, p: e.point_within_distance(p, handle, d), points
        )
        got = probe.within_distance_batch_counted(handle, xs, ys, d)
    results, vertex, alloc, counters = want
    assert got[0].tolist() == results
    assert got[1].tolist() == vertex
    assert got[2].tolist() == alloc
    assert probe.counters == counters
    return got


def ring(num_edges, cx=0.0, cy=0.0, radius=5.0):
    """A convex polygon with exactly ``num_edges`` edges."""
    return Polygon(
        [
            (
                cx + radius * np.cos(2 * np.pi * k / num_edges),
                cy + radius * np.sin(2 * np.pi * k / num_edges),
            )
            for k in range(num_edges)
        ]
    )


def boundary_probes(polygon):
    """Vertices, edge midpoints, and points within ~1e-12 of both, for
    every ring; plus the corners of the envelope and a hair outside it."""
    probes = []
    for poly_ring in polygon.rings:
        coords = poly_ring.coords
        for i in range(len(coords) - 1):
            x1, y1 = (float(v) for v in coords[i])
            x2, y2 = (float(v) for v in coords[i + 1])
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            probes += [
                (x1, y1),
                (mx, my),
                (mx + 1e-12, my),
                (mx, my - 5e-13),
                (mx + 3e-12, my + 3e-12),
                (x1 + 1e-12, y1 - 1e-12),
                (x1, my),  # shares an x with a vertex
                (mx, y1),  # shares a y with a vertex
            ]
            # Collinear, a hair past the edge's end: inside a box grown by
            # an epsilon scaled to the edge, outside one grown by 1e-12.
            length = float(np.hypot(x2 - x1, y2 - y1))
            for reach in (5e-13, 4e-12):
                probes.append(
                    (x2 + (x2 - x1) / length * reach, y2 + (y2 - y1) / length * reach)
                )
    env = polygon.envelope
    probes += [
        (env.min_x, env.min_y),
        (env.max_x, env.max_y),
        (env.min_x - 1e-12, (env.min_y + env.max_y) / 2),
        (env.max_x + 1e-12, (env.min_y + env.max_y) / 2),
        ((env.min_x + env.max_x) / 2, env.max_y + 1e-12),
        (env.max_x, (env.min_y + env.max_y) / 2),
    ]
    return probes


@pytest.mark.parametrize("name", ["fast", "slow"])
class TestCountedParityOnTheBoundary:
    """The batch kernels against N scalar calls where rounding decides.

    For the slow engine this is the identity the query paths rest on: its
    batch kernels are vector code that never runs the churn loop, so only
    these comparisons tie results, charges and per-point shares to it.
    """

    def test_edges_vertices_and_holes(self, name, unit_square, square_with_hole, l_shape):
        for polygon in (unit_square, square_with_hole, l_shape):
            assert_counted_parity(name, polygon, boundary_probes(polygon))

    @pytest.mark.parametrize("num_edges", [3, 8, 47, 48, 49, 120])
    def test_both_sides_of_the_scalar_threshold(self, name, num_edges, rng):
        # Edges shorter than 1 (radius 5) and far longer (radius 400): the
        # prepared tuples of <= 48-edge polygons scale their epsilon by the
        # edge, the churn loop's box does not.
        for radius in (5.0, 400.0):
            polygon = ring(num_edges, cx=1.25, cy=-0.75, radius=radius)
            scattered = [
                (rng.uniform(-1.2, 1.2) * radius, rng.uniform(-1.2, 1.2) * radius)
                for _ in range(80)
            ]
            assert_counted_parity(name, polygon, boundary_probes(polygon) + scattered)

    def test_multipolygon_first_part_hit_stops_the_charges(self, name):
        first = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        second = ring(60, cx=2.0, cy=2.0, radius=1.5)  # overlaps the first
        third = Polygon([(10, 10), (12, 10), (11, 12)])
        multi = MultiPolygon([first, second, third])
        points = [(2, 2), (0, 0), (11, 10.5), (3.9, 3.9), (20, 20), (2, 3.4)]
        _, vertex, alloc = assert_counted_parity(name, multi, points)
        if name == "slow":
            # (2, 2) hits the first part: charged its 5 ring vertices only.
            assert vertex[0] == alloc[0] == first.num_points
            # (20, 20) reaches (and is charged for) every part.
            assert vertex[4] == multi.num_points

    def test_multipolygon_with_an_empty_part(self, name):
        multi = MultiPolygon(
            [Polygon.empty(), Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]), Polygon.empty()]
        )
        assert_counted_parity(name, multi, [(2, 2), (4, 4), (5, 5), (0, 2)])

    def test_exactly_at_distance_d(self, name):
        line = LineString([(0, 0), (10, 0), (10, 10)])
        d = 2.5
        points = [
            (5, d), (5, -d), (5, d + 1e-12), (5, d - 1e-12),   # off a segment
            (-1.5, -2.0), (11.5, 12.0), (-1.5, 2.0),            # 3-4-5 off the ends
            (10 + d, 5), (10 - d, 5), (0.1 * 3, 0.1 * 4),
            (10 + 0.7 * d, 10 + 0.7 * d), (-d * 0.6, -d * 0.8),
        ]
        assert_counted_parity(name, line, points, d=d)
        assert_counted_parity(name, line, points, d=0.5)

    def test_exactly_at_envelope_distance_d(self, name):
        line = LineString([(0, 0), (3, 4), (6, 0)])  # envelope (0, 0, 6, 4)
        d = 5.0
        points = [
            (-3, -4), (9, 8), (-3, 8), (9, -4),     # 3-4-5 off each corner
            (-5, 2), (11, 2), (3, 9), (3, -5),      # d off each side
            (-3 - 1e-12, -4), (9, 8 + 1e-12), (-5 - 1e-12, 2), (3, 9 + 1e-12),
            (-0.3, -0.4), (6.3, 4.4),
        ]
        assert_counted_parity(name, line, points, d=d)
        assert_counted_parity(name, line, [(-0.3, -0.4), (6.3, 4.4), (3, 4.5)], d=0.5)

    def test_thresholds_where_np_and_math_hypot_disagree(self, name):
        # np.hypot and math.hypot differ in the last ulp on ~0.6 % of
        # inputs; put the threshold on exactly such values, both for the
        # segment distance and for the envelope prune.
        import math

        rng = np.random.default_rng(7)
        a = rng.uniform(0.5, 9.0, 4000)
        b = rng.uniform(0.5, 9.0, 4000)
        differ = [
            (x, y)
            for x, y, h in zip(a.tolist(), b.tolist(), np.hypot(a, b).tolist())
            if h != math.hypot(x, y)
        ][:6]
        assert differ
        line = LineString([(0, 0), (0, 0), (-3, 0)])
        for x, y in differ:
            for d in (math.hypot(x, y), float(np.hypot(x, y))):
                assert_counted_parity(name, line, [(x, y), (x, -y), (y, x)], d=d)

    def test_zero_length_segments(self, name):
        line = LineString([(0, 0), (0, 0), (4, 0), (4, 0), (4, 3), (4, 3)])
        points = [(0, 0), (-1, 0), (2, 1), (4, 3), (5, 4), (4.6, 3.8), (9, 9)]
        assert_counted_parity(name, line, points, d=1.0)
        point_line = LineString([(2, 2), (2, 2)])
        assert_counted_parity(name, point_line, [(2, 2), (2.6, 2.8), (2.6, 2.8000001)], d=1.0)

    def test_multilinestring_early_exit(self, name):
        near = LineString([(0, 0), (10, 0)])
        long_far = LineString([(0, 50 + k % 2) for k in range(40)])
        multi = MultiLineString([near, LineString.empty(), long_far, LineString([(0, 1), (10, 1)])])
        points = [(5, 0.5), (5, 49.5), (5, 20), (-1, 0), (5, 1.5), (100, 100)]
        _, vertex, _ = assert_counted_parity(name, multi, points, d=1.0)
        if name == "slow":
            # (5, 0.5) matches the first part: the 40-vertex part is never churned.
            assert vertex[0] == near.num_points
            # (100, 100) is envelope-pruned by every part: nothing churned.
            assert vertex[5] == 0

    def test_random_multi_geometries(self, name, rng):
        for _ in range(15):
            multi = MultiPolygon(
                [
                    random_polygon(rng, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.choice([4, 9, 60]))
                    for _ in range(rng.randint(1, 4))
                ]
            )
            points = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(40)]
            assert_counted_parity(name, multi, points + boundary_probes(multi.parts[0]))
            lines = MultiLineString(
                [random_polyline(rng, rng.randint(2, 30)) for _ in range(rng.randint(1, 4))]
            )
            assert_counted_parity(name, lines, points, d=rng.uniform(0.2, 3.0))


def assert_pair_parity(probes, builds):
    """The pair kernel against ``predicates.intersects``, every probe x
    build pair in both roles, over sliced columns; returns the answers."""
    from repro.columnar import GeometryColumn
    from repro.geometry.algorithms import predicates
    from repro.geometry.algorithms.pairwise import intersects_pairs

    answers = []
    for left, right in ((probes, builds), (builds, probes)):
        # A leading row sliced away again: buffer rows != view rows.
        spare = LineString([(-99, -99), (-98, -98)])
        a = GeometryColumn.from_geometries([spare, *left]).slice(1, len(left) + 1)
        b = GeometryColumn.from_geometries([*right, spare]).take(np.arange(len(right)))
        rows_a, rows_b = (grid.ravel() for grid in np.mgrid[: len(left), : len(right)])
        got = intersects_pairs(*a.packed_rows(rows_a), *b.packed_rows(rows_b))
        want = [predicates.intersects(left[i], right[j]) for i, j in zip(rows_a, rows_b)]
        assert got.tolist() == want
        answers.append(want)
    return answers[0]


class TestPairKernelOnTheBoundary:
    """``intersects_pairs`` against the scalar predicate, pair by pair,
    where an epsilon, a hole or a part envelope decides."""

    def test_endpoints_on_edges_and_vertices(self, unit_square, l_shape):
        lines = [
            LineString([(-5, 5), (0, 5)]),       # ends on an edge
            LineString([(-5, -5), (0, 0)]),      # ends on a vertex
            LineString([(10, 10), (15, 12)]),    # starts on a vertex
            LineString([(-3, 4), (4, -3)]),      # clips the corner region
            LineString([(-3, 2), (2, -3.0000001)]),
            LineString([(4, 12), (4, 10), (12, 10)]),  # runs along an edge from outside
            LineString([(7, 7), (12, 7)]),       # l_shape: starts in the notch
            LineString([(4, 4), (9, 9)]),        # l_shape: starts on the inner vertex
            LineString([(-1, -1), (-1, 11), (11, 11), (11, -1), (-1, -1)]),  # encircles
        ]
        hits = assert_pair_parity(lines, [unit_square, l_shape])
        assert True in hits and False in hits

    def test_collinear_overlapping_segments(self):
        lines = [
            LineString([(0, 0), (10, 0)]),
            LineString([(5, 0), (15, 0)]),       # overlaps
            LineString([(10, 0), (20, 0)]),      # touches end to end
            LineString([(10 + 1e-12, 0), (20, 0)]),
            LineString([(10.0000001, 0), (20, 0)]),  # a gap
            LineString([(2, 0), (3, 0)]),        # contained
            LineString([(0, 1e-13), (10, 1e-13)]),   # parallel inside the band
            LineString([(0, 1e-9), (10, 1e-9)]),     # parallel outside it
            LineString([(3, 0), (3, 0)]),        # zero-length, on the line
            LineString([(3, 1), (3, 1)]),        # zero-length, off it
            LineString([(0, 0), (3, 4), (6, 8)]),    # collinear vertices
            LineString([(1.5, 2), (4.5, 6)]),
        ]
        hits = assert_pair_parity(lines, lines)
        assert True in hits and False in hits

    def test_line_in_shell_in_hole_and_along_the_hole(self, square_with_hole):
        lines = [
            LineString([(1, 1), (3, 3)]),        # wholly inside the shell
            LineString([(4.5, 4.5), (5.5, 5.5)]),    # wholly inside the hole
            LineString([(4, 4), (6, 4)]),        # along the hole boundary
            LineString([(4, 4.5), (4, 5.5)]),    # on the hole boundary, vertices off its corners
            LineString([(4.5, 5), (8, 5)]),      # from the hole out into the body
            LineString([(5, 5), (5, 5.5), (5.5, 5)]),
            LineString([(4 + 1e-13, 4.5), (5, 5)]),  # a hair inside the hole edge
            LineString([(11, 11), (12, 12)]),
        ]
        nested = Polygon(
            [(0, 0), (20, 0), (20, 20), (0, 20)],
            holes=[[(2, 2), (18, 2), (18, 18), (2, 18)], [(0.5, 0.5), (1, 0.5), (1, 1)]],
        )
        assert_pair_parity(lines, [square_with_hole, nested])
        # The first hole a vertex is not outside of decides; polygons too.
        inner = Polygon([(5, 5), (9, 5), (9, 9), (5, 9)])   # inside nested's big hole
        assert_pair_parity([inner, square_with_hole], [nested, square_with_hole])

    def test_contact_inside_the_epsilon_band(self, unit_square):
        lines = []
        for gap in (0.0, 5e-13, 1e-12, 2e-12, 1e-11, 1e-9):
            lines += [
                LineString([(-5, 5), (-gap, 5)]),            # stops short of the edge
                LineString([(10 + gap, 2), (15, 7)]),
                LineString([(5, 10 + gap), (5, 12)]),
                LineString([(-gap, -5), (-gap, 15)]),        # parallel to an edge
                LineString([(-1, -gap - 1), (11, -gap + 11)]),
                LineString([(10 + gap, 10 + gap), (12, 12)]),    # off a corner
            ]
        hits = assert_pair_parity(lines, [unit_square, LineString([(0, 0), (10, 10)])])
        assert True in hits and False in hits

    @pytest.mark.parametrize("scale", [1e-9, 1e9, 1 / 3])
    def test_magnitudes(self, scale, square_with_hole, l_shape, rng):
        def scaled(geometry):
            if isinstance(geometry, LineString):
                return LineString(geometry.coords * scale)
            return Polygon(
                geometry.shell.coords * scale, [h.coords * scale for h in geometry.holes]
            )

        lines = [
            LineString([(rng.randint(-2, 12), rng.randint(-2, 12)) for _ in range(rng.randint(2, 5))])
            for _ in range(40)
        ]
        geometries = [scaled(g) for g in [*lines, square_with_hole, l_shape]]
        assert_pair_parity(geometries, geometries)

    def test_multi_members_with_disjoint_part_envelopes(self, unit_square):
        far = Polygon([(100, 100), (101, 100), (101, 101), (100, 101)])
        multi_polygon = MultiPolygon([far, Polygon.empty(), unit_square])
        multi_line = MultiLineString(
            [LineString([(200, 200), (201, 201)]), LineString.empty(), LineString([(-1, 5), (5, 5)])]
        )
        # Inside the multi's envelope, outside every member's.
        between = LineString([(40, 40), (60, 60)])
        probes = [
            multi_line, between, LineString([(100.5, 100.5), (100.6, 100.7)]),
            MultiLineString([between, LineString([(300, 0), (301, 0)])]),
            MultiLineString([LineString.empty()]), MultiPolygon([Polygon.empty(), far]),
            MultiPolygon([Polygon([(4, 4), (6, 4), (6, 6), (4, 6)])]),
        ]
        hits = assert_pair_parity(probes, [multi_polygon, multi_line, unit_square, far])
        assert True in hits and False in hits

    def test_polygon_containment_without_a_ring_crossing(self, unit_square, square_with_hole):
        inside = Polygon([(1, 1), (3, 1), (3, 3), (1, 3)])
        in_the_hole = Polygon([(4.5, 4.5), (5.5, 4.5), (5.5, 5.5), (4.5, 5.5)])
        around = Polygon([(-5, -5), (15, -5), (15, 15), (-5, 15)])
        apart = Polygon([(20, 20), (21, 20), (21, 21)])
        touching = Polygon([(10, 0), (12, 0), (12, 2), (10, 2)])
        polygons = [inside, in_the_hole, around, apart, touching, unit_square, square_with_hole]
        hits = assert_pair_parity(polygons, polygons)
        assert True in hits and False in hits
        from repro.geometry.algorithms import predicates

        assert not predicates.intersects(in_the_hole, square_with_hole)

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
    def test_block_boundary_falls_mid_pair(self, monkeypatch, block, square_with_hole, rng):
        from repro.geometry.algorithms import pairwise

        monkeypatch.setattr(pairwise, "_BLOCK_CELLS", block)
        lines = [
            LineString([(rng.randint(-2, 12), rng.randint(-2, 12)) for _ in range(rng.randint(2, 6))])
            for _ in range(25)
        ]
        multi = MultiPolygon([square_with_hole, Polygon([(11, 11), (13, 11), (12, 13)])])
        assert_pair_parity(lines, [square_with_hole, multi, *lines[:5]])

    def test_random_geometry(self, rng):
        for _ in range(10):
            polygons = [
                random_polygon(rng, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.choice([4, 9, 40]))
                for _ in range(6)
            ]
            lines = [random_polyline(rng, rng.randint(2, 12)) for _ in range(12)]
            mixed = [
                *polygons, *lines, MultiPolygon(polygons[:3]), MultiLineString(lines[:4]),
            ]
            assert_pair_parity(mixed, mixed)

    def test_no_pairs(self, unit_square):
        from repro.columnar import GeometryColumn
        from repro.geometry.algorithms.pairwise import intersects_pairs

        column = GeometryColumn.from_geometries([unit_square])
        none = np.empty(0, dtype=np.int64)
        assert intersects_pairs(*column.packed_rows(none), *column.packed_rows(none)).tolist() == []


class TestSlowEngineRoutes:
    """The handle's type picks the slow engine's route, nothing else does."""

    def test_other_handles_keep_the_scalar_loop(self, unit_square, random_points):
        # NearestD against a polygon or a point still runs the churning
        # predicates point by point (no query path calls them).
        assert_counted_parity("slow", unit_square, random_points[:40], d=1.5)
        assert_counted_parity("slow", Point(5, 5), random_points[:40], d=1.5)

    def test_batch_kernels_build_no_coordinate_objects(self, monkeypatch, square_with_hole, random_points):
        from repro.geometry import engine as engine_mod

        def churned(self, x, y):
            raise AssertionError("the batch kernel churned a coordinate")

        monkeypatch.setattr(engine_mod._Coordinate, "__init__", churned)
        engine = create_engine("slow")
        xs, ys = batch_xy(random_points)
        hits, vertex, _ = engine.contains_batch_counted(square_with_hole, xs, ys)
        assert hits.any() and set(vertex.tolist()) == {square_with_hole.num_points}
        line = LineString([(0, 0), (5, 5), (10, 0)])
        assert engine.within_distance_batch_counted(line, xs, ys, 1.0)[0].any()
        with pytest.raises(AssertionError):
            engine.point_within(random_points[0], square_with_hole)


class TestPreparedCache:
    def test_identity_memoisation(self, unit_square):
        clear_prepared_cache()
        first = prepare_cached(unit_square)
        assert prepare_cached(unit_square) is first

    def test_equal_content_shares_handle(self):
        # Memoisation is by content fingerprint (not object identity):
        # two polygons with identical coordinates share one handle.
        clear_prepared_cache()
        a = Polygon([(0, 0), (1, 0), (1, 1)])
        b = Polygon([(0, 0), (1, 0), (1, 1)])
        assert prepare_cached(a) is prepare_cached(b)

    def test_distinct_content_gets_distinct_handles(self):
        clear_prepared_cache()
        a = Polygon([(0, 0), (1, 0), (1, 1)])
        b = Polygon([(0, 0), (2, 0), (2, 2)])
        assert prepare_cached(a) is not prepare_cached(b)

    def test_clear_resets(self, unit_square):
        clear_prepared_cache()
        first = prepare_cached(unit_square)
        clear_prepared_cache()
        assert prepare_cached(unit_square) is not first
