"""Refinement predicates: point-in-polygon, within, intersects."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from repro.geometry.algorithms.predicates import (
    intersects,
    point_in_polygon,
    point_in_ring,
    point_on_linestring,
    within,
)


class TestPointInRing:
    def test_inside_outside_boundary(self, unit_square):
        ring = unit_square.shell.coords
        assert point_in_ring(5, 5, ring) == 1
        assert point_in_ring(15, 5, ring) == 0
        assert point_in_ring(0, 5, ring) == 2
        assert point_in_ring(10, 10, ring) == 2

    def test_vertex_is_boundary(self, unit_square):
        assert point_in_ring(0, 0, unit_square.shell.coords) == 2


class TestPointInPolygon:
    def test_simple(self, unit_square):
        assert point_in_polygon(5, 5, unit_square)
        assert not point_in_polygon(-1, 5, unit_square)

    def test_hole_excluded(self, square_with_hole):
        assert not point_in_polygon(5, 5, square_with_hole)
        assert point_in_polygon(2, 2, square_with_hole)

    def test_hole_boundary_counts_as_inside(self, square_with_hole):
        assert point_in_polygon(4, 5, square_with_hole)

    def test_boundary_flag(self, unit_square):
        assert point_in_polygon(0, 5, unit_square, boundary_counts=True)
        assert not point_in_polygon(0, 5, unit_square, boundary_counts=False)

    def test_concave(self, l_shape):
        assert point_in_polygon(2, 2, l_shape)
        assert point_in_polygon(2, 8, l_shape)
        assert point_in_polygon(8, 2, l_shape)
        assert not point_in_polygon(8, 8, l_shape)  # the notch

    def test_empty_polygon(self):
        assert not point_in_polygon(0, 0, Polygon.empty())

    def test_outside_envelope_short_circuit(self, unit_square):
        assert not point_in_polygon(1e9, 1e9, unit_square)

    def test_ray_through_vertex(self):
        # Classic ray-casting corner case: the +x ray passes exactly
        # through a polygon vertex.
        diamond = Polygon([(0, -2), (2, 0), (0, 2), (-2, 0)])
        assert point_in_polygon(0, 0, diamond)
        assert not point_in_polygon(-3, 0, diamond)
        assert not point_in_polygon(3, 0, diamond)


class TestPointOnLineString:
    def test_on_segment(self, diagonal_line):
        assert point_on_linestring(2.5, 2.5, diagonal_line)

    def test_on_vertex(self, diagonal_line):
        assert point_on_linestring(5, 5, diagonal_line)

    def test_off_line(self, diagonal_line):
        assert not point_on_linestring(5, 4, diagonal_line)


class TestWithin:
    def test_point_in_polygon(self, unit_square):
        assert within(Point(1, 1), unit_square)
        assert not within(Point(11, 1), unit_square)

    def test_point_in_multipolygon(self, unit_square):
        far = Polygon([(20, 20), (21, 20), (21, 21), (20, 21)])
        mp = MultiPolygon([unit_square, far])
        assert within(Point(20.5, 20.5), mp)
        assert within(Point(5, 5), mp)
        assert not within(Point(15, 15), mp)

    def test_point_on_linestring(self, diagonal_line):
        assert within(Point(2.5, 2.5), diagonal_line)
        assert not within(Point(0, 1), diagonal_line)

    def test_point_within_point(self):
        assert within(Point(1, 2), Point(1, 2))
        assert not within(Point(1, 2), Point(1, 3))

    def test_multipoint_all_semantics(self, unit_square):
        inside = MultiPoint.of([(1, 1), (2, 2)])
        straddling = MultiPoint.of([(1, 1), (20, 20)])
        assert within(inside, unit_square)
        assert not within(straddling, unit_square)

    def test_linestring_in_polygon(self, unit_square):
        assert within(LineString([(1, 1), (9, 9)]), unit_square)
        assert not within(LineString([(1, 1), (11, 11)]), unit_square)

    def test_linestring_avoiding_hole(self, square_with_hole):
        assert within(LineString([(1, 1), (1, 9)]), square_with_hole)
        assert not within(LineString([(1, 5), (9, 5)]), square_with_hole)

    def test_polygon_in_polygon(self, unit_square):
        inner = Polygon([(2, 2), (8, 2), (8, 8), (2, 8)])
        assert within(inner, unit_square)
        assert not within(unit_square, inner)

    def test_polygon_not_within_when_poking_out(self, unit_square):
        poking = Polygon([(5, 5), (15, 5), (15, 8), (5, 8)])
        assert not within(poking, unit_square)

    def test_polygon_within_excludes_hole_overlap(self, square_with_hole):
        over_hole = Polygon([(3, 3), (7, 3), (7, 7), (3, 7)])
        assert not within(over_hole, square_with_hole)

    def test_empty_never_within(self, unit_square):
        assert not within(Point.empty(), unit_square)
        assert not within(Point(1, 1), Polygon.empty())

    def test_higher_dim_in_lower_dim_is_false(self, unit_square):
        assert not within(unit_square, LineString([(0, 0), (1, 1)]))
        assert not within(unit_square, Point(5, 5))

    def test_unsupported_combination(self, diagonal_line):
        with pytest.raises(GeometryError):
            within(diagonal_line, LineString([(0, 0), (1, 1)]))


class TestIntersects:
    def test_point_polygon(self, unit_square):
        assert intersects(Point(5, 5), unit_square)
        assert intersects(unit_square, Point(5, 5))  # symmetric dispatch
        assert not intersects(Point(50, 5), unit_square)

    def test_lines_crossing(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        assert intersects(a, b)

    def test_lines_parallel(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(0, 1), (10, 1)])
        assert not intersects(a, b)

    def test_lines_touching_at_endpoint(self):
        a = LineString([(0, 0), (5, 5)])
        b = LineString([(5, 5), (10, 0)])
        assert intersects(a, b)

    def test_line_polygon_crossing(self, unit_square):
        crossing = LineString([(-5, 5), (15, 5)])
        assert intersects(crossing, unit_square)

    def test_line_inside_polygon(self, unit_square):
        inside = LineString([(2, 2), (8, 8)])
        assert intersects(inside, unit_square)

    def test_polygons_overlapping(self, unit_square):
        other = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        assert intersects(unit_square, other)

    def test_polygons_nested(self, unit_square):
        inner = Polygon([(4, 4), (6, 4), (6, 6), (4, 6)])
        assert intersects(unit_square, inner)
        assert intersects(inner, unit_square)

    def test_polygons_disjoint(self, unit_square):
        far = Polygon([(50, 50), (60, 50), (60, 60), (50, 60)])
        assert not intersects(unit_square, far)

    def test_multi_any_semantics(self, unit_square):
        mp = MultiPoint.of([(50, 50), (5, 5)])
        assert intersects(mp, unit_square)
        mls = MultiLineString([LineString([(50, 50), (60, 60)])])
        assert not intersects(mls, unit_square)

    def test_empty_never_intersects(self, unit_square):
        assert not intersects(Point.empty(), unit_square)

    def test_envelope_short_circuit(self, unit_square):
        assert not intersects(Point(1000, 1000), unit_square)

    def test_collection_is_a_typed_error_in_either_order(self, unit_square):
        # It was a bare KeyError from the type-rank lookup; the scalar
        # oracle and refine_pair inherit whatever this raises.
        from repro.core.operators import SpatialOperator
        from repro.core.probe import naive_spatial_join
        from repro.geometry.multi import GeometryCollection

        collection = GeometryCollection([Point(5, 5)])
        for a, b in ((collection, unit_square), (unit_square, collection)):
            with pytest.raises(GeometryError, match=r"intersects\(.*\) is not supported"):
                intersects(a, b)
            with pytest.raises(GeometryError):
                naive_spatial_join([(0, a)], [(1, b)], SpatialOperator.INTERSECTS)


class TestGeometryMethodSugar:
    def test_within_contains_duality(self, unit_square):
        p = Point(3, 3)
        assert p.within(unit_square)
        assert unit_square.contains(p)
        assert not unit_square.within(p)

    def test_intersects_method(self, unit_square, diagonal_line):
        assert unit_square.intersects(diagonal_line)
