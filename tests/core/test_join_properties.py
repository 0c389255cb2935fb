"""Property-based join invariants (hypothesis).

The central correctness claim of the repository — every join plan equals
the naive nested loop — asserted over *randomised* inputs rather than the
fixed scenarios of the other test modules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JoinConfig, SpatialOperator, naive_spatial_join, spatial_join
from repro.geometry import LineString, Point, Polygon

coordinate = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    return [
        (i, Point(draw(coordinate), draw(coordinate))) for i in range(n)
    ]


@st.composite
def box_sets(draw):
    n = draw(st.integers(min_value=0, max_value=15))
    boxes = []
    for i in range(n):
        x = draw(coordinate)
        y = draw(coordinate)
        w = draw(st.floats(min_value=0.5, max_value=40.0))
        h = draw(st.floats(min_value=0.5, max_value=40.0))
        boxes.append(
            (i, Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)]))
        )
    return boxes


@st.composite
def line_sets(draw):
    n = draw(st.integers(min_value=0, max_value=15))
    lines = []
    for i in range(n):
        coords = [
            (draw(coordinate), draw(coordinate))
            for _ in range(draw(st.integers(min_value=2, max_value=5)))
        ]
        lines.append((i, LineString(coords)))
    return lines


class TestJoinEqualsNaive:
    @given(point_sets(), box_sets())
    @settings(max_examples=80, deadline=None)
    def test_within_indexed(self, points, boxes):
        indexed = sorted(spatial_join(points, boxes, SpatialOperator.WITHIN))
        naive = sorted(naive_spatial_join(points, boxes, SpatialOperator.WITHIN))
        assert indexed == naive

    @given(point_sets(), box_sets())
    @settings(max_examples=60, deadline=None)
    def test_within_dual_tree(self, points, boxes):
        dual = sorted(
            spatial_join(points, boxes, SpatialOperator.WITHIN, method="dual-tree")
        )
        naive = sorted(naive_spatial_join(points, boxes, SpatialOperator.WITHIN))
        assert dual == naive

    @given(point_sets(), line_sets(), st.floats(min_value=0.5, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_nearestd(self, points, lines, radius):
        indexed = sorted(
            spatial_join(points, lines, SpatialOperator.NEAREST_D, radius=radius)
        )
        naive = sorted(
            naive_spatial_join(points, lines, SpatialOperator.NEAREST_D, radius=radius)
        )
        assert indexed == naive

    @given(point_sets(), box_sets())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree(self, points, boxes):
        fast = sorted(spatial_join(points, boxes, engine="fast"))
        slow = sorted(spatial_join(points, boxes, engine="slow"))
        assert fast == slow

    @given(point_sets(), box_sets())
    @settings(max_examples=40, deadline=None)
    def test_intersects_superset_of_within(self, points, boxes):
        """For points, Within == Intersects on closed polygons."""
        within = set(spatial_join(points, boxes, SpatialOperator.WITHIN))
        intersects = set(spatial_join(points, boxes, SpatialOperator.INTERSECTS))
        assert within <= intersects

    @given(point_sets(), line_sets(),
           st.floats(min_value=0.5, max_value=10.0),
           st.floats(min_value=10.0, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_nearestd_monotone_in_radius(self, points, lines, small, large):
        """Growing D can only add pairs, never remove them."""
        small_pairs = set(
            spatial_join(points, lines, SpatialOperator.NEAREST_D, radius=small)
        )
        large_pairs = set(
            spatial_join(points, lines, SpatialOperator.NEAREST_D, radius=large)
        )
        assert small_pairs <= large_pairs


# -- whole joins on an integer lattice ----------------------------------------
#
# Small integer coordinates make the boundary cases common: points on box
# edges and vertices, lines through box corners, touching boxes, points at
# exactly the NearestD radius, repeated geometries.

_LATTICE = st.integers(min_value=0, max_value=8).map(float)
_OUTSIDE = Point(40.0, -25.0)  # beyond every build side's extent


def _sized(draw, element):
    items = draw(st.lists(element, min_size=0, max_size=12))
    if items and draw(st.booleans()):
        items += [items[0]] * draw(st.integers(min_value=1, max_value=3))
    return items


@st.composite
def lattice_points(draw):
    points = _sized(draw, st.builds(Point, _LATTICE, _LATTICE))
    if draw(st.booleans()):
        points.insert(draw(st.integers(0, len(points))), _OUTSIDE)
    return list(enumerate(points))


@st.composite
def lattice_boxes(draw):
    def box(x, y, w, h):
        return Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])

    side = st.integers(min_value=1, max_value=3).map(float)
    return list(enumerate(_sized(draw, st.builds(box, _LATTICE, _LATTICE, side, side))))


@st.composite
def lattice_lines(draw):
    def line(vertices):
        # Drop repeated consecutive vertices; keep at least a segment.
        kept = [v for k, v in enumerate(vertices) if k == 0 or v != vertices[k - 1]]
        return LineString(kept if len(kept) > 1 else [kept[0], (kept[0][0] + 1.0, kept[0][1])])

    vertex = st.tuples(_LATTICE, _LATTICE)
    lines = st.lists(vertex, min_size=2, max_size=4).map(line)
    return list(enumerate(_sized(draw, lines)))


_PLANS = [
    pytest.param({"method": "broadcast"}, id="broadcast"),
    pytest.param({"method": "dual-tree"}, id="dual-tree"),
    pytest.param({"method": "partitioned", "num_tiles": 4}, id="partitioned"),
]


def _plan_equals_naive(left, right, plan, operator, radius=0.0):
    config = JoinConfig(operator=operator, radius=radius, **plan)
    got = sorted(spatial_join(left, right, config=config))
    assert got == sorted(naive_spatial_join(left, right, operator, radius=radius))


@pytest.mark.parametrize("plan", _PLANS)
class TestLatticeJoinsEqualNaive:
    """Every plan, whole joins, against the nested loop on lattice inputs
    (points on edges and vertices, duplicates, a probe outside the build
    extent, empty sides)."""

    @given(lattice_points(), lattice_boxes())
    @settings(max_examples=150, deadline=None)
    def test_within_points_boxes(self, plan, points, boxes):
        _plan_equals_naive(points, boxes, plan, SpatialOperator.WITHIN)

    @given(lattice_points(), lattice_boxes())
    @settings(max_examples=150, deadline=None)
    def test_intersects_points_boxes(self, plan, points, boxes):
        _plan_equals_naive(points, boxes, plan, SpatialOperator.INTERSECTS)

    @given(lattice_lines(), lattice_boxes())
    @settings(max_examples=150, deadline=None)
    def test_intersects_lines_boxes(self, plan, lines, boxes):
        _plan_equals_naive(lines, boxes, plan, SpatialOperator.INTERSECTS)

    @given(lattice_points(), lattice_lines(), st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=150, deadline=None)
    def test_nearestd_points_lines(self, plan, points, lines, radius):
        _plan_equals_naive(points, lines, plan, SpatialOperator.NEAREST_D, radius)
