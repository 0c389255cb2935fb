"""BroadcastIndex and refine_pair: the shared filter+refine machinery."""

import pytest

from repro.cluster import Resource
from repro.core import BroadcastIndex, SpatialOperator, naive_spatial_join, refine_pair
from repro.errors import ReproError
from repro.geometry import LineString, Point, Polygon, create_engine


def probe(index, geometry):
    """The scalar probe ``BroadcastIndex.probe_batch`` replaced, kept
    here as its reference: one R-tree query, then one :func:`refine_pair`
    call per candidate, in candidate order."""
    if geometry.is_empty:
        return []
    return [
        index._entry_payloads[k]
        for k in index.tree.query(geometry.envelope)
        if refine_pair(
            index.engine, index.operator, geometry, index._geometries[k],
            index.handles[k], index.radius,
        )
    ]


def probe_with_cost(index, geometry):
    """:func:`probe` and the resource units it consumed: the nodes it
    visited, its matches, and a vertex / allocation key only when the
    engine counters advanced."""
    counters = index.engine.counters
    visits_before = index.tree.nodes_visited
    vertex_before, alloc_before = counters.vertex_ops, counters.allocations
    matches = probe(index, geometry)
    units = {
        Resource.INDEX_VISIT: float(index.tree.nodes_visited - visits_before),
        Resource.ROWS_OUT: float(len(matches)),
    }
    if counters.vertex_ops - vertex_before:
        units[index._vertex_resource] = float(counters.vertex_ops - vertex_before)
    if counters.allocations - alloc_before:
        units[Resource.REFINE_ALLOC] = float(counters.allocations - alloc_before)
    return matches, units


@pytest.fixture
def grid_polygons():
    polys = []
    for row in range(4):
        for col in range(4):
            x0, y0 = col * 25.0, row * 25.0
            polys.append(
                (row * 4 + col, Polygon([(x0, y0), (x0 + 25, y0), (x0 + 25, y0 + 25), (x0, y0 + 25)]))
            )
    return polys


@pytest.fixture
def streets(rng):
    return [
        (i, LineString([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(4)]))
        for i in range(40)
    ]


@pytest.fixture
def probes(rng):
    return [(i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(300)]


class TestBroadcastIndex:
    @pytest.mark.parametrize("engine", ["fast", "slow"])
    def test_within_matches_naive(self, engine, grid_polygons, probes):
        index = BroadcastIndex(grid_polygons, SpatialOperator.WITHIN, engine=engine)
        got = sorted(
            (pid, match) for pid, p in probes for match in probe(index, p)
        )
        expected = sorted(naive_spatial_join(probes, grid_polygons, SpatialOperator.WITHIN))
        assert got == expected

    @pytest.mark.parametrize("engine", ["fast", "slow"])
    def test_nearestd_matches_naive(self, engine, streets, probes):
        index = BroadcastIndex(
            streets, SpatialOperator.NEAREST_D, radius=8.0, engine=engine
        )
        got = sorted((pid, m) for pid, p in probes for m in probe(index, p))
        expected = sorted(
            naive_spatial_join(probes, streets, SpatialOperator.NEAREST_D, radius=8.0)
        )
        assert got == expected

    def test_intersects_operator(self, grid_polygons, probes):
        index = BroadcastIndex(grid_polygons, SpatialOperator.INTERSECTS)
        expected = sorted(
            naive_spatial_join(probes, grid_polygons, SpatialOperator.INTERSECTS)
        )
        got = sorted((pid, m) for pid, p in probes for m in probe(index, p))
        assert got == expected

    def test_radius_required_for_nearestd(self, streets):
        with pytest.raises(ReproError):
            BroadcastIndex(streets, SpatialOperator.NEAREST_D)

    def test_radius_ignored_for_within(self, grid_polygons):
        index = BroadcastIndex(grid_polygons, SpatialOperator.WITHIN, radius=50.0)
        assert index.radius == 0.0

    def test_empty_geometries_skipped(self):
        index = BroadcastIndex(
            [(0, Point.empty()), (1, Polygon([(0, 0), (1, 0), (1, 1)]))],
            SpatialOperator.WITHIN,
        )
        assert len(index) == 1

    def test_empty_probe_returns_nothing(self, grid_polygons):
        index = BroadcastIndex(grid_polygons, SpatialOperator.WITHIN)
        assert probe(index, Point.empty()) == []
        assert index.probe_batch([Point.empty()])[0] == [[]]

    def test_build_cost_units(self, grid_polygons):
        index = BroadcastIndex(grid_polygons, SpatialOperator.WITHIN)
        assert index.build_cost_units() == {Resource.INDEX_BUILD: 16.0}
        assert index.build_vertex_total == 16 * 5

    def test_probe_with_cost_units(self, grid_polygons):
        index = BroadcastIndex(grid_polygons, SpatialOperator.WITHIN, engine="slow")
        matches, units = probe_with_cost(index, Point(10, 10))
        assert len(matches) == 1
        assert units[Resource.INDEX_VISIT] > 0
        assert units[Resource.REFINE_VERTEX_SLOW] > 0
        assert units[Resource.REFINE_ALLOC] > 0
        assert units[Resource.ROWS_OUT] == 1.0

    def test_fast_engine_units_have_no_alloc(self, grid_polygons):
        index = BroadcastIndex(grid_polygons, SpatialOperator.WITHIN, engine="fast")
        _, units = probe_with_cost(index, Point(10, 10))
        assert Resource.REFINE_VERTEX_FAST in units
        assert Resource.REFINE_ALLOC not in units

    def test_nearest(self, streets):
        index = BroadcastIndex(streets, SpatialOperator.NEAREST_D, radius=5.0)
        probe = Point(50, 50)
        found = index.nearest(probe, k=3, max_distance=1e9)
        assert len(found) == 3
        distances = [d for _, d in found]
        assert distances == sorted(distances)
        brute = sorted(probe.distance(line) for _, line in streets)[:3]
        assert distances == pytest.approx(brute)


class TestRefinePair:
    def test_point_within_polygon(self, unit_square):
        engine = create_engine("fast")
        handle = engine.prepare(unit_square)
        assert refine_pair(
            engine, SpatialOperator.WITHIN, Point(5, 5), unit_square, handle, 0.0
        )

    def test_contains_flips(self, unit_square):
        engine = create_engine("fast")
        # probe point "contains" polygon is false; polygon contains point is
        # expressed with the CONTAINS operator from the probe's perspective.
        handle = engine.prepare(unit_square)
        assert not refine_pair(
            engine, SpatialOperator.CONTAINS, Point(5, 5), unit_square, handle, 0.0
        )

    def test_non_point_probe_falls_back(self, unit_square):
        engine = create_engine("fast")
        handle = engine.prepare(unit_square)
        inner = Polygon([(2, 2), (4, 2), (4, 4), (2, 4)])
        assert refine_pair(
            engine, SpatialOperator.WITHIN, inner, unit_square, handle, 0.0
        )

    def test_non_point_nearestd(self, unit_square):
        engine = create_engine("fast")
        handle = engine.prepare(unit_square)
        nearby = LineString([(13, 0), (14, 0)])
        assert refine_pair(
            engine, SpatialOperator.NEAREST_D, nearby, unit_square, handle, 3.5
        )
        assert not refine_pair(
            engine, SpatialOperator.NEAREST_D, nearby, unit_square, handle, 2.5
        )


class TestSpatialOperator:
    def test_from_sql(self):
        assert SpatialOperator.from_sql("ST_WITHIN") is SpatialOperator.WITHIN
        assert SpatialOperator.from_sql("st_nearestd") is SpatialOperator.NEAREST_D

    def test_from_sql_unknown(self):
        with pytest.raises(ValueError):
            SpatialOperator.from_sql("ST_FLY")

    def test_needs_radius(self):
        assert SpatialOperator.NEAREST_D.needs_radius
        assert not SpatialOperator.WITHIN.needs_radius

    def test_scala_style_aliases(self):
        assert SpatialOperator.Within() is SpatialOperator.WITHIN
        assert SpatialOperator.NearestD() is SpatialOperator.NEAREST_D
