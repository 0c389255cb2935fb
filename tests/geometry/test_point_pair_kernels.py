"""The pair-major point kernels against their two references.

``contains_pairs_counted`` / ``within_distance_pairs_counted`` refine an
array of ``(point, build entry)`` candidate pairs in one call.  Every
output — hits, the per-pair vertex / allocation shares and the engine's
three counter totals — must equal (i) the per-handle ``*_batch_counted``
call over each entry's own pairs, which packs that entry alone, so many
entries packed together must answer as each packed by itself, and (ii)
the reference: one scalar ``point_within`` / ``point_within_distance``
call per pair, on both engines, wherever an epsilon, a strip boundary,
an envelope, a hypot's last ulp or any()'s early exit decides.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.model import Resource
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.geometry import LineString, MultiLineString, MultiPolygon, Point, Polygon
from repro.geometry.algorithms import pairwise
from repro.geometry.engine import EngineCounters, _churn_tables, create_engine
from repro.geometry.prepared import PreparedPolygon, strip_cut
from tests.cluster.test_unit_columns import same_units, unit_columns
from tests.core.test_probe import probe_with_cost
from tests.geometry.test_batch_kernels import (
    boundary_probes,
    random_polygon,
    random_polyline,
    ring,
    scalar_counted,
)

ENGINES = ["fast", "slow"]


def assert_pair_parity(name, geometries, points, d=None, seed=0):
    """Every point x every geometry as one shuffled candidate-pair array
    through the pair kernel, against both references.  Returns the
    kernel's ``(hit, vertex, alloc)`` reshaped ``(points, geometries)``."""
    points = [(float(x), float(y)) for x, y in points]
    xs = np.array([x for x, _ in points])
    ys = np.array([y for _, y in points])
    probe, entry = (grid.ravel() for grid in np.mgrid[: len(points), : len(geometries)])
    order = np.random.default_rng(seed).permutation(len(probe))
    probe, entry = probe[order], entry[order]

    pair_engine = create_engine(name)
    handles = [pair_engine.prepare(geometry) for geometry in geometries]
    if d is None:
        tables = pair_engine.contains_pair_tables(handles)
        got = pair_engine.contains_pairs_counted(tables, xs[probe], ys[probe], entry)
    else:
        tables = pair_engine.within_distance_pair_tables(handles)
        got = pair_engine.within_distance_pairs_counted(tables, xs[probe], ys[probe], entry, d)
    assert tables.tabled.all()
    assert all(len(column) == len(probe) for column in got)

    batch_engine = create_engine(name)
    scalar_total = EngineCounters()
    for k, handle in enumerate(handles):
        at = np.flatnonzero(entry == k)
        mine = [points[i] for i in probe[at]]
        if d is None:
            batch = batch_engine.contains_batch_counted(handle, xs[probe[at]], ys[probe[at]])
            scalar = scalar_counted(
                name, lambda e, p: e.point_within(p, handle), [Point(*p) for p in mine]
            )
        else:
            batch = batch_engine.within_distance_batch_counted(
                handle, xs[probe[at]], ys[probe[at]], d
            )
            scalar = scalar_counted(
                name, lambda e, p: e.point_within_distance(p, handle, d),
                [Point(*p) for p in mine],
            )
        for column in range(3):
            assert got[column][at].tolist() == batch[column].tolist(), (k, column)
            assert got[column][at].tolist() == list(scalar[column]), (k, column)
        scalar_total.merge(scalar[3])
    assert pair_engine.counters == batch_engine.counters == scalar_total

    back = np.argsort(order)
    return tuple(column[back].reshape(len(points), len(geometries)) for column in got)


def strip_boundary_probes(polygon):
    """Points on, and one ulp either side of, every strip boundary of the
    polygon's prepared strip index and of its churn-table strips."""
    prepared = PreparedPolygon(polygon)
    strips, y_min, strip_height, _, _ = _churn_tables(polygon)
    env = polygon.envelope
    probes = []
    for low, height, count in (
        (prepared._y_min, prepared._strip_height, prepared._num_strips),
        (y_min, strip_height, len(strips)),
    ):
        for k in range(count + 1):
            y = low + k * height
            for x in (env.min_x, (env.min_x + env.max_x) / 2, env.max_x - 0.25):
                probes += [(x, y), (x, np.nextafter(y, np.inf)), (x, np.nextafter(y, -np.inf))]
    return probes


# -- strategies: everything on a half-unit grid, so that points land on
# vertices, edges, envelopes and at exact 3-4-5 distances by construction.

half_units = st.integers(-12, 12).map(lambda v: v / 2)
grid_points = st.lists(st.tuples(half_units, half_units), min_size=1, max_size=12)


@st.composite
def rectangles(draw):
    x, y = draw(half_units), draw(half_units)
    w, h = draw(st.integers(2, 10)) / 2, draw(st.integers(2, 10)) / 2
    holes = []
    if w >= 2 and h >= 2 and draw(st.booleans()):
        holes = [[(x + 0.5, y + 0.5), (x + w - 0.5, y + 0.5), (x + w - 0.5, y + h - 0.5),
                  (x + 0.5, y + h - 0.5)]]
    return Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)], holes=holes)


polygons = st.one_of(
    rectangles(),
    st.builds(
        ring,
        st.sampled_from([3, 8, 47, 48, 49, 120]),  # both sides of the scalar threshold
        half_units,
        half_units,
        st.sampled_from([1.0, 2.5, 5.0]),
    ),
)
polygonal = st.one_of(
    polygons,
    st.lists(st.one_of(polygons, st.just(Polygon.empty())), max_size=4).map(MultiPolygon),
)
# Repeated vertices are welcome: they are zero-length segments.
lines = st.lists(st.tuples(half_units, half_units), min_size=2, max_size=7).map(LineString)
lineal = st.one_of(
    lines,
    st.lists(st.one_of(lines, st.just(LineString.empty())), max_size=4).map(MultiLineString),
)


def first_part(geometry):
    parts = getattr(geometry, "parts", [geometry])
    return next((part for part in parts if not part.is_empty), None)


@pytest.mark.parametrize("name", ENGINES)
class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(polygonal, min_size=1, max_size=4), grid_points, st.integers(0, 9))
    def test_contains_pairs(self, name, geometries, points, seed):
        for geometry in geometries[:2]:
            part = first_part(geometry)
            if part is not None:
                points = points + boundary_probes(part)[:40] + strip_boundary_probes(part)[:24]
        assert_pair_parity(name, geometries, points, seed=seed)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(lineal, min_size=1, max_size=4),
        grid_points,
        st.sampled_from([0.5, 1.0, 2.5, 5.0]),
        st.integers(0, 9),
    )
    def test_within_distance_pairs(self, name, geometries, points, d, seed):
        for geometry in geometries[:2]:
            part = first_part(geometry)
            if part is not None:
                env = part.envelope
                # 3-4-5 off the envelope's corners and d off its sides.
                points = points + [
                    (env.min_x - 0.6 * d, env.min_y - 0.8 * d),
                    (env.max_x + 0.6 * d, env.max_y + 0.8 * d),
                    (env.min_x - d, env.min_y),
                    (env.max_x, env.max_y + d),
                    (env.min_x - d - 1e-12, env.min_y),
                ]
        assert_pair_parity(name, geometries, points, d=d, seed=seed)


@pytest.mark.parametrize("name", ENGINES)
class TestWhereRoundingDecides:
    def test_edges_vertices_holes_and_strips(self, name, unit_square, square_with_hole, l_shape):
        big = ring(120, cx=1.25, cy=-0.75, radius=400.0)
        geometries = [unit_square, square_with_hole, l_shape, ring(49), big]
        points = [p for g in geometries for p in boundary_probes(g) + strip_boundary_probes(g)]
        assert_pair_parity(name, geometries, points)

    def test_exactly_at_distance_d_of_segment_and_envelope(self, name):
        geometries = [
            LineString([(0, 0), (10, 0), (10, 10)]),
            LineString([(0, 0), (3, 4), (6, 0)]),  # envelope (0, 0, 6, 4)
        ]
        for d in (2.5, 5.0, 0.5):
            points = [
                (5, d), (5, -d), (5, d + 1e-12), (5, d - 1e-12),
                (-1.5, -2.0), (11.5, 12.0), (10 + d, 5), (10 - d, 5),
                (-0.6 * d, -0.8 * d), (6 + 0.6 * d, 4 + 0.8 * d),
                (-d, 2), (6 + d, 2), (3, 4 + d), (3, -d), (-d - 1e-12, 2),
            ]
            assert_pair_parity(name, geometries, points, d=d)

    def test_thresholds_where_np_and_math_hypot_disagree(self, name):
        # The ulp-borderline values PR 17's per-handle test pins: inputs
        # on which np.hypot and math.hypot differ, with the threshold put
        # on exactly those values — for the segment distance and for the
        # envelope prune.
        rng = np.random.default_rng(7)
        a = rng.uniform(0.5, 9.0, 4000)
        b = rng.uniform(0.5, 9.0, 4000)
        differ = [
            (x, y)
            for x, y, h in zip(a.tolist(), b.tolist(), np.hypot(a, b).tolist())
            if h != math.hypot(x, y)
        ][:6]
        assert differ
        geometries = [
            LineString([(0, 0), (0, 0), (-3, 0)]),
            MultiLineString([LineString([(-3, -3), (0, 0)]), LineString([(0, 0), (0, 0)])]),
        ]
        for x, y in differ:
            for d in (math.hypot(x, y), float(np.hypot(x, y))):
                assert_pair_parity(name, geometries, [(x, y), (x, -y), (y, x)], d=d)

    def test_zero_length_segments(self, name):
        geometries = [
            LineString([(0, 0), (0, 0), (4, 0), (4, 0), (4, 3), (4, 3)]),
            LineString([(2, 2), (2, 2)]),
        ]
        points = [(0, 0), (-1, 0), (2, 1), (4, 3), (5, 4), (4.6, 3.8), (2.6, 2.8), (2.6, 2.8000001)]
        assert_pair_parity(name, geometries, points, d=1.0)


@pytest.mark.parametrize("name", ENGINES)
class TestEarlyExitOverParts:
    def test_multipolygon_rounds(self, name):
        first = Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        second = ring(60, cx=2.0, cy=2.0, radius=1.5)  # inside the first
        last = Polygon([(10, 10), (12, 10), (11, 12)])
        multi = MultiPolygon([first, Polygon.empty(), second, last])
        points = [(2, 2), (11, 10.5), (20, 20)]  # part 0 hits / only the last / nothing
        hit, vertex, alloc = assert_pair_parity(name, [multi, first], points)
        assert hit[:, 0].tolist() == [True, True, False]
        if name == "slow":
            assert vertex[0, 0] == alloc[0, 0] == first.num_points
            assert vertex[1, 0] == vertex[2, 0] == multi.num_points
        else:
            assert vertex[0, 0] == 4 and vertex[1, 0] == vertex[2, 0] == 4 + 60 + 3
            assert not alloc.any()

    def test_multilinestring_rounds(self, name):
        near = LineString([(0, 0), (10, 0)])
        long_far = LineString([(0, 50 + k % 2) for k in range(40)])
        last = LineString([(0, 1), (10, 1)])
        multi = MultiLineString([near, LineString.empty(), long_far, last])
        points = [(5, -0.5), (5, 1.75), (100, 100)]
        hit, vertex, _ = assert_pair_parity(name, [multi, long_far], points, d=1.0)
        assert hit[:, 0].tolist() == [True, True, False]
        if name == "slow":
            assert vertex[0, 0] == near.num_points  # the 40-vertex part is never churned
            assert vertex[1, 0] == last.num_points  # the first two parts envelope-pruned
            assert vertex[2, 0] == 0
        else:
            assert vertex[:, 0].tolist() == [1, 3, 3]

    def test_no_parts_at_all(self, name):
        empties = [MultiPolygon([]), MultiPolygon([Polygon.empty()])]
        hit, vertex, _ = assert_pair_parity(name, empties, [(0, 0), (1, 1)])
        assert not hit.any() and not vertex.any()
        hit, _, _ = assert_pair_parity(
            name, [MultiLineString([LineString.empty()])], [(0, 0)], d=1.0
        )
        assert not hit.any()


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize("block", [1, 7, 64])
def test_a_block_may_end_mid_pair(monkeypatch, name, block, square_with_hole, rng):
    monkeypatch.setattr(pairwise, "_BLOCK_CELLS", block)
    polygons_ = [square_with_hole, ring(49), MultiPolygon([ring(8, 3, 3, 2.0), ring(120)])]
    points = boundary_probes(square_with_hole)[:30] + [
        (rng.uniform(-6, 11), rng.uniform(-6, 11)) for _ in range(30)
    ]
    assert_pair_parity(name, polygons_, points)
    lines_ = [
        random_polyline(rng, 30),
        MultiLineString([random_polyline(rng, 3), random_polyline(rng, 9)]),
    ]
    assert_pair_parity(name, lines_, points, d=1.5)


@pytest.mark.parametrize("name", ENGINES)
class TestUntabledBuildRows:
    """A build side mixing handle types: rows the engine packs are
    refined by the pair kernel, every other row by its own per-handle
    batch call — the probe cannot tell."""

    def build_side(self, rng):
        return [
            ("line", random_polyline(rng, 5)),
            ("point", Point(1.0, 1.5)),
            ("polygon", random_polygon(rng, 0.0, 0.0)),
            ("multiline", MultiLineString([random_polyline(rng, 3), random_polyline(rng, 4)])),
            ("multipolygon", MultiPolygon([random_polygon(rng, 2.0, 2.0)])),
            ("point-again", Point(-2.0, 0.5)),
        ]

    def test_only_lines_are_tabled_under_nearestd(self, name, rng):
        engine = create_engine(name)
        build = self.build_side(rng)
        tables = engine.within_distance_pair_tables([engine.prepare(g) for _, g in build])
        assert tables.tabled.tolist() == [True, False, False, True, False, False]
        tables = engine.contains_pair_tables([engine.prepare(g) for _, g in build])
        assert tables.tabled.tolist() == [False, False, True, False, True, False]

    def test_probe_batch_equals_scalar_probes(self, name, rng):
        build = self.build_side(rng)
        probes = [Point(rng.uniform(-6, 6), rng.uniform(-6, 6)) for _ in range(60)]
        index = BroadcastIndex(build, SpatialOperator.NEAREST_D, radius=2.0, engine=name)
        matches, units = index.probe_batch(probes)
        reference = BroadcastIndex(build, SpatialOperator.NEAREST_D, radius=2.0, engine=name)
        want = [probe_with_cost(reference, probe) for probe in probes]
        assert matches == [found for found, _ in want]
        assert same_units(units, unit_columns([cost for _, cost in want]))  # key order too
        assert index.engine.counters == reference.engine.counters
        assert (Resource.REFINE_ALLOC in units) == (name == "slow")


def notched(top, along):
    """A shell whose spike dips to a local-minimum vertex at (5, 4) between
    horizontal edges at y = 6, closed by ``along`` vertices on y = ``top``:
    ``9 + along`` edges, so ``top = 16, along = 59`` gives 68 edges in 8
    strips of height 2 (the numpy path) and ``top = 12, along = 39`` gives
    48 edges in 6 (the scalar path) — strip boundaries at y = 4 and 6."""
    shell = [(0, 0), (1, 0), (1, 6), (4.9, 6), (5, 4), (5.1, 6), (10, 6), (10, top)]
    shell += [(10 - 10 * (k + 1) / (along + 1), top) for k in range(along)]
    return Polygon(shell + [(0, top)])


NOTCHED = [notched(16, 59), notched(12, 39)]
BELOW_THE_TIP = [(5.0, 4.0 - dy) for dy in np.linspace(1e-13, 1e-12, 10).tolist()]


def sliver(num_edges):
    """A 1e-300-high strip 1e20 wide: the scalar path's edge-scaled box
    margin puts ``(by1 - y_min) / strip height`` past the float range."""
    half = num_edges // 2
    bottom = [(1e20 * k / half, 0.0) for k in range(half + 1)]
    top = [(1e20 * (half - k) / half, 1e-300) for k in range(half - 1)] + [(0.0, 1e-300)]
    return Polygon(bottom + top[1:])


def assert_engines_agree(geometries, points):
    """Both engines' pair kernels, each equal to its scalar reference, give
    the same answers."""
    fast = assert_pair_parity("fast", geometries, points)[0]
    slow = assert_pair_parity("slow", geometries, points)[0]
    assert fast.tolist() == slow.tolist()
    return fast


class TestStripCut:
    """Both engines walk only the strip a point lands in; the cut keeps
    every edge whose boundary or crossing test can fire there, so answers
    and charges stay those of the whole-table scalar walk."""

    def test_the_slow_engine_walks_strips(self):
        strips, _, _, _, num_vertices = _churn_tables(NOTCHED[0])
        assert len(strips) == 8 and num_vertices == 69
        assert max(len(strip) for strip in strips) < 68

    @pytest.mark.parametrize("polygon", NOTCHED, ids=["numpy-path", "scalar-path"])
    def test_fast_engine_finds_the_boundary_below_a_strip_boundary(self, polygon):
        fast, slow = create_engine("fast"), create_engine("slow")
        handle = fast.prepare(polygon)
        assert handle._num_strips in (6, 8) and handle._strip_height == 2.0
        for dy in (1e-13, 5e-13, 9e-13):
            point = Point(5.0, 4.0 - dy)
            assert fast.point_within(point, handle)
            assert slow.point_within(point, slow.prepare(polygon))

    def test_below_a_local_minimum_on_a_strip_boundary(self):
        # 3e-12 below clears the scalar path's box too: its margin is
        # 1e-12 scaled by the edge's length, 2.1e-12 for these two edges.
        points = BELOW_THE_TIP + [(5.0, 4.0 - 3e-12), (5.0, 4.0), (5.0, 4.0 + 1e-12)]
        hit = assert_engines_agree(NOTCHED, points)
        assert hit[: len(BELOW_THE_TIP)].all()
        assert not hit[len(BELOW_THE_TIP)].any()

    def test_horizontal_edge_on_a_strip_boundary(self):
        points = [
            (x, y)
            for x in (1.0, 2.5, 4.9, 5.1, 7.0, 10.0)
            for y in (
                6.0, np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0),
                6.0 - 1e-12, 6.0 + 1e-12, 6.0 - 1e-9,
            )
        ]
        assert_engines_agree(NOTCHED, points + strip_boundary_probes(NOTCHED[0]))

    def test_holes_and_empty_parts(self):
        holed = Polygon(
            ring(40, radius=8.0).rings[0].coords[:-1].tolist(),
            holes=[ring(24, radius=4.0).rings[0].coords[:-1].tolist()],
        )
        assert len(_churn_tables(holed)[0]) == 8
        multi = MultiPolygon([Polygon.empty(), holed, Polygon.empty(), NOTCHED[1]])
        points = (
            strip_boundary_probes(holed) + boundary_probes(holed)
            + strip_boundary_probes(NOTCHED[1]) + BELOW_THE_TIP
        )
        assert_engines_agree([holed, multi], points)

    @pytest.mark.parametrize("num_edges", [16, 40, 64])
    def test_a_1e_300_high_sliver_cuts_without_warnings(self, num_edges):
        polygon = sliver(num_edges)
        points = strip_boundary_probes(polygon) + [
            (x, y) for x in (0.0, 3e19, 1e20) for y in (0.0, 5e-301, 1e-300, 2e-300)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prepared = PreparedPolygon(polygon)
            hit = assert_engines_agree([polygon], points)
        assert prepared._num_strips == num_edges // 8
        assert hit.any()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9)), min_size=1, max_size=40),
        st.floats(-1e6, 1e6),
        st.floats(0.0, 1e6),
        st.integers(1, 16),
        st.lists(st.floats(-2e9, 2e9), min_size=1, max_size=20),
    )
    def test_every_edge_that_can_fire_is_in_the_points_strip(
        self, spans, y_min, height, num_strips, ys
    ):
        lo = np.array([min(a, b) for a, b in spans])
        hi = np.array([max(a, b) for a, b in spans])
        table = np.zeros((len(spans), 9))
        table[:, 5], table[:, 7] = lo - 1e-12, hi + 1e-12
        strips, strip_height = strip_cut(table, y_min, height, num_strips)
        assert sum(len(strip) for strip in strips) >= len(table)
        for y in ys:
            strip = int(np.clip(np.trunc((y - y_min) / strip_height), 0, len(strips) - 1))
            fires = table[(table[:, 5] <= y) & (y <= table[:, 7])]
            kept = {tuple(row) for row in strips[strip].tolist()}
            assert all(tuple(row) in kept for row in fires.tolist())
