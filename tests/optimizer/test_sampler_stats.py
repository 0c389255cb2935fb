"""Sampling and statistics: the optimizer's measurement layer."""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import GeometryColumn, parse_wkt_column
from repro.columnar.column import _ColumnData
from repro.errors import OptimizerError
from repro.geometry import LineString, MultiPoint, MultiPolygon, wkt_dumps
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.index.partitioner import FixedGridPartitioner
from repro.optimizer import choose_plan, reservoir_sample, stratified_sample
from repro.optimizer.stats import (
    JoinStats,
    TableStats,
    collect_join_stats,
    collect_table_stats,
    tile_histogram,
)


def points(n, seed=5, lo=0.0, hi=10.0):
    rng = random.Random(seed)
    return [(i, Point(rng.uniform(lo, hi), rng.uniform(lo, hi))) for i in range(n)]


class TestReservoirSample:
    def test_exact_size_and_membership(self):
        items = list(range(1000))
        sample = reservoir_sample(items, 50)
        assert len(sample) == 50
        assert set(sample) <= set(items)

    def test_deterministic_for_a_seed(self):
        items = list(range(1000))
        assert reservoir_sample(items, 50, seed=3) == reservoir_sample(
            items, 50, seed=3
        )
        assert reservoir_sample(items, 50, seed=3) != reservoir_sample(
            items, 50, seed=4
        )

    def test_short_input_returned_whole(self):
        assert sorted(reservoir_sample([1, 2, 3], 50)) == [1, 2, 3]

    def test_rejects_nonpositive_k(self):
        with pytest.raises(OptimizerError):
            reservoir_sample([1, 2, 3], 0)

    def test_roughly_uniform(self):
        """Each half of a 2000-item stream should get ~half the sample."""
        items = list(range(2000))
        sample = reservoir_sample(items, 400, seed=9)
        low = sum(1 for x in sample if x < 1000)
        assert 140 <= low <= 260


class TestStratifiedSample:
    def test_sparse_regions_keep_representation(self):
        """99% of points in one corner; the lone far point must survive
        stratification even at a small sample size."""
        entries = points(990, lo=0.0, hi=1.0) + [(999, Point(9.5, 9.5))]
        sample = stratified_sample(entries, 64)
        assert any(p.x > 9.0 for _, p in sample)

    def test_deterministic(self):
        entries = points(500)
        assert stratified_sample(entries, 64) == stratified_sample(entries, 64)


class TestStats:
    def test_table_stats_shape(self):
        entries = points(300)
        stats = collect_table_stats(entries)
        assert stats.count == 300
        assert stats.point_fraction == 1.0
        assert stats.estimated_bytes > 0
        assert not stats.extent.is_empty

    def test_join_stats_selectivity_positive(self):
        left = points(1000)
        right = [("cell", Polygon([(0, 0), (10, 0), (10, 10), (0, 10)]))]
        stats = collect_join_stats(left, right)
        assert stats.left.count == 1000
        assert stats.right.count == 1
        assert stats.candidates_per_probe > 0

    def test_tile_histogram_tracks_density(self):
        """All the data in one quadrant: its tile must dominate the
        histogram and empty tiles must cost nothing."""
        left = points(2000, lo=0.0, hi=4.9)
        right = [("cell", Polygon([(0, 0), (5, 0), (5, 5), (0, 5)]))]
        stats = collect_join_stats(left, right)
        grid = FixedGridPartitioner(2, 2).partition(Envelope(0, 0, 10, 10))
        hist = tile_histogram(grid, stats)
        assert len(hist.seconds) == 4
        hot = max(range(4), key=lambda i: hist.seconds[i])
        assert hist.left_counts[hot] > 0
        # The far quadrant holds no data at all.
        cold = min(range(4), key=lambda i: hist.left_counts[i])
        assert hist.left_counts[cold] == 0


# -- statistics from columns, against the per-row loops they replaced ----------


def scalar_stratified_sample(entries, k, seed=17, grid=8):
    """The object-at-a-time sampler the column one replaced: an
    ``Envelope.union`` chain for the extent, one ``stratum_of`` per row."""
    populated = [(p, g) for p, g in entries if not g.is_empty]
    if len(populated) <= k:
        return list(populated)
    extent = Envelope.empty()
    for _, geometry in populated:
        extent = extent.union(geometry.envelope)
    if extent.width <= 0 and extent.height <= 0:
        return reservoir_sample(populated, k, seed=seed)

    def stratum_of(geometry):
        cx, cy = geometry.envelope.center
        col = int((cx - extent.min_x) / max(extent.width, 1e-300) * grid)
        row = int((cy - extent.min_y) / max(extent.height, 1e-300) * grid)
        return (min(max(col, 0), grid - 1), min(max(row, 0), grid - 1))

    strata = {}
    for entry in populated:
        strata.setdefault(stratum_of(entry[1]), []).append(entry)
    rng = random.Random(seed)
    sample = []
    for key in sorted(strata):
        members = strata[key]
        quota = max(1, round(k * len(members) / len(populated)))
        sample.extend(members if quota >= len(members) else rng.sample(members, quota))
    if len(sample) > k:
        sample = reservoir_sample(sample, k, seed=seed + 1)
    return sample


def scalar_table_stats(entries, sample_size, seed):
    count = 0
    extent = Envelope.empty()
    for _, geometry in entries:
        if not geometry.is_empty:
            count += 1
            extent = extent.union(geometry.envelope)
    sample = scalar_stratified_sample(entries, max(1, sample_size), seed=seed)
    n = len(sample)
    return TableStats(
        count=count,
        extent=extent,
        mean_vertices=sum(g.num_points for _, g in sample) / n if n else 0.0,
        mean_envelope_area=sum(g.envelope.area for _, g in sample) / n if n else 0.0,
        point_fraction=sum(1 for _, g in sample if isinstance(g, Point)) / n if n else 0.0,
        sample=tuple(sample),
    )


def scalar_join_stats(left, right, radius=0.0, sample_size=256, seed=17):
    left_stats = scalar_table_stats(left, sample_size, seed)
    right_stats = scalar_table_stats(right, sample_size, seed + 1)
    probe_sample = left_stats.sample[:64]
    build_sample = right_stats.sample[:256]
    candidates = 0.0
    if probe_sample and build_sample and right_stats.count:
        grown = [g.envelope.expand_by(radius) for _, g in build_sample]
        hits = sum(
            1 for _, probe in probe_sample for env in grown if env.intersects(probe.envelope)
        )
        candidates = hits / len(probe_sample) * right_stats.count / len(build_sample)
    return JoinStats(left_stats, right_stats, candidates, radius)


def bits(stats: JoinStats):
    """Every field, floats by their bits (``-0.0`` is not ``0.0`` here)."""

    def table(t: TableStats):
        extent = (t.extent.min_x, t.extent.min_y, t.extent.max_x, t.extent.max_y)
        numbers = (*extent, t.mean_vertices, t.mean_envelope_area, t.point_fraction)
        return (
            t.count,
            struct.pack("<7d", *map(float, numbers)),
            [payload for payload, _ in t.sample],
            [geometry.wkt() for _, geometry in t.sample],
        )

    return (
        table(stats.left),
        table(stats.right),
        struct.pack("<2d", stats.candidates_per_probe, stats.radius),
    )


# Coordinates on a coarse lattice (ties, shared strata edges, a -0.0) or a
# fine one (64ths: exact in WKT); a table is clustered in one cell, spread
# over all, or one point.
_COORD = st.one_of(
    st.integers(-4, 40).map(float),
    st.integers(-256, 2560).map(lambda k: k / 64),
    st.just(-0.0),
)


@st.composite
def _geometry(draw, x=_COORD, y=_COORD):
    kind = draw(st.sampled_from(["point"] * 4 + ["line", "polygon", "multi", "empty", "islands"]))
    x0, y0 = draw(x), draw(y)
    if kind == "point":
        return Point(x0, y0)
    if kind == "empty":
        return draw(st.sampled_from([Point.empty(), LineString.empty(), Polygon.empty()]))
    w, h = draw(st.sampled_from([0.5, 1.0, 7.0])), draw(st.sampled_from([0.25, 2.0]))
    if kind == "line":
        return LineString([(x0, y0), (x0 + w, y0 + h), (x0 + w, y0)])
    if kind == "multi":
        return MultiPoint([Point(x0, y0), Point(x0 + w, y0 - h)])
    square = Polygon([(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)])
    if kind == "islands":
        far = Polygon([(x0 + 9, y0), (x0 + 9 + w, y0), (x0 + 9, y0 + h)])
        return MultiPolygon([square, far])
    return square


@st.composite
def _table(draw):
    shape = draw(st.sampled_from(["spread", "spread", "one-stratum", "one-point", "tiny"]))
    if shape == "one-point":
        x, y = draw(_COORD), draw(_COORD)
        geometries = [Point(x, y)] * draw(st.integers(1, 60))
        if draw(st.booleans()):
            geometries.insert(0, Point.empty())
    elif shape == "one-stratum":
        # One far corner row stretches the extent; the rest share a cell.
        near = st.integers(0, 32).map(lambda k: k / 64)
        geometries = draw(st.lists(_geometry(near, near), min_size=1, max_size=60))
        geometries.append(Point(1000.0, 1000.0))
    else:
        limit = 4 if shape == "tiny" else 90
        geometries = draw(st.lists(_geometry(), min_size=0, max_size=limit))
    return list(enumerate(geometries))


def column_forms(entries):
    """The same rows as every kind of column a join can hand the planner."""
    column = GeometryColumn.from_entries(entries)
    yield "from_entries", column
    yield "decoded", GeometryColumn.from_bytes(column.to_bytes())
    doubled = GeometryColumn.concat([column, column])
    yield "sliced", doubled.take(np.arange(len(column), 2 * len(column)))
    texts = [wkt_dumps(geometry, precision=17) for _, geometry in entries]
    parsed, dropped = parse_wkt_column(texts, [payload for payload, _ in entries])
    assert not dropped
    yield "parsed", parsed


class TestStatisticsAreReadFromColumns:
    @given(_table(), _table(), st.sampled_from([0.0, 0.0, 1.5]), st.sampled_from([1, 5, 16, 256]))
    @settings(max_examples=200, deadline=None)
    def test_every_field_equals_the_per_row_loops(self, left, right, radius, sample_size):
        want = scalar_join_stats(left, right, radius, sample_size)
        got = collect_join_stats(left, right, radius=radius, sample_size=sample_size)
        assert bits(got) == bits(want)
        plan = choose_plan(want)
        for (name, left_column), (_, right_column) in zip(column_forms(left), column_forms(right)):
            stats = collect_join_stats(
                left_column, right_column, radius=radius, sample_size=sample_size
            )
            assert bits(stats) == bits(want), name
            # choose_plan packs its default sample; compare at that size.
            if sample_size == 256:
                chosen = choose_plan(left_column, right_column, radius=radius)
                assert chosen.to_info() == choose_plan(left, right, radius=radius).to_info()
                if radius == 0.0:
                    assert chosen.to_info() == plan.to_info(), name
                    assert chosen.explain() == plan.explain(), name

    @given(_table(), st.sampled_from([1, 3, 8, 64]), st.integers(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_stratified_sample_draws_the_same_rows(self, entries, k, seed):
        want = scalar_stratified_sample(entries, k, seed=seed)
        assert stratified_sample(entries, k, seed=seed) == want
        for name, column in column_forms(entries):
            got = stratified_sample(column, k, seed=seed)
            assert [payload for payload, _ in got] == [payload for payload, _ in want], name

    def test_strata_cover_the_lattice_on_spread_data(self):
        """All 64 strata populated: every one is represented, in sorted
        stratum order, and the column draw equals the per-row draw."""
        rng = random.Random(11)
        entries = [(i, Point(rng.uniform(0, 8), rng.uniform(0, 8))) for i in range(4000)]
        sample = stratified_sample(GeometryColumn.from_entries(entries), 128)
        assert sample == scalar_stratified_sample(entries, 128)
        assert len({(int(p.x), int(p.y)) for _, p in sample}) == 64

    def test_only_the_sample_is_materialised(self, monkeypatch):
        """However many rows the inputs have, planning builds at most the
        two samples' geometries."""
        rng = np.random.default_rng(3)
        texts = [f"POINT ({x:.3f} {y:.3f})" for x, y in rng.uniform(0, 1000, (20000, 2))]
        left, _ = parse_wkt_column(texts, list(range(len(texts))))
        right = GeometryColumn.from_bytes(
            GeometryColumn.from_entries(
                (i, Polygon([(x, y), (x + 60, y), (x + 60, y + 60), (x, y + 60)]))
                for i, (x, y) in enumerate(rng.uniform(0, 940, (3000, 2)))
            ).to_bytes()
        )
        built = []
        original = _ColumnData._materialize
        monkeypatch.setattr(
            _ColumnData, "_materialize", lambda self, j: built.append(j) or original(self, j)
        )
        for sample_size in (64, 256):
            del built[:]
            plan = choose_plan(left, right, sample_size=sample_size)
            assert plan.stats.left.count == 20000 and plan.stats.right.count == 3000
            assert len(plan.stats.left.sample) == sample_size
            assert 0 < len(built) <= 2 * sample_size
