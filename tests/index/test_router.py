"""The batch tile router against the scalar loop it replaced.

``SpatialPartitioning.route_rows`` is the one overlap implementation in
``src``; the per-envelope loop over tile ``Envelope`` objects it replaced
lives on here, as the oracle.  Same tiles, same order, bit-identical
nearest-tile tie-breaks — over every partitioner's layout, on tile edges
and corners, outside the extent, empty, expanded, and at extreme
magnitudes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.model import ClusterSpec
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import partitioned_spatial_join
from repro.geometry import Point, Polygon
from repro.geometry.envelope import Envelope
from repro.index import partitioner as partitioner_mod
from repro.index.partitioner import (
    BinarySplitPartitioner,
    FixedGridPartitioner,
    SortTilePartitioner,
    SpatialPartitioning,
)
from repro.optimizer import split_hot_tiles
from repro.optimizer.stats import collect_join_stats
from repro.spark.context import SparkContext


def scalar_route(partitioning: SpatialPartitioning, envelope: Envelope) -> list[int]:
    """The router as it was: a loop over the tiles, nearest tile for orphans."""
    if envelope.is_empty:
        return []
    tiles = partitioning.tiles
    hits = [i for i, tile in enumerate(tiles) if tile.intersects(envelope)]
    if hits:
        return hits
    return [min(range(len(tiles)), key=lambda i: tiles[i].distance(envelope))]


def batch_route(partitioning, envelopes, expand=0.0) -> list[list[int]]:
    rows, tiles = partitioning.route_envelopes(envelopes, expand=expand)
    assert rows.tolist() == sorted(rows.tolist())  # row-major
    routed: list[list[int]] = [[] for _ in envelopes]
    for row, tile in zip(rows.tolist(), tiles.tolist()):
        routed[row].append(tile)
    return routed


def _layouts() -> dict[str, SpatialPartitioning]:
    rng = random.Random(5)
    extent = Envelope(0.0, 0.0, 100.0, 60.0)
    sample = [(rng.gauss(30, 12) % 100, rng.gauss(20, 9) % 60) for _ in range(600)]
    left = [(i, Point(x, y)) for i, (x, y) in enumerate(sample)]
    cells = [
        (f"c{i}{j}", Polygon([(i, j), (i + 20, j), (i + 20, j + 20), (i, j + 20)]))
        for i in range(0, 100, 20)
        for j in range(0, 60, 20)
    ]
    grid = FixedGridPartitioner(3, 3).partition(extent)
    hot, _, added = split_hot_tiles(grid, collect_join_stats(left, cells))
    assert added > 0
    return {
        "grid": FixedGridPartitioner(4, 3).partition(extent),
        "bsp": BinarySplitPartitioner(3).partition(extent, sample),
        "str": SortTilePartitioner(9).partition(extent, sample),
        "hot": hot,
        "tiny": FixedGridPartitioner(3, 2).partition(Envelope(0.0, 0.0, 3e-9, 2e-9)),
        "huge": FixedGridPartitioner(3, 2).partition(Envelope(-1e9, -1e9, 2e9, 1e9)),
    }


LAYOUTS = _layouts()


@st.composite
def routed_batches(draw):
    """A layout, a batch of envelopes biased to its tile edges, an expand."""
    name = draw(st.sampled_from(sorted(LAYOUTS)))
    layout = LAYOUTS[name]
    extent = layout.extent
    span = max(extent.width, extent.height)

    def axis(lo, hi, edges):
        on_edge = st.sampled_from(edges)
        return st.one_of(
            on_edge,
            on_edge.map(lambda v: float(np.nextafter(v, np.inf))),
            on_edge.map(lambda v: float(np.nextafter(v, -np.inf))),
            st.floats(min_value=lo - span, max_value=hi + span),
        )

    xs = axis(
        extent.min_x, extent.max_x,
        sorted({t.min_x for t in layout.tiles} | {t.max_x for t in layout.tiles}),
    )
    ys = axis(
        extent.min_y, extent.max_y,
        sorted({t.min_y for t in layout.tiles} | {t.max_y for t in layout.tiles}),
    )

    @st.composite
    def envelope(draw):
        kind = draw(st.sampled_from(["point", "box", "box", "empty", "raw"]))
        if kind == "empty":
            return Envelope.empty()
        x0, y0 = draw(xs), draw(ys)
        if kind == "point":
            return Envelope(x0, y0, x0, y0)
        x1, y1 = draw(xs), draw(ys)
        if kind == "raw":  # corners as drawn: often min > max, an empty box
            return Envelope(x0, y0, x1, y1)
        return Envelope(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))

    expand = draw(
        st.sampled_from([0.0, 0.0, span * 1e-3, span / 7.0, span * 3.0, -span / 50.0])
    )
    return name, draw(st.lists(envelope(), min_size=0, max_size=24)), expand


class TestBatchRouterMatchesScalarLoop:
    @given(routed_batches())
    @settings(max_examples=300, deadline=None)
    def test_same_tiles_in_the_same_order(self, batch):
        name, envelopes, expand = batch
        layout = LAYOUTS[name]
        want = [scalar_route(layout, e.expand_by(expand)) for e in envelopes]
        assert batch_route(layout, envelopes, expand) == want
        for envelope in envelopes:
            assert layout.route(envelope) == scalar_route(layout, envelope)
            assert layout.route(envelope) == batch_route(layout, [envelope])[0]

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_edges_corners_spans_and_outsiders(self, name):
        layout = LAYOUTS[name]
        extent = layout.extent
        w, h = extent.width, extent.height
        envelopes = [extent, extent.expand_by(w), Envelope.empty()]
        for tile in layout.tiles:
            for x in (tile.min_x, tile.max_x):
                for y in (tile.min_y, tile.max_y):
                    envelopes.append(Envelope(x, y, x, y))  # a corner point
            cx, cy = tile.center
            envelopes.append(Envelope(tile.min_x, cy, tile.min_x, cy))  # on an edge
            envelopes.append(Envelope(tile.min_x, cy, tile.max_x, cy))  # zero-area
            envelopes.append(Envelope(cx, tile.min_y, cx, tile.max_y))
        # Wholly outside: beside each side, and diagonal to each corner —
        # equidistant tiles tie to the lowest index.
        for dx in (-w, 0.5 * w, 2 * w):
            for dy in (-h, 0.5 * h, 2 * h):
                if (dx, dy) != (0.5 * w, 0.5 * h):
                    x, y = extent.min_x + dx, extent.min_y + dy
                    envelopes.append(Envelope(x, y, x, y))
                    envelopes.append(Envelope(x, y, x + w / 9, y + h / 9))
        routed = batch_route(layout, envelopes)
        assert routed == [scalar_route(layout, e) for e in envelopes]
        assert routed[0] == list(range(len(layout)))  # the extent spans every tile
        assert routed[2] == []
        assert all(len(tiles) == 1 for tiles in routed[-10:])  # outsiders: nearest only

    def test_exact_distance_tie_goes_to_the_lowest_index(self):
        layout = FixedGridPartitioner(2, 2).partition(Envelope(0, 0, 10, 10))
        # Below the seam between tiles 0 and 1: both are exactly 3 away.
        assert layout.route(Envelope(5, -3, 5, -3)) == [0]
        assert layout.route(Envelope(4, -3, 6, -3)) == [0]
        assert layout.route(Envelope(5, 13, 5, 13)) == [2]  # above: 2 and 3 tie
        assert batch_route(layout, [Envelope(12, 13, 12, 13)]) == [[3]]

    def test_empty_tiles_and_non_canonical_empties_reach_nothing(self):
        layout = SpatialPartitioning(
            Envelope(0, 0, 10, 10),
            (Envelope(5, 5, 0, 0), Envelope(0, 0, 10, 10), Envelope.empty()),
        )
        spanning = Envelope(-1, -1, 11, 11)
        assert layout.route(spanning) == scalar_route(layout, spanning) == [1]
        inverted = Envelope(7, 0, 2, 10)  # min_x > max_x: empty, whatever expand
        assert batch_route(layout, [inverted, spanning], expand=20.0) == [[], [1]]
        assert batch_route(layout, [spanning], expand=-7.0) == [[]]  # shrunk away

    def test_rows_are_routed_in_bounded_chunks(self, monkeypatch):
        layout = LAYOUTS["str"]
        rng = random.Random(9)
        envelopes = [
            Envelope.of_point(rng.uniform(-20, 120), rng.uniform(-20, 80))
            for _ in range(500)
        ]
        whole = batch_route(layout, envelopes)
        monkeypatch.setattr(partitioner_mod, "_ROUTE_CHUNK_CELLS", 7 * len(layout))
        assert batch_route(layout, envelopes) == whole
        assert whole == [scalar_route(layout, e) for e in envelopes]


class TestJoinRoutesInBatches:
    def test_no_per_row_tile_loop(self, monkeypatch):
        """2 000 points x 64 tiles: the per-row router compared every row
        with every tile twice (>= 256 000 ``Envelope.intersects`` calls);
        the batch router calls it only while resolving an orphan row's
        nearest tile — one ``Envelope.distance`` per tile."""
        rng = random.Random(21)
        points = [
            (i, Point(rng.uniform(0, 80), rng.uniform(0, 80))) for i in range(2000)
        ]
        outside = [p for p in points if p[1].x > 72 or p[1].y > 72]
        cells = [
            (f"c{i}-{j}", Polygon([(i, j), (i + 10, j), (i + 10, j + 10), (i, j + 10)]))
            for i in range(0, 80, 10)
            for j in range(0, 80, 10)
        ]
        tiles = FixedGridPartitioner(8, 8).partition(Envelope(0, 0, 72, 72))
        calls = [0]
        real = Envelope.intersects

        def counted(self, other):
            calls[0] += 1
            return real(self, other)

        monkeypatch.setattr(Envelope, "intersects", counted)
        sc = SparkContext(ClusterSpec(2, 2))
        pairs = partitioned_spatial_join(
            sc, sc.parallelize(points, 8), sc.parallelize(cells, 2),
            SpatialOperator.WITHIN, partitioning=tiles,
        ).collect()
        assert len(pairs) >= len(points) - len(outside)
        assert outside  # the bound below is not vacuous
        # Map side and owner rule each resolve an orphan row once.
        assert calls[0] <= 2 * len(outside) * len(tiles)
        assert calls[0] < 2000 * 64 * 2 / 4
