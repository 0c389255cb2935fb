"""Morton codes on hostile inputs, and the batched walk that sorts by them.

``STRtree._walk`` orders a batch's probe boxes by the Morton code of
their centres over the root box.  An unbounded probe box (a
``cover_plane`` tile's +-inf edges) has an infinite or NaN centre, and a
tree whose entries share one x has a zero-width root box; both must get
a defined code — no invalid cast, no overflow — and leave the pair set
exactly what one scalar query per box finds.  Every test here turns
numpy's RuntimeWarnings into errors itself.
"""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest

from repro.geometry.envelope import Envelope
from repro.index import morton_code, morton_codes
from repro.index.partitioner import FixedGridPartitioner, cover_plane
from repro.index.rtree import STRtree

INF = math.inf


@pytest.fixture(autouse=True)
def runtime_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def _codes(xs, ys, extent=(0.0, 0.0, 10.0, 10.0)):
    return morton_codes(np.asarray(xs, float), np.asarray(ys, float), *extent).tolist()


class TestMortonCodes:
    def test_finite_inputs_keep_their_codes(self):
        rng = random.Random(3)
        extent = Envelope(-2.5, 1.0, 7.5, 4.0)
        xs = [rng.uniform(-6.0, 11.0) for _ in range(500)]
        ys = [rng.uniform(-2.0, 7.0) for _ in range(500)]
        got = morton_codes(
            np.array(xs), np.array(ys),
            extent.min_x, extent.min_y, extent.width, extent.height,
        ).tolist()
        assert got == [morton_code(x, y, extent) for x, y in zip(xs, ys)]

    def test_infinities_clamp_to_the_border_cells(self):
        assert _codes([-INF, INF, 0.0], [0.0, 0.0, INF]) == [
            0,
            _codes([10.0], [0.0])[0],
            _codes([0.0], [10.0])[0],
        ]

    def test_nan_takes_the_first_cell(self):
        assert _codes([math.nan, 5.0], [5.0, math.nan]) == _codes([0.0, 5.0], [5.0, 0.0])

    HOSTILE = [-1e300, -1.0, 3.0, 3.5, 1e300, INF, -INF, math.nan]

    @pytest.mark.parametrize(
        "min_x, width",
        [(3.0, 0.0), (-INF, INF), (3.0, INF), (3.0, math.nan), (3.0, -1.0)],
        ids=["zero-width", "unbounded", "infinite-width", "nan-width", "negative-width"],
    )
    def test_degenerate_x_axis_is_one_cell(self, min_x, width):
        ys = [float(k) for k in range(len(self.HOSTILE))]
        assert _codes(self.HOSTILE, ys, (min_x, 0.0, width, 10.0)) == _codes(
            [0.0] * len(ys), ys
        )

    def test_degenerate_y_axis_is_one_cell(self):
        xs = [float(k) for k in range(len(self.HOSTILE))]
        assert _codes(xs, self.HOSTILE, (0.0, 3.0, 10.0, 0.0)) == _codes(
            xs, [0.0] * len(xs)
        )

    def test_far_values_saturate_without_overflow(self):
        assert _codes([-1e308, 1e308], [1e308, -1e308], (0.0, 0.0, 1e-300, 1e-300)) == [
            _codes([0.0], [1e-300], (0.0, 0.0, 1e-300, 1e-300))[0],
            _codes([1e-300], [0.0], (0.0, 0.0, 1e-300, 1e-300))[0],
        ]


def _tree(boxes):
    tree = STRtree([(k, Envelope(*box)) for k, box in enumerate(boxes)], node_capacity=4)
    tree.build()
    return tree


def _batch_pairs(tree, probes):
    columns = [np.array(column, dtype=float) for column in zip(*probes)]
    rows, entries, _ = tree._query_batch_arrays(*columns)
    return sorted(zip(rows.tolist(), entries.tolist()))


def _scalar_pairs(tree, probes):
    return sorted(
        (row, entry) for row, box in enumerate(probes) for entry in tree.query(Envelope(*box))
    )


class TestBatchedWalk:
    def test_zero_width_root_box(self):
        # Every entry on the line x = 2: the root box has zero width.
        boxes = [(2.0, y, 2.0, y + 0.5) for y in np.arange(0.0, 20.0, 0.75).tolist()]
        tree = _tree(boxes)
        probes = [(x, y, x + 0.3, y + 0.3) for x in (1.0, 1.8, 2.0, 3.5) for y in range(0, 21, 3)]
        pairs = _batch_pairs(tree, probes)
        assert pairs and pairs == _scalar_pairs(tree, probes)

    def test_zero_height_root_box(self):
        boxes = [(x, -1.0, x + 0.5, -1.0) for x in np.arange(0.0, 20.0, 0.75).tolist()]
        tree = _tree(boxes)
        probes = [(x, y, x + 0.3, y + 0.3) for x in range(0, 21, 3) for y in (-1.2, -1.0, 0.5)]
        pairs = _batch_pairs(tree, probes)
        assert pairs and pairs == _scalar_pairs(tree, probes)

    def test_unbounded_probe_boxes(self):
        rng = random.Random(11)
        boxes = []
        for _ in range(60):
            x, y = rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)
            boxes.append((x, y, x + rng.uniform(0.1, 2.0), y + rng.uniform(0.1, 2.0)))
        tree = _tree(boxes)
        tiles = cover_plane(FixedGridPartitioner(3, 3).partition(Envelope(5.0, 5.0, 25.0, 25.0)))
        probes = [(t.min_x, t.min_y, t.max_x, t.max_y) for t in tiles.tiles]
        probes.append((-INF, -INF, INF, INF))
        assert any(math.isinf(v) for probe in probes for v in probe)
        pairs = _batch_pairs(tree, probes)
        assert pairs and pairs == _scalar_pairs(tree, probes)

    def test_unbounded_tree(self):
        # A tree over cover_plane tiles: its root box is the whole plane.
        tiles = cover_plane(FixedGridPartitioner(4, 2).partition(Envelope(0.0, 0.0, 8.0, 8.0)))
        tree = _tree([(t.min_x, t.min_y, t.max_x, t.max_y) for t in tiles.tiles])
        probes = [(x, y, x + 0.5, y + 0.5) for x in (-50.0, 1.0, 4.2, 99.0) for y in (-3.0, 6.0)]
        pairs = _batch_pairs(tree, probes)
        assert pairs and pairs == _scalar_pairs(tree, probes)
