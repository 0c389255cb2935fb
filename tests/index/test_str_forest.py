"""STR forests: many trees packed in one node table, walked in one query.

The partitioned join's tile stage packs every tile's build rows into one
:class:`STRForest` and answers every tile's probes with one
:meth:`STRForest.query`.  Tree ``t`` must be exactly the tree
``STRtree.from_bounds`` packs over group ``t`` alone, and its probes must
get exactly that tree's ``_query_batch_arrays`` answer — the same
candidate pairs in the same order, the same per-probe visits and the same
``nodes_visited`` total — whatever the other trees hold.  A forest of one
tree is that tree's node table, array by array.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError, SpatialIndexError
from repro.geometry.envelope import Envelope
from repro.index.partitioner import FixedGridPartitioner, cover_plane
from repro.index.rtree import STRForest, STRtree

INF = math.inf
TABLE = ("_box", "_first", "_fanout", "_leaf_entries", "_leaf_boxes")

# Few distinct coordinates, so centre ties (the stable sorts' business)
# come up often.
_COORD = st.integers(-20, 20).map(float)
_SIZE = st.integers(0, 6).map(float)


@pytest.fixture(autouse=True)
def runtime_warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@st.composite
def _build_box(draw):
    """A build row's box: finite, degenerate, empty (skipped) or
    unbounded along one axis (a NaN centre there)."""
    kind = draw(st.sampled_from(["finite"] * 8 + ["point", "empty", "wide"]))
    x, y = draw(_COORD), draw(_COORD)
    if kind == "point":
        return (x, y, x, y)
    if kind == "empty":
        return (INF, INF, -INF, -INF)
    if kind == "wide":
        return (-INF, y, INF, y + draw(_SIZE))
    return (x, y, x + draw(_SIZE), y + draw(_SIZE))


@st.composite
def _probe_box(draw):
    """A probe box: finite, a point, inverted, the empty envelope, or
    with +-inf edges the way ``cover_plane``'s outer tiles have them."""
    kind = draw(st.sampled_from(["finite"] * 6 + ["point", "inverted", "empty", "unbounded"]))
    x, y = draw(_COORD), draw(_COORD)
    if kind == "point":
        return (x, y, x, y)
    if kind == "inverted":
        return (x + 1.0 + draw(_SIZE), y, x, y + draw(_SIZE))
    if kind == "empty":
        return (INF, INF, -INF, -INF)
    if kind == "unbounded":
        return (
            draw(st.sampled_from([-INF, x])), draw(st.sampled_from([-INF, y])),
            draw(st.sampled_from([INF, x + 3.0])), draw(st.sampled_from([INF, y + 3.0])),
        )
    return (x, y, x + draw(_SIZE), y + draw(_SIZE))


_GROUP_SIZE = st.sampled_from([0, 1, 10, 11]) | st.integers(95, 105)


@st.composite
def _forest_case(draw):
    """``(build boxes, group sizes, probe boxes, probe cuts)``."""
    sizes = draw(st.lists(_GROUP_SIZE, min_size=1, max_size=5))
    builds = [draw(st.lists(_build_box(), min_size=n, max_size=n)) for n in sizes]
    probes = [draw(st.lists(_probe_box(), max_size=25)) for _ in sizes]
    cuts = np.cumsum([0] + [len(group) for group in probes]).tolist()
    return (
        _rows([box for group in builds for box in group]),
        sizes,
        _rows([box for group in probes for box in group]),
        cuts,
    )


def _rows(boxes):
    """``(4, n)`` min_x / min_y / max_x / max_y rows of box tuples."""
    return np.array(boxes, dtype=np.float64).reshape(-1, 4).T.copy()


def _per_tree(bounds, sizes, probes, cuts, expand, capacity):
    """Each group's own ``from_bounds`` tree and batched query, in forest
    numbering: ``(probes, entries, visits, nodes_visited)``."""
    found, visited = [], 0
    starts = np.cumsum([0] + list(sizes)).tolist()
    for lo, hi, start, stop in zip(starts, starts[1:], cuts, cuts[1:]):
        group = bounds[:, lo:hi]
        tree = STRtree.from_bounds(group, expand, capacity)
        got_probes, entries, visits = tree._query_batch_arrays(*probes[:, start:stop])
        # A tree's entry k is its k-th non-empty box.
        grown = np.concatenate([group[:2] - expand, group[2:] + expand])
        kept = np.flatnonzero(~((grown[0] > grown[2]) | (grown[1] > grown[3])))
        found.append((got_probes + start, lo + kept[entries], visits))
        visited += tree.nodes_visited
    return (*(np.concatenate(column) for column in zip(*found)), visited)


class TestForestIsEveryTreeAlone:
    @given(
        _forest_case(),
        st.sampled_from([0.0, 0.5, 3.0]),
        st.sampled_from([2, 3, 10]),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_pairs_order_and_visits(self, case, expand, capacity):
        bounds, sizes, probes, cuts = case
        forest = STRForest(bounds, sizes, expand, capacity)
        got = forest.query(*probes, cuts)
        *want, want_visited = _per_tree(bounds, sizes, probes, cuts, expand, capacity)
        for got_column, want_column in zip(got, want):
            assert got_column.dtype == np.int64
            assert got_column.tolist() == want_column.tolist()
        assert forest.nodes_visited == want_visited

    @given(
        st.lists(_build_box(), max_size=120),
        st.sampled_from([0.0, 0.5]),
        st.sampled_from([2, 3, 10]),
    )
    @settings(max_examples=150, deadline=None)
    def test_a_forest_of_one_is_the_tree_table(self, boxes, expand, capacity):
        bounds = _rows(boxes)
        forest = STRForest(bounds, [len(boxes)], expand, capacity)
        tree = STRtree.from_bounds(bounds, expand, capacity)
        grown = np.concatenate([bounds[:2] - expand, bounds[2:] + expand])
        if (grown[0] > grown[2]).any() or (grown[1] > grown[3]).any():
            # The forest numbers entries by input position, the tree by
            # non-empty box: map the tree's through the kept positions.
            kept = np.flatnonzero(~((grown[0] > grown[2]) | (grown[1] > grown[3])))
            held = tree._leaf_entries >= 0
            tree._leaf_entries[held] = kept[tree._leaf_entries[held]]
        for name in TABLE:
            got, want = getattr(forest, name), getattr(tree, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert forest._roots.tolist() == [0 if len(tree) else -1]


class TestEdges:
    def test_cover_plane_tile_boxes_probe_like_lone_trees(self):
        # Probe boxes that are cover_plane tiles: +-inf outer edges.
        layout = cover_plane(FixedGridPartitioner(3, 3).partition(Envelope(0, 0, 9, 9)))
        probes = _rows([(t.min_x, t.min_y, t.max_x, t.max_y) for t in layout.tiles])
        rng = np.random.default_rng(4)
        corner = rng.uniform(-4, 12, size=(2, 60))
        bounds = np.concatenate([corner, corner + rng.uniform(0, 2, size=(2, 60))])
        sizes, cuts = [0, 1, 10, 11, 38], [0, 1, 3, 5, 6, len(layout.tiles)]
        forest = STRForest(bounds, sizes)
        got = forest.query(*probes, cuts)
        *want, visited = _per_tree(bounds, sizes, probes, cuts, 0.0, 10)
        assert [column.tolist() for column in got] == [column.tolist() for column in want]
        assert forest.nodes_visited == visited > 0

    def test_a_nan_bound_raises_like_from_bounds(self):
        bounds = _rows([(0, 0, 1, 1), (2, 2, 3, 3), (4, 4, 5, 5)])
        bounds[2, 1] = math.nan
        with pytest.raises(GeometryError):
            STRtree.from_bounds(bounds)
        with pytest.raises(GeometryError):
            STRForest(bounds, [1, 2])

    def test_a_capacity_below_two_is_refused(self):
        with pytest.raises(SpatialIndexError):
            STRForest(_rows([(0, 0, 1, 1), (2, 2, 3, 3)]), [2], node_capacity=1)

    def test_no_entries_visit_nothing(self):
        forest = STRForest(_rows([]), [0, 0])
        boxes = _rows([(0, 0, 1, 1), (-INF, -INF, INF, INF)])
        probes, entries, visits = forest.query(*boxes, [0, 1, 2])
        assert probes.size == entries.size == 0
        assert visits.tolist() == [0, 0] and forest.nodes_visited == 0
