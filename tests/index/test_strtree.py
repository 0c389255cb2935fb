"""STR-packed R-tree: the broadcast join's filtering index.

A built ``STRtree`` is one packed node table (``_box``, ``_first``,
``_fanout``, ``_leaf_entries``, ``_leaf_boxes``; nodes numbered
breadth-first).  The object-sort packer it replaced and the scalar
``Envelope`` dual-tree join are kept here as the references it is
checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError, SpatialIndexError
from repro.geometry.envelope import Envelope
from repro.index import STRtree


def random_entries(rng, n, extent=100.0, max_size=3.0):
    entries = []
    for i in range(n):
        x = rng.uniform(0, extent)
        y = rng.uniform(0, extent)
        entries.append(
            (i, Envelope(x, y, x + rng.uniform(0, max_size), y + rng.uniform(0, max_size)))
        )
    return entries


def brute_force(entries, query):
    return sorted(i for i, env in entries if env.intersects(query))


def node_envelope(tree, node):
    return Envelope(*tree._box[:, node].tolist())


def children(tree, node):
    """A node's child ids, or ``None`` for a leaf."""
    fanout = int(tree._fanout[node])
    if not fanout:
        return None
    first = int(tree._first[node])
    return list(range(first, first + fanout))


def leaf_items(tree, node):
    """A leaf's ``(entry id, Envelope)`` items, in slot order."""
    row = int(tree._first[node])
    return [
        (entry, Envelope(*tree._leaf_boxes[:, row, slot].tolist()))
        for slot, entry in enumerate(tree._leaf_entries[row].tolist())
        if entry >= 0
    ]


def reference_table(entries, capacity):
    """The object-sort STR packer the node table replaced, kept here as
    its reference: ``sorted`` on centre keys, ``Envelope.union`` node
    boxes, levels packed until one root is left, then numbered
    breadth-first.  Returns ``(box, first, fanout, leaf_entries,
    leaf_boxes)`` as lists, or ``None`` for an empty tree."""
    entries = [(item, env) for item, env in entries if not env.is_empty]
    if not entries:
        return None

    def union(envelopes):
        envelope = Envelope.empty()
        for env in envelopes:
            envelope = envelope.union(env)
        return envelope

    def str_chunks(keys_x, keys_y, count):
        order = sorted(range(count), key=keys_x)
        slice_count = max(1, math.ceil(math.sqrt(math.ceil(count / capacity))))
        slice_size = max(1, math.ceil(count / slice_count))
        for start in range(0, count, slice_size):
            vertical = sorted(order[start : start + slice_size], key=keys_y)
            for chunk_start in range(0, len(vertical), capacity):
                yield vertical[chunk_start : chunk_start + capacity]

    # A node is (envelope, child nodes or None, entry ids or None).
    envs = [env for _, env in entries]
    nodes = [
        (union(envs[k] for k in ids), None, ids)
        for ids in str_chunks(
            lambda k: envs[k].min_x + envs[k].max_x,
            lambda k: envs[k].min_y + envs[k].max_y,
            len(envs),
        )
    ]
    while len(nodes) > 1:
        level = nodes
        nodes = [
            (union(level[k][0] for k in ids), [level[k] for k in ids], None)
            for ids in str_chunks(
                lambda k: level[k][0].min_x + level[k][0].max_x,
                lambda k: level[k][0].min_y + level[k][0].max_y,
                len(level),
            )
        ]
    numbered = [nodes[0]]
    first, fanout, leaf_entries, leaf_boxes = [], [], [], []
    for envelope, kids, ids in numbered:  # grows as it is walked
        if kids is None:
            first.append(len(leaf_entries))
            fanout.append(0)
            leaf_entries.append(ids + [-1] * (capacity - len(ids)))
            leaf_boxes.append(
                [(e.min_x, e.min_y, e.max_x, e.max_y) for e in (envs[k] for k in ids)]
                + [(math.inf, math.inf, -math.inf, -math.inf)] * (capacity - len(ids))
            )
        else:
            first.append(len(numbered))
            fanout.append(len(kids))
            numbered.extend(kids)
    box = [
        [getattr(envelope, side) for envelope, _, _ in numbered]
        for side in ("min_x", "min_y", "max_x", "max_y")
    ]
    leaf_boxes = [[[slot[side] for slot in leaf] for leaf in leaf_boxes] for side in range(4)]
    return box, first, fanout, leaf_entries, leaf_boxes


class TestBuildAndQuery:
    def test_empty_tree(self):
        tree = STRtree()
        assert len(tree) == 0
        assert tree.query(Envelope(0, 0, 1, 1)) == []
        tree.build()
        assert tree._box.shape == (4, 0) and len(tree._first) == 0
        assert tree.depth() == 0

    def test_single_entry(self):
        tree = STRtree([("only", Envelope(0, 0, 1, 1))])
        assert tree.query(Envelope(0.5, 0.5, 2, 2)) == ["only"]
        assert tree.query(Envelope(5, 5, 6, 6)) == []
        assert tree.depth() == 1

    def test_matches_brute_force(self, rng):
        entries = random_entries(rng, 500)
        tree = STRtree(entries)
        for _ in range(50):
            x = rng.uniform(0, 100)
            y = rng.uniform(0, 100)
            query = Envelope(x, y, x + rng.uniform(0, 20), y + rng.uniform(0, 20))
            assert sorted(tree.query(query)) == brute_force(entries, query)

    def test_query_point(self, rng):
        entries = random_entries(rng, 300)
        tree = STRtree(entries)
        for _ in range(30):
            x = rng.uniform(0, 100)
            y = rng.uniform(0, 100)
            expected = sorted(i for i, e in entries if e.contains_point(x, y))
            assert sorted(tree.query_point(x, y)) == expected

    def test_empty_query_returns_nothing(self, rng):
        tree = STRtree(random_entries(rng, 50))
        assert tree.query(Envelope.empty()) == []

    def test_empty_envelopes_skipped_on_insert(self):
        tree = STRtree([("a", Envelope.empty()), ("b", Envelope(0, 0, 1, 1))])
        assert len(tree) == 1

    def test_insert_before_build(self):
        tree = STRtree()
        tree.insert("x", Envelope(0, 0, 1, 1))
        assert tree.query(Envelope(0, 0, 2, 2)) == ["x"]

    def test_insert_after_build_rejected(self):
        tree = STRtree([("x", Envelope(0, 0, 1, 1))])
        tree.build()
        with pytest.raises(SpatialIndexError):
            tree.insert("y", Envelope(2, 2, 3, 3))

    def test_bad_capacity(self):
        with pytest.raises(SpatialIndexError):
            STRtree(node_capacity=1)

    def test_duplicate_envelopes_all_returned(self):
        env = Envelope(0, 0, 1, 1)
        tree = STRtree([(i, env) for i in range(25)])
        assert sorted(tree.query(env)) == list(range(25))


class TestStructure:
    def test_node_capacity_respected(self, rng):
        tree = STRtree(random_entries(rng, 200), node_capacity=4)
        tree.build()
        stack = [0]
        while stack:
            node = stack.pop()
            kids = children(tree, node)
            if kids is None:
                assert 1 <= len(leaf_items(tree, node)) <= 4
            else:
                assert 1 <= len(kids) <= 4
                stack.extend(kids)
        # Every entry sits in exactly one leaf slot.
        held = tree._leaf_entries[tree._leaf_entries >= 0]
        assert sorted(held.tolist()) == list(range(200))

    def test_parent_envelope_covers_children(self, rng):
        tree = STRtree(random_entries(rng, 300))
        tree.build()
        stack = [0]
        while stack:
            node = stack.pop()
            envelope = node_envelope(tree, node)
            kids = children(tree, node)
            if kids is None:
                for _, env in leaf_items(tree, node):
                    assert envelope.contains(env)
            else:
                for child in kids:
                    assert envelope.contains(node_envelope(tree, child))
                stack.extend(kids)

    def test_depth_logarithmic(self, rng):
        tree = STRtree(random_entries(rng, 1000), node_capacity=10)
        assert tree.depth() <= 4  # ceil(log10(1000)) + 1
        # Every root-to-leaf path is depth() nodes long.
        lengths, stack = [], [(0, 1)]
        while stack:
            node, length = stack.pop()
            kids = children(tree, node)
            if kids is None:
                lengths.append(length)
            else:
                stack.extend((child, length + 1) for child in kids)
        assert set(lengths) == {tree.depth()}

    def test_visit_counter(self, rng):
        tree = STRtree(random_entries(rng, 500))
        tree.build()
        tree.reset_stats()
        tree.query(Envelope(0, 0, 5, 5))
        small = tree.nodes_visited
        tree.reset_stats()
        tree.query(Envelope(0, 0, 100, 100))
        full = tree.nodes_visited
        assert 0 < small < full


class TestNearest:
    def test_nearest_single(self):
        entries = [(i, Envelope.of_point(float(i * 10), 0.0)) for i in range(10)]
        tree = STRtree(entries)
        found = tree.nearest(34.0, 0.0, k=1)
        assert found == [(3, pytest.approx(4.0))]

    def test_nearest_k_ordered(self, rng):
        entries = [(i, Envelope.of_point(rng.uniform(0, 100), rng.uniform(0, 100)))
                   for i in range(200)]
        tree = STRtree(entries)
        found = tree.nearest(50, 50, k=10)
        distances = [d for _, d in found]
        assert distances == sorted(distances)
        # Cross-check against brute force.
        brute = sorted(
            (math.hypot(env.min_x - 50, env.min_y - 50), i) for i, env in entries
        )[:10]
        assert [i for _, i in brute] == [i for i, _ in found]

    def test_nearest_max_distance(self):
        entries = [(0, Envelope.of_point(0, 0)), (1, Envelope.of_point(10, 0))]
        tree = STRtree(entries)
        found = tree.nearest(2, 0, k=5, max_distance=5.0)
        assert [i for i, _ in found] == [0]

    def test_nearest_item_distance_callback(self):
        # Item distance can differ from envelope distance (polyline case).
        entries = [("far", Envelope(0, 0, 10, 10)), ("near", Envelope(20, 0, 30, 10))]

        def item_distance(x, y, item):
            return 1.0 if item == "near" else 5.0

        tree = STRtree(entries)
        found = tree.nearest(15, 5, k=2, item_distance=item_distance)
        assert [i for i, _ in found] == ["near", "far"]

    def test_nearest_empty_tree(self):
        assert STRtree().nearest(0, 0) == []

    def test_nearest_k_zero(self, rng):
        tree = STRtree(random_entries(rng, 10))
        assert tree.nearest(0, 0, k=0) == []


class TestIteration:
    def test_iter_all(self, rng):
        entries = random_entries(rng, 40)
        tree = STRtree(entries)
        assert sorted(i for i, _ in tree.iter_all()) == list(range(40))


class TestDualTreeJoin:
    def test_matches_nested_loop(self, rng):
        a = random_entries(rng, 200, max_size=4)
        b = random_entries(rng, 150, max_size=4)
        tree_a = STRtree(a, node_capacity=6)
        tree_b = STRtree(b, node_capacity=6)
        got = sorted(tree_a.join(tree_b))
        expected = sorted(
            (i, j) for i, ea in a for j, eb in b if ea.intersects(eb)
        )
        assert got == expected

    def test_expand_radius(self, rng):
        a = random_entries(rng, 100, max_size=1)
        b = random_entries(rng, 100, max_size=1)
        got = sorted(STRtree(a).join(STRtree(b), expand=5.0))
        expected = sorted(
            (i, j)
            for i, ea in a
            for j, eb in b
            if ea.expand_by(5.0).intersects(eb)
        )
        assert got == expected

    def test_empty_sides(self, rng):
        full = STRtree(random_entries(rng, 10))
        assert STRtree().join(full) == []
        assert full.join(STRtree()) == []

    def test_self_join(self, rng):
        entries = random_entries(rng, 80)
        tree1 = STRtree(entries)
        tree2 = STRtree(entries)
        got = tree1.join(tree2)
        # Every entry intersects itself, so at least n pairs.
        assert len(got) >= 80

    def test_prunes_disjoint_regions(self, rng):
        left = [(i, Envelope(i, 0.0, i + 0.5, 0.5)) for i in range(100)]
        right = [(i, Envelope(i, 1000.0, i + 0.5, 1000.5)) for i in range(100)]
        tree_a = STRtree(left)
        tree_b = STRtree(right)
        tree_a.build(); tree_b.build()
        tree_a.reset_stats()
        assert tree_a.join(tree_b) == []
        # Disjoint roots: the traversal stops after one node pair.
        assert tree_a.nodes_visited == 1


def scalar_join(tree_a, tree_b, expand=0.0):
    """The nested-loop ``STRtree.join`` body the array traversal replaced,
    kept here as its reference: one ``(node_a, node_b)`` stack, one
    ``Envelope`` test per node pair and per item pair."""
    tree_a.build()
    tree_b.build()
    if not len(tree_a._first) or not len(tree_b._first):
        return []
    items_a, items_b = tree_a._items, tree_b._items
    results = []
    stack = [(0, 0)]
    while stack:
        node_a, node_b = stack.pop()
        tree_a.nodes_visited += 1
        tree_b.nodes_visited += 1
        env_a, env_b = node_envelope(tree_a, node_a), node_envelope(tree_b, node_b)
        if not env_a.expand_by(expand).intersects(env_b):
            continue
        kids_a, kids_b = children(tree_a, node_a), children(tree_b, node_b)
        if kids_a is None and kids_b is None:
            for entry_a, item_env_a in leaf_items(tree_a, node_a):
                item_env_a = item_env_a.expand_by(expand)
                for entry_b, item_env_b in leaf_items(tree_b, node_b):
                    if item_env_a.intersects(item_env_b):
                        results.append((items_a[entry_a], items_b[entry_b]))
        elif kids_a is None:
            stack.extend((node_a, child) for child in kids_b)
        elif kids_b is None:
            stack.extend((child, node_b) for child in kids_a)
        else:
            # Descend the larger-area node (the standard heuristic).
            if env_a.area >= env_b.area:
                stack.extend((child, node_b) for child in kids_a)
            else:
                stack.extend((node_a, child) for child in kids_b)
    return results


# A coarse lattice, so boxes touch, repeat and collapse to segments / points.
_LATTICE = st.integers(min_value=0, max_value=12).map(float)


@st.composite
def _boxes(draw, max_size):
    def box():
        x, y = draw(_LATTICE), draw(_LATTICE)
        w, h = draw(st.sampled_from([0.0, 0.0, 1.0, 3.0])), draw(st.sampled_from([0.0, 1.0, 2.0]))
        return Envelope(x, y, x + w, y + h)

    boxes = draw(st.lists(st.builds(box), min_size=0, max_size=max_size))
    if boxes and draw(st.booleans()):  # a run of duplicates
        boxes += [boxes[0]] * draw(st.integers(min_value=1, max_value=12))
    if draw(st.booleans()):
        boxes.insert(draw(st.integers(0, len(boxes))), Envelope.empty())
    return list(enumerate(boxes))


@st.composite
def _joins(draw):
    # Sizes and capacities that give an empty tree, a single leaf, several
    # levels, and trees of unequal depth on either side.
    size_a = draw(st.sampled_from([0, 3, 40, 120]))
    size_b = draw(st.sampled_from([0, 2, 9, 150]))
    return (
        draw(_boxes(size_a)),
        draw(_boxes(size_b)),
        draw(st.sampled_from([2, 3, 10])),
        draw(st.sampled_from([2, 4, 10])),
        draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, -0.5])),
    )


class TestArrayTraversalMatchesTheScalarJoin:
    @given(_joins())
    @settings(max_examples=300, deadline=None)
    def test_same_pairs_same_order_same_visits(self, case):
        entries_a, entries_b, capacity_a, capacity_b, expand = case
        tree_a = STRtree(entries_a, node_capacity=capacity_a)
        tree_b = STRtree(entries_b, node_capacity=capacity_b)
        want = scalar_join(tree_a, tree_b, expand)
        want_visits = (tree_a.nodes_visited, tree_b.nodes_visited)
        tree_a.reset_stats()
        tree_b.reset_stats()
        assert tree_a.join(tree_b, expand) == want
        assert (tree_a.nodes_visited, tree_b.nodes_visited) == want_visits
        # The list view adds nothing: entry positions, empties not counted.
        rows_a, rows_b = tree_a._join_arrays(tree_b, expand)
        items_a = [item for item, env in entries_a if not env.is_empty]
        items_b = [item for item, env in entries_b if not env.is_empty]
        assert [
            (items_a[a], items_b[b]) for a, b in zip(rows_a.tolist(), rows_b.tolist())
        ] == want

    def test_bulk_loaded_trees_join_like_object_built_ones(self, rng):
        a = random_entries(rng, 700, max_size=2)
        b = random_entries(rng, 90, max_size=15)

        def bulk(entries):
            tree = STRtree()
            tree.bulk_load_arrays(
                [item for item, _ in entries],
                *np.array([(e.min_x, e.min_y, e.max_x, e.max_y) for _, e in entries]).T,
            )
            return tree

        for expand in (0.0, 4.0):
            want = scalar_join(STRtree(a), STRtree(b), expand)
            assert len(want) > 300
            assert bulk(a).join(bulk(b), expand) == want

    def test_no_envelope_is_built_or_expanded_in_the_traversal(self, rng, monkeypatch):
        tree_a = STRtree(random_entries(rng, 300))
        tree_b = STRtree(random_entries(rng, 300))
        tree_a.build()
        tree_b.build()
        calls = []
        monkeypatch.setattr(
            Envelope, "expand_by", lambda self, distance: calls.append(distance) or self
        )
        monkeypatch.setattr(Envelope, "intersects", lambda self, other: calls.append(other))
        assert len(tree_a.join(tree_b, expand=2.0)) > 300
        assert calls == []


def assert_table_is(tree, want):
    tree.build()
    if want is None:
        assert len(tree) == 0 and len(tree._first) == 0 and tree._box.shape == (4, 0)
        return
    box, first, fanout, leaf_entries, leaf_boxes = want
    assert tree._box.tolist() == box
    assert tree._first.tolist() == first
    assert tree._fanout.tolist() == fanout
    assert tree._leaf_entries.tolist() == leaf_entries
    assert tree._leaf_boxes.tolist() == leaf_boxes


class TestNodeTableMatchesTheObjectPacker:
    @given(
        st.sampled_from([0, 1, 2, 3, 10, 11, 40, 150]).flatmap(_boxes),
        st.sampled_from([2, 3, 10]),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_table(self, entries, capacity, bulk):
        # _boxes draws up to the sampled size, so every size up to it
        # (0, 1, capacity, capacity + 1, multi-level) comes up.
        if bulk:
            bounds = [(e.min_x, e.min_y, e.max_x, e.max_y) for _, e in entries]
            tree = STRtree(node_capacity=capacity)
            tree.bulk_load_arrays(
                [item for item, _ in entries], *np.array(bounds).reshape(-1, 4).T
            )
        else:
            tree = STRtree(entries, node_capacity=capacity)
        assert_table_is(tree, reference_table(entries, capacity))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 101, 1000])
    @pytest.mark.parametrize("capacity", [2, 3, 10])
    def test_sizes_around_capacity(self, rng, n, capacity):
        entries = random_entries(rng, n)
        tree = STRtree(entries, node_capacity=capacity)
        assert_table_is(tree, reference_table(entries, capacity))


class TestLoadDoors:
    """What every way in — ``STRtree(entries)``, ``insert``,
    ``bulk_load_arrays`` — accepts, skips and refuses."""

    @pytest.mark.parametrize("side", range(4))
    def test_nan_bound_raises(self, side):
        bounds = [0.0, 0.0, 1.0, 1.0]
        bounds[side] = math.nan
        with pytest.raises(GeometryError):
            STRtree([(0, Envelope(0, 0, 1, 1)), (1, Envelope(*bounds))])
        tree = STRtree()
        with pytest.raises(GeometryError):
            tree.insert(1, Envelope(*bounds))
        columns = np.array([[0.0, 0.0, 1.0, 1.0], bounds]).T
        with pytest.raises(GeometryError):
            STRtree().bulk_load_arrays([0, 1], *columns)

    def test_empty_and_inverted_boxes_are_skipped(self):
        boxes = [
            ("a", (0.0, 0.0, 1.0, 1.0)),
            ("empty", (math.inf, math.inf, -math.inf, -math.inf)),
            ("inverted-x", (2.0, 0.0, 1.0, 1.0)),
            ("inverted-y", (0.0, 2.0, 1.0, 1.0)),
            ("b", (0.5, 0.5, 0.5, 0.5)),
        ]
        everything = Envelope(-10, -10, 10, 10)
        bulk = STRtree()
        bulk.bulk_load_arrays([item for item, _ in boxes], *np.array([b for _, b in boxes]).T)
        # No Envelope is inverted on one axis only.
        objects = [(item, Envelope(*b)) for item, b in boxes if "inverted" not in item]
        built = STRtree(objects)
        inserted = STRtree()
        for item, envelope in objects:
            inserted.insert(item, envelope)
        for tree in (bulk, inserted, built):
            assert len(tree) == 2
            assert tree.query(everything) in (["a", "b"], ["b", "a"])
            assert [item for item, _ in tree.iter_all()] == ["a", "b"]
        probes, entries, _ = bulk._query_batch_arrays(*(np.array([v]) for v in (-10, -10, 10, 10)))
        assert sorted(entries.tolist()) == [0, 1]  # positions count kept entries only
        assert STRtree([("e", Envelope.empty())]).depth() == 0


class TestNoEnvelopeOnTheArrayPaths:
    def test_bulk_load_build_query_and_join_build_no_envelope(self, monkeypatch):
        rng = np.random.default_rng(7)

        def bulk(n):
            xs, ys = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
            tree = STRtree(node_capacity=6)
            tree.bulk_load_arrays(range(n), xs, ys, xs + 2.0, ys + 1.0)
            return tree

        built = []
        original = Envelope.__post_init__
        monkeypatch.setattr(
            Envelope, "__post_init__", lambda self: built.append(self) or original(self)
        )
        tree_a, tree_b = bulk(500), bulk(300)
        tree_a.build()
        tree_b.build()
        probes = rng.uniform(0, 100, (2, 200))
        _, entries, _ = tree_a._query_batch_arrays(*probes, *(probes + 3.0))
        rows_a, _ = tree_a._join_arrays(tree_b, expand=1.5)
        assert len(entries) > 200 and len(rows_a) > 300
        assert built == []
