"""STR-packed R-tree: the broadcast join's filtering index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpatialIndexError
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


class TestBuildAndQuery:
    def test_empty_tree(self):
        tree = STRtree()
        assert len(tree) == 0
        assert tree.query(Envelope(0, 0, 1, 1)) == []
        assert tree.root is None
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
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert 1 <= len(node.items) <= 4
            else:
                assert 1 <= len(node.children) <= 4
                stack.extend(node.children)

    def test_parent_envelope_covers_children(self, rng):
        tree = STRtree(random_entries(rng, 300))
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for _, env in node.items:
                    assert node.envelope.contains(env)
            else:
                for child in node.children:
                    assert node.envelope.contains(child.envelope)
                stack.extend(child for child in node.children)

    def test_depth_logarithmic(self, rng):
        tree = STRtree(random_entries(rng, 1000), node_capacity=10)
        assert tree.depth() <= 4  # ceil(log10(1000)) + 1

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
    if tree_a.root is None or tree_b.root is None:
        return []
    results = []
    stack = [(tree_a.root, tree_b.root)]
    while stack:
        node_a, node_b = stack.pop()
        tree_a.nodes_visited += 1
        tree_b.nodes_visited += 1
        if not node_a.envelope.expand_by(expand).intersects(node_b.envelope):
            continue
        if node_a.is_leaf and node_b.is_leaf:
            for item_a, env_a in node_a.items:
                env_a = env_a.expand_by(expand)
                for item_b, env_b in node_b.items:
                    if env_a.intersects(env_b):
                        results.append((item_a, item_b))
        elif node_a.is_leaf:
            stack.extend((node_a, child) for child in node_b.children)
        elif node_b.is_leaf:
            stack.extend((child, node_b) for child in node_a.children)
        else:
            # Descend the larger-area node (the standard heuristic).
            if node_a.envelope.area >= node_b.envelope.area:
                stack.extend((child, node_b) for child in node_a.children)
            else:
                stack.extend((node_a, child) for child in node_b.children)
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
