"""Bulk STRtree probes: same candidates, same order, same visit counts.

``_query_batch_arrays`` — the one batched envelope traversal — promises
flat ``(probe, entry)`` candidate arrays in exactly the order of one
``query`` per probe, with the same per-probe node-visit counts;
``query_batch`` / ``query_batch_points`` are its list views.
``query_batch_points_chunks`` additionally promises
that each build item surfaces in at most one chunk and that the
flattened pairs, stably sorted by probe, reproduce the scalar order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.envelope import Envelope
from repro.index import STRtree, morton_code, morton_codes


def build_tree(rng, n=300, node_capacity=8):
    tree = STRtree(node_capacity=node_capacity)
    for i in range(n):
        x = rng.uniform(0, 100)
        y = rng.uniform(0, 100)
        tree.insert(i, Envelope(x, y, x + rng.uniform(0, 5), y + rng.uniform(0, 5)))
    return tree


def probe_envelopes(rng, n=80):
    envs = []
    for _ in range(n):
        x = rng.uniform(-5, 100)
        y = rng.uniform(-5, 100)
        envs.append(Envelope(x, y, x + rng.uniform(0, 8), y + rng.uniform(0, 8)))
    return envs


class TestQueryBatch:
    def test_matches_scalar_queries(self, rng):
        tree = build_tree(rng)
        envs = probe_envelopes(rng)
        scalar = [tree.query(env) for env in envs]
        batch = tree.query_batch(envs)
        assert batch == scalar  # lists AND per-probe order

    def test_per_probe_visits_match_scalar(self, rng):
        tree = build_tree(rng)
        envs = probe_envelopes(rng)
        tree.build()
        scalar_visits = []
        for env in envs:
            before = tree.nodes_visited
            tree.query(env)
            scalar_visits.append(tree.nodes_visited - before)
        before = tree.nodes_visited
        _, visits = tree.query_batch(envs, with_visits=True)
        assert visits.tolist() == scalar_visits
        assert tree.nodes_visited - before == sum(scalar_visits)

    def test_empty_envelope_probe(self, rng):
        tree = build_tree(rng, n=50)
        envs = [Envelope.empty(), Envelope(10, 10, 30, 30), Envelope.empty()]
        results, visits = tree.query_batch(envs, with_visits=True)
        assert results[0] == [] and results[2] == []
        assert visits[0] == 0 and visits[2] == 0
        assert results[1] == tree.query(envs[1])

    def test_empty_tree(self):
        tree = STRtree()
        assert tree.query_batch([Envelope(0, 0, 1, 1)]) == [[]]
        assert tree.query_batch([]) == []


class TestQueryBatchArrays:
    """The pair-returning traversal against N scalar ``query`` calls."""

    def scalar(self, tree, boxes):
        """Per-box entry positions and visit counts from ``query``."""
        position = {id(entry[1]): k for k, entry in enumerate(tree.iter_all())}
        found, visits = [], []
        for box in boxes:
            before = tree.nodes_visited
            hits = tree.query_entries(box)
            visits.append(tree.nodes_visited - before)
            found.append([position[id(env)] for _, env in hits])
        return found, visits

    def arrays(self, boxes):
        # An empty Envelope *is* an inverted box; inverted on one axis only
        # cannot be built as an Envelope, so those go in as raw bounds.
        return [
            np.array([box.min_x for box in boxes]), np.array([box.min_y for box in boxes]),
            np.array([box.max_x for box in boxes]), np.array([box.max_y for box in boxes]),
        ]

    @pytest.mark.parametrize("bulk", [False, True])
    @pytest.mark.parametrize("n,capacity", [(300, 8), (37, 10), (5, 10), (1, 2)])
    def test_order_visits_and_counter_match_scalar(self, rng, n, capacity, bulk):
        tree = build_tree(rng, n=n, node_capacity=capacity)
        if bulk:  # the array-packed leaves carry the same entry positions
            entries = list(tree.iter_all())
            tree = STRtree(node_capacity=capacity)
            tree.bulk_load_arrays(
                [item for item, _ in entries],
                *(np.array([getattr(env, side) for _, env in entries])
                  for side in ("min_x", "min_y", "max_x", "max_y")),
            )
        boxes = probe_envelopes(rng)
        boxes[3] = boxes[40] = Envelope.empty()
        boxes[7] = Envelope(-50, -50, 500, 500)      # everything
        boxes[9] = Envelope(50, 50, 50, 50)          # a point
        tree.build()
        want, want_visits = self.scalar(tree, boxes)
        before = tree.nodes_visited
        probes, entries, visits = tree._query_batch_arrays(*self.arrays(boxes))
        assert tree.nodes_visited - before == sum(want_visits)
        assert visits.tolist() == want_visits
        assert visits[3] == visits[40] == 0
        assert probes.tolist() == [i for i, hits in enumerate(want) for _ in hits]
        assert entries.tolist() == [k for hits in want for k in hits]  # order too

    def test_inverted_boxes_match_nothing_and_visit_nothing(self, rng):
        tree = build_tree(rng, n=60)
        min_x = np.array([10.0, 30.0, 10.0, np.inf])
        min_y = np.array([10.0, 10.0, 30.0, np.inf])
        max_x = np.array([30.0, 10.0, 30.0, -np.inf])   # [1]: inverted in x
        max_y = np.array([30.0, 30.0, 10.0, -np.inf])   # [2]: inverted in y
        before = tree.nodes_visited
        probes, entries, visits = tree._query_batch_arrays(min_x, min_y, max_x, max_y)
        assert set(probes.tolist()) <= {0}
        assert visits[1:].tolist() == [0, 0, 0]
        assert tree.nodes_visited - before == visits[0] > 0
        assert [tree._entries[k][0] for k in entries.tolist()] == tree.query(
            Envelope(10, 10, 30, 30)
        )

    def test_empty_tree_and_no_probes(self, rng):
        none = np.empty(0)
        for tree in (STRtree(), build_tree(rng, n=20)):
            probes, entries, visits = tree._query_batch_arrays(none, none, none, none)
            assert len(probes) == len(entries) == len(visits) == 0
        one = np.array([1.0])
        probes, entries, visits = STRtree()._query_batch_arrays(one, one, one, one)
        assert len(probes) == len(entries) == 0 and visits.tolist() == [0]


class TestQueryBatchPoints:
    def test_matches_point_queries(self, rng):
        tree = build_tree(rng)
        xs = np.array([rng.uniform(-5, 105) for _ in range(120)])
        ys = np.array([rng.uniform(-5, 105) for _ in range(120)])
        scalar = [tree.query_point(x, y) for x, y in zip(xs, ys)]
        assert tree.query_batch_points(xs, ys) == scalar

    def test_accepts_plain_lists(self, rng):
        tree = build_tree(rng, n=40)
        xs = [10.0, 50.0, 99.0]
        ys = [10.0, 50.0, 99.0]
        scalar = [tree.query_point(x, y) for x, y in zip(xs, ys)]
        assert tree.query_batch_points(xs, ys) == scalar


class TestQueryBatchPointsChunks:
    def flatten(self, tree, xs, ys):
        """Reconstruct per-probe candidate lists from the chunk primitive."""
        chunks, visits = tree.query_batch_points_chunks(xs, ys)
        if not chunks:
            return [[] for _ in range(len(xs))], visits, chunks
        pair_probe = np.concatenate([positions for _, positions in chunks])
        pair_item = np.repeat(
            np.arange(len(chunks)),
            np.fromiter((len(p) for _, p in chunks), dtype=np.int64),
        )
        order = np.argsort(pair_probe, kind="stable")
        results = [[] for _ in range(len(xs))]
        items = [item for item, _ in chunks]
        for probe, k in zip(pair_probe[order].tolist(), pair_item[order].tolist()):
            results[probe].append(items[k])
        return results, visits, chunks

    def test_reproduces_scalar_order(self, rng):
        tree = build_tree(rng)
        xs = np.array([rng.uniform(-5, 105) for _ in range(150)])
        ys = np.array([rng.uniform(-5, 105) for _ in range(150)])
        scalar = [tree.query_point(x, y) for x, y in zip(xs, ys)]
        results, _, _ = self.flatten(tree, xs, ys)
        assert results == scalar

    def test_each_item_at_most_one_chunk(self, rng):
        tree = build_tree(rng)
        xs = np.array([rng.uniform(0, 100) for _ in range(200)])
        ys = np.array([rng.uniform(0, 100) for _ in range(200)])
        chunks, _ = tree.query_batch_points_chunks(xs, ys)
        items = [item for item, _ in chunks]
        assert len(items) == len(set(items))

    def test_chunk_probes_unique(self, rng):
        tree = build_tree(rng)
        xs = np.array([rng.uniform(0, 100) for _ in range(200)])
        ys = np.array([rng.uniform(0, 100) for _ in range(200)])
        chunks, _ = tree.query_batch_points_chunks(xs, ys)
        for _, positions in chunks:
            assert len(positions) == len(set(positions.tolist()))

    def test_visits_match_scalar(self, rng):
        tree = build_tree(rng)
        xs = np.array([rng.uniform(-5, 105) for _ in range(100)])
        ys = np.array([rng.uniform(-5, 105) for _ in range(100)])
        tree.build()
        scalar_visits = []
        for x, y in zip(xs, ys):
            before = tree.nodes_visited
            tree.query_point(x, y)
            scalar_visits.append(tree.nodes_visited - before)
        before = tree.nodes_visited
        _, visits = tree.query_batch_points_chunks(xs, ys)
        assert visits.tolist() == scalar_visits
        assert tree.nodes_visited - before == sum(scalar_visits)

    def test_empty_batch_and_empty_tree(self, rng):
        tree = build_tree(rng, n=20)
        chunks, visits = tree.query_batch_points_chunks(
            np.array([]), np.array([])
        )
        assert chunks == [] and len(visits) == 0
        empty = STRtree()
        chunks, visits = empty.query_batch_points_chunks(
            np.array([1.0]), np.array([1.0])
        )
        assert chunks == [] and visits.tolist() == [0]


class TestMortonConsistency:
    def test_vectorized_matches_scalar(self, rng, world):
        xs = np.array([rng.uniform(-10, 110) for _ in range(500)])
        ys = np.array([rng.uniform(-10, 110) for _ in range(500)])
        vectorised = morton_codes(
            xs, ys, world.min_x, world.min_y, world.width, world.height
        )
        scalar = [morton_code(x, y, world) for x, y in zip(xs, ys)]
        assert vectorised.tolist() == scalar
