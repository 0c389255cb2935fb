"""STR-packed static R-trees — the paper's ``STRtree`` filtering index.

Fig 2 of the paper builds a JTS ``STRtree`` over the broadcast right side
and probes it with every left-side envelope; ISP-MC does the same in its
SpatialJoin node.  This implementation uses Sort-Tile-Recursive bulk
loading (Leutenegger et al.) and supports envelope queries, point queries,
nearest-neighbour search with envelope-distance pruning and the dual-tree
join.  :class:`STRForest` packs many small trees at once — one per tile
of the partitioned join.

Built trees live in one packed node table, made straight from the
entries' bounds arrays in one segmented STR pass over every tree and read
by every traversal.  A tree's nodes are numbered breadth-first from its
root, so a node's children are consecutive; a lone :class:`STRtree`'s
root is node 0:

- ``box`` — ``(4, nodes)`` min_x / min_y / max_x / max_y rows;
- ``first`` — an interior node's first child, a leaf's row in the leaf
  tables;
- ``fanout`` — the number of children, 0 marking a leaf;
- ``leaf_entries`` — ``(leaves, capacity)`` entry ids (positions in
  insertion order, empty boxes not counted), -1 past a leaf's last item;
- ``leaf_boxes`` — ``(4, leaves, capacity)`` those entries' boxes, the
  empty box past the last item;
- ``roots`` — each tree's root node, -1 for a tree of no entries.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Generic, Iterable, Iterator, TypeVar

import numpy as np

from repro.errors import GeometryError, SpatialIndexError
from repro.geometry.algorithms.pairwise import _ranges
from repro.geometry.envelope import Envelope, bounds_rows
from repro.index.morton import morton_codes

__all__ = ["STRForest", "STRtree"]

T = TypeVar("T")

# Cells of a (leaf pair, item_a, item_b) grid evaluated per numpy pass.
_JOIN_BLOCK_CELLS = 1 << 16


def _expanded(boxes: np.ndarray, distance: float) -> np.ndarray:
    """``Envelope.expand_by`` over ``(4, ...)`` min_x / min_y / max_x / max_y
    rows: the same subtractions and additions, and a box that comes out
    inverted (or went in empty) is the empty box, which meets nothing."""
    grown = np.concatenate([boxes[:2] - distance, boxes[2:] + distance])
    empty = (grown[0] > grown[2]) | (grown[1] > grown[3])
    grown[:2, empty] = np.inf
    grown[2:, empty] = -np.inf
    return grown


def _kept_boxes(min_x, min_y, max_x, max_y) -> tuple[np.ndarray | None, np.ndarray]:
    """``(kept, boxes)``: the ``(4, n)`` boxes that are not empty (``min >
    max`` on either axis, which the ``Envelope.empty()`` sentinel is) and
    their positions, None when every box is kept.  A NaN bound of a kept
    box raises :class:`GeometryError`, as building its ``Envelope`` would."""
    boxes = np.array([min_x, min_y, max_x, max_y], dtype=np.float64).reshape(4, -1)
    keep = ~((boxes[0] > boxes[2]) | (boxes[1] > boxes[3]))
    kept = None
    if not keep.all():
        kept = np.flatnonzero(keep)
        boxes = boxes[:, kept]
    if np.isnan(boxes).any():
        raise GeometryError("envelope coordinates may not be NaN")
    return kept, boxes


def _str_groups(
    boxes: np.ndarray, counts: np.ndarray, capacity: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Sort-Tile-Recursive level over several trees' ``(4, n)`` boxes:
    tree ``t``'s are ``counts[t]`` consecutive ones, tree after tree.

    Per tree: stable sort by x-centre, cut into ``ceil(sqrt(ceil(count /
    capacity)))`` vertical slices, stable sort each slice by y-centre,
    chunk it by ``capacity``.  Returns ``(order, starts, sizes)``: group
    ``g`` holds the ``sizes[g]`` boxes ``order[starts[g]:]``, groups
    numbered tree by tree, slice by slice.
    """
    n = boxes.shape[1]
    tree = np.repeat(np.arange(len(counts)), counts)
    slice_count = np.maximum(1, np.ceil(np.sqrt(np.ceil(counts / capacity))))
    slice_size = np.maximum(1, np.ceil(counts / slice_count)).astype(np.int64)
    # A box unbounded both ways along an axis has a NaN centre there;
    # the sorts put NaN keys last, which is as good a place as any.
    with np.errstate(invalid="ignore"):
        x_centres, y_centres = boxes[0] + boxes[2], boxes[1] + boxes[3]
    # lexsort is stable: x-centre ties keep their order, and within a
    # slice y-centre ties keep their x order.  The boxes are in tree
    # order, so ``tree`` is also the sorted boxes' tree.
    by_x = np.lexsort((x_centres, tree))
    rank = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
    slice_of, within = np.divmod(rank, np.repeat(slice_size, counts))
    order = by_x[np.lexsort((y_centres[by_x], slice_of, tree))]
    starts = np.flatnonzero(within % capacity == 0)
    return order, starts, np.concatenate((starts[1:], [n])) - starts


def _pack(boxes: np.ndarray, counts, capacity: int) -> tuple[np.ndarray, ...]:
    """The node table of one STR tree per ``counts[t]`` consecutive boxes
    of ``boxes``: ``(box, first, fanout, leaf_entries, leaf_boxes,
    roots)``, as the module docstring lays it out.

    Every level is one pass over all the trees still growing.  Level 0
    groups each tree's entries into leaves, each further level groups
    the level below of every tree that has more than one node there, and
    a tree down to one node has its root.  A lone tree's table is the one
    the recursion over that tree alone packs.
    """
    if capacity < 2:  # a level of one-box groups would never shrink
        raise SpatialIndexError(f"node_capacity must be >= 2, got {capacity}")
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    roots = np.full(len(counts), -1, dtype=np.int64)
    if not counts.any():
        return (
            np.empty((4, 0)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty((0, capacity), dtype=np.int64), np.empty((4, 0, capacity)), roots,
        )
    # Bottom-up.  ``trees[level]`` is the tree of each box of that level,
    # ``levels[level]`` how that level groups into the next one, and
    # ``tops[level]`` the boxes of the level that are roots.
    boxes_at, trees = [boxes], [np.repeat(np.arange(len(counts)), counts)]
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    tops = [np.empty(0, dtype=np.int64)]
    growing = counts > 0
    while growing.any():
        below = np.flatnonzero(growing[trees[-1]])
        order, starts, sizes = _str_groups(boxes_at[-1][:, below], counts[growing], capacity)
        order = below[order]
        grouped = boxes_at[-1][:, order]
        levels.append((order, starts, sizes))
        boxes_at.append(np.concatenate([
            np.minimum.reduceat(grouped[:2], starts, axis=1),
            np.maximum.reduceat(grouped[2:], starts, axis=1),
        ]))
        trees.append(trees[-1][order[starts]])
        counts = np.bincount(trees[-1], minlength=len(counts))
        tops.append(np.flatnonzero(counts[trees[-1]] == 1))
        growing = counts > 1
    # Top-down: number the nodes breadth-first, a level's roots after the
    # children of the level above, a parent's children consecutive and in
    # packing order.  ``ids`` lists one level's boxes in that order.
    ids = np.empty(0, dtype=np.int64)
    numbered = 0
    node_box, first, fanout = [], [], []
    for level in range(len(levels), 0, -1):
        roots[trees[level][tops[level]]] = numbered + len(ids) + np.arange(len(tops[level]))
        ids = np.concatenate((ids, tops[level]))
        order, starts, sizes = levels[level - 1]
        sizes = sizes[ids]
        parent, slot = _ranges(sizes)
        node_box.append(boxes_at[level][:, ids])
        numbered += len(ids)
        if level > 1:
            first.append(numbered + np.cumsum(sizes) - sizes)
            fanout.append(sizes)
        else:  # a leaf's ``first`` is its row in the leaf tables
            first.append(np.arange(len(ids)))
            fanout.append(np.zeros(len(ids), dtype=np.int64))
        ids = order[starts[ids][parent] + slot]
    leaf_entries = np.full((len(sizes), capacity), -1, dtype=np.int64)
    leaf_entries[parent, slot] = ids
    # A slot past a leaf's last item holds the empty box.
    leaf_boxes = np.empty((4, len(sizes), capacity))
    leaf_boxes[:2] = np.inf
    leaf_boxes[2:] = -np.inf
    leaf_boxes[:, parent, slot] = boxes[:, ids]
    return (
        np.concatenate(node_box, axis=1), np.concatenate(first), np.concatenate(fanout),
        leaf_entries, leaf_boxes, roots,
    )


def _box_distance(x: float, y: float, min_x, min_y, max_x, max_y) -> float:
    """``Envelope.distance_to_point`` of a non-empty box, same arithmetic."""
    return math.hypot(max(min_x - x, x - max_x, 0.0), max(min_y - y, y - max_y, 0.0))


class _NodeTable:
    """A packed node table (module docstring) and the batched walk over it.

    ``nodes_visited`` accrues across queries and feeds the cluster cost
    model; call :meth:`reset_stats` between measured phases.
    """

    _node_capacity: int
    nodes_visited: int

    def _set_table(self, boxes: np.ndarray, counts) -> None:
        """Pack one tree per ``counts[t]`` consecutive boxes (:func:`_pack`)."""
        (
            self._box, self._first, self._fanout,
            self._leaf_entries, self._leaf_boxes, self._roots,
        ) = _pack(boxes, counts, self._node_capacity)
        self._lists = None
        # The probes' Morton frame: the box of every root.
        tops = self._box[:, self._roots[self._roots >= 0]]
        low_x, low_y = tops[:2].min(axis=1, initial=np.inf).tolist()
        high_x, high_y = tops[2:].max(axis=1, initial=-np.inf).tolist()
        self._frame = (low_x, low_y, high_x - low_x, high_y - low_y)

    def _walk_lists(self):
        """The node table as the traversals read it, taken once per table:
        the per-node scalars as lists, so the per-node reads are no
        numpy-scalar indexing, and per leaf row its entry ids and its
        items' ``(items, 1)`` min_x / min_y / max_x / max_y columns."""
        if self._lists is None:
            sizes = (self._leaf_entries >= 0).sum(axis=1).tolist()
            self._lists = (
                *self._box.tolist(),
                self._first.tolist(),
                self._fanout.tolist(),
                [
                    (self._leaf_entries[row, :size], *self._leaf_boxes[:, row, :size, None])
                    for row, size in enumerate(sizes)
                ],
            )
        return self._lists

    def reset_stats(self) -> None:
        """Zero the node-visit counter."""
        self.nodes_visited = 0

    def _walk(self, pmin_x, pmin_y, pmax_x, pmax_y, cuts, visits: np.ndarray):
        """The (node id, probe-subset) stack walk of every batched query:
        probes ``cuts[t]:cuts[t + 1]`` walk tree ``t``.

        Live probe boxes (inverted ones, and those of an empty tree, visit
        nothing) are sorted by the Morton code of their centres over the
        box of every root, so probes descending the same subtrees stay
        adjacent, and start as one ``(root, probes)`` stack entry per
        tree.  A pop counts one visit for each of its probes into
        ``visits``; a node's children are pushed in order, so the last
        pops first.  Yields ``(leaf, probes)`` for every leaf some probe
        reaches, each tree's in DFS order: the leaf's ``(entry ids, min_x,
        min_y, max_x, max_y)`` columns and the probes that reached it, in
        Morton order.
        """
        roots = self._roots
        live = ~((pmin_x > pmax_x) | (pmin_y > pmax_y))
        if (roots < 0).any():
            live &= np.repeat(roots >= 0, np.diff(cuts))
        # The live probes before each cut: tree t's lie between cuts t and t + 1.
        ends = np.concatenate(([0], np.cumsum(live)))[list(cuts)].tolist()
        live = np.flatnonzero(live)
        if not live.size:
            return
        min_x, min_y, max_x, max_y, first, fanout, leaves = self._walk_lists()
        order = live
        if len(live) > 1:  # one probe, as query() sends, has nothing to order
            # A probe box unbounded both ways (a cover_plane tile) has a
            # NaN centre, which morton_codes puts in the first cell.
            with np.errstate(invalid="ignore"):
                centre_x = (pmin_x[live] + pmax_x[live]) / 2.0
                centre_y = (pmin_y[live] + pmax_y[live]) / 2.0
            codes = morton_codes(centre_x, centre_y, *self._frame)
            if len(roots) > 1:
                # A code fits 32 bits: above them, the probe's tree keeps
                # each tree's probes together.
                tree = np.searchsorted(cuts, live, side="right") - 1
                codes |= tree.astype(np.uint64) << np.uint64(32)
            order = live[np.argsort(codes, kind="stable")]
        stack = [
            (root, order[start:stop])
            for root, start, stop in zip(roots.tolist(), ends, ends[1:])
            if stop > start
        ]
        while stack:
            node, idx = stack.pop()
            visits[idx] += 1
            alive = idx[
                (min_x[node] <= pmax_x[idx])
                & (pmin_x[idx] <= max_x[node])
                & (min_y[node] <= pmax_y[idx])
                & (pmin_y[idx] <= max_y[node])
            ]
            if not alive.size:
                continue
            start = first[node]
            if fanout[node]:
                stack.extend((child, alive) for child in range(start, start + fanout[node]))
            else:
                yield leaves[start], alive

    def _query_arrays(
        self, pmin_x: np.ndarray, pmin_y: np.ndarray, pmax_x: np.ndarray, pmax_y: np.ndarray,
        cuts,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batched envelope traversal: every probe box in one
        :meth:`_walk`, probes ``cuts[t]:cuts[t + 1]`` against tree ``t``.

        Returns ``(probes, entry_ids, visits)``.  Candidate pair ``k`` is
        probe ``probes[k]`` against entry ``entry_ids[k]``; pairs are
        grouped by ascending probe and, within a probe, come in its own
        tree's DFS order, a leaf's items in slot order — the order one
        scalar query of that tree finds them.  ``visits[i]`` is the number
        of nodes probe ``i``'s own query visits, and ``nodes_visited``
        advances by their sum.  An inverted box (an empty envelope)
        visits nothing and matches nothing.
        """
        visits = np.zeros(len(pmin_x), dtype=np.int64)
        found_probes: list[np.ndarray] = []
        found_entries: list[np.ndarray] = []
        for (entries, imin_x, imin_y, imax_x, imax_y), alive in self._walk(
            pmin_x, pmin_y, pmax_x, pmax_y, cuts, visits
        ):
            # Row-major nonzero lists a leaf's hits item by item, the
            # order its scalar loop finds them.
            item, probe = np.nonzero(
                (imin_x <= pmax_x[alive])
                & (pmin_x[alive] <= imax_x)
                & (imin_y <= pmax_y[alive])
                & (pmin_y[alive] <= imax_y)
            )
            found_probes.append(alive[probe])
            found_entries.append(entries[item])
        self.nodes_visited += int(visits.sum())
        if not found_probes:
            none = np.empty(0, dtype=np.int64)
            return none, none, visits
        probes = np.concatenate(found_probes)
        # Leaves arrive in DFS order, a probe's all from its own tree; a
        # stable sort by probe restores each probe's own candidate order.
        by_probe = np.argsort(probes, kind="stable")
        return probes[by_probe], np.concatenate(found_entries)[by_probe], visits


class STRForest(_NodeTable):
    """One STR tree per group of entries, all packed in one node table.

    Tree ``t`` holds the ``counts[t]`` consecutive rows of the ``(min_x,
    min_y, max_x, max_y)`` arrays ``bounds`` that follow tree ``t - 1``'s,
    each box grown by ``expand`` as :meth:`STRtree.from_bounds` grows it;
    its node table is the one ``STRtree.from_bounds`` packs over those
    rows alone.  The partitioned join's tile stage builds one forest over
    every tile's build rows and answers every tile's probes with one
    :meth:`query`.  Entry ids are positions in ``bounds`` (empty boxes
    are skipped, as :meth:`STRtree.bulk_load_arrays` skips them).
    """

    def __init__(self, bounds, counts, expand: float = 0.0, node_capacity: int = 10):
        min_x, min_y, max_x, max_y = bounds
        kept, boxes = _kept_boxes(
            min_x - expand, min_y - expand, max_x + expand, max_y + expand
        )
        counts = np.asarray(counts, dtype=np.int64)
        if kept is not None:
            tree = np.repeat(np.arange(len(counts)), counts)
            counts = np.bincount(tree[kept], minlength=len(counts))
        self._node_capacity = node_capacity
        self.nodes_visited = 0
        self._set_table(boxes, counts)
        if kept is not None:
            held = self._leaf_entries >= 0
            self._leaf_entries[held] = kept[self._leaf_entries[held]]

    def query(
        self, pmin_x: np.ndarray, pmin_y: np.ndarray, pmax_x: np.ndarray, pmax_y: np.ndarray,
        cuts,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probes ``cuts[t]:cuts[t + 1]`` of the probe-box arrays against
        tree ``t``, every tree in one walk: ``(probes, entry_ids, visits)``,
        each probe's pairs and visits those of
        ``STRtree._query_batch_arrays`` on its own tree (see
        :meth:`_NodeTable._query_arrays`)."""
        return self._query_arrays(pmin_x, pmin_y, pmax_x, pmax_y, cuts)


class STRtree(_NodeTable, Generic[T]):
    """Sort-Tile-Recursive bulk-loaded R-tree over (item, envelope) pairs.

    The tree is immutable once built.  ``node_capacity`` defaults to 10,
    matching JTS's STRtree default.  Statistics (`nodes_visited`) accrue
    across queries and feed the cluster cost model; call
    :meth:`reset_stats` between measured phases.
    """

    def __init__(
        self,
        entries: Iterable[tuple[T, Envelope]] = (),
        node_capacity: int = 10,
    ):
        self._node_capacity = node_capacity
        self._items: list[T] = []
        self._bounds = np.empty((4, 0))  # the entries' boxes, in insertion order
        self._built = False
        self.nodes_visited = 0
        # The node table (module docstring), empty until build() packs it.
        self._set_table(self._bounds, [0])
        entries = list(entries)
        if entries:
            self.bulk_load_arrays(
                [item for item, _ in entries], *bounds_rows(env for _, env in entries)
            )

    @classmethod
    def from_bounds(cls, bounds, expand: float = 0.0, node_capacity: int = 10) -> "STRtree":
        """The built tree whose entry ``k`` is row ``k`` of the ``(min_x,
        min_y, max_x, max_y)`` arrays ``bounds``, each box grown by
        ``expand`` as ``Envelope.expand_by`` grows it (``x - 0.0 == x``)."""
        min_x, min_y, max_x, max_y = bounds
        tree = cls(node_capacity=node_capacity)
        tree.bulk_load_arrays(
            range(len(min_x)), min_x - expand, min_y - expand, max_x + expand, max_y + expand
        )
        tree.build()
        return tree

    def insert(self, item: T, envelope: Envelope) -> None:
        """Add an entry; only legal before the first query (STR is static)."""
        self.bulk_load_arrays([item], *bounds_rows([envelope]))

    def bulk_load_arrays(self, items, min_x, min_y, max_x, max_y) -> None:
        """Add entries straight from per-item bounds arrays.

        Empty boxes (``min > max`` on either axis, which the
        ``Envelope.empty()`` sentinel is) are skipped; a NaN bound of a
        kept entry raises :class:`GeometryError`, as building its
        ``Envelope`` would.
        """
        if self._built:
            raise SpatialIndexError("STRtree cannot be modified after it has been built")
        kept, bounds = _kept_boxes(min_x, min_y, max_x, max_y)
        if kept is not None:
            items = [items[i] for i in kept.tolist()]
        self._items.extend(items)
        self._bounds = np.concatenate([self._bounds, bounds], axis=1)

    def __len__(self) -> int:
        return len(self._items)

    def build(self) -> None:
        """Pack the node table (idempotent; also triggered by first query)."""
        if self._built:
            return
        self._built = True
        self._set_table(self._bounds, [len(self._items)])

    def query(self, envelope: Envelope) -> list[T]:
        """Return items whose envelopes intersect the query envelope."""
        return [item for item, _ in self.query_entries(envelope)]

    def query_entries(self, envelope: Envelope) -> list[tuple[T, Envelope]]:
        """Like :meth:`query` but returning (item, envelope) pairs."""
        _, entries, _ = self._query_batch_arrays(*bounds_rows([envelope]))
        return [
            (self._items[k], Envelope(*self._bounds[:, k].tolist())) for k in entries.tolist()
        ]

    def query_point(self, x: float, y: float) -> list[T]:
        """Return items whose envelopes contain the point."""
        return self.query(Envelope.of_point(x, y))

    def query_batch(
        self, envelopes: Iterable[Envelope], with_visits: bool = False
    ) -> list[list[T]] | tuple[list[list[T]], np.ndarray]:
        """Bulk :meth:`query`: one traversal answers every probe envelope.

        A list view of :meth:`_query_batch_arrays`: per-probe candidate
        *order* and per-probe visit counts are identical to running
        :meth:`query` once per envelope; ``nodes_visited`` advances by the
        same total.  With ``with_visits`` the per-probe visit counts are
        returned alongside the candidate lists.
        """
        # An empty envelope is the (inf, inf, -inf, -inf) box: inverted,
        # which is how the traversal recognises a probe that matches nothing.
        return self._candidate_lists(*bounds_rows(envelopes), with_visits)

    def query_batch_points(
        self, xs, ys, with_visits: bool = False
    ) -> list[list[T]] | tuple[list[list[T]], np.ndarray]:
        """Bulk point-envelope queries straight from coordinate arrays.

        Equivalent to ``query_batch([Envelope.of_point(x, y) ...])`` without
        materialising the envelope objects.
        """
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        return self._candidate_lists(xs, ys, xs, ys, with_visits)

    def _candidate_lists(self, pmin_x, pmin_y, pmax_x, pmax_y, with_visits: bool):
        probes, entry_ids, visits = self._query_batch_arrays(
            pmin_x, pmin_y, pmax_x, pmax_y
        )
        results: list[list[T]] = [[] for _ in range(len(pmin_x))]
        items = self._items
        for probe, entry in zip(probes.tolist(), entry_ids.tolist()):
            results[probe].append(items[entry])
        return (results, visits) if with_visits else results

    def query_batch_points_chunks(
        self, xs, ys
    ) -> tuple[list[tuple[T, np.ndarray]], np.ndarray]:
        """Bulk point queries returning per-item probe chunks.

        The item-major traversal behind the per-handle batch calls; the
        joins now flatten candidates with :meth:`_query_batch_arrays`, so
        its remaining caller is the traced benchmark's ``index.filter_s``
        stage (``benchmarks/e2e/layers.py``).

        Every tree node is pushed exactly once, so each build item
        surfaces in at most one ``(item, probe_indices)`` chunk — the
        chunk holds *all* probes whose point hits the item's envelope,
        which makes it exactly the group a batched refinement kernel
        wants, with no per-pair regrouping.  Chunks arrive in DFS pop
        order; stably sorting the flattened pairs by probe therefore
        reproduces :meth:`query`'s per-probe candidate order.  Per-probe
        ``visits`` and ``nodes_visited`` accrue identically to one
        :meth:`query` per point.
        """
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        self.build()
        visits = np.zeros(len(xs), dtype=np.int64)
        chunks: list[tuple[T, np.ndarray]] = []
        items = self._items
        for (entries, imin_x, imin_y, imax_x, imax_y), alive in self._walk(
            xs, ys, xs, ys, (0, len(xs)), visits
        ):
            ax = xs[alive]
            ay = ys[alive]
            hits = (imin_x <= ax) & (ax <= imax_x) & (imin_y <= ay) & (ay <= imax_y)
            for slot in np.flatnonzero(hits.any(axis=1)).tolist():
                chunks.append((items[entries[slot]], alive[hits[slot]]))
        self.nodes_visited += int(visits.sum())
        return chunks, visits

    def _query_batch_arrays(
        self,
        pmin_x: np.ndarray,
        pmin_y: np.ndarray,
        pmax_x: np.ndarray,
        pmax_y: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batched envelope traversal: every probe box in one walk.

        Returns ``(probes, entry_ids, visits)``.  Candidate pair ``k`` is
        probe ``probes[k]`` against entry ``entry_ids[k]`` (a position in
        insertion order, empty envelopes not counted); pairs are grouped
        by ascending probe and, within a probe, come in exactly the order
        :meth:`query` returns its candidates.  ``visits[i]`` is the number
        of nodes probe ``i``'s own :meth:`query` visits, and
        ``nodes_visited`` advances by their sum.  An inverted box (an
        empty envelope) visits nothing and matches nothing.

        One :meth:`_walk`; a reached leaf is one ``(items, probes)``
        comparison grid.
        """
        self.build()
        return self._query_arrays(pmin_x, pmin_y, pmax_x, pmax_y, (0, len(pmin_x)))

    def iter_all(self) -> Iterator[tuple[T, Envelope]]:
        """Iterate over every stored (item, envelope) entry in insertion
        order (build not required)."""
        return zip(self._items, (Envelope(*box) for box in self._bounds.T.tolist()))

    def nearest(
        self,
        x: float,
        y: float,
        k: int = 1,
        max_distance: float = math.inf,
        item_distance: Callable[[float, float, T], float] | None = None,
    ) -> list[tuple[T, float]]:
        """Return up to ``k`` nearest items with their distances.

        Traversal is best-first over envelope distance; when
        ``item_distance`` is given it supplies the exact item distance
        (e.g. point-to-polyline), otherwise the envelope distance is used.
        Items farther than ``max_distance`` are excluded — this implements
        the paper's NearestD semantics when called with ``max_distance=D``.
        """
        self.build()
        if not self._items or k < 1:
            return []
        min_x, min_y, max_x, max_y, first, fanout, leaves = self._walk_lists()
        # Heap entries: (lower-bound distance, tiebreak, is_item, node or item).
        counter = 0
        heap: list[tuple[float, int, bool, object]] = [
            (_box_distance(x, y, min_x[0], min_y[0], max_x[0], max_y[0]), counter, False, 0)
        ]
        results: list[tuple[T, float]] = []
        while heap and len(results) < k:
            bound, _, is_item, payload = heapq.heappop(heap)
            if bound > max_distance:
                break
            if is_item:
                results.append((payload, bound))
                continue
            self.nodes_visited += 1
            start = first[payload]
            if fanout[payload]:
                for child in range(start, start + fanout[payload]):
                    counter += 1
                    heapq.heappush(heap, (
                        _box_distance(x, y, min_x[child], min_y[child], max_x[child], max_y[child]),
                        counter, False, child,
                    ))
                continue
            entries, *columns = leaves[start]
            for entry, item_box in zip(entries.tolist(), np.hstack(columns).tolist()):
                item = self._items[entry]
                if item_distance is not None:
                    dist = item_distance(x, y, item)
                else:
                    dist = _box_distance(x, y, *item_box)
                if dist <= max_distance:
                    counter += 1
                    heapq.heappush(heap, (dist, counter, True, item))
        return results

    def join(
        self, other: "STRtree", expand: float = 0.0
    ) -> list[tuple[T, object]]:
        """Candidate pairs via synchronized dual-tree traversal.

        The classic R-tree join of the spatial-join literature the paper
        surveys ([1], Jacox & Samet): descend both trees simultaneously,
        pruning whole subtree pairs whose node envelopes are disjoint.
        ``expand`` inflates this tree's envelopes (NearestD's radius
        push-down).  Returns (item_a, item_b) pairs whose envelopes
        intersect — the filter phase when *both* sides are indexed.  A
        list view of :meth:`_join_arrays`.
        """
        entries_a, entries_b = self._join_arrays(other, expand)
        mine, theirs = self._items, other._items
        return [
            (mine[a], theirs[b])
            for a, b in zip(entries_a.tolist(), entries_b.tolist())
        ]

    def _join_arrays(
        self, other: "STRtree", expand: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """The dual-tree traversal over both node tables: ``(entries_a,
        entries_b)``.

        Candidate pair ``k`` is this tree's entry ``entries_a[k]`` against
        ``other``'s entry ``entries_b[k]`` (positions in insertion order,
        empty envelopes not counted), in the order a ``(node_a, node_b)``
        stack emits them: pop a pair, count one visit on both trees, drop
        it if the node envelopes are disjoint, otherwise push the children
        of the non-leaf side (of the larger-area node when both are
        interior) paired with the other node, or test a leaf pair's items
        ``a`` outer, ``b`` inner.  ``expand`` is applied with
        ``Envelope.expand_by``'s own operations (``min - expand``,
        ``max + expand``, a box that inverts becomes empty).

        The stack is replayed a level at a time.  The frontier holds the
        pending pairs in pop order; each round tests every open pair at
        once and replaces it, in place, by its child pairs in reverse
        child order (a stack pops the last child first), by itself when
        it is a leaf pair, or by nothing when it was pruned.  What is left
        is the intersecting leaf pairs in emission order, answered by
        row-major ``np.nonzero`` over ``(pair, item_a, item_b)`` grids.
        """
        self.build()
        other.build()
        none = np.empty(0, dtype=np.int64)
        if not self._items or not other._items:
            return none, none
        a_min_x, a_min_y, a_max_x, a_max_y = _expanded(self._box, expand)
        b_min_x, b_min_y, b_max_x, b_max_y = other._box
        area_a = (self._box[2] - self._box[0]) * (self._box[3] - self._box[1])
        area_b = (b_max_x - b_min_x) * (b_max_y - b_min_y)
        node_a = np.zeros(1, dtype=np.int64)
        node_b = np.zeros(1, dtype=np.int64)
        done = np.zeros(1, dtype=bool)
        visited = 0
        while not done.all():
            visited += np.count_nonzero(~done)
            fan_a, fan_b = self._fanout[node_a], other._fanout[node_b]
            # Descend the non-leaf side; of two interior nodes the one
            # with the larger area (the standard heuristic).
            down_a = ~done & (fan_a > 0) & ((fan_b == 0) | (area_a[node_a] >= area_b[node_b]))
            down_b = ~done & ~down_a & (fan_b > 0)
            meets = done | (
                (a_min_x[node_a] <= b_max_x[node_b])
                & (b_min_x[node_b] <= a_max_x[node_a])
                & (a_min_y[node_a] <= b_max_y[node_b])
                & (b_min_y[node_b] <= a_max_y[node_a])
            )
            width = np.where(meets, np.where(down_a, fan_a, np.where(down_b, fan_b, 1)), 0)
            # A descending side steps back from its last child.
            last_a = np.where(down_a, self._first[node_a] + fan_a - 1, node_a)
            last_b = np.where(down_b, other._first[node_b] + fan_b - 1, node_b)
            source, offset = _ranges(width)
            node_a = last_a[source] - down_a[source] * offset
            node_b = last_b[source] - down_b[source] * offset
            done = ~(down_a | down_b)[source]
        self.nodes_visited += int(visited)
        other.nodes_visited += int(visited)
        if not len(done):
            return none, none
        leaf_a, leaf_b = self._first[node_a], other._first[node_b]
        a_boxes = _expanded(self._leaf_boxes, expand)
        b_boxes = other._leaf_boxes
        found_a: list[np.ndarray] = []
        found_b: list[np.ndarray] = []
        cells = a_boxes.shape[2] * b_boxes.shape[2]
        block = max(1, _JOIN_BLOCK_CELLS // cells)
        for start in range(0, len(leaf_a), block):
            rows_a = leaf_a[start : start + block]
            rows_b = leaf_b[start : start + block]
            a_min_x, a_min_y, a_max_x, a_max_y = a_boxes[:, rows_a, :, None]
            b_min_x, b_min_y, b_max_x, b_max_y = b_boxes[:, rows_b, None, :]
            pair, item_a, item_b = np.nonzero(
                (a_min_x <= b_max_x)
                & (b_min_x <= a_max_x)
                & (a_min_y <= b_max_y)
                & (b_min_y <= a_max_y)
            )
            found_a.append(self._leaf_entries[rows_a[pair], item_a])
            found_b.append(other._leaf_entries[rows_b[pair], item_b])
        return np.concatenate(found_a), np.concatenate(found_b)

    def depth(self) -> int:
        """Height of the tree (0 for an empty tree, 1 for a single leaf)."""
        self.build()
        if not self._items:
            return 0
        depth, node = 1, 0
        while self._fanout[node]:
            depth, node = depth + 1, self._first[node]
        return depth
