"""STR-packed static R-tree — the paper's ``STRtree`` filtering index.

Fig 2 of the paper builds a JTS ``STRtree`` over the broadcast right side
and probes it with every left-side envelope; ISP-MC does the same in its
SpatialJoin node.  This implementation uses Sort-Tile-Recursive bulk
loading (Leutenegger et al.) and supports envelope queries, point queries
and nearest-neighbour search with envelope-distance pruning.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Generic, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from repro.errors import SpatialIndexError
from repro.geometry.algorithms.pairwise import _ranges
from repro.geometry.envelope import Envelope, bounds_rows
from repro.index.morton import morton_codes

__all__ = ["STRtree", "RTreeNode"]

T = TypeVar("T")

# Cells of a (leaf pair, item_a, item_b) grid evaluated per numpy pass.
_JOIN_BLOCK_CELLS = 1 << 16


class RTreeNode(Generic[T]):
    """A node of the packed R-tree.

    Leaf nodes carry ``items`` (payload, envelope) pairs; interior nodes
    carry ``children``.  Exposed for tests and for the cost model, which
    counts node visits.  A leaf also carries the batched traversal's view
    of its items: ``entry_ids`` (their positions in the tree's entry
    list) and, once such a traversal has reached it, ``bounds`` — the
    ``(4, k)`` min_x / min_y / max_x / max_y rows of their envelopes.
    """

    __slots__ = ("envelope", "children", "items", "level", "entry_ids", "bounds")

    def __init__(
        self,
        envelope: Envelope,
        children: list["RTreeNode[T]"] | None = None,
        items: list[tuple[T, Envelope]] | None = None,
        level: int = 0,
        entry_ids: np.ndarray | None = None,
    ):
        self.envelope = envelope
        self.children = children
        self.items = items
        self.level = level
        self.entry_ids = entry_ids
        self.bounds: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.items is not None


class _NodeArrays(NamedTuple):
    """A built tree as the dual-tree join reads it (``STRtree._node_arrays``)."""

    box: np.ndarray  # (4, nodes): min_x / min_y / max_x / max_y rows
    area: np.ndarray  # (nodes,)
    first: np.ndarray  # (nodes,) first child's id; a leaf's row in the leaf tables
    fanout: np.ndarray  # (nodes,) number of children; 0 marks a leaf
    leaf_entries: np.ndarray  # (leaves, capacity) entry ids, -1 past the last item
    leaf_boxes: np.ndarray  # (4, leaves, capacity) item boxes, empty past the last


def _leaf_bounds(node: RTreeNode) -> np.ndarray:
    """The ``(4, k)`` bounds block of a leaf's items, built on first use."""
    if node.bounds is None:
        node.bounds = bounds_rows(envelope for _, envelope in node.items)
    return node.bounds


def _expanded(boxes: np.ndarray, distance: float) -> np.ndarray:
    """``Envelope.expand_by`` over ``(4, ...)`` min_x / min_y / max_x / max_y
    rows: the same subtractions and additions, and a box that comes out
    inverted (or went in empty) is the empty box, which meets nothing."""
    grown = np.concatenate([boxes[:2] - distance, boxes[2:] + distance])
    empty = (grown[0] > grown[2]) | (grown[1] > grown[3])
    grown[:2, empty] = np.inf
    grown[2:, empty] = -np.inf
    return grown


class STRtree(Generic[T]):
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
        if node_capacity < 2:
            raise SpatialIndexError(f"node_capacity must be >= 2, got {node_capacity}")
        self._node_capacity = node_capacity
        self._entries: list[tuple[T, Envelope]] = [
            (item, env) for item, env in entries if not env.is_empty
        ]
        self._root: RTreeNode[T] | None = None
        self._built = False
        self.nodes_visited = 0
        # Bounds arrays covering a prefix of self._entries, appended by
        # bulk_load_arrays.  When they cover *every* entry, _pack_leaves
        # takes the vectorised sort path instead of attribute-walking
        # envelope objects; any scalar insert() voids the coverage and
        # falls back to the object sort (identical output either way).
        self._bulk_bounds: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._bulk_count = 0
        self._arrays: _NodeArrays | None = None

    def insert(self, item: T, envelope: Envelope) -> None:
        """Add an entry; only legal before the first query (STR is static)."""
        if self._built:
            raise SpatialIndexError("STRtree cannot be modified after it has been built")
        if not envelope.is_empty:
            self._entries.append((item, envelope))

    def bulk_load_arrays(self, items, min_x, min_y, max_x, max_y) -> None:
        """Add entries straight from per-item bounds arrays.

        The columnar fast path: sort keys for STR packing come from the
        arrays (one vectorised argsort instead of a Python key-function
        sort), and envelope objects are only materialised once per kept
        entry for the leaf tuples the query kernels expect.  Empty boxes
        (``min_x > max_x``, the ``Envelope.empty()`` sentinel) are skipped
        exactly like :meth:`insert` skips empty envelopes.
        """
        if self._built:
            raise SpatialIndexError("STRtree cannot be modified after it has been built")
        min_x = np.asarray(min_x, dtype=np.float64)
        min_y = np.asarray(min_y, dtype=np.float64)
        max_x = np.asarray(max_x, dtype=np.float64)
        max_y = np.asarray(max_y, dtype=np.float64)
        keep = ~((min_x > max_x) | (min_y > max_y))
        if not keep.all():
            kept = np.flatnonzero(keep)
            items = [items[i] for i in kept.tolist()]
            min_x = min_x[kept]
            min_y = min_y[kept]
            max_x = max_x[kept]
            max_y = max_y[kept]
        append = self._entries.append
        for item, a, b, c, d in zip(
            items, min_x.tolist(), min_y.tolist(), max_x.tolist(), max_y.tolist()
        ):
            append((item, Envelope(a, b, c, d)))
        self._bulk_bounds.append((min_x, min_y, max_x, max_y))
        self._bulk_count += len(min_x)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def root(self) -> RTreeNode[T] | None:
        """The root node (builds the tree on first access); None when empty."""
        self.build()
        return self._root

    def build(self) -> None:
        """Bulk-load the tree (idempotent; also triggered by first query)."""
        if self._built:
            return
        self._built = True
        if not self._entries:
            self._root = None
            return
        leaves = self._pack_leaves()
        level = 1
        nodes = leaves
        while len(nodes) > 1:
            nodes = self._pack_interior(nodes, level)
            level += 1
        self._root = nodes[0]

    def _pack_leaves(self) -> list[RTreeNode[T]]:
        if self._bulk_count == len(self._entries) and self._bulk_count > 0:
            return self._pack_leaves_arrays()
        # Positions are sorted, not entries, so each leaf knows which
        # entries it holds; the keys and the stable sort are the same.
        entries = self._entries
        order = sorted(
            range(len(entries)),
            key=lambda k: (entries[k][1].min_x + entries[k][1].max_x),
        )
        slice_count = max(1, math.ceil(math.sqrt(math.ceil(len(entries) / self._node_capacity))))
        slice_size = max(1, math.ceil(len(entries) / slice_count))
        leaves: list[RTreeNode[T]] = []
        for start in range(0, len(entries), slice_size):
            vertical = sorted(
                order[start : start + slice_size],
                key=lambda k: (entries[k][1].min_y + entries[k][1].max_y),
            )
            for leaf_start in range(0, len(vertical), self._node_capacity):
                ids = vertical[leaf_start : leaf_start + self._node_capacity]
                chunk = [entries[k] for k in ids]
                envelope = Envelope.empty()
                for _, env in chunk:
                    envelope = envelope.union(env)
                leaves.append(
                    RTreeNode(
                        envelope,
                        items=chunk,
                        level=0,
                        entry_ids=np.asarray(ids, dtype=np.int64),
                    )
                )
        return leaves

    def _pack_leaves_arrays(self) -> list[RTreeNode[T]]:
        """Vectorised STR leaf packing over the bulk bounds arrays.

        Identical output to the object path: ``np.argsort(..., kind="stable")``
        on the same float sort keys reproduces ``sorted``'s stable
        permutation, and the leaf envelope min/max equals the union chain.
        """
        entries = self._entries
        if len(self._bulk_bounds) == 1:
            min_x, min_y, max_x, max_y = self._bulk_bounds[0]
        else:
            min_x = np.concatenate([b[0] for b in self._bulk_bounds])
            min_y = np.concatenate([b[1] for b in self._bulk_bounds])
            max_x = np.concatenate([b[2] for b in self._bulk_bounds])
            max_y = np.concatenate([b[3] for b in self._bulk_bounds])
        order = np.argsort(min_x + max_x, kind="stable")
        ky = min_y + max_y
        slice_count = max(1, math.ceil(math.sqrt(math.ceil(len(entries) / self._node_capacity))))
        slice_size = max(1, math.ceil(len(entries) / slice_count))
        leaves: list[RTreeNode[T]] = []
        for start in range(0, len(entries), slice_size):
            horizontal = order[start : start + slice_size]
            vertical = horizontal[np.argsort(ky[horizontal], kind="stable")]
            for leaf_start in range(0, len(vertical), self._node_capacity):
                idx = vertical[leaf_start : leaf_start + self._node_capacity]
                envelope = Envelope(
                    float(min_x[idx].min()),
                    float(min_y[idx].min()),
                    float(max_x[idx].max()),
                    float(max_y[idx].max()),
                )
                chunk = [entries[i] for i in idx.tolist()]
                leaves.append(
                    RTreeNode(envelope, items=chunk, level=0, entry_ids=idx)
                )
        return leaves

    def _pack_interior(
        self, nodes: list[RTreeNode[T]], level: int
    ) -> list[RTreeNode[T]]:
        nodes = sorted(nodes, key=lambda n: (n.envelope.min_x + n.envelope.max_x))
        slice_count = max(1, math.ceil(math.sqrt(math.ceil(len(nodes) / self._node_capacity))))
        slice_size = max(1, math.ceil(len(nodes) / slice_count))
        parents: list[RTreeNode[T]] = []
        for start in range(0, len(nodes), slice_size):
            vertical = sorted(
                nodes[start : start + slice_size],
                key=lambda n: (n.envelope.min_y + n.envelope.max_y),
            )
            for group_start in range(0, len(vertical), self._node_capacity):
                chunk = vertical[group_start : group_start + self._node_capacity]
                envelope = Envelope.empty()
                for child in chunk:
                    envelope = envelope.union(child.envelope)
                parents.append(RTreeNode(envelope, children=chunk, level=level))
        return parents

    def reset_stats(self) -> None:
        """Zero the node-visit counter."""
        self.nodes_visited = 0

    def query(self, envelope: Envelope) -> list[T]:
        """Return items whose envelopes intersect the query envelope."""
        return [item for item, _ in self.query_entries(envelope)]

    def query_entries(self, envelope: Envelope) -> list[tuple[T, Envelope]]:
        """Like :meth:`query` but returning (item, envelope) pairs."""
        self.build()
        results: list[tuple[T, Envelope]] = []
        if self._root is None or envelope.is_empty:
            return results
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.nodes_visited += 1
            if not node.envelope.intersects(envelope):
                continue
            if node.is_leaf:
                for item, item_env in node.items:
                    if item_env.intersects(envelope):
                        results.append((item, item_env))
            else:
                stack.extend(node.children)
        return results

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
        envelopes = list(envelopes)
        n = len(envelopes)
        # An empty envelope is the (inf, inf, -inf, -inf) box: inverted,
        # which is how the traversal recognises a probe that matches nothing.
        return self._candidate_lists(
            np.fromiter((env.min_x for env in envelopes), dtype=np.float64, count=n),
            np.fromiter((env.min_y for env in envelopes), dtype=np.float64, count=n),
            np.fromiter((env.max_x for env in envelopes), dtype=np.float64, count=n),
            np.fromiter((env.max_y for env in envelopes), dtype=np.float64, count=n),
            with_visits,
        )

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
        entries = self._entries
        for probe, entry in zip(probes.tolist(), entry_ids.tolist()):
            results[probe].append(entries[entry][0])
        return (results, visits) if with_visits else results

    def query_batch_points_chunks(
        self, xs, ys
    ) -> tuple[list[tuple[T, np.ndarray]], np.ndarray]:
        """Bulk point queries returning per-item probe chunks.

        The item-major traversal behind the per-handle batch kernels; the
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
        n = len(xs)
        visits = np.zeros(n, dtype=np.int64)
        chunks: list[tuple[T, np.ndarray]] = []
        if self._root is None or n == 0:
            return chunks, visits
        root_env = self._root.envelope
        codes = morton_codes(
            xs, ys, root_env.min_x, root_env.min_y, root_env.width, root_env.height
        )
        order = np.argsort(codes, kind="stable")
        stack: list[tuple[RTreeNode[T], np.ndarray]] = [(self._root, order)]
        while stack:
            node, idx = stack.pop()
            visits[idx] += 1
            env = node.envelope
            px = xs[idx]
            py = ys[idx]
            mask = (
                (env.min_x <= px)
                & (px <= env.max_x)
                & (env.min_y <= py)
                & (py <= env.max_y)
            )
            alive = idx[mask]
            if alive.size == 0:
                continue
            if node.is_leaf:
                ax = xs[alive]
                ay = ys[alive]
                for item, item_env in node.items:
                    hits = (
                        (item_env.min_x <= ax)
                        & (ax <= item_env.max_x)
                        & (item_env.min_y <= ay)
                        & (ay <= item_env.max_y)
                    )
                    if hits.any():
                        chunks.append((item, alive[hits]))
            else:
                stack.extend((child, alive) for child in node.children)
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

        Probes are sorted by the Morton code of their box centres so
        probes descending the same subtrees stay adjacent, and the tree is
        walked once with a (node, probe-subset) stack.
        """
        self.build()
        n = len(pmin_x)
        visits = np.zeros(n, dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        live = np.flatnonzero(~((pmin_x > pmax_x) | (pmin_y > pmax_y)))
        if self._root is None or live.size == 0:
            return none, none, visits
        root_env = self._root.envelope
        codes = morton_codes(
            (pmin_x[live] + pmax_x[live]) / 2.0,
            (pmin_y[live] + pmax_y[live]) / 2.0,
            root_env.min_x,
            root_env.min_y,
            root_env.width,
            root_env.height,
        )
        order = live[np.argsort(codes, kind="stable")]
        found_probes: list[np.ndarray] = []
        found_entries: list[np.ndarray] = []
        stack: list[tuple[RTreeNode[T], np.ndarray]] = [(self._root, order)]
        while stack:
            node, idx = stack.pop()
            visits[idx] += 1
            env = node.envelope
            mask = (
                (env.min_x <= pmax_x[idx])
                & (pmin_x[idx] <= env.max_x)
                & (env.min_y <= pmax_y[idx])
                & (pmin_y[idx] <= env.max_y)
            )
            alive = idx[mask]
            if alive.size == 0:
                continue
            if node.is_leaf:
                imin_x, imin_y, imax_x, imax_y = _leaf_bounds(node)[:, :, None]
                # (items, probes) grid; row-major nonzero lists a leaf's
                # hits item by item, the order its scalar loop finds them.
                item, probe = np.nonzero(
                    (imin_x <= pmax_x[alive])
                    & (pmin_x[alive] <= imax_x)
                    & (imin_y <= pmax_y[alive])
                    & (pmin_y[alive] <= imax_y)
                )
                found_probes.append(alive[probe])
                found_entries.append(node.entry_ids[item])
            else:
                stack.extend((child, alive) for child in node.children)
        self.nodes_visited += int(visits.sum())
        if not found_probes:
            return none, none, visits
        probes = np.concatenate(found_probes)
        # Leaves arrive in DFS order; a stable sort by probe restores each
        # probe's own DFS candidate order.
        by_probe = np.argsort(probes, kind="stable")
        return probes[by_probe], np.concatenate(found_entries)[by_probe], visits

    def iter_all(self) -> Iterator[tuple[T, Envelope]]:
        """Iterate over every stored entry (build not required)."""
        return iter(self._entries)

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
        if self._root is None or k < 1:
            return []
        # Heap entries: (lower-bound distance, tiebreak, node-or-entry).
        counter = 0
        heap: list[tuple[float, int, object]] = [
            (self._root.envelope.distance_to_point(x, y), counter, self._root)
        ]
        results: list[tuple[T, float]] = []
        while heap and len(results) < k:
            bound, _, payload = heapq.heappop(heap)
            if bound > max_distance:
                break
            if isinstance(payload, RTreeNode):
                self.nodes_visited += 1
                if payload.is_leaf:
                    for item, env in payload.items:
                        if item_distance is not None:
                            dist = item_distance(x, y, item)
                        else:
                            dist = env.distance_to_point(x, y)
                        if dist <= max_distance:
                            counter += 1
                            heapq.heappush(heap, (dist, counter, ("item", item)))
                else:
                    for child in payload.children:
                        counter += 1
                        heapq.heappush(
                            heap,
                            (child.envelope.distance_to_point(x, y), counter, child),
                        )
            else:
                _, item = payload
                results.append((item, bound))
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
        mine, theirs = self._entries, other._entries
        return [
            (mine[a][0], theirs[b][0])
            for a, b in zip(entries_a.tolist(), entries_b.tolist())
        ]

    def _join_arrays(
        self, other: "STRtree", expand: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """The dual-tree traversal over arrays: ``(entries_a, entries_b)``.

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
        if self._root is None or other._root is None:
            return none, none
        mine, theirs = self._node_arrays(), other._node_arrays()
        a_min_x, a_min_y, a_max_x, a_max_y = _expanded(mine.box, expand)
        b_min_x, b_min_y, b_max_x, b_max_y = theirs.box
        node_a = np.zeros(1, dtype=np.int64)
        node_b = np.zeros(1, dtype=np.int64)
        done = np.zeros(1, dtype=bool)
        visited = 0
        while not done.all():
            visited += np.count_nonzero(~done)
            fan_a, fan_b = mine.fanout[node_a], theirs.fanout[node_b]
            # Descend the non-leaf side; of two interior nodes the one
            # with the larger area (the standard heuristic).
            down_a = ~done & (fan_a > 0) & (
                (fan_b == 0) | (mine.area[node_a] >= theirs.area[node_b])
            )
            down_b = ~done & ~down_a & (fan_b > 0)
            meets = done | (
                (a_min_x[node_a] <= b_max_x[node_b])
                & (b_min_x[node_b] <= a_max_x[node_a])
                & (a_min_y[node_a] <= b_max_y[node_b])
                & (b_min_y[node_b] <= a_max_y[node_a])
            )
            width = np.where(meets, np.where(down_a, fan_a, np.where(down_b, fan_b, 1)), 0)
            # A descending side steps back from its last child.
            last_a = np.where(down_a, mine.first[node_a] + fan_a - 1, node_a)
            last_b = np.where(down_b, theirs.first[node_b] + fan_b - 1, node_b)
            source, offset = _ranges(width)
            node_a = last_a[source] - down_a[source] * offset
            node_b = last_b[source] - down_b[source] * offset
            done = ~(down_a | down_b)[source]
        self.nodes_visited += int(visited)
        other.nodes_visited += int(visited)
        if not len(done):
            return none, none
        leaf_a, leaf_b = mine.first[node_a], theirs.first[node_b]
        a_boxes = _expanded(mine.leaf_boxes, expand)
        b_boxes = theirs.leaf_boxes
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
            found_a.append(mine.leaf_entries[rows_a[pair], item_a])
            found_b.append(theirs.leaf_entries[rows_b[pair], item_b])
        return np.concatenate(found_a), np.concatenate(found_b)

    def _node_arrays(self) -> "_NodeArrays":
        """The built tree as arrays (derived once): nodes numbered
        breadth-first, so a node's children are consecutive."""
        if self._arrays is None:
            nodes = [self._root]
            first: list[int] = []
            fanout: list[int] = []
            leaves: list[RTreeNode[T]] = []
            for node in nodes:  # grows as it is walked
                if node.is_leaf:
                    first.append(len(leaves))
                    fanout.append(0)
                    leaves.append(node)
                else:
                    first.append(len(nodes))
                    fanout.append(len(node.children))
                    nodes.extend(node.children)
            box = bounds_rows(node.envelope for node in nodes)
            leaf, slot = _ranges(np.array([len(node.items) for node in leaves]))
            leaf_entries = np.full((len(leaves), self._node_capacity), -1, dtype=np.int64)
            leaf_entries[leaf, slot] = np.concatenate([node.entry_ids for node in leaves])
            # A slot past a leaf's last item holds the empty box.
            leaf_boxes = np.empty((4, *leaf_entries.shape))
            leaf_boxes[:2] = np.inf
            leaf_boxes[2:] = -np.inf
            leaf_boxes[:, leaf, slot] = np.concatenate(
                [_leaf_bounds(node) for node in leaves], axis=1
            )
            self._arrays = _NodeArrays(
                box=box,
                area=(box[2] - box[0]) * (box[3] - box[1]),
                first=np.array(first, dtype=np.int64),
                fanout=np.array(fanout, dtype=np.int64),
                leaf_entries=leaf_entries,
                leaf_boxes=leaf_boxes,
            )
        return self._arrays

    def depth(self) -> int:
        """Height of the tree (0 for an empty tree, 1 for a single leaf)."""
        self.build()
        if self._root is None:
            return 0
        depth = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
            depth += 1
        return depth
