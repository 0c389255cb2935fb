"""Shared filter+refine machinery for indexed spatial joins.

Both prototypes follow the same two-phase plan (Section II):

* **filter** — an STR-packed R-tree over the build (right) side's MBBs,
  expanded by the search radius for NearestD exactly as Fig 2's
  ``expandBy(radius)`` does, is probed with each left envelope;
* **refine** — surviving candidate pairs are checked with the exact
  predicate by a pluggable refinement engine (fast/JTS-like for
  SpatialSpark, slow/GEOS-like for ISP-MC).

:class:`BroadcastIndex` packages both phases plus per-probe cost
accounting so the engines' schedulers can attribute work to tasks, row
batches and fragment instances.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Iterable, Sequence

import numpy as np

from repro.cache import estimate_index_bytes, fingerprint_entries
from repro.cluster.metrics import scatter_units
from repro.cluster.model import Resource
from repro.columnar.column import _POINT as _POINT_CODE
from repro.columnar.column import GeometryColumn
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry.engine import GeometryEngine, create_engine
from repro.geometry.point import Point
from repro.geometry.algorithms import distance as distance_mod
from repro.geometry.algorithms import predicates
from repro.geometry.algorithms.pairwise import PAIR_TYPES, intersects_pairs
from repro.index.rtree import STRtree
from repro.obs.registry import REGISTRY
from repro.core.operators import SpatialOperator

__all__ = [
    "BroadcastIndex",
    "PreparedBuild",
    "cached_index",
    "gather",
    "index_cache_key",
    "join_tile",
    "naive_spatial_join",
    "refine_pair",
]


# Candidate pairs one pair-kernel call refines: the kernels hold a dozen
# per-pair temporaries, so this bounds a join's peak memory, not its speed.
_REFINE_BLOCK_PAIRS = 1 << 13


def gather(values: Sequence[Any], positions: np.ndarray) -> list[Any]:
    """``values`` at an index array's positions, as a list."""
    return list(map(values.__getitem__, positions.tolist()))


def refine_pair(
    engine: GeometryEngine,
    operator: SpatialOperator,
    probe_geometry: Geometry,
    build_geometry: Geometry,
    build_handle: object,
    radius: float,
) -> bool:
    """Exact predicate test for one candidate pair.

    Point probes under Within / NearestD take the engine's prepared
    predicates, which charge its counters; every other pair is the
    generic computational-geometry test :func:`naive_spatial_join` runs
    (identical results, no preparation benefit — matching how JTS/GEOS
    treat them).  The scalar reference the pair kernels of
    :meth:`PreparedBuild.refine_candidates` agree with, pair for pair.
    """
    if isinstance(probe_geometry, Point):
        if operator is SpatialOperator.WITHIN:
            return engine.point_within(probe_geometry, build_handle)
        if operator is SpatialOperator.NEAREST_D:
            return engine.point_within_distance(probe_geometry, build_handle, radius)
    return _naive_refine(operator, probe_geometry, build_geometry, radius)


class PreparedBuild:
    """A join's build side as the refinement kernels see it.

    The non-empty rows of ``entries`` — (payload, geometry) pairs, or the
    :class:`GeometryColumn` already holding them — as ``_column``, each
    prepared once by the engine (``handles``), and
    :meth:`refine_candidates`, the one refinement of candidate pairs
    against them.  :class:`BroadcastIndex` puts an R-tree over it; the
    dual-tree join brings its own trees.
    """

    def __init__(
        self,
        entries: Iterable[tuple[Any, Geometry]] | GeometryColumn,
        operator: SpatialOperator,
        radius: float = 0.0,
        engine: GeometryEngine | str = "fast",
    ):
        column = (
            entries
            if isinstance(entries, GeometryColumn)
            else GeometryColumn.from_entries(entries)
        )
        self.operator = operator
        self.radius = radius if operator.needs_radius else 0.0
        self.engine = create_engine(engine) if isinstance(engine, str) else engine
        self._vertex_resource = (
            Resource.REFINE_VERTEX_SLOW
            if self.engine.name == "slow"
            else Resource.REFINE_VERTEX_FAST
        )
        kept = column.non_empty()
        # Retained so pickling (pool shipping, spawn-style broadcast)
        # moves the compact encoded column instead of the object graph —
        # the receiver rebuilds an identical index from the buffers — and
        # so the cache can size the index from its buffers.
        self._column = kept
        self._geometries = list(kept.geometries())
        self.handles = [self.engine.prepare(geometry) for geometry in self._geometries]
        self.build_entries = len(kept)
        self.build_vertex_total = int(kept.num_points_array().sum())
        # Whether the Intersects pair kernel can answer for these rows.
        self._intersects_pairs = operator is SpatialOperator.INTERSECTS and bool(
            PAIR_TYPES[kept.types_array()].all()
        )
        # The point pair kernels' view of the build side: the engine's
        # handle tables, packed by the first probe that needs them (so a
        # pickled index rebuilds them on arrival, like its tree), and
        # whether every handle is in them.
        self._point_tables = None
        self._all_tabled = False

    def __len__(self) -> int:
        return self.build_entries

    def refine_candidates(
        self, column: GeometryColumn, rows: np.ndarray, entries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact predicate for candidate pair ``k`` — ``column`` row
        ``rows[k]`` against build row ``entries[k]``: ``(hit, vertex_ops,
        allocations)`` per pair, the engine counters advancing by their sums.

        The one place a pair's refinement is chosen, by its probe row's
        type and its build row's handle, never by an option:

        * a point probe under Within / NearestD against a handle the
          engine packs into its pair tables: the engine's
          ``contains_pairs_counted`` / ``within_distance_pairs_counted``;
        * a LineString / Polygon / MultiLineString / MultiPolygon probe
          under Intersects, over a build side of those types:
          :func:`~repro.geometry.algorithms.pairwise.intersects_pairs`,
          which charges nothing;
        * any other pair: :func:`refine_pair`, charged the engine
          counters' advance over that one call; the distinct probe rows
          with such a pair are counted in ``probe.scalar_rows``.

        The kernels take ``_REFINE_BLOCK_PAIRS`` pairs a call.
        """
        n = len(rows)
        covered, refine = self._pair_kernel(column, rows, entries)
        if covered is None and n <= _REFINE_BLOCK_PAIRS:
            return refine(rows, entries)
        hit = np.zeros(n, dtype=bool)
        vertex = np.zeros(n, dtype=np.int64)
        alloc = np.zeros(n, dtype=np.int64)
        batched = None if covered is None else np.flatnonzero(covered)
        for start in range(0, n if batched is None else len(batched), _REFINE_BLOCK_PAIRS):
            stop = start + _REFINE_BLOCK_PAIRS
            block = slice(start, stop) if batched is None else batched[start:stop]
            hit[block], vertex[block], alloc[block] = refine(rows[block], entries[block])
        scalar = () if covered is None else np.flatnonzero(~covered)
        if len(scalar):
            # Each such probe row's geometry is built once, however many
            # pairs it has.
            probe_rows = rows[scalar]
            probes = {i: column.geometry(i) for i in np.unique(probe_rows).tolist()}
            REGISTRY.inc("probe.scalar_rows", len(probes))
            engine, counters = self.engine, self.engine.counters
            for k, i, e in zip(scalar.tolist(), probe_rows.tolist(), entries[scalar].tolist()):
                vertex_before, alloc_before = counters.vertex_ops, counters.allocations
                hit[k] = refine_pair(
                    engine, self.operator, probes[i], self._geometries[e], self.handles[e],
                    self.radius,
                )
                vertex[k] = counters.vertex_ops - vertex_before
                alloc[k] = counters.allocations - alloc_before
        return hit, vertex, alloc

    def _pair_kernel(self, column: GeometryColumn, rows: np.ndarray, entries: np.ndarray):
        """``(covered, refine)`` for candidate pairs against ``column``:
        which pairs a pair kernel answers — a mask, ``None`` when it is
        every pair — and ``refine(rows, entries)``, that kernel over pair
        arrays."""
        types = column.types_array()
        tabled = None
        if self.operator in (SpatialOperator.WITHIN, SpatialOperator.NEAREST_D):
            refine = self._point_kernel(column)
            kernel_rows = types == _POINT_CODE
            if not self._all_tabled:
                tabled = self._point_tables.tabled[entries]
        elif self._intersects_pairs:
            refine = partial(self._refine_intersects, column)
            kernel_rows = PAIR_TYPES[types]
        else:
            return np.zeros(len(rows), dtype=bool), None
        covered = None if kernel_rows.all() else kernel_rows[rows]
        if tabled is not None:
            covered = tabled if covered is None else covered & tabled
        return covered, refine

    def _point_kernel(self, column: GeometryColumn):
        """Within / NearestD for point row ``rows[k]`` of ``column``
        against build row ``entries[k]``: one engine pair-kernel call over
        the build side's packed handle tables."""
        engine, radius = self.engine, self.radius
        within = self.operator is SpatialOperator.WITHIN
        if self._point_tables is None:
            pack = engine.contains_pair_tables if within else engine.within_distance_pair_tables
            self._point_tables = pack(self.handles)
            self._all_tabled = bool(self._point_tables.tabled.all())
        tables = self._point_tables
        position, xs, ys = column.point_rows()
        # point_rows() lists the point rows in ascending position: in a
        # column of non-empty points only, point row k is row k.
        dense = len(position) == len(column)

        def refine(rows, entries):
            at = rows if dense else np.searchsorted(position, rows)
            if within:
                return engine.contains_pairs_counted(tables, xs[at], ys[at], entries)
            return engine.within_distance_pairs_counted(tables, xs[at], ys[at], entries, radius)

        return refine

    def _refine_intersects(
        self, column: GeometryColumn, rows: np.ndarray, entries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Intersects for ``column`` row ``rows[k]`` against build row
        ``entries[k]``, over the two columns' CSR buffers; the engines
        prepare nothing for these probes, so no pair is charged."""
        free = np.zeros(len(rows), dtype=np.int64)
        hit = intersects_pairs(*column.packed_rows(rows), *self._column.packed_rows(entries))
        return hit, free, free


class BroadcastIndex(PreparedBuild):
    """The broadcast build side: an STR-tree over prepared geometries.

    ``entries`` are (payload, geometry) pairs, or the
    :class:`GeometryColumn` already holding them; payloads are whatever
    the caller wants back from probes (row tuples, ids).  The index
    prepares each non-empty geometry once with the given engine and
    bulk-loads its envelope — expanded by ``radius`` for NearestD — into
    the R-tree straight from the column's bbox arrays (the same float
    arithmetic as ``Envelope.expand_by``).  Tree entry ``k`` is build row
    ``k``: a non-empty row's box never inverts.
    """

    def __init__(
        self,
        entries: Iterable[tuple[Any, Geometry]] | GeometryColumn,
        operator: SpatialOperator,
        radius: float = 0.0,
        engine: GeometryEngine | str = "fast",
        node_capacity: int = 10,
    ):
        if operator.needs_radius and radius <= 0.0:
            raise ReproError(f"{operator} requires a positive radius")
        super().__init__(entries, operator, radius, engine)
        kept = self._column
        # Tree entry k's payload, for the candidate arrays.
        self._entry_payloads = kept.payloads()
        self._tree: STRtree = STRtree(node_capacity=node_capacity)
        min_x, min_y, max_x, max_y = kept.bounds()
        radius = self.radius
        # Same IEEE ops as Envelope.expand_by (x - 0.0 == x bitwise).
        self._tree.bulk_load_arrays(
            range(len(kept)),
            min_x - radius, min_y - radius, max_x + radius, max_y + radius,
        )
        self._tree.build()
        self._node_capacity = node_capacity

    def __reduce__(self):
        # Engine counters are local to the receiver's fresh engine instance.
        return (
            BroadcastIndex,
            (
                self._column,
                self.operator,
                self.radius,
                self.engine.name,
                self._node_capacity,
            ),
        )

    @property
    def tree(self) -> STRtree:
        return self._tree

    def build_cost_units(self) -> dict[str, float]:
        """Resource units to charge whoever builds a copy of this index."""
        return {Resource.INDEX_BUILD: float(self.build_entries)}

    def probe_batch(
        self, geometries: Iterable[Geometry | None]
    ) -> tuple[list[list[Any]], dict[str, np.ndarray]]:
        """:meth:`probe_pairs` as payload lists: ``(matches, units)``,
        ``matches[i]`` the payloads row ``i`` matched, in candidate order.

        ``geometries`` is a :class:`GeometryColumn` or any iterable of
        geometries, whose non-``None`` rows are packed once
        (:meth:`GeometryColumn.from_entries`, which raises for a value no
        join can evaluate) and probed the same way.  ``None`` entries are
        skipped entirely — no matches, zero units — so row-pipeline
        callers can keep unparsable rows in place.
        """
        if isinstance(geometries, GeometryColumn):
            return self._matches(geometries)
        geometries = list(geometries)
        present = [i for i, geometry in enumerate(geometries) if geometry is not None]
        matches, units = self._matches(
            GeometryColumn.from_entries((None, geometries[i]) for i in present)
        )
        if len(present) == len(geometries):
            return matches, units
        # None rows keep their places, with no matches and zero units.
        row_matches: list[list[Any]] = [[] for _ in geometries]
        for i, found in zip(present, matches):
            row_matches[i] = found
        return row_matches, scatter_units(units, present, len(geometries))

    def _matches(
        self, column: GeometryColumn
    ) -> tuple[list[list[Any]], dict[str, np.ndarray]]:
        """:meth:`probe_batch` over a packed column."""
        rows, entries, units = self.probe_pairs(column)
        matches: list[list[Any]] = [[] for _ in range(len(column))]
        payloads = self._entry_payloads
        for i, k in zip(rows.tolist(), entries.tolist()):
            matches[i].append(payloads[k])
        return matches, units

    def probe_pairs(
        self, column: GeometryColumn
    ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Probe a packed column: one batched index traversal, then
        :meth:`refine_candidates` over every candidate pair.

        Returns ``(rows, entries, units)``.  ``rows`` and ``entries`` are
        int64 arrays of the matching pairs — ``column`` row ``rows[k]``
        matches build row ``entries[k]``, whose payload
        :meth:`entry_payloads` gives back — in the order N scalar R-tree
        queries find them: row by row, each row's in candidate order.
        Envelopes and coordinates are read straight from the packed
        buffers; no geometry object is built unless a pair takes
        :func:`refine_pair`.

        ``units`` are the rows' cost units as columns — one float64 array
        per resource, one entry per row.  Row ``i`` is charged the nodes
        its own R-tree query visits (``INDEX_VISIT``), its matches
        (``ROWS_OUT``) and the vertex ops / allocations its pairs'
        refinement advanced the engine counters by; the counters advance
        as under one scalar :func:`refine_pair` call per candidate pair.
        ``INDEX_VISIT`` / ``ROWS_OUT`` columns exist once any row is
        probed, a vertex or allocation column only when some row is
        charged one, in that key order; a column of no rows has none.
        The columns are what
        :meth:`~repro.cluster.metrics.TaskMetrics.add_columns` and
        :meth:`~repro.cluster.model.CostModel.row_seconds` consume.
        """
        n = len(column)
        if not n:
            none = np.empty(0, dtype=np.int64)
            return none, none, {}
        min_x, min_y, max_x, max_y = column.bounds()
        live = column.num_points_array() > 0
        if not live.all():
            # An empty row's box is inverted: it visits and matches nothing.
            min_x = np.where(live, min_x, np.inf)
            max_x = np.where(live, max_x, -np.inf)
        probes, entries, visits = self._tree._query_batch_arrays(min_x, min_y, max_x, max_y)
        hit, vertex, alloc = self.refine_candidates(column, probes, entries)
        rows = probes[hit]
        units = {
            Resource.INDEX_VISIT: visits.astype(np.float64),
            Resource.ROWS_OUT: np.bincount(rows, minlength=n).astype(np.float64),
        }
        for resource, charged in (
            (self._vertex_resource, vertex), (Resource.REFINE_ALLOC, alloc)
        ):
            if charged.any():
                units[resource] = np.bincount(probes, weights=charged, minlength=n)
        return rows, entries[hit], units

    def entry_payloads(self, entries: np.ndarray) -> list[Any]:
        """The payloads of build rows ``entries``, in that order."""
        return gather(self._entry_payloads, entries)

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = math.inf
    ) -> list[tuple[Any, float]]:
        """k-nearest build payloads to a probe point (kNN extension)."""

        def exact(x: float, y: float, entry: int) -> float:
            return self.engine.point_distance(Point(x, y), self.handles[entry])

        found = self._tree.nearest(
            point.x, point.y, k=k, max_distance=max_distance, item_distance=exact
        )
        payloads = self._entry_payloads
        return [(payloads[entry], dist) for entry, dist in found]


def index_cache_key(
    kind: str,
    build: Iterable[tuple[Any, Geometry]] | GeometryColumn,
    operator: SpatialOperator,
    radius: float,
    engine: str,
):
    """Cross-query cache key of the index :func:`cached_index` builds over
    ``build``: the dataset's content plus the predicate context."""
    entries = build.entries() if isinstance(build, GeometryColumn) else build
    return fingerprint_entries(entries, kind, operator.value, float(radius), engine)


def cached_index(
    cache,
    kind: str,
    build: Iterable[tuple[Any, Geometry]] | GeometryColumn,
    operator: SpatialOperator,
    radius: float,
    engine: str,
    key=None,
) -> BroadcastIndex:
    """Build the index over ``build``, or reuse the cache-resident one.

    ``cache`` is the cross-query :class:`~repro.cache.CacheManager` or
    ``None``; ``key`` is :func:`index_cache_key` of the same arguments,
    for a caller that already computed it.  A hit returns the very index
    a cold build would have produced from equal content — probes charge
    delta-based units and every caller bills ``build_cost_units()``
    either way, so counters, profiles and pairs cannot tell; only the
    STR-tree construction wall-clock is saved.
    """
    if cache is None:
        return BroadcastIndex(build, operator, radius=radius, engine=engine)
    if key is None:
        key = index_cache_key(kind, build, operator, radius, engine)
    index = cache.get(key, kind)
    if index is None:
        index = BroadcastIndex(build, operator, radius=radius, engine=engine)
        cache.put(
            key, kind, index,
            size_bytes=estimate_index_bytes(index),
            build_cost=sum(index.build_cost_units().values()),
        )
    return index


def join_tile(
    index: BroadcastIndex,
    left: Sequence[tuple[Any, Geometry]] | GeometryColumn,
    tiles,
    tile_id: int,
    expand: float,
) -> tuple[list[tuple[Any, Any]], dict[str, np.ndarray]]:
    """Probe one tile's left rows; keep only the pairs this tile owns.

    ``index`` holds the tile's right side with whole ``(id, geometry)``
    pairs as payloads, so a matched geometry can be routed; ``left`` is
    the tile's left rows, ids as payloads — a column, or entries that are
    packed here.  Owner rule: a replicated pair is produced in every tile
    both sides reach, and only the lowest-indexed common tile emits it
    (this tile, should they share none), so results carry no duplicates
    and lose no pair.  The left rows' tile sets come from one
    batch-router call; a row in a single tile — almost every point — is
    decided by that alone, and the build geometries matched by multi-tile
    rows are routed together, once each.  Returns the owned pairs and the
    probe's unit columns (:meth:`BroadcastIndex.probe_pairs`'), which the
    tile's task adds with ``TaskMetrics.add_columns``.
    """
    if not isinstance(left, GeometryColumn):
        left = GeometryColumn.from_entries(left)
    rows, entries, units = index.probe_pairs(left)
    left_rows, left_tiles = tiles.route_rows(*left.bounds())
    reached = np.bincount(left_rows, minlength=len(left))
    first = np.cumsum(reached) - reached
    # A single-tile row's owner is that tile, whatever it matched.
    owner = np.full(len(left), -1, dtype=np.int64)
    single = reached == 1
    owner[single] = left_tiles[first[single]]
    keep = owner[rows] == tile_id
    shared = np.flatnonzero(reached[rows] > 1)
    if len(shared):
        # Pairs of rows in several tiles need each match's tile set too:
        # route the build geometries they matched together, once each.
        row_tiles = {
            row: set(left_tiles[first[row] : first[row] + reached[row]].tolist())
            for row in set(rows[shared].tolist())
        }
        matched = list(set(entries[shared].tolist()))
        match_tiles: dict[int, set[int]] = {entry: set() for entry in matched}
        positions, reached_tiles = tiles.route_envelopes(
            (index._entry_payloads[entry][1].envelope for entry in matched),
            expand=expand,
        )
        for position, tile in zip(positions.tolist(), reached_tiles.tolist()):
            match_tiles[matched[position]].add(tile)
        for k, row, entry in zip(
            shared.tolist(), rows[shared].tolist(), entries[shared].tolist()
        ):
            common = row_tiles[row] & match_tiles[entry]
            keep[k] = (min(common) if common else tile_id) == tile_id
    right_ids = [right_id for right_id, _ in index.entry_payloads(entries[keep])]
    return list(zip(gather(left.payloads(), rows[keep]), right_ids)), units


def naive_spatial_join(
    left: Iterable[tuple[Any, Geometry]],
    right: Iterable[tuple[Any, Geometry]],
    operator: SpatialOperator,
    radius: float = 0.0,
) -> list[tuple[Any, Any]]:
    """Reference O(|L|*|R|) nested-loop join (the baseline of Section II).

    Used by tests as ground truth and by the cross-join ablation; performs
    an envelope precheck per pair but no indexing.
    """
    right_list = [(payload, geom) for payload, geom in right if not geom.is_empty]
    expand = radius if operator.needs_radius else 0.0
    results: list[tuple[Any, Any]] = []
    for left_payload, left_geom in left:
        if left_geom.is_empty:
            continue
        probe_env = left_geom.envelope
        for right_payload, right_geom in right_list:
            if not probe_env.intersects(right_geom.envelope.expand_by(expand)):
                continue
            if _naive_refine(operator, left_geom, right_geom, radius):
                results.append((left_payload, right_payload))
    return results


def _naive_refine(
    operator: SpatialOperator, left: Geometry, right: Geometry, radius: float
) -> bool:
    if operator is SpatialOperator.WITHIN:
        return predicates.within(left, right)
    if operator is SpatialOperator.NEAREST_D:
        return distance_mod.distance(left, right) <= radius
    if operator is SpatialOperator.INTERSECTS:
        return predicates.intersects(left, right)
    if operator is SpatialOperator.CONTAINS:
        return predicates.within(right, left)
    raise ReproError(f"unsupported operator {operator}")
