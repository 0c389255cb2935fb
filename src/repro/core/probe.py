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
    "index_cache_key",
    "join_tile",
    "naive_spatial_join",
    "refine_pair",
]


# Candidate pairs one pair-kernel call refines: the kernels hold a dozen
# per-pair temporaries, so this bounds a join's peak memory, not its speed.
_REFINE_BLOCK_PAIRS = 1 << 13


def refine_pair(
    engine: GeometryEngine,
    operator: SpatialOperator,
    probe_geometry: Geometry,
    build_geometry: Geometry,
    build_handle: object,
    radius: float,
) -> bool:
    """Exact predicate test for one candidate pair.

    Point probes take the engine's prepared fast paths; non-point probes
    fall back to the generic computational-geometry predicates (identical
    results, no preparation benefit — matching how JTS/GEOS treat them).
    This is the scalar reference: :meth:`BroadcastIndex.probe_batch`
    refines in bulk and agrees with it pair for pair.
    """
    if isinstance(probe_geometry, Point):
        if operator is SpatialOperator.WITHIN:
            return engine.point_within(probe_geometry, build_handle)
        if operator is SpatialOperator.NEAREST_D:
            return engine.point_within_distance(probe_geometry, build_handle, radius)
        if operator is SpatialOperator.INTERSECTS:
            return predicates.intersects(probe_geometry, build_geometry)
        if operator is SpatialOperator.CONTAINS:
            return predicates.within(build_geometry, probe_geometry)
        raise ReproError(f"unsupported operator {operator}")
    if operator is SpatialOperator.WITHIN:
        return predicates.within(probe_geometry, build_geometry)
    if operator is SpatialOperator.NEAREST_D:
        return distance_mod.distance(probe_geometry, build_geometry) <= radius
    if operator is SpatialOperator.INTERSECTS:
        return predicates.intersects(probe_geometry, build_geometry)
    if operator is SpatialOperator.CONTAINS:
        return predicates.within(build_geometry, probe_geometry)
    raise ReproError(f"unsupported operator {operator}")


class PreparedBuild:
    """A join's build side as the refinement kernels see it.

    The non-empty rows of ``entries`` — (payload, geometry) pairs, or the
    :class:`GeometryColumn` already holding them — as ``_column``, each
    prepared once by the engine (``handles``), plus which rows of a probe
    column the pair kernels can answer against them (:meth:`_routes`) and
    the kernels' dispatch.  :class:`BroadcastIndex` puts an R-tree over
    it; the dual-tree join brings its own trees.
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
        self.handles = [self.engine.prepare(geometry) for geometry in kept.geometries()]
        self.build_entries = len(kept)
        self.build_vertex_total = int(kept.num_points_array().sum())
        # Whether the Intersects pair kernel can answer for these rows.
        self._intersects_pairs = operator is SpatialOperator.INTERSECTS and bool(
            PAIR_TYPES[kept.types_array()].all()
        )
        # The point pair kernels' view of the build side: the engine's
        # handle tables, packed by the first point probe (so a pickled
        # index rebuilds them on arrival, like its tree).
        self._point_tables = None

    def __len__(self) -> int:
        return self.build_entries

    def _routes(
        self, column: GeometryColumn, live: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split the non-empty rows (mask ``live``) by how they are refined:
        ``(point_rows, pair_rows, scalar_rows)`` position arrays.

        The one place that says which operator x type combinations the
        batch kernels cover; the input decides, never an option.
        """
        types = column.types_array()
        batched = np.zeros(len(live), dtype=bool)
        none = np.empty(0, dtype=np.int64)
        point_rows = pair_rows = none
        if self.operator in (SpatialOperator.WITHIN, SpatialOperator.NEAREST_D):
            batched = live & (types == _POINT_CODE)
            point_rows = np.flatnonzero(batched)
        elif self._intersects_pairs:
            batched = live & PAIR_TYPES[types]
            pair_rows = np.flatnonzero(batched)
        return point_rows, pair_rows, np.flatnonzero(live & ~batched)

    def refine_candidates(
        self, column: GeometryColumn, rows: np.ndarray, entries: np.ndarray
    ) -> np.ndarray:
        """The exact predicate for candidate pair ``k`` — ``column`` row
        ``rows[k]`` against build row ``entries[k]`` — as a hit mask.

        One pair-kernel call answers every pair whose probe row
        :meth:`_routes` batches; a pair of a shape no kernel covers takes
        :func:`refine_pair`, and the distinct probe rows that do are
        counted in ``probe.scalar_rows``.
        """
        point_rows, pair_rows, scalar_rows = self._routes(
            column, column.num_points_array() > 0
        )
        hit = np.zeros(len(rows), dtype=bool)
        scalar = np.zeros(len(column), dtype=bool)
        scalar[scalar_rows] = True
        scalar = scalar[rows]
        batched = np.flatnonzero(~scalar)
        if len(point_rows):
            # point_rows() lists the point rows in ascending position.
            position, xs, ys = column.point_rows()
        for start in range(0, len(batched), _REFINE_BLOCK_PAIRS):
            block = batched[start : start + _REFINE_BLOCK_PAIRS]
            if len(point_rows):
                of_pair = np.searchsorted(position, rows[block])
                hit[block], _, _ = self._refine_point_pairs(
                    xs[of_pair], ys[of_pair], entries[block]
                )
            else:
                hit[block] = self._refine_intersects(column, rows[block], entries[block])
        rest = np.flatnonzero(scalar)
        if len(rest):
            REGISTRY.inc("probe.scalar_rows", len(np.unique(rows[rest])))
            build = self._column
            hit[rest] = [
                refine_pair(
                    self.engine, self.operator, column.geometry(i),
                    build.geometry(k), self.handles[k], self.radius,
                )
                for i, k in zip(rows[rest].tolist(), entries[rest].tolist())
            ]
        return hit

    def _refine_intersects(
        self, column: GeometryColumn, rows: np.ndarray, entries: np.ndarray
    ) -> np.ndarray:
        """Intersects for ``column`` row ``rows[k]`` against build row
        ``entries[k]``, over the two columns' CSR buffers."""
        return intersects_pairs(
            *column.packed_rows(rows), *self._column.packed_rows(entries)
        )

    def _refine_point_pairs(
        self, px: np.ndarray, py: np.ndarray, entries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Within / NearestD for point ``(px[k], py[k])`` against build
        row ``entries[k]``: one engine pair-kernel call over the build
        side's packed handle tables; the pairs of an entry whose handle
        has no table are grouped by entry into the engine's per-handle
        batch call, which picks its route by the handle's type."""
        engine = self.engine
        within = self.operator is SpatialOperator.WITHIN
        if self._point_tables is None:
            pack = engine.contains_pair_tables if within else engine.within_distance_pair_tables
            self._point_tables = pack(self.handles)
        tables, handles = self._point_tables, self.handles
        if within:
            kernel = partial(engine.contains_pairs_counted, tables)
            handle_kernel = engine.contains_batch_counted
        else:
            radius = self.radius

            def kernel(x, y, rows):
                return engine.within_distance_pairs_counted(tables, x, y, rows, radius)

            def handle_kernel(handle, x, y):
                return engine.within_distance_batch_counted(handle, x, y, radius)

        tabled = tables.tabled[entries]
        if tabled.all():
            return kernel(px, py, entries)
        hit = np.zeros(len(entries), dtype=bool)
        vertex = np.zeros(len(entries), dtype=np.int64)
        alloc = np.zeros(len(entries), dtype=np.int64)
        packed = np.flatnonzero(tabled)
        if len(packed):
            hit[packed], vertex[packed], alloc[packed] = kernel(
                px[packed], py[packed], entries[packed]
            )
        rest = np.flatnonzero(~tabled)
        rest = rest[np.argsort(entries[rest], kind="stable")]
        for group in np.split(rest, np.flatnonzero(np.diff(entries[rest])) + 1):
            hit[group], vertex[group], alloc[group] = handle_kernel(
                handles[entries[group[0]]], px[group], py[group]
            )
        return hit, vertex, alloc


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
        # Tree entry k's payload, for the batched routes' candidate arrays.
        self._entry_payloads = kept.payloads()
        self._tree: STRtree = STRtree(node_capacity=node_capacity)
        min_x, min_y, max_x, max_y = kept.bounds()
        radius = self.radius
        # Same IEEE ops as Envelope.expand_by (x - 0.0 == x bitwise).
        self._tree.bulk_load_arrays(
            list(zip(self._entry_payloads, kept.geometries(), self.handles)),
            min_x - radius, min_y - radius, max_x + radius, max_y + radius,
        )
        self._tree.build()
        self._node_capacity = node_capacity

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[tuple[Any, Geometry]] | GeometryColumn,
        operator: SpatialOperator,
        radius: float = 0.0,
        engine: GeometryEngine | str = "fast",
        node_capacity: int = 10,
    ) -> "BroadcastIndex":
        """A historical name for the constructor, which takes either form."""
        return cls(entries, operator, radius, engine, node_capacity)

    from_column = from_entries

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

    def probe(self, geometry: Geometry) -> list[Any]:
        """Return payloads of build entries satisfying the predicate."""
        if geometry.is_empty:
            return []
        candidates = self._tree.query(geometry.envelope)
        matches = []
        for payload, build_geometry, handle in candidates:
            if refine_pair(
                self.engine, self.operator, geometry, build_geometry, handle, self.radius
            ):
                matches.append(payload)
        return matches

    def probe_with_cost(
        self, geometry: Geometry
    ) -> tuple[list[Any], dict[str, float]]:
        """Probe and also return the resource units this probe consumed.

        Used by schedulers that need per-row costs (ISP-MC's static OpenMP
        chunks; Spark task accounting does the same at task granularity).
        """
        counters = self.engine.counters
        visits_before = self._tree.nodes_visited
        vertex_before = counters.vertex_ops
        alloc_before = counters.allocations
        matches = self.probe(geometry)
        units: dict[str, float] = {
            Resource.INDEX_VISIT: float(self._tree.nodes_visited - visits_before),
            Resource.ROWS_OUT: float(len(matches)),
        }
        vertex_delta = counters.vertex_ops - vertex_before
        if vertex_delta:
            units[self._vertex_resource] = float(vertex_delta)
        alloc_delta = counters.allocations - alloc_before
        if alloc_delta:
            units[Resource.REFINE_ALLOC] = float(alloc_delta)
        return matches, units

    def probe_batch(
        self, geometries: Iterable[Geometry | None]
    ) -> tuple[list[list[Any]], dict[str, np.ndarray]]:
        """Probe many geometries with one index traversal and batched kernels.

        Returns ``(matches, units)``: payloads per probe, in candidate
        order, and the probes' cost units as columns — one float64 array
        per resource, one entry per input row, in :meth:`probe_with_cost`'s
        key order.  Row ``i`` of the columns is what
        :meth:`probe_with_cost` charges probe ``i`` (0 where its dict has
        no such key), and the engine counters advance by what N such calls
        add.  A column exists when some row's dict has its key:
        ``INDEX_VISIT`` / ``ROWS_OUT`` once any row is probed, a vertex or
        allocation column only when some row is charged one; a batch that
        probes no row has none.  ``None`` entries are skipped entirely —
        no matches, zero units — so row-pipeline callers can keep
        unparsable rows in place.  The columns are what
        :meth:`~repro.cluster.metrics.TaskMetrics.add_columns` and
        :meth:`~repro.cluster.model.CostModel.row_seconds` consume.

        ``geometries`` is a :class:`GeometryColumn` — coordinates are then
        read straight from the packed buffers, no geometry object built —
        or any iterable of geometries, whose non-``None`` rows are packed
        once (:meth:`GeometryColumn.from_entries`, which raises for a
        value no join can evaluate) and probed the same way.
        :meth:`_routes` sends each non-empty row down one of three routes.
        The two batched ones share one body (:meth:`_probe_pair_rows`): a
        single batched envelope traversal yields flat ``(probe, build)``
        candidate arrays in scalar candidate order, and one pair-kernel
        call refines all of them:

        * point probes under Within / NearestD: the engine's
          ``contains_pairs_counted`` / ``within_distance_pairs_counted``
          over the build handles' own tables — prepared strip / segment
          tables for the fast engine, churn tables for the slow one —
          packed once per index (a build row whose handle has no table
          refines its pairs with the per-handle ``*_batch_counted`` call);
        * LineString / Polygon / MultiLineString / MultiPolygon probes
          under Intersects, over a build side of those types:
          :func:`~repro.geometry.algorithms.pairwise.intersects_pairs`
          over the two columns' CSR buffers;
        * what is left — point and MultiPoint probes under Intersects,
          every probe under Contains, non-point probes under Within /
          NearestD and any probe of a build side that has point members —
          takes :meth:`probe_with_cost` row by row and is counted in the
          ``probe.scalar_rows`` registry counter.
        """
        if isinstance(geometries, GeometryColumn):
            return self._probe_batch_column(geometries)
        geometries = list(geometries)
        present = [i for i, geometry in enumerate(geometries) if geometry is not None]
        matches, units = self._probe_batch_column(
            GeometryColumn.from_entries((None, geometries[i]) for i in present)
        )
        if len(present) == len(geometries):
            return matches, units
        # None rows keep their places, with no matches and zero units.
        row_matches: list[list[Any]] = [[] for _ in geometries]
        for i, found in zip(present, matches):
            row_matches[i] = found
        return row_matches, scatter_units(units, present, len(geometries))

    def _probe_batch_column(
        self, column: GeometryColumn
    ) -> tuple[list[list[Any]], dict[str, np.ndarray]]:
        """:meth:`probe_batch` over a packed column.

        Classification (empty / point kernels / pair kernel / scalar) is
        vectorised over the column's type and count arrays, and both
        batched routes read coordinates straight from the buffers; only a
        scalar row materialises its geometry, and copies its
        :meth:`probe_with_cost` dict into its row of the columns.
        """
        n = len(column)
        matches: list[list[Any]] = [[] for _ in range(n)]
        if not n:
            return matches, {}
        # Every row is charged its visits and output rows, an empty one 0.
        units = {Resource.INDEX_VISIT: np.zeros(n), Resource.ROWS_OUT: np.zeros(n)}
        point_rows, pair_rows, scalar_rows = self._routes(
            column, column.num_points_array() > 0
        )
        for i in scalar_rows.tolist():
            matches[i], row_units = self.probe_with_cost(column.geometry(i))
            for resource, amount in row_units.items():
                column_units = units.get(resource)
                if column_units is None:
                    column_units = units[resource] = np.zeros(n)
                column_units[i] = amount
        if len(scalar_rows):
            REGISTRY.inc("probe.scalar_rows", len(scalar_rows))
        if len(pair_rows):
            min_x, min_y, max_x, max_y = column.bounds()

            def refine(probes, entries):
                # The engines prepare nothing for these probes: no charge.
                free = np.zeros(len(probes), dtype=np.int64)
                return self._refine_intersects(column, pair_rows[probes], entries), free, free

            self._probe_pair_rows(
                pair_rows,
                (min_x[pair_rows], min_y[pair_rows], max_x[pair_rows], max_y[pair_rows]),
                refine, matches, units,
            )
        elif len(point_rows):
            # A point's envelope is the point; its coordinates come
            # straight from the packed buffer.
            _, xs, ys = column.point_rows()
            self._probe_pair_rows(
                point_rows,
                (xs, ys, xs, ys),
                lambda probes, entries: self._refine_point_pairs(
                    xs[probes], ys[probes], entries
                ),
                matches, units,
            )
        return matches, units

    def _probe_pair_rows(
        self,
        rows: np.ndarray,
        boxes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        refine,
        matches: list[list[Any]],
        units: dict[str, np.ndarray],
    ) -> None:
        """Columnar filter+refine for the probes at ``rows``, whose
        envelopes are the ``boxes`` columns: one batched envelope
        traversal, then one ``refine(probes, entries)`` pair-kernel call
        answering ``(hit, vertex_ops, allocations)`` per candidate pair.

        Fills ``matches`` and the ``units`` columns' entries at ``rows``
        in place — each probe's counts, per-pair charges summed per probe
        — adding a vertex / allocation column only when a pair is charged
        one, as :meth:`probe_with_cost` adds the key.
        """
        probes, entries, visits = self._tree._query_batch_arrays(*boxes)
        hit, vertex, alloc = refine(probes, entries)
        payloads = self._entry_payloads
        for i, k in zip(rows[probes[hit]].tolist(), entries[hit].tolist()):
            matches[i].append(payloads[k])
        m = len(rows)
        units[Resource.INDEX_VISIT][rows] = visits
        units[Resource.ROWS_OUT][rows] = np.bincount(probes[hit], minlength=m)
        for resource, charged in (
            (self._vertex_resource, vertex), (Resource.REFINE_ALLOC, alloc)
        ):
            if charged.any():
                units.setdefault(resource, np.zeros(len(matches)))[rows] = np.bincount(
                    probes, weights=charged, minlength=m
                )

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = math.inf
    ) -> list[tuple[Any, float]]:
        """k-nearest build payloads to a probe point (kNN extension)."""

        def exact(x: float, y: float, item) -> float:
            _, _, handle = item
            return self.engine.point_distance(Point(x, y), handle)

        found = self._tree.nearest(
            point.x, point.y, k=k, max_distance=max_distance, item_distance=exact
        )
        return [(payload, dist) for (payload, _, _), dist in found]


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
    probe's unit columns (:meth:`BroadcastIndex.probe_batch`'s), which the
    tile's task adds with ``TaskMetrics.add_columns``.
    """
    if not isinstance(left, GeometryColumn):
        left = GeometryColumn.from_entries(left)
    left_ids = left.payloads()
    found, units = index.probe_batch(left)
    left_rows, left_tiles = tiles.route_rows(*left.bounds())
    reached = np.bincount(left_rows, minlength=len(left_ids))
    first = np.cumsum(reached) - reached
    # A single-tile row's owner is that tile, whatever it matched.
    owned = np.zeros(len(left_ids), dtype=bool)
    single = reached == 1
    owned[single] = left_tiles[first[single]] == tile_id
    # Rows in several tiles need each match's tile set too: route the
    # build geometries they matched together, once each.
    row_tiles = {
        row: set(left_tiles[first[row] : first[row] + reached[row]].tolist())
        for row in np.flatnonzero(reached > 1).tolist()
        if found[row]
    }
    matched = list(
        {id(m): m for row in row_tiles for m in found[row]}.values()
    )
    match_tiles: dict[int, set[int]] = {id(match): set() for match in matched}
    positions, reached_tiles = tiles.route_envelopes(
        (geometry.envelope for _, geometry in matched), expand=expand
    )
    for position, tile in zip(positions.tolist(), reached_tiles.tolist()):
        match_tiles[id(matched[position])].add(tile)
    pairs: list[tuple[Any, Any]] = []
    for row, (left_id, matches, owns) in enumerate(
        zip(left_ids, found, owned.tolist())
    ):
        if owns:
            pairs.extend((left_id, right_id) for right_id, _ in matches)
        elif row in row_tiles:
            for match in matches:
                common = row_tiles[row] & match_tiles[id(match)]
                if (min(common) if common else tile_id) == tile_id:
                    pairs.append((left_id, match[0]))
    return pairs, units


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
