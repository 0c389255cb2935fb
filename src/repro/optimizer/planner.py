"""Cost-based plan selection and skew-aware repartitioning.

:func:`choose_plan` prices the four join strategies the repository
implements with the same :class:`~repro.cluster.model.CostModel` the
engines are billed with, so "cheapest estimated plan" and "fastest
simulated plan" share one currency:

* ``naive`` — nested loop; no build/setup cost, quadratic envelope work.
  Wins only on tiny inputs.
* ``broadcast`` — index the right side once (serial), ship it to every
  node, probe in parallel.  Wins when the build side is small (the
  paper's point-heavy workloads).
* ``partitioned`` — shuffle both sides into tiles, join tile-by-tile in
  parallel.  Wins when both sides are large: it replaces the
  whole-build-side broadcast with a shuffle and splits the index build
  across tiles.  Its makespan is predicted by simulating the estimated
  per-tile costs under dynamic scheduling — after skew-aware splitting.
* ``dual-tree`` — index both sides, synchronized traversal.  Wins on a
  single worker when candidate density is high: the per-probe
  root-to-leaf descent and repeated candidate enumeration of the
  broadcast plan exceed the one-off cost of packing the probe side.

Hot tiles are handled as in LocationSpark's query optimizer: any tile
whose estimated cost exceeds ``skew_factor x median`` is recursively
quartered at the sample medians until the histogram flattens, which is
what turns the static-scheduling stragglers of Section V.B into balanced
task lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cluster.model import ClusterSpec, CostModel, Resource
from repro.cluster.simulation import simulate_dynamic
from repro.columnar.column import GeometryColumn
from repro.core.operators import SpatialOperator
from repro.errors import OptimizerError
from repro.geometry.envelope import Envelope
from repro.index.partitioner import SortTilePartitioner, SpatialPartitioning, cover_plane
from repro.optimizer.stats import (
    JoinStats,
    TileHistogram,
    collect_join_stats,
    probe_units,
    tile_histogram,
)

__all__ = [
    "PlanChoice",
    "choose_plan",
    "estimate_plan_costs",
    "estimate_plan_terms",
    "split_hot_tiles",
    "derive_skew_aware_partitioning",
    "predicted_makespans",
    "DEFAULT_SKEW_FACTOR",
]

PLAN_METHODS = ("broadcast", "partitioned", "dual-tree", "naive")
DEFAULT_SKEW_FACTOR = 2.0
# Fixed per-plan setup charged in resource units so it scales with the
# cost model like everything else: standing up trees / shuffle machinery
# is never free, which is what lets ``naive`` win tiny joins.
_PLAN_SETUP_ENTRIES = 64.0


@dataclass
class PlanChoice:
    """The optimizer's verdict: chosen method, priced alternatives,
    derived tiles, and an explain()-style summary."""

    method: str
    costs: dict[str, float]
    stats: JoinStats
    workers: int = 1
    nodes: int = 1
    partitioning: SpatialPartitioning | None = field(default=None, repr=False)
    histogram: TileHistogram | None = field(default=None, repr=False)
    split_tiles: int = 0
    skew_factor: float = DEFAULT_SKEW_FACTOR
    # True when the broadcast build side was cache-resident at planning
    # time, so its cost was discounted (a warm cache can flip the plan).
    cached_build: bool = False
    # Estimate-vs-actual correction factors consulted at planning time
    # (``choose_plan(..., calibration=...)``).  Recorded for observability
    # only — the chooser never applies them, so plans stay deterministic.
    calibration: dict[str, float] | None = field(default=None, repr=False)

    @property
    def estimated_seconds(self) -> float:
        return self.costs[self.method]

    def explain(self) -> list[str]:
        """Render the choice the way ``EXPLAIN`` renders a plan."""
        lines = [
            f"PLAN CHOICE: {self.method}  "
            f"(est {self.estimated_seconds:.3f}s, workers={self.workers}"
            + (", cached build side" if self.cached_build else "")
            + ")"
        ]
        for method in PLAN_METHODS:
            marker = "->" if method == self.method else "  "
            lines.append(f"  {marker} {method:<12} est {self.costs[method]:.3f}s")
        info = self.stats.to_info()
        lines.append(
            f"  stats: left={info['left']['rows']} right={info['right']['rows']} "
            f"candidates/probe={info['candidates_per_probe']}"
        )
        if self.partitioning is not None:
            lines.append(
                f"  tiles: {len(self.partitioning)} "
                f"({self.split_tiles} from hot-tile splits, "
                f"skew_factor={self.skew_factor})"
            )
        return lines

    def to_info(self) -> dict:
        """Flat JSON-safe summary for query profiles and BENCH output."""
        info = {
            "method": self.method,
            "workers": self.workers,
            "est_seconds": {m: round(s, 6) for m, s in self.costs.items()},
            "stats": self.stats.to_info(),
        }
        if self.cached_build:
            info["cached_build"] = True
        if self.calibration:
            info["calibration"] = {
                key: round(value, 6) for key, value in self.calibration.items()
            }
        if self.partitioning is not None:
            info["tiles"] = len(self.partitioning)
            info["split_tiles"] = self.split_tiles
        return info


# -- skew-aware repartitioning --------------------------------------------------


def split_hot_tiles(
    partitioning: SpatialPartitioning,
    stats: JoinStats,
    cost_model: CostModel | None = None,
    skew_factor: float = DEFAULT_SKEW_FACTOR,
    max_tiles: int = 512,
    max_rounds: int = 4,
    engine: str = "fast",
) -> tuple[SpatialPartitioning, TileHistogram, int]:
    """Recursively quarter tiles whose estimated cost is skewed.

    Each round re-estimates the histogram, finds tiles above
    ``skew_factor x median`` and splits them at the *sample medians* (not
    the geometric center — clustered data concentrates in a corner of the
    hot tile, and a median split halves population, not area).  Returns
    the refined partitioning, its final histogram and the number of extra
    tiles created.
    """
    if skew_factor <= 1.0:
        raise OptimizerError(f"skew_factor must be > 1, got {skew_factor}")
    model = cost_model or CostModel()
    current = partitioning
    histogram = tile_histogram(current, stats, model, engine=engine)
    added = 0
    for _ in range(max_rounds):
        if len(current) >= max_tiles:
            break
        hot = histogram.hot_tiles(skew_factor)
        if not hot:
            break
        hot_set = set(hot)
        tiles: list[Envelope] = []
        for i, tile in enumerate(current.tiles):
            if i in hot_set and len(current) + added + 3 <= max_tiles:
                quarters = _median_quarter(tile, stats)
                tiles.extend(quarters)
                added += len(quarters) - 1
            else:
                tiles.append(tile)
        refined = SpatialPartitioning(current.extent, tuple(tiles))
        new_histogram = tile_histogram(refined, stats, model, engine=engine)
        if new_histogram.max_seconds >= histogram.max_seconds:
            break  # splitting stopped helping (degenerate point mass)
        current, histogram = refined, new_histogram
    return current, histogram, len(current) - len(partitioning)


def _median_quarter(tile: Envelope, stats: JoinStats) -> list[Envelope]:
    """Split a tile into four at the sample-median point inside it."""
    xs = []
    ys = []
    for _, geometry in stats.left.sample:
        cx, cy = geometry.envelope.center
        if tile.contains_point(cx, cy):
            xs.append(cx)
            ys.append(cy)
    if len(xs) < 4:
        mid_x = (tile.min_x + tile.max_x) / 2.0
        mid_y = (tile.min_y + tile.max_y) / 2.0
    else:
        xs.sort()
        ys.sort()
        mid_x = xs[len(xs) // 2]
        mid_y = ys[len(ys) // 2]
        # Degenerate medians (all mass on one line) fall back to center.
        if not (tile.min_x < mid_x < tile.max_x):
            mid_x = (tile.min_x + tile.max_x) / 2.0
        if not (tile.min_y < mid_y < tile.max_y):
            mid_y = (tile.min_y + tile.max_y) / 2.0
    return [
        Envelope(tile.min_x, tile.min_y, mid_x, mid_y),
        Envelope(mid_x, tile.min_y, tile.max_x, mid_y),
        Envelope(tile.min_x, mid_y, mid_x, tile.max_y),
        Envelope(mid_x, mid_y, tile.max_x, tile.max_y),
    ]


def derive_skew_aware_partitioning(
    stats: JoinStats,
    num_tiles: int,
    cost_model: CostModel | None = None,
    skew_factor: float = DEFAULT_SKEW_FACTOR,
    engine: str = "fast",
) -> tuple[SpatialPartitioning, TileHistogram, int]:
    """Sort-tile base layout from the probe-side sample, then hot-tile
    splitting — the full LocationSpark-style pipeline.  The histogram is
    the split tiles'; the returned layout is them with their outer edges
    unbounded (:func:`~repro.index.partitioner.cover_plane`)."""
    centers = stats.left.sample_centers()
    extent = stats.left.extent.union(stats.right.extent)
    if extent.is_empty:
        raise OptimizerError("cannot partition empty inputs")
    pad_x = max(extent.width * 0.05, 1e-9)
    pad_y = max(extent.height * 0.05, 1e-9)
    extent = Envelope(
        extent.min_x - pad_x,
        extent.min_y - pad_y,
        extent.max_x + pad_x,
        extent.max_y + pad_y,
    )
    base = SortTilePartitioner(max(1, num_tiles)).partition(extent, centers)
    partitioning, histogram, added = split_hot_tiles(
        base, stats, cost_model, skew_factor=skew_factor, engine=engine
    )
    return cover_plane(partitioning), histogram, added


# -- plan costing ---------------------------------------------------------------


def estimate_plan_terms(
    stats: JoinStats,
    cost_model: CostModel | None = None,
    workers: int = 1,
    nodes: int = 1,
    engine: str = "fast",
    histogram: TileHistogram | None = None,
    cached_build: bool = False,
) -> dict[str, dict[str, float]]:
    """Per-operator cost terms of every plan, in simulated seconds.

    The inner dicts decompose each plan's estimate into the operators the
    executed query will actually report (``build``/``probe`` for
    broadcast, ``shuffle``/``join`` for partitioned, ...), which is what
    lets ``EXPLAIN`` annotate an operator tree and ``EXPLAIN ANALYZE``
    overlay measured actuals term by term.  :func:`estimate_plan_costs`
    sums the terms in insertion order, so the totals are bit-identical to
    the pre-decomposition formula.
    """
    model = cost_model or CostModel()
    workers = max(1, workers)
    nodes = max(1, nodes)
    n_left = float(stats.left.count)
    n_right = float(stats.right.count)
    cand = stats.candidates_per_probe
    v_right = max(stats.right.mean_vertices, 2.0)
    setup = model.task_seconds({Resource.INDEX_BUILD: _PLAN_SETUP_ENTRIES})

    # naive: every pair gets an envelope test; candidates get refined.
    naive = model.task_seconds(
        {
            Resource.INDEX_VISIT: n_left * n_right,
            Resource.REFINE_VERTEX_FAST: n_left * cand * v_right,
            Resource.ROWS_OUT: n_left * cand * 0.5,
        }
    )

    # broadcast: serial build + fan-out shipping + parallel probes.
    # A cache-resident index makes the build (but not the shipping) free.
    build = 0.0 if cached_build else model.task_seconds(
        {Resource.INDEX_BUILD: n_right}
    )
    ship = model.task_seconds(
        {Resource.BROADCAST_BYTES: stats.right.estimated_bytes}
    ) * (1.0 + model.broadcast_node_factor * (nodes - 1))
    probe = model.task_seconds(
        probe_units(n_left, n_right, cand, v_right, engine)
    )

    # partitioned: shuffle both sides, then per-tile build+probe either
    # simulated from the histogram or approximated as evenly split work.
    shuffle = model.task_seconds(
        {
            Resource.SHUFFLE_BYTES: (
                stats.left.estimated_bytes + stats.right.estimated_bytes
            )
            * 1.3  # multi-assignment replication of boundary objects
        }
    )
    occupied = (
        [s for s in histogram.seconds if s > 0.0] if histogram is not None else []
    )
    if occupied:
        # Per-tile scheduling overhead: the real join spawns one task per
        # non-empty tile, each paying its own index/setup floor.
        parallel = simulate_dynamic(occupied, workers, per_task_overhead=setup)
    else:
        parallel = (build + probe) / workers + setup

    # dual-tree: pack both sides, synchronized traversal (serial); no
    # per-probe descent, cheaper candidate enumeration.
    dual_build = model.task_seconds(
        {Resource.INDEX_BUILD: n_left + n_right}
    )
    dual_traverse = model.task_seconds(
        {
            Resource.INDEX_VISIT: 0.5 * (n_left + n_right) + n_left * cand,
            Resource.REFINE_VERTEX_FAST: n_left * cand * v_right,
            Resource.ROWS_OUT: n_left * cand * 0.5,
        }
    )

    return {
        "naive": {"join": naive},
        "broadcast": {
            "setup": setup,
            "build": build,
            "ship": ship,
            "probe": probe / workers,
        },
        "partitioned": {
            "setup": 2.0 * setup,
            "shuffle": shuffle,
            "join": parallel,
        },
        "dual-tree": {
            "setup": setup,
            "build": dual_build,
            "join": dual_traverse,
        },
    }


def estimate_plan_costs(
    stats: JoinStats,
    cost_model: CostModel | None = None,
    workers: int = 1,
    nodes: int = 1,
    engine: str = "fast",
    histogram: TileHistogram | None = None,
    cached_build: bool = False,
) -> dict[str, float]:
    """Price every plan in simulated seconds.

    ``workers`` is the parallelism the probe/tile work divides over;
    ``nodes`` scales the broadcast fan-out cost.  When a ``histogram`` is
    given the partitioned plan's parallel phase is the *simulated dynamic
    makespan* of its per-tile estimates — the calibration hook that makes
    the chooser agree with :mod:`repro.cluster.simulation`.

    ``cached_build`` zeroes the broadcast plan's index-build term: when
    the cross-query cache already holds the built index, the broadcast
    plan's real setup cost is just the lookup, so the chooser should not
    charge a rebuild it will never perform.  (The *executed* plan still
    bills the full build units — plan pricing is about wall-clock the
    driver will actually spend; execution billing simulates the cluster.)
    """
    terms = estimate_plan_terms(
        stats,
        cost_model,
        workers=workers,
        nodes=nodes,
        engine=engine,
        histogram=histogram,
        cached_build=cached_build,
    )
    # Left-associative sum in insertion order keeps every total
    # bit-identical to the historical single-expression formula.
    costs: dict[str, float] = {}
    for method, parts in terms.items():
        total = 0.0
        for seconds in parts.values():
            total = total + seconds
        costs[method] = total
    return costs


def choose_plan(
    left: Sequence[tuple[Any, Any]] | GeometryColumn | JoinStats,
    right: Sequence[tuple[Any, Any]] | GeometryColumn | None = None,
    operator: SpatialOperator = SpatialOperator.WITHIN,
    radius: float = 0.0,
    cost_model: CostModel | None = None,
    workers: int = 1,
    cluster: ClusterSpec | None = None,
    num_tiles: int | None = None,
    skew_factor: float = DEFAULT_SKEW_FACTOR,
    engine: str = "fast",
    sample_size: int | None = None,
    cached_build: bool = False,
    calibration=None,
) -> PlanChoice:
    """Sample, price, and pick the cheapest join plan.

    ``left``/``right`` are :class:`GeometryColumn` tables (or (id,
    geometry) collections, packed once by the statistics), or pre-computed
    :class:`JoinStats` may be passed as ``left`` alone.  ``cluster``
    overrides ``workers`` with its core count and informs broadcast
    fan-out.  The partitioned candidate always gets a skew-aware tiling,
    so the returned :class:`PlanChoice` carries usable tiles whenever
    partitioned is chosen (or close).

    ``cached_build=True`` discounts the broadcast plan's index-build term
    (the cross-query cache already holds the built index); the discount
    and any resulting plan flip are recorded on the returned
    :class:`PlanChoice` as ``cached_build``.

    ``calibration`` is an optional
    :class:`~repro.optimizer.calibration.CalibrationLog`: its per-operator
    estimate-vs-actual factors are *consulted* (snapshotted onto the
    returned choice for EXPLAIN output) but never applied to the costs, so
    the same inputs always pick the same plan regardless of feedback
    history.
    """
    model = cost_model or CostModel()
    if isinstance(left, JoinStats):
        stats = left
    else:
        if right is None:
            raise OptimizerError("choose_plan needs both inputs or JoinStats")
        kwargs = {"sample_size": sample_size} if sample_size else {}
        stats = collect_join_stats(
            left, right, radius=radius if operator.needs_radius else 0.0, **kwargs
        )
    nodes = cluster.num_nodes if cluster is not None else 1
    if cluster is not None:
        workers = cluster.total_cores
    workers = max(1, workers)

    partitioning = None
    histogram = None
    split_count = 0
    if stats.left.count and stats.right.count:
        tiles = num_tiles or max(4, 2 * workers)
        try:
            partitioning, histogram, split_count = derive_skew_aware_partitioning(
                stats, tiles, model, skew_factor=skew_factor, engine=engine
            )
        except OptimizerError:
            partitioning = None

    costs = estimate_plan_costs(
        stats,
        model,
        workers=workers,
        nodes=nodes,
        engine=engine,
        histogram=histogram,
        cached_build=cached_build,
    )
    method = min(PLAN_METHODS, key=lambda m: (costs[m], PLAN_METHODS.index(m)))
    factors = None
    if calibration is not None:
        factors = calibration.factors()
    return PlanChoice(
        method=method,
        costs=costs,
        stats=stats,
        workers=workers,
        nodes=nodes,
        partitioning=partitioning,
        histogram=histogram,
        split_tiles=split_count,
        skew_factor=skew_factor,
        cached_build=cached_build,
        calibration=factors or None,
    )


def predicted_makespans(
    histogram: TileHistogram, workers: int
) -> dict[str, float]:
    """Dynamic vs static makespans of a tile histogram — the quantity the
    skewed-synthetic benchmark records before/after hot-tile splitting."""
    from repro.cluster.simulation import simulate_all

    return simulate_all(histogram.seconds, workers)
