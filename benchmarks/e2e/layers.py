"""The traced run: one span per call into each layer's public functions.

``staged_pipeline`` walks the layers in engine order on left batch 0 —
data, hdfs, geometry, columnar, index, core, spark, impala, optimizer,
cache, runtime, obs — and returns the per-layer metrics.  A ``_s`` metric
is the median over ``REPS`` calls; "cold" metrics clear the program's
parse memo / prepared-geometry cache before every call.  Counts come from
the program's own deterministic totals and repeat exactly.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from repro.cache import fingerprint_entries, get_cache
from repro.cluster.model import Resource
from repro.columnar import GeometryColumn, column_from_wkt
from repro.core import BroadcastIndex, refine_pair
from repro.core.api import spatial_join
from repro.core.broadcast_join import read_geometry_pairs
from repro.core.operators import SpatialOperator
from repro.geometry import (
    FastGeometryEngine,
    Point,
    SlowGeometryEngine,
    WKTReader,
    clear_prepared_cache,
)
from repro.geometry.wkt import clear_wkt_cache
from repro.hdfs import read_split_lines, split_boundaries
from repro.impala import Planner, parse
from repro.index.partitioner import SortTilePartitioner
from repro.index.rtree import STRtree
from repro.obs import tracing
from repro.obs.registry import collecting
from repro.optimizer import choose_plan, collect_join_stats
from repro.runtime import RuntimeConfig
from repro.runtime.pool import make_pool

import paths
from spans import SpanRecorder
from workloads import generate_left, generate_right, table_lines

REPS = 5
CACHE_BUDGET = 256 << 20


def _noop() -> None:
    return None


class Stage:
    """Runs layer calls under spans and keeps the per-layer metrics.

    ``reps`` overrides the repetition count (the ``--check`` run uses 1).
    """

    def __init__(self, workload_name: str, reps: int | None = None):
        self.recorder = SpanRecorder(workload_name)
        self.reps = reps or REPS
        self.metrics: dict[str, float] = {}
        self.labels: dict[str, str] = {}
        # Per-stage simulated seconds under the profiles' own stage names.
        self.profiles: dict[str, dict] = {}

    def median(self, span_name: str) -> float:
        """Median duration of every span recorded under ``span_name``."""
        return statistics.median(self.recorder.durations(span_name))

    def timed(self, metric: str, call, before=None):
        """Median wall of ``reps`` calls; returns the last call's result."""
        result = None
        for _ in range(self.reps):
            if before is not None:
                before()
            with self.recorder.span(metric):
                result = call()
        self.metrics[metric] = self.median(metric)
        return result


def traced_setup(stage: Stage, workload, seed: int):
    """Set-up with its two halves under separate spans (``data`` layer)."""
    env = batch = None
    for _ in range(stage.reps):
        with stage.recorder.span("data.generate_s"):
            right = generate_right(workload)
            left = generate_left(workload, seed, 0, right)
        with stage.recorder.span("data.sort_write_s"):
            env = paths.make_env(workload, seed, right, table_lines(right))
            batch = paths.write_batch(env, 0, table_lines(left))
    for metric in ("data.generate_s", "data.sort_write_s"):
        stage.metrics[metric] = stage.median(metric)
    return env, batch


def traced_paths(stage: Stage, env, batch) -> dict[str, tuple]:
    """The four query paths once each, one span per path."""
    answers = {}
    for name, run in paths.PATHS.items():
        paths.cold_left_warm_right(env)
        with stage.recorder.span(f"path.{name}") as span:
            pairs, sim = run(env, batch)
            span["counts"]["pairs"] = len(pairs)
        answers[name] = (paths.pair_digest(pairs), sim)
    return answers


def staged_pipeline(stage: Stage, env, batch, untraced: dict[str, float]) -> None:
    """Per-layer metrics on one batch; ``untraced`` holds this run's
    untraced path medians for the derived metrics."""
    m = stage.metrics
    workload = env.workload
    operator, radius = workload.operator, env.radius
    left_texts = [text for _, text in batch.rows]
    right_texts = [text for _, text in env.right_rows]

    # -- hdfs -----------------------------------------------------------------
    splits = paths.CLUSTER.total_cores * 2

    def read_left():
        lines = 0
        for offset, length in split_boundaries(env.hdfs, batch.path, splits):
            lines += len(read_split_lines(env.hdfs, batch.path, offset, length))
        return lines

    stage.timed("hdfs.read_s", read_left)
    m["hdfs.read_bytes"] = env.hdfs.status(batch.path).size

    # -- geometry: parse and prepare ---------------------------------------------
    def parse_all(texts):
        return [WKTReader().read(text) for text in texts]

    left_geoms = stage.timed(
        "geometry.wkt_parse_left_s", lambda: parse_all(left_texts), before=clear_wkt_cache
    )
    m["geometry.wkt_parse_left_bytes"] = sum(map(len, left_texts))
    right_geoms = stage.timed(
        "geometry.wkt_parse_right_cold_s", lambda: parse_all(right_texts),
        before=clear_wkt_cache,
    )
    m["geometry.wkt_parse_right_bytes"] = sum(map(len, right_texts))
    fast = FastGeometryEngine()
    handles = stage.timed(
        "geometry.prepare_cold_s", lambda: [fast.prepare(g) for g in right_geoms],
        before=clear_prepared_cache,
    )
    left_entries = list(enumerate(left_geoms))
    right_entries = list(enumerate(right_geoms))

    # -- columnar -----------------------------------------------------------------
    ids = list(range(len(left_texts)))
    left_column = stage.timed(
        "columnar.parse_left_s", lambda: column_from_wkt(left_texts, ids),
        before=clear_wkt_cache,
    )
    point_probes = all(isinstance(g, Point) for g in left_geoms)
    stage.labels["columnar.parse_left_path"] = (
        "column_from_wkt vectorised points" if point_probes
        else "GeometryColumn.from_entries fallback"
    )
    blob = stage.timed("columnar.encode_s", left_column.to_bytes)
    stage.timed("columnar.decode_s", lambda: GeometryColumn.from_bytes(blob))
    m["columnar.encoded_bytes"] = len(blob)

    # -- index: build and filter -------------------------------------------------
    def build_tree():
        tree = STRtree(
            ((i, g, h), g.envelope.expand_by(radius))
            for (i, g), h in zip(right_entries, handles)
        )
        tree.build()
        return tree

    tree = stage.timed("index.build_s", build_tree)
    m["index.build_entries"] = len(tree)
    batchable = point_probes and operator in (
        SpatialOperator.WITHIN, SpatialOperator.NEAREST_D
    )
    if batchable:
        xs = np.array([g.x for g in left_geoms])
        ys = np.array([g.y for g in left_geoms])

        def filter_probes():
            return tree.query_batch_points_chunks(xs, ys)[0]
    else:
        envelopes = [g.envelope for g in left_geoms]

        def filter_probes():
            return tree.query_batch(envelopes)

    visited = tree.nodes_visited
    candidates = stage.timed("index.filter_s", filter_probes)
    m["index.nodes_visited"] = (tree.nodes_visited - visited) // stage.reps
    if batchable:
        m["index.candidates"] = sum(len(positions) for _, positions in candidates)
    else:
        m["index.candidates"] = sum(map(len, candidates))

    # -- geometry: refine the filter's candidates with each engine -----------------
    def refine(engine):
        """Returns ``(hits, engine)``; a fresh engine so counters start at 0."""
        hits = 0
        slow = engine.name == "slow"
        if batchable:
            for (_, geometry, handle), positions in candidates:
                handle = geometry if slow else handle
                if operator is SpatialOperator.WITHIN:
                    hit = engine.contains_batch_counted(
                        handle, xs[positions], ys[positions])[0]
                else:
                    hit = engine.within_distance_batch_counted(
                        handle, xs[positions], ys[positions], radius)[0]
                hits += int(hit.sum())
        else:
            for probe, matched in zip(left_geoms, candidates):
                for _, geometry, handle in matched:
                    handle = geometry if slow else handle
                    hits += refine_pair(engine, operator, probe, geometry, handle, radius)
        return hits, engine

    hits, engine = stage.timed("geometry.refine_fast_s", lambda: refine(FastGeometryEngine()))
    m["geometry.vertex_ops_fast"] = engine.counters.vertex_ops
    slow_hits, engine = stage.timed(
        "geometry.refine_slow_s", lambda: refine(SlowGeometryEngine()))
    m["geometry.vertex_ops_slow"] = engine.counters.vertex_ops
    m["geometry.allocations_slow"] = engine.counters.allocations
    if slow_hits != hits:
        raise AssertionError(f"engines disagree: fast {hits} hits, slow {slow_hits}")
    m["geometry.refine_pairs"] = m["index.candidates"]
    m["geometry.refine_hit_ratio"] = hits / max(1, m["index.candidates"])

    # -- core -----------------------------------------------------------------------
    index = stage.timed(
        "core.index_build_s",
        lambda: BroadcastIndex(right_entries, operator, radius=radius, engine="fast"),
    )
    matches, _ = stage.timed("core.probe_batch_s", lambda: index.probe_batch(left_geoms))
    stage.timed("core.probe_column_s", lambda: index.probe_batch(left_column))
    m["core.pairs_out"] = sum(map(len, matches))
    m["core.probe_glue_s"] = (
        m["core.probe_batch_s"] - m["index.filter_s"] - m["geometry.refine_fast_s"]
    )

    # -- spark ----------------------------------------------------------------------
    def scan_parse():
        sc = paths.ss_context(env)
        read_geometry_pairs(sc, batch.path, 1).count()
        return sc

    sc = stage.timed("spark.scan_parse_s", scan_parse, before=clear_wkt_cache)
    m["spark.tasks"] = sum(stage_.num_tasks for job in sc.job_log for stage_ in job.stages)
    m["spark.rdd_records"] = sc.totals().get(Resource.RDD_RECORDS, 0.0)
    m["spark.pipeline_overhead_s"] = (
        m["spark.scan_parse_s"] - m["hdfs.read_s"] - m["geometry.wkt_parse_left_s"]
    )
    extent = env.right.extent
    tiles = SortTilePartitioner(paths.CLUSTER.total_cores).partition(
        extent, [g.envelope.center for g in left_geoms]
    )

    def shuffle():
        sc = paths.ss_context(env)
        parsed = sc.parallelize(left_entries)
        parsed.key_by(lambda entry: tiles.route(entry[1].envelope)[0]).group_by_key().count()
        return sc

    sc = stage.timed("spark.shuffle_s", shuffle)
    m["spark.shuffle_bytes"] = sc.totals().get(Resource.SHUFFLE_BYTES, 0.0)
    sc = paths.ss_context(env)
    broadcast = stage.timed("spark.broadcast_s", lambda: sc.broadcast(index))
    m["spark.broadcast_bytes"] = broadcast.size_bytes

    # -- impala ---------------------------------------------------------------------
    backend = paths.impala_backend(env, batch)
    sql = paths.isp_sql(env)
    planner = Planner(backend.metastore, num_nodes=paths.CLUSTER.num_nodes)
    stage.timed("impala.frontend_s", lambda: planner.plan(parse(sql)))
    scan_sql = "SELECT count(*) FROM left_table"
    stage.timed("impala.scan_s", lambda: backend.execute(scan_sql))
    # Counts from one untimed run of the join itself: row batches are
    # charged by the join's probe, skipped rows by both scans.
    with collecting() as registry:
        registry.reset()
        joined = backend.execute(sql)
        m["impala.rows_skipped"] = registry.counter("impala.rows_skipped")
    m["impala.row_batches"] = sum(i.row_batches for i in joined.instances)
    stage.profiles["isp"] = joined.to_profile("ISP-MC").to_dict()
    m["impala.exec_overhead_s"] = (
        untraced["isp"] - m["impala.scan_s"] - m["index.filter_s"]
        - m["geometry.refine_slow_s"]
    )

    # -- optimizer ------------------------------------------------------------------
    stats = stage.timed(
        "optimizer.stats_s",
        lambda: collect_join_stats(left_entries, right_entries, radius=radius),
    )
    plan = stage.timed(
        "optimizer.plan_s", lambda: choose_plan(stats, operator=operator, radius=radius))
    stage.labels["optimizer.method"] = plan.method

    # -- cache ----------------------------------------------------------------------
    stage.timed(
        "cache.fingerprint_s",
        lambda: fingerprint_entries(right_entries, "bench", operator.value, float(radius)),
    )
    cached = paths.api_config(env, runtime=RuntimeConfig(cache_budget_bytes=CACHE_BUDGET))
    cache = get_cache()

    def api_cached():
        return spatial_join(batch.rows, env.right_rows, config=cached)

    for _ in range(stage.reps):
        cache.clear()
        with stage.recorder.span("cache.cold_query_s"):
            api_cached()
        before = cache.stats.as_dict()
        with stage.recorder.span("cache.warm_query_s"):
            api_cached()
        after = cache.stats.as_dict()
    cache.clear()
    for metric in ("cache.cold_query_s", "cache.warm_query_s"):
        m[metric] = stage.median(metric)
    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    m["cache.hit_ratio"] = (after["hits"] - before["hits"]) / max(1, lookups)

    # -- runtime --------------------------------------------------------------------
    pool = make_pool(2)
    stage.timed("runtime.pool_dispatch_s", lambda: pool.run([_noop] * 8))
    pool.close()
    pooled = RuntimeConfig(executors=2)
    m["runtime.available_cores"] = len(os.sched_getaffinity(0))

    # -- obs, and the pooled query: whole ss queries on the same batch ----------------
    events_path = str(paths.out_dir() / f"events-{workload.name}.jsonl")

    def ss_profiled():
        sc = paths.ss_context(env)
        paths.ss_join(sc, env, batch)
        return sc.to_profile("SpatialSpark")

    def ss_traced():
        with tracing():
            return paths.run_ss(env, batch)

    variants = {
        "obs.plain_ss_s": lambda: paths.run_ss(env, batch),
        "obs.events_ss_s": lambda: paths.run_ss(
            env, batch, RuntimeConfig(events_out=events_path)),
        "obs.tracing_ss_s": ss_traced,
        "obs.profile_ss_s": ss_profiled,
        "runtime.pool2_query_s": lambda: paths.run_ss(env, batch, pooled),
    }
    for _ in range(stage.reps):
        for name, call in variants.items():
            paths.cold_left_warm_right(env)
            with stage.recorder.span(name):
                result = call()
            if name == "obs.profile_ss_s":
                stage.profiles["ss"] = result.to_dict()
    if os.path.exists(events_path):
        os.remove(events_path)
    walls = {name: stage.median(name) for name in variants}
    plain = walls["obs.plain_ss_s"]
    m["obs.events_overhead_ratio"] = walls["obs.events_ss_s"] / plain
    m["obs.tracing_overhead_ratio"] = walls["obs.tracing_ss_s"] / plain
    m["obs.profile_overhead_ratio"] = walls["obs.profile_ss_s"] / plain
    m["runtime.pool2_query_s"] = walls["runtime.pool2_query_s"]
    m["runtime.pool2_speedup"] = plain / walls["runtime.pool2_query_s"]
