"""The fault-tolerance invariant: chaos must not change a single byte.

Acceptance matrix for the fault-injection layer, across substrates
(core API, mini-Spark, mini-Impala), join methods and fault plans:

* every seeded-chaos run produces the same pairs, registry counters,
  rendered profiles and simulated seconds as the fault-free run;
* recovery itself is deterministic: the *full* normalized event stream
  of a chaos run (recovery events included — they carry virtual worker
  ids, not physical ones) is identical under serial, 2- and 4-worker
  execution;
* the marquee recovery paths fire and recover: lineage recompute of a
  lost shuffle output (``StageRecomputed``) on Spark, bounded
  whole-query restart (``QueryRestarted``) on Impala, and restart-budget
  exhaustion fails loudly.
"""

import multiprocessing
import random

import pytest

from repro.cluster import ClusterSpec
from repro.core import JoinConfig, spatial_join
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import partitioned_spatial_join
from repro.errors import ImpalaError, SparkError
from repro.geometry import Point, Polygon
from repro.geometry.envelope import Envelope
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.index.partitioner import FixedGridPartitioner
from repro.obs.events import (
    RECOVERY_EVENT_TYPES,
    normalize_events,
    read_events,
)
from repro.obs.registry import collecting
from repro.runtime import FaultPlan, RuntimeConfig
from repro.spark import SparkContext

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)


def _grid_polygons(n=3, cell=4.0):
    out = []
    for i in range(n):
        for j in range(n):
            x0, y0 = i * cell, j * cell
            out.append(
                (
                    f"cell-{i}-{j}",
                    Polygon(
                        [
                            (x0, y0),
                            (x0 + cell, y0),
                            (x0 + cell, y0 + cell),
                            (x0, y0 + cell),
                        ]
                    ),
                )
            )
    return out


def _points(count=96, extent=12.0, seed=13):
    rng = random.Random(seed)
    return [
        (k, Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)))
        for k in range(count)
    ]


def _chaotic_plan(seed=7, rate=0.35):
    return FaultPlan(seed=seed, fault_rate=rate)


def _core_snapshot(method, runtime, events_out=None):
    config = JoinConfig(
        method=method,
        profile=True,
        batch_size=16,
        workers=4,
        runtime=runtime.with_(events_out=events_out),
    )
    with collecting() as reg:
        result = spatial_join(_points(), _grid_polygons(), config=config)
    return {
        "pairs": list(result.pairs),
        "sim_seconds": result.profile.root.sim_seconds,
        "profile": result.profile.render(),
        "counters": dict(reg.snapshot()["counters"]),
    }


class TestCoreChaosEquivalence:
    @pytest.mark.parametrize("method", ("broadcast", "partitioned"))
    def test_chaos_run_matches_fault_free(self, method):
        baseline = _core_snapshot(method, RuntimeConfig())
        chaos = _core_snapshot(
            method, RuntimeConfig(fault_plan=_chaotic_plan())
        )
        assert chaos == baseline

    @pytest.mark.parametrize("method", ("broadcast", "partitioned"))
    @needs_fork
    def test_chaos_run_matches_across_executor_counts(self, method):
        runtime = RuntimeConfig(fault_plan=_chaotic_plan())
        serial = _core_snapshot(method, runtime.with_(executors="serial"))
        for executors in (2, 4):
            pooled = _core_snapshot(method, runtime.with_(executors=executors))
            assert pooled == serial

    @needs_fork
    def test_recovery_event_stream_pinned_across_executor_counts(self, tmp_path):
        """Speculation/retry decisions are placement-free: the normalized
        event stream — recovery events *included* — is identical whether
        tasks ran serially or on 2 or 4 worker processes."""
        plan = _chaotic_plan(rate=0.5)
        streams = {}
        for executors in ("serial", 2, 4):
            path = str(tmp_path / f"events-{executors}.jsonl")
            _core_snapshot(
                "partitioned",
                RuntimeConfig(executors=executors, fault_plan=plan),
                events_out=path,
            )
            streams[executors] = normalize_events(read_events(path))
        assert streams["serial"] == streams[2] == streams[4]
        kinds = {e["event"] for e in streams["serial"]}
        assert kinds & RECOVERY_EVENT_TYPES, "chaos at rate 0.5 must recover"

    def test_recovery_events_are_the_only_stream_difference(self, tmp_path):
        base_path = str(tmp_path / "baseline.jsonl")
        chaos_path = str(tmp_path / "chaos.jsonl")
        baseline = _core_snapshot("broadcast", RuntimeConfig(), base_path)
        chaos = _core_snapshot(
            "broadcast", RuntimeConfig(fault_plan=_chaotic_plan()), chaos_path
        )
        assert chaos == baseline

        def comparable(path):
            return [
                e
                for e in normalize_events(read_events(path))
                if e["event"] not in RECOVERY_EVENT_TYPES
            ]

        assert comparable(chaos_path) == comparable(base_path)


def _spark_shuffle_snapshot(runtime, events_out=None):
    sc = SparkContext(SPEC, runtime=runtime.with_(events_out=events_out))
    rows = (
        sc.parallelize(list(range(48)), 4)
        .map(lambda value: (value % 6, value))
        .group_by_key(3)
        .map_values(sum)
        .collect()
    )
    snapshot = {
        "rows": sorted(rows),
        "sim_seconds": sc.simulated_seconds(),
        "counters": sc.totals(),
    }
    sc.close_events()
    return snapshot


class TestSparkChaosEquivalence:
    def test_random_chaos_matches_fault_free(self):
        baseline = _spark_shuffle_snapshot(RuntimeConfig())
        chaos = _spark_shuffle_snapshot(
            RuntimeConfig(
                fault_plan=FaultPlan(seed=7, fault_rate=0.4)
            )
        )
        assert chaos == baseline

    def test_lost_shuffle_output_recomputed_from_lineage(self, tmp_path):
        """An injected ``shuffle_loss`` on the result stage drops a map
        output; the scheduler recomputes it from the parent lineage
        (``StageRecomputed``) and the job's answer does not move."""
        baseline = _spark_shuffle_snapshot(RuntimeConfig())
        path = str(tmp_path / "events.jsonl")
        plan = FaultPlan(seed=1).at("*", task=0, kind="shuffle_loss")
        chaos = _spark_shuffle_snapshot(
            RuntimeConfig(fault_plan=plan), events_out=path
        )
        assert chaos == baseline
        events = read_events(path)
        recomputed = [e for e in events if e["event"] == "StageRecomputed"]
        assert recomputed, "expected a lineage recompute"
        record = recomputed[0]
        assert record["reason"] == "shuffle_loss"
        assert {"shuffle_id", "map_partition", "query", "stage"} <= set(record)
        assert any(e["event"] == "TaskRetried" for e in events)


def _spark_partitioned_snapshot(runtime, events_out):
    """The partitioned spatial join: its shuffle carries column blocks."""
    sc = SparkContext(SPEC, runtime=runtime.with_(events_out=events_out))
    pairs = partitioned_spatial_join(
        sc,
        sc.parallelize(_points(), 4),
        sc.parallelize(_grid_polygons(), 2),
        SpatialOperator.WITHIN,
        partitioning=FixedGridPartitioner(3, 2).partition(Envelope(0, 0, 12, 12)),
    ).collect()
    snapshot = {
        "pairs": pairs,  # emission order included
        "sim_seconds": sc.simulated_seconds(),
        "counters": sc.totals(),
    }
    sc.close_events()
    snapshot["events"] = [
        e
        for e in normalize_events(read_events(events_out))
        if e["event"] not in RECOVERY_EVENT_TYPES
    ]
    return snapshot


class TestSparkBlockShuffleChaosEquivalence:
    """A lost map output that held column blocks is recomputed from
    lineage in the representation the map task wrote, so the reduce side
    — which takes blocks whole — cannot tell it was ever lost."""

    @pytest.mark.parametrize(
        "executors", ["serial", pytest.param(2, marks=needs_fork)]
    )
    @pytest.mark.parametrize("task", range(4))
    def test_lost_block_output_recomputed_from_lineage(
        self, tmp_path, executors, task
    ):
        runtime = RuntimeConfig(executors=executors)
        baseline = _spark_partitioned_snapshot(
            runtime, str(tmp_path / "baseline.jsonl")
        )
        assert len(baseline["pairs"]) == len(_points())
        path = str(tmp_path / "chaos.jsonl")
        plan = FaultPlan(seed=1).at("job-1:result", task=task, kind="shuffle_loss")
        chaos = _spark_partitioned_snapshot(runtime.with_(fault_plan=plan), path)
        assert chaos == baseline
        recomputed = [
            e for e in read_events(path) if e["event"] == "StageRecomputed"
        ]
        # One lost map output per shuffle the result stage reads.
        assert len(recomputed) == 2
        assert {e["reason"] for e in recomputed} == {"shuffle_loss"}


class TestOneTaskRunner:
    """The scheduler has one task body.  It runs inline against driver
    state, or — when its result may be discarded (a fault plan, here one
    that injects nothing) or crosses a process boundary (a real pool) —
    under a capture that ships back; all three agree byte for byte."""

    @pytest.mark.parametrize(
        "runtime",
        [
            pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
            pytest.param(RuntimeConfig(executors=2), id="pool", marks=needs_fork),
        ],
    )
    def test_captured_jobs_match_inline(self, tmp_path, runtime):
        def run(runtime, name):
            path = str(tmp_path / f"{name}.jsonl")
            shuffle = _spark_shuffle_snapshot(runtime, path)
            return (
                shuffle,
                normalize_events(read_events(path)),
                _spark_partitioned_snapshot(runtime, path),
            )

        assert run(runtime, "captured") == run(RuntimeConfig(), "inline")

    def test_inline_terminal_failure_leaves_later_tasks_unrun(self):
        ran = []

        def lose_second(value):
            ran.append(value)
            if value == 1:
                raise OSError("simulated executor loss")
            return value

        sc = SparkContext(SPEC)
        with pytest.raises(SparkError, match="failed 4 times"):
            sc.parallelize([0, 1, 2, 3], 4).map(lose_second).collect()
        assert ran == [0, 1, 1, 1, 1]

    def test_inline_run_captures_nothing_and_sizes_buckets_once(self, monkeypatch):
        """Wall-clock-free guard on what an inline task costs: no
        ``ObsCapture`` per task, no second ``records_bytes`` walk over a
        record-list bucket (a block's total is a field read)."""
        from repro.core.broadcast_join import broadcast_spatial_join
        from repro.runtime.shipping import ObsCapture
        from repro.spark import shuffle

        captures, sized = [], []
        init, records_bytes = ObsCapture.__init__, shuffle.records_bytes
        monkeypatch.setattr(
            ObsCapture, "__init__", lambda self: (captures.append(self), init(self))[1]
        )
        monkeypatch.setattr(
            shuffle,
            "records_bytes",
            lambda records: (sized.append(records), records_bytes(records))[1],
        )
        sc = SparkContext(SPEC)
        left, right = sc.parallelize(_points(), 4), sc.parallelize(_grid_polygons(), 2)
        grid = FixedGridPartitioner(3, 2).partition(Envelope(0, 0, 12, 12))
        broadcast_spatial_join(sc, left, right, SpatialOperator.WITHIN).collect()
        partitioned_spatial_join(
            sc, left, right, SpatialOperator.WITHIN, partitioning=grid
        ).collect()
        _spark_shuffle_snapshot(RuntimeConfig())
        assert captures == []
        lists = [id(records) for records in sized if type(records) is list]
        assert lists and len(set(lists)) == len(lists)


def _impala_backend(runtime, events_out=None):
    hdfs = SimulatedHDFS(datanodes=("node0", "node1"), block_size=2048)
    write_text(
        hdfs,
        "/chaos/points.tsv",
        [f"{k}\tPOINT ({geom.x} {geom.y})" for k, geom in _points()],
    )
    write_text(
        hdfs,
        "/chaos/cells.tsv",
        [f"{name}\t{geom.wkt()}" for name, geom in _grid_polygons()],
    )
    backend = ImpalaBackend(
        SPEC, hdfs=hdfs, runtime=runtime.with_(events_out=events_out)
    )
    backend.metastore.create_table(
        "points", [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)],
        "/chaos/points.tsv",
    )
    backend.metastore.create_table(
        "cells", [("id", ColumnType.STRING), ("geom", ColumnType.STRING)],
        "/chaos/cells.tsv",
    )
    return backend


_IMPALA_SQL = (
    "SELECT l.id, r.id FROM points l SPATIAL JOIN cells r "
    "WHERE ST_WITHIN(l.geom, r.geom)"
)


def _impala_snapshot(runtime, events_out=None):
    backend = _impala_backend(runtime, events_out)
    with collecting() as reg:
        result = backend.execute(_IMPALA_SQL)
    snapshot = {
        "rows": sorted(result.rows),
        "sim_seconds": result.simulated_seconds,
        "instance_counters": {
            f"instance-{ctx.node_id}": dict(sorted(ctx.metrics.counts.items()))
            for ctx in result.instances
        },
        "registry": dict(reg.snapshot()["counters"]),
    }
    backend.close_events()
    return snapshot


class TestImpalaChaosEquivalence:
    def test_injected_crash_restarts_the_whole_query(self, tmp_path):
        """The static engine has no lineage: a lost fragment cancels the
        query and the coordinator restarts it from scratch — the paper's
        static-scheduling recovery model — yet every number matches the
        fault-free run because the failed attempt charged nothing."""
        baseline = _impala_snapshot(RuntimeConfig())
        path = str(tmp_path / "events.jsonl")
        plan = FaultPlan(seed=1).at("query-1", task=1, kind="crash")
        chaos = _impala_snapshot(RuntimeConfig(fault_plan=plan), events_out=path)
        assert chaos == baseline
        events = read_events(path)
        restarted = [e for e in events if e["event"] == "QueryRestarted"]
        assert len(restarted) == 1
        record = restarted[0]
        assert record["restart"] == 1 and record["reason"] == "crash"
        assert record["fragment"] == 1
        # Exactly one QueryStart/QueryEnd pair: the restart reuses the
        # query's identity rather than pretending to be a new query.
        assert sum(e["event"] == "QueryStart" for e in events) == 1
        assert sum(e["event"] == "QueryEnd" for e in events) == 1

    def test_random_chaos_matches_fault_free(self):
        baseline = _impala_snapshot(RuntimeConfig())
        chaos = _impala_snapshot(
            RuntimeConfig(fault_plan=FaultPlan(seed=3, fault_rate=0.5))
        )
        assert chaos == baseline

    def test_restart_budget_exhaustion_fails_loudly(self):
        plan = (
            FaultPlan(seed=1)
            .at("query-1", task=0, kind="crash", round=0)
            .at("query-1", task=0, kind="crash", round=1)
        )
        backend = _impala_backend(
            RuntimeConfig(fault_plan=plan, restart_budget=1)
        )
        with pytest.raises(ImpalaError, match="restart budget"):
            backend.execute(_IMPALA_SQL)

    def test_budget_covers_repeated_failures(self):
        """Two pinned crashes, budget 2: the third attempt succeeds."""
        plan = (
            FaultPlan(seed=1)
            .at("query-1", task=0, kind="crash", round=0)
            .at("query-1", task=1, kind="crash", round=1)
        )
        baseline = _impala_snapshot(RuntimeConfig())
        chaos = _impala_snapshot(
            RuntimeConfig(fault_plan=plan, restart_budget=2)
        )
        assert chaos == baseline

    def test_explain_is_never_faulted(self):
        plan = FaultPlan(seed=1, fault_rate=1.0, max_rounds=10)
        backend = _impala_backend(RuntimeConfig(fault_plan=plan))
        text = "\n".join(
            row[0] for row in backend.execute("EXPLAIN " + _IMPALA_SQL).rows
        )
        assert "SCAN" in text.upper() and "JOIN" in text.upper()
