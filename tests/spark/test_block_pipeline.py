"""Identity pins for SpatialSpark's block pipeline.

``read_geometry_pairs`` hands each text split on as one line block and
parses it in one task body, and the broadcast join probes a whole result
stage's rows in one ``probe_pairs`` call, cutting the pairs and per-row
unit columns back to tasks at their row offsets.  None of that may move
a byte: the digests below were taken from the record-at-a-time pipeline
(one ``TaskMetrics.add`` pair per row, one probe per task) on the same
mixed input — points, linestrings and polygons, a short row, a malformed
WKT row, a ``GEOMETRYCOLLECTION`` row and a split that owns no line —
and every run, serial, on a 2-worker fork pool and under an empty fault
plan, must reproduce them.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random

import pytest

from repro.cluster import ClusterSpec
from repro.columnar import GeometryColumn
from repro.core.broadcast_join import broadcast_spatial_join, read_geometry_pairs
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.hdfs import SimulatedHDFS, read_split_lines, split_boundaries, write_text
from repro.obs.events import normalize_events, read_events
from repro.obs.registry import collecting
from repro.runtime import FaultPlan, RuntimeConfig
from repro.spark import SparkContext

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="fork start method unavailable"
)

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)
LEFT, RIGHT = "/data/left.txt", "/data/right.txt"
BLOCK_SIZE = 512


def _ring(x0, y0, size):
    return f"({x0} {y0}, {x0 + size} {y0}, {x0 + size} {y0 + size}, {x0} {y0 + size}, {x0} {y0})"


def _left_lines(seed=5):
    rng = random.Random(seed)
    lines = []
    for k in range(90):
        x, y = round(rng.uniform(-1.0, 13.0), 3), round(rng.uniform(-1.0, 13.0), 3)
        kind = k % 3
        if kind == 0:
            wkt = f"POINT ({x} {y})"
        elif kind == 1:
            wkt = f"LINESTRING ({x} {y}, {x + 1.5} {y + 0.7}, {x + 2.1} {y - 0.4})"
        else:
            wkt = f"POLYGON ({_ring(x, y, round(rng.uniform(0.2, 2.0), 3))})"
        lines.append(f"{k}\t{wkt}")
    lines[17] = "17"  # a short row: no geometry field
    lines[41] = "41\tPOLYGON ((0 0, 1 0, 1"  # malformed WKT
    lines[58] = "58\tGEOMETRYCOLLECTION (POINT (1 1))"  # parses, joins nothing
    # One polyline long enough that a whole split falls inside it.
    vertices = ", ".join(f"{i * 0.01:.2f} {6 + (i % 7) * 0.1:.2f}" for i in range(160))
    lines[63] = f"63\tLINESTRING ({vertices})"
    return lines


def _right_lines():
    return [f"{i * 3 + j}\tPOLYGON ({_ring(i * 4, j * 4, 4)})" for i in range(3) for j in range(3)]


def _hdfs():
    hdfs = SimulatedHDFS(datanodes=("node0", "node1"), replication=1)
    write_text(hdfs, LEFT, _left_lines(), block_size=BLOCK_SIZE)
    write_text(hdfs, RIGHT, _right_lines(), block_size=BLOCK_SIZE)
    return hdfs


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _snapshot(runtime: RuntimeConfig, events_path: str, operator: SpatialOperator):
    with collecting() as registry:
        sc = SparkContext(SPEC, hdfs=_hdfs(), runtime=runtime.with_(events_out=events_path))
        left = read_geometry_pairs(sc, LEFT, 1)
        right = read_geometry_pairs(sc, RIGHT, 1)
        pairs = broadcast_spatial_join(sc, left, right, operator).collect()
        sc.close_events()
        skipped = registry.counter("spark.rows_skipped")
    tasks = [
        [list(task.counts.items()) for task in stage.tasks]
        for job in sc.job_log
        for stage in job.stages
    ]
    return {
        "pairs": _digest(pairs),
        "num_pairs": len(pairs),
        "task_counts": _digest(tasks),
        "stage_summaries": _digest(sc._scheduler.stage_summaries),
        "events": _digest(normalize_events(read_events(events_path))),
        "sim_seconds": sc.simulated_seconds().hex(),
        "rows_skipped": skipped,
    }


# Taken from the record-at-a-time pipeline; see the module docstring.
PINNED = {
    SpatialOperator.INTERSECTS: {
        "pairs": "93e31314e8e308b3",
        "num_pairs": 88,
        "task_counts": "72328d73ce41f8f2",
        "stage_summaries": "f31e5626b7191b12",
        "events": "2bf094aa8edd18d5",
        "sim_seconds": "0x1.05afe65a64100p+4",
        "rows_skipped": 3.0,
    },
    SpatialOperator.WITHIN: {
        "pairs": "c7199d1c556d3fb2",
        "num_pairs": 36,
        "task_counts": "7b4226c24f28335d",
        "stage_summaries": "a0efdad446c1f7a6",
        "events": "b879aaae8ca69b09",
        "sim_seconds": "0x1.05ddaf55eb048p+4",
        "rows_skipped": 3.0,
    },
}

RUNTIMES = [
    pytest.param(RuntimeConfig(), id="serial"),
    pytest.param(RuntimeConfig(executors=2), id="pool2", marks=needs_fork),
    pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
]


class TestInputShape:
    def test_one_split_owns_no_line(self):
        hdfs = _hdfs()
        splits = split_boundaries(hdfs, LEFT, 1)
        assert len(splits) > 4
        assert [] in [read_split_lines(hdfs, LEFT, *split) for split in splits]


@pytest.mark.parametrize("operator", list(PINNED), ids=lambda op: op.name.lower())
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_pinned_across_runtimes(tmp_path, runtime, operator):
    assert _snapshot(runtime, str(tmp_path / "events.jsonl"), operator) == PINNED[operator]


def _join(sc, operator=SpatialOperator.WITHIN, left=None):
    left = read_geometry_pairs(sc, LEFT, 1) if left is None else left
    return broadcast_spatial_join(sc, left, read_geometry_pairs(sc, RIGHT, 1), operator)


class TestJoinRDDStaysRecordShaped:
    def test_map_count_take(self):
        sc = SparkContext(SPEC, hdfs=_hdfs())
        joined = _join(sc)
        pairs = joined.collect()
        assert _digest(pairs) == PINNED[SpatialOperator.WITHIN]["pairs"]
        assert joined.map(lambda pair: pair[0]).collect() == [left for left, _ in pairs]
        assert joined.count() == len(pairs)
        assert joined.take(3) == pairs[:3]

    def test_one_probe_per_serial_result_stage(self, monkeypatch):
        calls = []
        probe_pairs = BroadcastIndex.probe_pairs
        monkeypatch.setattr(
            BroadcastIndex,
            "probe_pairs",
            lambda self, column: (calls.append(len(column)), probe_pairs(self, column))[1],
        )
        sc = SparkContext(SPEC, hdfs=_hdfs())
        joined = _join(sc)
        num_tasks = joined.num_partitions
        assert num_tasks > 1
        joined.collect()
        assert len(calls) == 1
        joined.map(lambda pair: pair).count()
        assert len(calls) == 2
        # take() runs one single-partition job at a time: batches of one.
        joined.take(3)
        assert 2 < len(calls) <= 2 + num_tasks

    def test_a_retried_preparation_costs_what_a_lone_task_does(self):
        """The first preparation that fails ends the batch; that task's
        first attempt fails, and its retry computes the partition alone
        — exactly the attempts, charges and answers of a run whose tasks
        are never batched (an empty fault plan)."""

        def run(runtime):
            seen = set()

            def flaky(record):
                if record[0] in (31, 61) and record[0] not in seen:
                    seen.add(record[0])
                    raise OSError("lost executor")
                return record

            sc = SparkContext(SPEC, hdfs=_hdfs(), runtime=runtime)
            pairs = _join(sc, left=read_geometry_pairs(sc, LEFT, 1).map(flaky)).collect()
            tasks = [list(task.counts.items()) for task in sc.job_log[-1].stages[-1].tasks]
            return pairs, tasks, sc._scheduler.task_failures, sc.simulated_seconds()

        batched = run(RuntimeConfig())
        assert batched[2] == 2
        assert batched == run(RuntimeConfig(fault_plan=FaultPlan()))


class TestSampleTakesRowsFromTheColumn:
    @pytest.mark.parametrize("fraction", [0.0, 0.05, 0.3, 0.75, 1.0])
    @pytest.mark.parametrize("seed", [17, 4])
    def test_same_draws_as_the_record_path(self, fraction, seed):
        sc = SparkContext(SPEC, hdfs=_hdfs())
        left = read_geometry_pairs(sc, LEFT, 1)
        records = left.map(lambda record: record)  # iterates: the record path
        assert left.sample(fraction, seed).collect() == records.sample(fraction, seed).collect()

    def test_builds_geometry_for_kept_rows_only(self, monkeypatch):
        sc = SparkContext(SPEC, hdfs=_hdfs())
        sample = read_geometry_pairs(sc, LEFT, 1).sample(0.3)
        built = []
        entry = GeometryColumn.entry
        monkeypatch.setattr(
            GeometryColumn, "entry", lambda self, i: (built.append(i), entry(self, i))[1]
        )
        kept = sample.collect()
        assert 0 < len(kept) == len(built) < 80
