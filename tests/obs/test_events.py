"""The structured event log: schema, pairing, pool-equivalence, no-op off."""

import json
import multiprocessing

import pytest

from repro.cluster import ClusterSpec
from repro.core import JoinConfig, spatial_join
from repro.errors import ReproError
from repro.geometry import Point, Polygon
from repro.impala import ColumnType, ImpalaBackend
from repro.obs.events import (
    SCHEMA_VERSION,
    EVENT_TYPES,
    EventLog,
    check_task_pairing,
    get_event_log,
    install_event_log,
    logging_events,
    normalize_events,
    read_events,
)
from repro.runtime import RuntimeConfig
from repro.spark import SparkContext

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)


def _box(x0, y0, size=25.0):
    return Polygon(
        [(x0, y0), (x0 + size, y0), (x0 + size, y0 + size), (x0, y0 + size)]
    )


def _points(n=200, seed=99):
    import random

    rng = random.Random(seed)
    return [
        (i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(n)
    ]


def _polygons():
    return [
        (row * 4 + col, _box(col * 25.0, row * 25.0))
        for row in range(4)
        for col in range(4)
    ]


def _run_spark_job(executors, events_out=None):
    runtime = RuntimeConfig(executors=executors, events_out=events_out)
    sc = SparkContext(SPEC, runtime=runtime)
    rows = sc.parallelize(list(range(40)), num_partitions=4)
    result = (
        rows.map(lambda x: (x % 4, x))
        .group_by_key(num_partitions=2)
        .map_values(sum)
        .collect()
    )
    sc.close_events()
    return sorted(result), sc


class TestEventLogBasics:
    def test_disabled_sink_records_nothing(self):
        log = EventLog(enabled=False)
        log.emit("QueryStart", query=1)
        log.emit_raw({"event": "TaskEnd"})
        assert log.events == []

    def test_next_id_counts_per_kind(self):
        log = EventLog()
        assert [log.next_id("query"), log.next_id("query")] == [1, 2]
        assert log.next_id("stage") == 1

    def test_global_sink_starts_disabled(self):
        assert get_event_log().enabled is False

    def test_install_none_keeps_current_sink(self):
        with logging_events() as outer:
            with install_event_log(None) as inner:
                assert inner is outer
                get_event_log().emit("QueryStart", query=1)
        assert [e["event"] for e in outer.events] == ["QueryStart"]

    def test_event_types_cover_schema(self):
        assert {"QueryStart", "TaskEnd", "WorkerHeartbeat"} <= EVENT_TYPES


class TestJsonlFile:
    def test_header_carries_schema_version(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _run_spark_job("serial", events_out=str(path))
        first = json.loads(path.read_text().splitlines()[0])
        assert first["event"] == "LogStart"
        assert first["schema_version"] == SCHEMA_VERSION
        assert first["source"] == "repro.obs.events"

    def test_read_events_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _, sc = _run_spark_job("serial", events_out=str(path))
        events = read_events(str(path))
        # The file holds exactly the in-memory stream plus the header.
        assert events[1:] == sc.event_log.events
        kinds = {e["event"] for e in events}
        assert {"QueryStart", "StageSubmitted", "TaskStart", "TaskEnd",
                "ShuffleWrite", "QueryEnd"} <= kinds

    def test_unsupported_schema_version_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _run_spark_job("serial", events_out=str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = SCHEMA_VERSION + 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ReproError, match="schema version"):
            read_events(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "QueryStart", "query": 1}\n')
        with pytest.raises(ReproError, match="LogStart"):
            read_events(str(path))


class TestSchemaEvolution:
    """Version-2 schema (recovery events) reads version-1 logs and fails
    usefully on anything it cannot understand."""

    def test_recovery_event_types_are_in_the_schema(self):
        from repro.obs.events import RECOVERY_EVENT_TYPES

        assert RECOVERY_EVENT_TYPES == {
            "TaskRetried",
            "TaskSpeculated",
            "WorkerBlacklisted",
            "StageRecomputed",
            "QueryRestarted",
        }
        assert RECOVERY_EVENT_TYPES <= EVENT_TYPES

    def test_previous_schema_versions_still_readable(self, tmp_path):
        """Older logs (v1: pre-recovery, v2: pre-cache) carry a subset of
        today's event types, so current readers accept them as-is."""
        from repro.obs.events import MIN_SCHEMA_VERSION

        assert MIN_SCHEMA_VERSION < SCHEMA_VERSION
        for version in range(MIN_SCHEMA_VERSION, SCHEMA_VERSION):
            path = tmp_path / f"v{version}.jsonl"
            _run_spark_job("serial", events_out=str(path))
            lines = path.read_text().splitlines()
            header = json.loads(lines[0])
            header["schema_version"] = version
            path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
            events = read_events(str(path))
            assert events[0]["schema_version"] == version
            assert any(e["event"] == "QueryEnd" for e in events)

    def test_too_old_schema_version_rejected(self, tmp_path):
        from repro.obs.events import MIN_SCHEMA_VERSION

        path = tmp_path / "v0.jsonl"
        _run_spark_job("serial", events_out=str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = MIN_SCHEMA_VERSION - 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ReproError, match="schema version"):
            read_events(str(path))

    def test_unknown_event_type_rejected_with_name_and_line(self, tmp_path):
        path = tmp_path / "future.jsonl"
        _run_spark_job("serial", events_out=str(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "QuantumRebalance", "query": 1}\n')
        with pytest.raises(ReproError) as excinfo:
            read_events(str(path))
        message = str(excinfo.value)
        assert "QuantumRebalance" in message
        assert "newer schema version" in message
        assert "TaskRetried" in message  # the known-types list helps debugging


class TestPairing:
    def test_spark_job_pairs_every_task(self):
        with logging_events() as log:
            _run_spark_job("serial")
        assert check_task_pairing(log.events) == []
        starts = [e for e in log.events if e["event"] == "TaskStart"]
        assert starts and all("partition" in e for e in starts)

    def test_unmatched_start_reported(self):
        events = [
            {"event": "TaskStart", "query": 1, "stage": 1, "task": 0},
            {"event": "TaskEnd", "query": 1, "stage": 1, "task": 0},
            {"event": "TaskStart", "query": 1, "stage": 1, "task": 1},
        ]
        problems = check_task_pairing(events)
        assert len(problems) == 1 and "(1, 1, 1)" in problems[0]


class TestPoolEquivalence:
    """Normalized event streams are identical across executor counts."""

    @needs_fork
    def test_spark_serial_vs_pooled_events(self):
        streams = {}
        for executors in ("serial", 2, 4):
            with logging_events() as log:
                result, _ = _run_spark_job(executors)
            streams[executors] = (result, normalize_events(log.events))
            assert check_task_pairing(log.events) == []
        base_result, base_events = streams["serial"]
        assert base_events
        for executors in (2, 4):
            assert streams[executors][0] == base_result
            assert streams[executors][1] == base_events

    @needs_fork
    def test_core_join_serial_vs_pooled_events(self, tmp_path):
        left, right = _points(), _polygons()
        streams = {}
        for executors in ("serial", 2, 4):
            path = tmp_path / f"join-{executors}.jsonl"
            cfg = JoinConfig(
                method="partitioned",
                runtime=RuntimeConfig(executors=executors, events_out=str(path)),
                num_tiles=8,
            )
            pairs = spatial_join(left, right, config=cfg)
            events = read_events(str(path))
            assert check_task_pairing(events) == []
            streams[executors] = (list(pairs), normalize_events(events))
        base_pairs, base_events = streams["serial"]
        assert any(e["event"] == "TaskEnd" for e in base_events)
        for executors in (2, 4):
            assert streams[executors] == (base_pairs, base_events)

    @needs_fork
    def test_impala_serial_vs_pooled_events(self, tmp_path):
        from repro.hdfs import SimulatedHDFS, write_text

        def run(executors):
            fs = SimulatedHDFS(block_size=2048)
            write_text(
                fs, "/pts.tsv",
                [f"{i}\tPOINT ({i % 10} {i // 10})" for i in range(40)],
            )
            write_text(
                fs, "/poly.tsv",
                ["0\tPOLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"],
            )
            backend = ImpalaBackend(
                SPEC,
                hdfs=fs,
                runtime=RuntimeConfig(
                    executors=executors,
                    events_out=str(tmp_path / f"impala-{executors}.jsonl"),
                ),
            )
            schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
            backend.metastore.create_table("pts", schema, "/pts.tsv")
            backend.metastore.create_table("poly", schema, "/poly.tsv")
            result = backend.execute(
                "SELECT l.id, r.id FROM pts l SPATIAL JOIN poly r "
                "WHERE ST_WITHIN(l.geom, r.geom)"
            )
            backend.close_events()
            events = read_events(str(tmp_path / f"impala-{executors}.jsonl"))
            assert check_task_pairing(events) == []
            return sorted(result.rows), normalize_events(events)

        base_rows, base_events = run("serial")
        assert any(e["event"] == "FragmentEnd" for e in base_events)
        for executors in (2,):
            rows, events = run(executors)
            assert rows == base_rows
            assert events == base_events


class TestDisabledIsNoOp:
    def test_join_without_events_out_emits_nothing(self):
        left, right = _points(80), _polygons()
        sink = get_event_log()
        before = len(sink.events)
        with_events = spatial_join(
            left, right, config=JoinConfig(method="partitioned", num_tiles=8)
        )
        assert len(sink.events) == before
        # and the result matches an events-on run of the same join
        with logging_events() as log:
            with_log = spatial_join(
                left, right,
                config=JoinConfig(method="partitioned", num_tiles=8),
            )
        assert list(with_events) == list(with_log)
        assert any(e["event"] == "QueryEnd" for e in log.events)
