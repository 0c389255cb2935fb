"""The replay-driven monitor: timelines, stage tables, stragglers."""

import multiprocessing

import pytest

from repro.core import JoinConfig, spatial_join
from repro.data.hotspot import generate_hotspot
from repro.obs.events import logging_events, read_events
from repro.obs.monitor import (
    TaskRecord,
    detect_stragglers,
    monitor_report,
    parse_tasks,
    render_stage_summary,
    render_stragglers,
    render_timelines,
    render_utilization,
    stage_names,
)
from repro.runtime import RuntimeConfig

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="fork start method unavailable"
)


def _task(query=1, stage=1, task=0, partition=0, worker=None, pid=100,
          t0=0.0, t1=1.0, sim=1.0):
    return TaskRecord(
        query=query, stage=stage, task=task, partition=partition,
        label=f"task-{task}", worker=worker, pid=pid,
        wall_start=t0, wall_end=t1, sim_seconds=sim,
    )


def _hotspot_events(executors="serial", tmp_path=None, name="events"):
    """A seeded skewed join whose hot tiles survive into the task plan.

    Probe side uniform (so the sort-tile grid stays uniform), build side
    the three-Gaussian hotspot dataset, and hot-tile splitting disabled —
    the tiles under the spots cost ~30x the median tile.
    """
    import random

    from repro.data.taxi import NYC_EXTENT
    from repro.geometry.point import Point

    rng = random.Random(20150403)
    extent = NYC_EXTENT
    left = [
        (
            i,
            Point(
                rng.uniform(extent.min_x, extent.max_x),
                rng.uniform(extent.min_y, extent.max_y),
            ),
        )
        for i in range(600)
    ]
    right = generate_hotspot(600, seed=7).records
    runtime = RuntimeConfig(executors=executors)
    cfg = JoinConfig(
        operator="nearestd",
        radius=800.0,
        method="partitioned",
        runtime=runtime,
        num_tiles=16,
        skew_factor=1e9,  # never split: the straggler must stay visible
    )
    if tmp_path is not None:
        path = str(tmp_path / f"{name}.jsonl")
        spatial_join(left, right, config=cfg, runtime=runtime.with_(events_out=path))
        return read_events(path)
    with logging_events() as log:
        spatial_join(left, right, config=cfg)
    return log.events


class TestParseTasks:
    def test_joins_start_end_pairs(self):
        events = [
            {"event": "TaskStart", "query": 1, "stage": 1, "task": 0,
             "partition": 3, "label": "tile-3", "worker": 0, "pid": 42,
             "wall_start": 1.0},
            {"event": "TaskEnd", "query": 1, "stage": 1, "task": 0,
             "partition": 3, "label": "tile-3", "worker": 0, "pid": 42,
             "wall_end": 2.5, "sim_seconds": 7.0, "counters": {"rows_out": 3.0},
             "failures": 0},
        ]
        (record,) = parse_tasks(events)
        assert record.partition == 3
        assert record.wall_start == 1.0 and record.wall_end == 2.5
        assert record.sim_seconds == 7.0
        assert record.lane == "worker-0 (pid 42)"

    def test_fragments_fold_into_synthetic_stage(self):
        events = [
            {"event": "FragmentStart", "query": 1, "fragment": 2,
             "worker": None, "pid": 9, "wall_start": 0.0},
            {"event": "FragmentEnd", "query": 1, "fragment": 2,
             "worker": None, "pid": 9, "wall_end": 1.0, "sim_seconds": 0.5},
        ]
        (record,) = parse_tasks(events)
        assert record.stage == "fragments"
        assert record.label == "fragment-2"
        assert record.lane == "driver"

    def test_unpaired_start_dropped(self):
        events = [
            {"event": "TaskStart", "query": 1, "stage": 1, "task": 0},
        ]
        assert parse_tasks(events) == []


class TestStragglerDetection:
    def test_flags_tasks_over_k_times_median(self):
        tasks = [_task(task=i, partition=i, sim=1.0) for i in range(4)]
        tasks.append(_task(task=4, partition=9, sim=5.0))
        (found,) = detect_stragglers(tasks, k=2.0)
        assert found["task"] == 4 and found["partition"] == 9
        assert found["ratio"] == pytest.approx(5.0)

    def test_no_stragglers_in_uniform_stage(self):
        tasks = [_task(task=i, sim=1.0) for i in range(4)]
        assert detect_stragglers(tasks, k=2.0) == []

    def test_single_task_stage_never_flagged(self):
        assert detect_stragglers([_task(sim=100.0)], k=2.0) == []

    def test_hotspot_join_flags_hot_tiles(self):
        events = _hotspot_events()
        tasks = parse_tasks(events)
        found = detect_stragglers(tasks, k=2.0)
        assert found, "hotspot workload must produce stragglers"
        # The worst straggler is a hot tile: way above the stage median.
        assert found[0]["ratio"] > 2.0
        assert found[0]["partition"] is not None

    def test_hotspot_straggler_report_is_deterministic(self):
        first = _hotspot_events()
        second = _hotspot_events()
        names = stage_names(first)
        text_a = render_stragglers(
            detect_stragglers(parse_tasks(first), k=2.0), 2.0, names
        )
        text_b = render_stragglers(
            detect_stragglers(parse_tasks(second), k=2.0), 2.0,
            stage_names(second),
        )
        assert text_a == text_b
        assert "partition=" in text_a

    @needs_fork
    def test_pooled_run_flags_same_stragglers(self, tmp_path):
        serial = _hotspot_events("serial", tmp_path, "serial")
        pooled = _hotspot_events(2, tmp_path, "pooled")
        keyed = lambda events: [  # noqa: E731
            (s["stage"], s["task"], s["partition"], round(s["ratio"], 9))
            for s in detect_stragglers(parse_tasks(events), k=2.0)
        ]
        assert keyed(serial) == keyed(pooled)
        assert keyed(serial)


class TestRenderers:
    def test_stage_summary_has_percentiles(self):
        tasks = [_task(task=i, sim=float(i + 1)) for i in range(10)]
        text = render_stage_summary(tasks)
        assert "p50" in text and "p95" in text and "skew" in text
        assert "q1/1" in text

    def test_timeline_one_lane_per_worker(self):
        tasks = [
            _task(task=0, worker=0, pid=10, t0=0.0, t1=1.0),
            _task(task=1, worker=1, pid=11, t0=0.5, t1=2.0),
            _task(task=2, worker=None, pid=1, t0=0.0, t1=0.5),
        ]
        text = render_timelines(tasks)
        assert "worker-0 (pid 10)" in text
        assert "worker-1 (pid 11)" in text
        assert "driver" in text
        assert "█" in text

    def test_empty_log_renders_placeholders(self):
        assert "no wall-clock" in render_timelines([])
        assert "no completed tasks" in render_stage_summary([])
        assert "none" in render_stragglers([], 2.0)
        assert "no wall-clock" in render_utilization([])

    def test_utilization_reports_idle_gap(self):
        tasks = [
            _task(task=0, t0=0.0, t1=1.0),
            _task(task=1, t0=3.0, t1=4.0),
        ]
        text = render_utilization(tasks)
        assert "busy 50%" in text
        assert "idle gap 2000.0 ms" in text


class TestMonitorReport:
    def test_full_report_sections(self):
        events = _hotspot_events()
        report = monitor_report(events)
        assert "stage summary (simulated seconds)" in report
        assert "wall-clock timeline" in report
        assert "stragglers (> 2x stage median):" in report
        assert "utilization (wall clock)" in report
        assert "query 1:" in report and "spatial-join" in report

    @needs_fork
    def test_pooled_report_shows_worker_lanes_and_heartbeats(self, tmp_path):
        events = _hotspot_events(2, tmp_path, "lanes")
        report = monitor_report(events)
        # Which worker won a task is the pool's business (on a busy host
        # one worker can take them all): every lane the log holds must be
        # drawn, and a pooled run must hold at least one worker lane.
        lanes = {record.lane for record in parse_tasks(events)}
        worker_lanes = {lane for lane in lanes if lane.startswith("worker-")}
        assert worker_lanes
        for lane in lanes:
            assert lane in report
        assert "worker heartbeat(s) from" in report


class TestGracefulDegrade:
    """Empty or zero-task logs must degrade, not crash (or print four
    empty placeholder tables)."""

    def test_empty_log(self):
        report = monitor_report([])
        assert report == "no tasks recorded"

    def test_header_only_log(self):
        events = [
            {"event": "LogStart", "schema": 3},
            {"event": "QueryStart", "query": 1, "name": "spatial-join",
             "engine": "spark"},
            {"event": "QueryEnd", "query": 1, "name": "spatial-join",
             "sim_seconds": 1.25, "rows": 0},
        ]
        report = monitor_report(events)
        assert "no tasks recorded" in report
        assert "query 1: spatial-join [spark]" in report
        assert "stage summary" not in report

    def test_null_numeric_fields_treated_as_missing(self):
        events = [
            {"event": "TaskStart", "query": 1, "stage": 1, "task": 0,
             "partition": 0, "wall_start": None},
            {"event": "TaskEnd", "query": 1, "stage": 1, "task": 0,
             "partition": 0, "wall_end": None, "sim_seconds": None,
             "counters": None, "failures": None},
        ]
        (record,) = parse_tasks(events)
        assert record.sim_seconds == 0.0
        assert record.wall_start == 0.0 and record.wall_end == 0.0
        assert monitor_report(events)  # renders without raising

    def test_null_fragment_fields(self):
        events = [
            {"event": "FragmentStart", "query": 1, "fragment": 0,
             "wall_start": None},
            {"event": "FragmentEnd", "query": 1, "fragment": 0,
             "wall_end": None, "sim_seconds": None},
        ]
        (record,) = parse_tasks(events)
        assert record.sim_seconds == 0.0
        assert monitor_report(events)
