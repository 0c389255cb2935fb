"""Shuffle map stages run their fused chain as one batch, over one parse.

Run inline, a stage batches every fused step of its pipeline: the
partitioned join's sample job parses each side with one
``parse_wkt_column`` call, and each map stage parses and routes its side
with one ``parse_wkt_column`` and one ``route_rows`` call before its
tasks cut their own buckets.  A split is parsed once per
``read_geometry_pairs`` RDD: a map stage over the RDD the sample job
parsed reads its splits again but takes the kept parses, charged as if
it had parsed them.  Under a real pool or a fault plan every task
computes its partition alone (a pool's workers keep their parses to
themselves).  Either way the shuffle moves the same bytes: the store's
blocks (keys, ``charge_bytes`` and row ids per map / reduce pair), the
``ShuffleWrite`` events, each task's ``SHUFFLE_BYTES`` and the
``shuffle.*`` / ``spark.rows_skipped`` counters are pinned to the
per-partition pipeline, and a sample job plus a join over one RDD to
the pipeline that parsed every split in every job: simulated seconds,
every task's counts, ``spark.rows_skipped`` and the ``hdfs.*`` reads.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
import sys

import pytest

from repro.cluster import ClusterSpec
from repro.cluster.model import Resource
from repro.columnar import io as columnar_io
from repro.core.broadcast_join import broadcast_spatial_join, read_geometry_pairs
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import partitioned_spatial_join
from repro.errors import SparkError
from repro.geometry.envelope import Envelope
from repro.hdfs import SimulatedHDFS, split_boundaries, write_text
from repro.index.partitioner import FixedGridPartitioner, SpatialPartitioning, cover_plane
from repro.index.rtree import STRForest, STRtree
from repro.obs.events import normalize_events, read_events
from repro.obs.registry import collecting
from repro.runtime import FaultPlan, RuntimeConfig
from repro.spark import SparkContext
from repro.spark.rdd import FusedPartitionsRDD

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="fork start method unavailable"
)

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)
LEFT, RIGHT = "/data/left.txt", "/data/right.txt"
BLOCK_SIZE = 400
LAYOUT = cover_plane(FixedGridPartitioner(3, 3).partition(Envelope(0, 0, 12, 12)))


def _box(x0, y0, w, h):
    return f"POLYGON (({x0} {y0}, {x0 + w} {y0}, {x0 + w} {y0 + h}, {x0} {y0 + h}, {x0} {y0}))"


def _left_lines(seed=11):
    rng = random.Random(seed)
    lines = []
    for k in range(80):
        x, y = round(rng.uniform(-1, 13), 2), round(rng.uniform(-1, 13), 2)
        kind = k % 4
        if kind == 1:
            wkt = f"LINESTRING ({x} {y}, {round(x + 4.5, 2)} {round(y + 1.5, 2)})"
        elif kind == 2:
            wkt = _box(x, y, 0.6, 0.4)
        else:
            wkt = f"POINT ({x} {y})"
        lines.append(f"{k}\t{wkt}")
    lines[9] = "9"  # no geometry field
    lines[30] = "30\tPOINT (1 2"  # malformed
    lines[51] = "51\tGEOMETRYCOLLECTION (POINT (1 1))"  # joins nothing
    lines[70] = "70\tPOINT (-40 60)"  # far outside every tile's core
    return lines


def _right_lines():
    rows = [_box(i * 4 + 0.5, j * 4 + 0.5, 3.2, 2.9) for i in range(3) for j in range(3)]
    rows += [_box(-1, -1, 14, 14), "LINESTRING (0 0, 12 12)", "POINT (6 6)", "POLYGON ((0 0"]
    return [f"{k}\t{wkt}" for k, wkt in enumerate(rows)]


def _hdfs():
    hdfs = SimulatedHDFS(datanodes=("node0", "node1"), replication=1)
    write_text(hdfs, LEFT, _left_lines(), block_size=BLOCK_SIZE)
    write_text(hdfs, RIGHT, _right_lines(), block_size=BLOCK_SIZE // 4)
    return hdfs


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _partitioned(sc, variant):
    left = read_geometry_pairs(sc, LEFT, 1)
    right = read_geometry_pairs(sc, RIGHT, 1)
    if variant == "derived":
        return partitioned_spatial_join(sc, left, right, SpatialOperator.INTERSECTS)
    return partitioned_spatial_join(
        sc, left, right, SpatialOperator.NEAREST_D, radius=0.7, partitioning=LAYOUT
    )


def shuffle_snapshot(runtime: RuntimeConfig, events_path: str, variant: str) -> dict:
    with collecting() as registry:
        sc = SparkContext(SPEC, hdfs=_hdfs(), runtime=runtime.with_(events_out=events_path))
        pairs = _partitioned(sc, variant).collect()
        sc.close_events()
        counters = sorted(
            (name, value)
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("shuffle.") or name == "spark.rows_skipped"
        )
    blocks = [
        (key, block.keys, block.charge_bytes, block.column.payloads())
        for key, block in sorted(sc._shuffle_store._blocks.items())
    ]
    writes = [
        event
        for event in normalize_events(read_events(events_path))
        if event["event"] == "ShuffleWrite"
    ]
    task_bytes = [
        [task.get(Resource.SHUFFLE_BYTES) for task in stage.tasks]
        for job in sc.job_log
        for stage in job.stages
    ]
    return {
        "pairs": _digest(pairs),
        "blocks": _digest(blocks),
        "num_blocks": len(blocks),
        "shuffle_writes": _digest(writes),
        "task_shuffle_bytes": _digest(task_bytes),
        "counters": counters,
    }


# Taken from the per-partition map stage (one parse and one route per
# map task); see the module docstring.
PINNED = {
    "derived": {
        "pairs": "a819270aeddf0172",
        "blocks": "0d83332cf33f727e",
        "num_blocks": 16,
        "shuffle_writes": "46ef1726a6878a6b",
        "task_shuffle_bytes": "754d3e473ddb8ac4",
        "counters": [
            ("shuffle.blocks_read", 16.0),
            ("shuffle.blocks_written", 16.0),
            ("shuffle.bytes_written", 8520.0),
            ("shuffle.reduce_fetches", 2.0),
            ("spark.rows_skipped", 9.0),
        ],
    },
    "layout": {
        "pairs": "252f8ca380c5cdc8",
        "blocks": "95ad24ebe2092dc5",
        "num_blocks": 109,
        "shuffle_writes": "d66dbb0a489e4ecf",
        "task_shuffle_bytes": "6fa2f351e537c293",
        "counters": [
            ("shuffle.blocks_read", 109.0),
            ("shuffle.blocks_written", 109.0),
            ("shuffle.bytes_written", 17912.0),
            ("shuffle.reduce_fetches", 18.0),
            ("spark.rows_skipped", 4.0),
        ],
    },
}

RUNTIMES = [
    pytest.param(RuntimeConfig(), id="serial"),
    pytest.param(RuntimeConfig(executors=2), id="pool2", marks=needs_fork),
    pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
]


class TestInputShape:
    def test_both_sides_have_several_splits(self):
        hdfs = _hdfs()
        assert len(split_boundaries(hdfs, LEFT, 1)) > 4
        assert len(split_boundaries(hdfs, RIGHT, 1)) > 2


@pytest.mark.parametrize("variant", list(PINNED))
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_shuffle_output_pinned_across_runtimes(tmp_path, runtime, variant):
    assert shuffle_snapshot(runtime, str(tmp_path / "events.jsonl"), variant) == PINNED[variant]


def _spy_calls(monkeypatch, log):
    """Count ``parse_wkt_column`` and the map side's ``route_rows`` calls
    (the owner rule's are the tile stage's), in pool workers too: each
    call appends a line to ``log``."""

    def note(kind, rows):
        with open(log, "a") as out:
            out.write(f"{kind} {rows}\n")

    parse = columnar_io.parse_wkt_column
    route = SpatialPartitioning.route_rows

    def parse_spy(texts, payloads=None):
        note("parse", len(texts))
        return parse(texts, payloads)

    def route_spy(self, *bounds, **kwargs):
        if sys._getframe(1).f_code.co_name != "owned_pairs":
            note("route", len(bounds[0]))
        return route(self, *bounds, **kwargs)

    monkeypatch.setattr(columnar_io, "parse_wkt_column", parse_spy)
    monkeypatch.setattr(SpatialPartitioning, "route_rows", route_spy)

    def calls(kind):
        with open(log) as lines:
            return [int(line.split()[1]) for line in lines if line.split()[0] == kind]

    return calls


class TestOneCallPerStage:
    def test_serial_join_parses_and_routes_once_per_side_per_stage(self, monkeypatch, tmp_path):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        sc = SparkContext(SPEC, hdfs=_hdfs())
        left_rows, right_rows = len(_left_lines()) - 1, len(_right_lines())
        # A sample job: one parse of the whole side.
        assert read_geometry_pairs(sc, LEFT, 1).sample(0.3).collect()
        assert calls("parse") == [left_rows]
        _partitioned(sc, "layout").collect()
        # Then the left and right map stages: one parse and one route each,
        # over the rows that parsed.
        assert calls("parse") == [left_rows, left_rows, right_rows]
        assert calls("route") == [left_rows - 2, right_rows - 1]

    @pytest.mark.parametrize(
        "runtime",
        [
            pytest.param(RuntimeConfig(executors=2), id="pool2", marks=needs_fork),
            pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
        ],
    )
    def test_every_task_computes_alone_under_a_pool_or_plan(self, monkeypatch, tmp_path, runtime):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        hdfs = _hdfs()
        sc = SparkContext(SPEC, hdfs=hdfs, runtime=runtime)
        _partitioned(sc, "layout").collect()
        left_splits = len(split_boundaries(hdfs, LEFT, sc.default_parallelism))
        right_splits = len(split_boundaries(hdfs, RIGHT, sc.default_parallelism))
        # No sample job: the layout is given.  One parse and one route per map task.
        assert len(calls("parse")) == left_splits + right_splits
        assert len(calls("route")) == left_splits + right_splits

    def test_broadcast_probe_stage_parses_once(self, monkeypatch, tmp_path):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        sc = SparkContext(SPEC, hdfs=_hdfs())
        left = read_geometry_pairs(sc, LEFT, 1)
        right = read_geometry_pairs(sc, RIGHT, 1)
        broadcast_spatial_join(sc, left, right, SpatialOperator.INTERSECTS).collect()
        assert calls("parse") == [len(_right_lines()), len(_left_lines()) - 1]


class TestFailuresAndCaches:
    def test_a_stage_failing_mid_prefetch_leaves_no_outcome_upstream(self):
        sc = SparkContext(SPEC, hdfs=_hdfs())
        left = read_geometry_pairs(sc, LEFT, 1)
        right = read_geometry_pairs(sc, RIGHT, 1)

        def fatal(record):
            if record[0] == 5:
                raise SparkError("bad right row")
            return record

        joined = partitioned_spatial_join(
            sc, left, right.map(fatal), SpatialOperator.INTERSECTS, partitioning=LAYOUT
        )
        right_routed = joined._narrow_parent().right_dep.parent
        assert isinstance(right_routed, FusedPartitionsRDD)
        with pytest.raises(SparkError, match="bad right row"):
            joined.collect()
        # The right map stage prefetched the parse of every split, then
        # stopped routing at the failing one: nothing may be left over
        # for a later job to mistake for its own.
        assert right._prefetched == {} and right_routed._prefetched == {}
        assert right_routed._upstream is None
        # A later job over the parse computes (and charges) every split.
        fresh = SparkContext(SPEC, hdfs=_hdfs())
        assert right.count() == read_geometry_pairs(fresh, RIGHT, 1).count()
        assert sc.job_log[-1].stages[-1].tasks == fresh.job_log[-1].stages[-1].tasks

    def test_a_cached_parse_is_never_prefetched(self, monkeypatch, tmp_path):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        seen = []
        prefetch = FusedPartitionsRDD.prefetch
        monkeypatch.setattr(
            FusedPartitionsRDD,
            "prefetch",
            lambda self, partitions, tasks: (seen.append(self), prefetch(self, partitions, tasks)),
        )
        hdfs = _hdfs()
        sc = SparkContext(SPEC, hdfs=hdfs)
        left = read_geometry_pairs(sc, LEFT, 1).cache()
        right = read_geometry_pairs(sc, RIGHT, 1)
        pairs = broadcast_spatial_join(sc, left, right, SpatialOperator.INTERSECTS).collect()
        assert left not in seen and right in seen
        # The right side in one batch, then every left split alone, once.
        splits = len(split_boundaries(hdfs, LEFT, sc.default_parallelism))
        assert len(calls("parse")) == 1 + splits
        uncached = SparkContext(SPEC, hdfs=_hdfs())
        assert pairs == broadcast_spatial_join(
            uncached,
            read_geometry_pairs(uncached, LEFT, 1),
            read_geometry_pairs(uncached, RIGHT, 1),
            SpatialOperator.INTERSECTS,
        ).collect()


# -- one parse per split, per RDD --------------------------------------------


def _sample_then_join(sc, variant):
    """An ``ss_part``-shaped query: jobs over one parse of each side."""
    left = read_geometry_pairs(sc, LEFT, 1)
    right = read_geometry_pairs(sc, RIGHT, 1)
    if variant == "derived":
        # The skew-aware layout samples both sides first.
        return partitioned_spatial_join(sc, left, right, SpatialOperator.INTERSECTS).collect()
    assert left.sample(0.3).collect()
    return partitioned_spatial_join(
        sc, left, right, SpatialOperator.NEAREST_D, radius=0.7, partitioning=LAYOUT
    ).collect()


def parse_once_snapshot(runtime: RuntimeConfig, variant: str) -> dict:
    with collecting() as registry:
        sc = SparkContext(SPEC, hdfs=_hdfs(), runtime=runtime)
        pairs = _sample_then_join(sc, variant)
        counters = [
            (name, registry.counter(name))
            for name in ("spark.rows_skipped", "hdfs.reads", "hdfs.bytes_read")
        ]
    return {
        "pairs": _digest(pairs),
        "simulated_seconds": sc.simulated_seconds().hex(),
        "task_counts": _digest(
            [[task.counts for task in stage.tasks] for job in sc.job_log for stage in job.stages]
        ),
        "counters": counters,
    }


# Taken from the pipeline that parses every split in every job.
PARSE_ONCE_PINNED = {
    "derived": {
        "pairs": "a819270aeddf0172",
        "simulated_seconds": "0x1.4f0e59ca76b14p+4",
        "task_counts": "84e7e2f5b4622cb2",
        "counters": [
            ("spark.rows_skipped", 9.0),
            ("hdfs.reads", 203.0),
            ("hdfs.bytes_read", 88978.0),
        ],
    },
    "layout": {
        "pairs": "252f8ca380c5cdc8",
        "simulated_seconds": "0x1.21db4a3e11b38p+4",
        "task_counts": "f9033dd20b4431a3",
        "counters": [
            ("spark.rows_skipped", 7.0),
            ("hdfs.reads", 145.0),
            ("hdfs.bytes_read", 78680.0),
        ],
    },
}


@pytest.mark.parametrize("variant", ["derived", "layout"])
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_parse_once_charges_pinned_across_runtimes(runtime, variant):
    assert parse_once_snapshot(runtime, variant) == PARSE_ONCE_PINNED[variant]


class TestOneParsePerSplit:
    def test_serial_sample_job_and_join_parse_each_side_once(self, monkeypatch, tmp_path):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        sc = SparkContext(SPEC, hdfs=_hdfs())
        left_rows, right_rows = len(_left_lines()) - 1, len(_right_lines())
        _sample_then_join(sc, "layout")
        # The sample job parses the left side; its map stage reads the
        # splits again and takes that parse; the right side is parsed by
        # its own map stage.
        assert calls("parse") == [left_rows, right_rows]
        assert calls("route") == [left_rows - 2, right_rows - 1]

    def test_derived_layout_samples_and_maps_over_one_parse(self, monkeypatch, tmp_path):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        sc = SparkContext(SPEC, hdfs=_hdfs())
        _sample_then_join(sc, "derived")
        assert calls("parse") == [len(_left_lines()) - 1, len(_right_lines())]

    @pytest.mark.parametrize(
        "runtime, left_parses",
        [
            # A pool's workers keep their parses to themselves: every map
            # task parses its split again, as every task did before.
            pytest.param(RuntimeConfig(executors=2), 2, id="pool2", marks=needs_fork),
            # Tasks run one by one in this process: the sample job's
            # parses are kept for the map stage.
            pytest.param(RuntimeConfig(fault_plan=FaultPlan()), 1, id="empty-plan"),
        ],
    )
    def test_a_pool_or_plan_parses_once_per_task(self, monkeypatch, tmp_path, runtime, left_parses):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        hdfs = _hdfs()
        sc = SparkContext(SPEC, hdfs=hdfs, runtime=runtime)
        _sample_then_join(sc, "layout")
        left_splits = len(split_boundaries(hdfs, LEFT, sc.default_parallelism))
        right_splits = len(split_boundaries(hdfs, RIGHT, sc.default_parallelism))
        parses = calls("parse")
        assert len(parses) == left_parses * left_splits + right_splits
        # Each call is one split's rows: no task parses another's.
        assert sum(parses) == left_parses * (len(_left_lines()) - 1) + len(_right_lines())

    def test_a_failed_parse_is_not_kept(self, monkeypatch, tmp_path):
        hdfs = _hdfs()
        sc = SparkContext(SPEC, hdfs=hdfs)
        left = read_geometry_pairs(sc, LEFT, 1)
        parse = columnar_io.parse_wkt_column

        def broken(texts, payloads=None):
            raise SparkError("parse failed")

        monkeypatch.setattr(columnar_io, "parse_wkt_column", broken)
        with pytest.raises(SparkError, match="parse failed"):
            left.count()
        monkeypatch.setattr(columnar_io, "parse_wkt_column", parse)
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        assert left.count() == len(_left_lines()) - 3
        assert calls("parse") == [len(_left_lines()) - 1]


class TestOneForestPerTileStage:
    def test_the_tile_stage_builds_one_forest_and_no_tree(self, monkeypatch):
        built = []
        forest_init, from_bounds = STRForest.__init__, STRtree.from_bounds.__func__

        def forest_spy(self, bounds, counts, *args, **kwargs):
            built.append(("forest", len(counts)))
            forest_init(self, bounds, counts, *args, **kwargs)

        def tree_spy(cls, *args, **kwargs):
            built.append(("tree", 1))
            return from_bounds(cls, *args, **kwargs)

        monkeypatch.setattr(STRForest, "__init__", forest_spy)
        monkeypatch.setattr(STRtree, "from_bounds", classmethod(tree_spy))
        with collecting() as registry:
            _sample_then_join(SparkContext(SPEC, hdfs=_hdfs()), "layout")
            joined = registry.counter("partitioned.tiles_joined")
        # One forest of one tree per joined tile, in place of a tree per tile.
        assert joined > 1 and built == [("forest", joined)]


def _swapped(line: str) -> str:
    """A POINT line with its coordinates swapped: the same length, so
    the file's other splits keep their lines."""
    record, wkt = line.split("\t")
    x, y = wkt[len("POINT (") : -1].split()
    return f"{record}\tPOINT ({y} {x})"


def test_a_file_replaced_between_jobs_reads_the_new_lines(monkeypatch, tmp_path):
    calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
    hdfs = _hdfs()
    with collecting() as registry:
        sc = SparkContext(SPEC, hdfs=hdfs)
        left = read_geometry_pairs(sc, LEFT, 1)
        before = left.collect()
        lines = _left_lines()
        lines[40] = _swapped(lines[40])
        write_text(hdfs, LEFT, lines, block_size=BLOCK_SIZE)
        after = left.collect()
        skipped = registry.counter("spark.rows_skipped")
    assert after != before
    fresh = SparkContext(SPEC, hdfs=hdfs)
    assert after == read_geometry_pairs(fresh, LEFT, 1).collect()
    # The rewrite made a new FileStatus, so the second job parses every
    # split anew, in one call.
    assert len(calls("parse")) == 3 and calls("parse")[0] == len(_left_lines()) - 1
    assert {
        "rows": _digest((before, after)),
        "simulated_seconds": sc.simulated_seconds().hex(),
        "task_counts": _digest(
            [[task.counts for task in stage.tasks] for job in sc.job_log for stage in job.stages]
        ),
        "rows_skipped": skipped,
    } == REPLACED_PINNED


# Taken from the pipeline that parses every split in every job.
REPLACED_PINNED = {
    "rows": "f2599ceefa9d53d3",
    "simulated_seconds": "0x1.c9f5dfeb8d823p+3",
    "task_counts": "a680e83857d2149a",
    "rows_skipped": 6.0,
}
