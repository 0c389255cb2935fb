"""An inline stage carries one batch through its fused chain.

The loader's parse hands its one column straight to the broadcast
join's probe (``ss``) or the partitioned join's route (``ss_part``'s map
side); every task is charged every step's units at once, as one table,
and the stage is cut per task once, at the end.  Whatever the
partitioning — empty partitions, partitions whose every row is dropped,
malformed WKT, mixed geometry types, a fractional ``cost_weight`` — each
task's records and ``TaskMetrics.counts`` (keys in order, float bits)
must be those of its partition computed alone, as a task under a fault
plan computes it.  An inline serial ``ss`` query cuts and concatenates
no column, and a 2-worker pool or an empty fault plan computes every
task as before.  An inline serial ``ss`` or ``ss_part`` query hands
no task to the dispatcher (no ``run_tasks`` call), with an event log or
a tracer on as well; their TaskEnd, ShuffleWrite and span carry the
counts and prices the stage's one pricing table made.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.cluster.metrics import TaskMetrics
from repro.columnar import GeometryColumn
from repro.columnar import io as columnar_io
from repro.core.broadcast_join import broadcast_spatial_join, read_geometry_pairs
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import partitioned_spatial_join
from repro.geometry.envelope import Envelope
from repro.hdfs import SimulatedHDFS, write_text
from repro.index.partitioner import FixedGridPartitioner, cover_plane
from repro.obs.events import read_events
from repro.obs.registry import collecting
from repro.obs.tracer import tracing
from repro.runtime import FaultPlan, RuntimeConfig
from repro.spark import SparkContext, scheduler
from repro.spark.rdd import StageBatch

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="fork start method unavailable"
)

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)
LEFT, RIGHT = "/data/left.txt", "/data/right.txt"
LAYOUT = cover_plane(FixedGridPartitioner(3, 3).partition(Envelope(0, 0, 12, 12)))
SERIAL, PLAN = RuntimeConfig(), RuntimeConfig(fault_plan=FaultPlan())

_COORD = st.integers(-4, 52).map(lambda v: v / 4)


@st.composite
def _wkt(draw):
    x, y = draw(_COORD), draw(_COORD)
    kind = draw(st.sampled_from(["point", "point", "line", "box", "bad", "collection"]))
    if kind == "point":
        return f"POINT ({x} {y})"
    if kind == "line":
        return f"LINESTRING ({x} {y}, {x + 1.5} {y + 0.5}, {x + 2} {y - 1})"
    if kind == "box":
        return f"POLYGON (({x} {y}, {x + 1} {y}, {x + 1} {y + 1}, {x} {y + 1}, {x} {y}))"
    if kind == "bad":
        return draw(st.sampled_from(["POINT (1 2", "garbage", "", "LINESTRING (0 0)"]))
    return "GEOMETRYCOLLECTION (POINT (1 1))"


@st.composite
def _left_lines(draw):
    """A left file's lines: rows of every kind, some without a geometry
    field, and a run whose every row is dropped."""
    lines = []
    for record in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(str(record))  # no geometry field
        else:
            lines.append(f"{record}\t{draw(_wkt())}")
    if draw(st.booleans()):
        lines += [f"{len(lines) + k}\tgarbage" for k in range(draw(st.integers(1, 6)))]
    return lines


def _right_lines():
    rows = [
        f"POLYGON (({i * 4} {j * 4}, {i * 4 + 4} {j * 4}, {i * 4 + 4} {j * 4 + 4}, "
        f"{i * 4} {j * 4 + 4}, {i * 4} {j * 4}))"
        for i in range(3)
        for j in range(3)
    ]
    return [f"{k}\t{wkt}" for k, wkt in enumerate(rows)]


def _hdfs(left_lines, block_size):
    hdfs = SimulatedHDFS(datanodes=("node0", "node1"), replication=1)
    # A small block size makes many splits, some of them owning no line.
    write_text(hdfs, LEFT, left_lines, block_size=block_size)
    write_text(hdfs, RIGHT, _right_lines(), block_size=97)
    return hdfs


def _radius(operator):
    return 0.7 if operator.needs_radius else 0.0


def _ss_chain(sc, cost_weight, operator):
    left = read_geometry_pairs(sc, LEFT, 1, cost_weight=cost_weight)
    right = read_geometry_pairs(sc, RIGHT, 1)
    return broadcast_spatial_join(sc, left, right, operator, radius=_radius(operator))


def _route_chain(sc, cost_weight, operator):
    """The partitioned join's left map side (parse → route), run as a
    result stage: each task's routed ``(tile, record id)`` records."""
    left = read_geometry_pairs(sc, LEFT, 1, cost_weight=cost_weight)
    right = read_geometry_pairs(sc, RIGHT, 1)
    joined = partitioned_spatial_join(
        sc, left, right, operator, radius=_radius(operator), partitioning=LAYOUT
    )
    routed = joined._narrow_parent().left_dep.parent
    return routed.map_partitions(lambda records: [(tile, row[0]) for tile, row in records])


def _tasks(runtime, hdfs, chain, cost_weight, operator):
    """Each task of the chain's stage: its records and its counts, keys
    in order and values as float bits; with the ``spark.rows_skipped``
    the stage counted."""
    with collecting() as registry:
        sc = SparkContext(SPEC, hdfs=hdfs, runtime=runtime)
        rdd = chain(sc, cost_weight, operator)
        records = sc._scheduler.run_job(rdd, list)
        skipped = registry.counter("spark.rows_skipped")
    counts = [
        [(key, value.hex()) for key, value in task.counts.items()]
        for task in sc.job_log[-1].stages[-1].tasks
    ]
    return list(zip(records, counts)), skipped


_OPERATORS = st.sampled_from(
    [SpatialOperator.INTERSECTS, SpatialOperator.WITHIN, SpatialOperator.NEAREST_D]
)
_WEIGHTS = st.sampled_from([1.0, 0.37, 1.9])


class TestABatchIsItsPartitionsAlone:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_left_lines(), st.integers(16, 160), _WEIGHTS, _OPERATORS)
    def test_ss_chain_parse_then_probe(self, lines, block_size, cost_weight, operator):
        batched = _tasks(SERIAL, _hdfs(lines, block_size), _ss_chain, cost_weight, operator)
        alone = _tasks(PLAN, _hdfs(lines, block_size), _ss_chain, cost_weight, operator)
        assert batched == alone

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(_left_lines(), st.integers(16, 160), _WEIGHTS, _OPERATORS)
    def test_ss_part_map_chain_parse_then_route(self, lines, block_size, cost_weight, operator):
        batched = _tasks(SERIAL, _hdfs(lines, block_size), _route_chain, cost_weight, operator)
        alone = _tasks(PLAN, _hdfs(lines, block_size), _route_chain, cost_weight, operator)
        assert batched == alone


# -- spies ---------------------------------------------------------------------


def _fixed_lines():
    return [
        f"{k}\t" + ("POINT ({} {})" if k % 3 else "LINESTRING ({} {}, 6 6)").format(
            (k * 7) % 13, (k * 5) % 11
        )
        for k in range(60)
    ] + ["60\tgarbage", "61"]


class TestOneBatchPerInlineStage:
    def test_an_inline_ss_query_cuts_and_concatenates_no_column(self, monkeypatch):
        calls = Counter()
        cut, concat = GeometryColumn.cut, GeometryColumn.concat.__func__

        def cut_spy(self, *args):
            calls["cut"] += 1
            return cut(self, *args)

        def concat_spy(cls, columns):
            calls["concat"] += 1
            return concat(cls, columns)

        monkeypatch.setattr(GeometryColumn, "cut", cut_spy)
        monkeypatch.setattr(GeometryColumn, "concat", classmethod(concat_spy))
        sc = SparkContext(SPEC, hdfs=_hdfs(_fixed_lines(), 64))
        pairs = _ss_chain(sc, 1.0, SpatialOperator.INTERSECTS).collect()
        assert pairs and calls == Counter()

    def test_each_task_is_charged_once(self, monkeypatch):
        # One table charge per fused stage covers every task; no task is
        # charged on its own with add_columns.
        tables = []
        per_task = Counter()
        charge, add_columns = StageBatch.charge, TaskMetrics.add_columns

        def charge_spy(self, tasks):
            tables.append([id(task) for task in tasks])
            return charge(self, tasks)

        def add_columns_spy(self, units):
            per_task[id(self)] += 1
            return add_columns(self, units)

        monkeypatch.setattr(StageBatch, "charge", charge_spy)
        monkeypatch.setattr(TaskMetrics, "add_columns", add_columns_spy)
        sc = SparkContext(SPEC, hdfs=_hdfs(_fixed_lines(), 64))
        _ss_chain(sc, 1.0, SpatialOperator.INTERSECTS).collect()
        # Four jobs: a size job per side, the right side's collect, the join.
        _, _, collect, join = sc.job_log
        assert not per_task
        assert len(tables) == 2
        for job, table in zip((collect, join), tables):
            tasks = job.stages[-1].tasks
            assert len(tasks) > 4
            assert table == [id(task) for task in tasks]


@pytest.mark.parametrize(
    "runtime",
    [
        pytest.param(RuntimeConfig(executors=2), id="pool2", marks=needs_fork),
        pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
    ],
)
@pytest.mark.parametrize("chain", [_ss_chain, _route_chain], ids=["ss", "ss_part-map"])
def test_a_pool_or_plan_computes_every_task_as_the_batch_does(runtime, chain):
    lines = _fixed_lines()
    serial = _tasks(SERIAL, _hdfs(lines, 64), chain, 0.37, SpatialOperator.INTERSECTS)
    assert len(serial[0]) > 4
    assert _tasks(runtime, _hdfs(lines, 64), chain, 0.37, SpatialOperator.INTERSECTS) == serial


def test_a_stage_over_part_of_a_kept_batch_parses_anew(monkeypatch):
    """A job over two splits keeps their parses as one batch; the join's
    stage over every split is not a run of that batch's members, so it
    parses every split in one call and charges every task as parsing it."""
    calls = Counter()
    parse = columnar_io.parse_wkt_column

    def spy(texts, record_ids):
        calls[len(texts)] += 1
        return parse(texts, record_ids)

    monkeypatch.setattr(columnar_io, "parse_wkt_column", spy)

    def after_a_job_over_two_splits(sc, cost_weight, operator):
        joined = _ss_chain(sc, cost_weight, operator)
        sc._scheduler.run_job(joined._narrow_parent(), list, partitions=[1, 3])
        return joined

    lines = _fixed_lines()
    fresh = _tasks(SERIAL, _hdfs(lines, 64), _ss_chain, 0.37, SpatialOperator.WITHIN)
    calls.clear()
    kept = _tasks(
        SERIAL, _hdfs(lines, 64), after_a_job_over_two_splits, 0.37, SpatialOperator.WITHIN
    )
    assert len(fresh[0]) > 4 and kept[0] == fresh[0]
    # The right side, the two splits, then every left split again.
    texts = len(lines) - 1
    assert calls[texts] == 1 and sum(calls.values()) == 3


def _ss_query(sc):
    return _ss_chain(sc, 1.0, SpatialOperator.WITHIN).collect()


def _ss_part_query(sc):
    """The partitioned join as a query runs it: a sample job over the
    left side, then the join over both sides' parses."""
    left = read_geometry_pairs(sc, LEFT, 1)
    right = read_geometry_pairs(sc, RIGHT, 1)
    left.sample(0.3).collect()
    return partitioned_spatial_join(
        sc, left, right, SpatialOperator.WITHIN, partitioning=LAYOUT
    ).collect()


QUERIES = [pytest.param(_ss_query, id="ss"), pytest.param(_ss_part_query, id="ss_part")]


def _run_query(query, runtime=SERIAL):
    """The query's pairs, and every task of every stage of its jobs in
    order: ``(stage name, task index, counts as bits, seconds as bits)``,
    seconds with the JVM factor, as a TaskEnd carries them."""
    sc = SparkContext(SPEC, hdfs=_hdfs(_fixed_lines(), 64), runtime=runtime)
    pairs = query(sc)
    sc.close_events()
    jvm = sc.cost_model.spark_jvm_factor
    tasks = [
        (stage.name, index, [(k, v.hex()) for k, v in task.counts.items()], (s * jvm).hex())
        for job in sc.job_log
        for stage in job.stages
        for index, (task, s) in enumerate(zip(stage.tasks, stage.task_seconds(sc.cost_model)))
    ]
    return sc, pairs, tasks


def _plain(query, tmp_path):
    return _run_query(query)


def _event_logged(query, tmp_path):
    return _run_query(query, SERIAL.with_(events_out=str(tmp_path / "events.jsonl")))


def _traced(query, tmp_path):
    with tracing():
        return _run_query(query)


@pytest.mark.parametrize(
    "query, observe",
    [
        pytest.param(_ss_query, _plain, id="ss"),
        pytest.param(_ss_part_query, _plain, id="ss_part"),
        pytest.param(_ss_query, _event_logged, id="ss-events"),
        pytest.param(_ss_part_query, _event_logged, id="ss_part-events"),
        pytest.param(_ss_query, _traced, id="ss-traced"),
        pytest.param(_ss_part_query, _traced, id="ss_part-traced"),
    ],
)
def test_an_inline_serial_query_runs_no_task_on_its_own(query, observe, monkeypatch, tmp_path):
    # An event log or a tracer adds a span and TaskStart / TaskEnd to
    # each task; the stage still runs its tasks in the inline loop.
    calls = Counter()
    dispatch = scheduler.run_tasks
    monkeypatch.setattr(
        scheduler,
        "run_tasks",
        lambda *args, **kwargs: calls.update(["run_tasks"]) or dispatch(*args, **kwargs),
    )
    sc, pairs, tasks = observe(query, tmp_path)
    assert pairs and len(tasks) > 20
    assert calls == Counter()


@pytest.mark.parametrize("query", QUERIES)
def test_an_event_log_sees_every_task_the_table_ran(query, tmp_path):
    table, pairs, tasks = _run_query(query)
    path = str(tmp_path / "events.jsonl")
    logged, logged_pairs, logged_tasks = _run_query(query, SERIAL.with_(events_out=path))
    assert logged_pairs == pairs and logged_tasks == tasks
    assert logged._scheduler.stage_summaries == table._scheduler.stage_summaries
    assert logged.simulated_seconds().hex() == table.simulated_seconds().hex()
    events = read_events(path)
    starts = [e for e in events if e["event"] == "TaskStart"]
    ends = [
        ([(k, float(v).hex()) for k, v in e["counters"].items()], float(e["sim_seconds"]).hex())
        for e in events
        if e["event"] == "TaskEnd"
    ]
    assert len(starts) == len(tasks)
    assert ends == [(counts, seconds) for _, _, counts, seconds in tasks]
    writes = [(e["task"], float(e["bytes"])) for e in events if e["event"] == "ShuffleWrite"]
    shuffled = [
        (index, float.fromhex(dict(counts).get("shuffle_bytes", "0x0.0p+0")))
        for name, index, counts, _ in tasks
        if name.startswith("shuffle-")
    ]
    assert writes == shuffled
    assert bool(writes) == (query is _ss_part_query)


@pytest.mark.parametrize("query", QUERIES)
def test_a_tracer_sees_every_task_the_table_ran(query):
    _, pairs, tasks = _run_query(query)
    with tracing() as tracer:
        _, traced_pairs, traced_tasks = _run_query(query)
    assert traced_pairs == pairs and traced_tasks == tasks

    def task_spans(spans):
        for span in spans:
            if span.category == "task":
                yield span
            yield from task_spans(span.children)

    spans = [
        (span.name, [(k, v.hex()) for k, v in span.attrs.items()], span.sim_seconds.hex())
        for span in task_spans(tracer.roots)
    ]
    assert spans == [
        (f"{'map' if name.startswith('shuffle-') else 'task'}-{index}", counts, seconds)
        for name, index, counts, seconds in tasks
    ]
