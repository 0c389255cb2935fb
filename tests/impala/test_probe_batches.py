"""ISP-MC probes every row batch of a query in one call.

Run inline, the coordinator scans every fragment instance's ranges first
and probes all their row batches with one ``parse_wkt_column`` and one
``probe_pairs`` call (one block per row batch); on a real pool or under a
fault plan each fragment makes one such call over its own batches.  The
build side is parsed before them, in one ``parse_wkt_column`` call.  Each
fragment still makes every charge itself, in the order the batch-at-a-
time pipeline made it: ``HDFS_BYTES`` for a scan range, then each batch
completed before the next range starts.  Pinned against that pipeline,
serially, on a two-worker pool and under an empty fault plan: the rows,
the simulated seconds and their breakdown, each instance's row batches,
counters in first-touch order and parallel seconds, and the
``FragmentStart`` / ``FragmentEnd`` events minus their wall-clock fields.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.cluster.model import ClusterSpec
from repro.columnar import io as columnar_io
from repro.core.probe import BroadcastIndex
from repro.hdfs import SimulatedHDFS, split_boundaries, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.obs.events import normalize_events, read_events
from repro.obs.registry import collecting
from repro.runtime import FaultPlan, RuntimeConfig
from tests.columnar.test_byte_identity import digest

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="fork start method unavailable"
)

CLUSTER = ClusterSpec(num_nodes=3, cores_per_node=4, mem_per_node_gb=15.0)
BATCH_SIZE = 16


def _points() -> list[str]:
    rng = random.Random(36)
    lines = []
    for i in range(240):
        lines.append(f"{i}\tPOINT ({rng.uniform(0, 100)!r} {rng.uniform(0, 100)!r})")
    lines[17] = "17\tPOINT (1 2"  # dropped by the join node
    lines[90] = "ninety\tPOINT (5 5)"  # skipped by the scanner
    lines[151] = "151"  # wrong arity
    return lines


def _cells() -> list[str]:
    cells = []
    for k in range(16):
        x, y = 25 * (k % 4), 25 * (k // 4)
        ring = f"{x} {y}, {x + 25} {y}, {x + 25} {y + 25}, {x} {y + 25}, {x} {y}"
        cells.append(f"{k}\tPOLYGON (({ring}))")
    return cells


def _hdfs() -> SimulatedHDFS:
    fs = SimulatedHDFS(datanodes=("node0", "node1", "node2"), replication=2)
    write_text(fs, "/pts.txt", _points(), block_size=700)
    write_text(fs, "/cells.txt", _cells(), block_size=700)
    return fs


def _backend(runtime: RuntimeConfig) -> ImpalaBackend:
    backend = ImpalaBackend(CLUSTER, hdfs=_hdfs(), runtime=runtime, batch_size=BATCH_SIZE)
    schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
    backend.metastore.create_table("pts", schema, "/pts.txt")
    backend.metastore.create_table("cells", schema, "/cells.txt")
    return backend


JOIN = "FROM pts l SPATIAL JOIN cells r WHERE ST_WITHIN(l.geom, r.geom)"
SHAPES = {
    "ids": f"SELECT l.id, r.id {JOIN}",
    "nearest": (
        "SELECT l.id, r.id, l.geom FROM pts l SPATIAL JOIN cells r "
        "WHERE ST_NEARESTD(l.geom, r.geom, 6.0) ORDER BY l.id DESC, r.id"
    ),
    "pushed-down": f"SELECT l.id, r.id {JOIN} AND l.id > 60",
    "count": f"SELECT r.id, COUNT(*) {JOIN} GROUP BY r.id ORDER BY r.id",
    # A pushed-down UDF charges the scan's instance as it filters.
    "udf-pushed-down": (
        f"SELECT l.id, r.id {JOIN} AND l.id <> 17 AND ST_DISTANCE(l.geom, 'POINT (50 50)') < 40.0"
    ),
}

RUNTIMES = [
    pytest.param(RuntimeConfig(), id="serial"),
    pytest.param(RuntimeConfig(executors=2), id="pool2", marks=needs_fork),
    pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
]


def snapshot(runtime: RuntimeConfig, events_path: str, sql: str) -> dict:
    """Everything a query shows that the batching must not move; floats
    by their bits."""
    with collecting() as registry:
        backend = _backend(runtime.with_(events_out=events_path))
        result = backend.execute(sql)
        backend.close_events()
        counters = sorted(
            (name, value)
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("impala.")
        )
    fragments = [
        event
        for event in normalize_events(read_events(events_path))
        if event["event"] in ("FragmentStart", "FragmentEnd")
    ]
    return {
        "rows": digest([[repr(v), type(v).__name__] for row in result.rows for v in row]),
        "seconds": result.simulated_seconds.hex(),
        "breakdown": [(phase, seconds.hex()) for phase, seconds in result.breakdown.items()],
        "instances": [
            (
                instance.row_batches,
                digest([(key, float(count).hex()) for key, count in instance.metrics.counts.items()]),
                instance.parallel_seconds.hex(),
            )
            for instance in result.instances
        ],
        "fragment_events": digest(
            [sorted((key, repr(value)) for key, value in event.items()) for event in fragments]
        ),
        "counters": counters,
    }


# Recorded with the batch-at-a-time pipeline (one parse and one probe per
# row batch); see the module docstring.
PINNED = {'count': {'rows': '7b39bec3fa818063',
           'seconds': '0x1.660fbb1e7992bp+3',
           'breakdown': [('planning', '0x1.999999999999ap-2'),
                         ('fragment-startup', '0x1.199999999999ap+0'),
                         ('execution', '0x1.35e9fb714ff96p+3'),
                         ('coordinator', '0x1.2dfd694ccab3fp-8')],
           'instances': [(6, '06c54216747ed4f9', '0x1.2f4b407032981p+1'),
                         (5, '6b071fe5aa39fee8', '0x1.134373f316e37p+1'),
                         (5, '4de45a5eaaf4cca3', '0x1.05568e820e62ap+1')],
           'fragment_events': 'c68c9a0562d9b8f0',
           'counters': [('impala.rows_scanned', 254.0),
                        ('impala.rows_skipped', 3.0),
                        ('impala.scan_ranges', 20.0)]},
 'ids': {'rows': '816a03ed267cbaad',
         'seconds': '0x1.6a134369364f6p+3',
         'breakdown': [('planning', '0x1.999999999999ap-2'),
                       ('fragment-startup', '0x1.199999999999ap+0'),
                       ('execution', '0x1.3987799bf8439p+3'),
                       ('coordinator', '0x1.17939a7c17a8ap-6')],
         'instances': [(6, 'd6979767e48e7720', '0x1.2f4b407032981p+1'),
                       (5, '3fcf6167b31951b1', '0x1.134373f316e37p+1'),
                       (5, 'd949f8ecc61a98f9', '0x1.05568e820e62ap+1')],
         'fragment_events': 'e0d6bb9b8a8e9837',
         'counters': [('impala.rows_scanned', 254.0),
                      ('impala.rows_skipped', 3.0),
                      ('impala.scan_ranges', 20.0)]},
 'nearest': {'rows': '4ad67fded93ececd',
             'seconds': '0x1.9f567b36d8034p+3',
             'breakdown': [('planning', '0x1.999999999999ap-2'),
                           ('fragment-startup', '0x1.199999999999ap+0'),
                           ('execution', '0x1.6e5972621d2b7p+3'),
                           ('coordinator', '0x1.fa11a975afaf9p-6')],
             'instances': [(6, 'f0f97cc53525a1cb', '0x1.746088d6d3b6cp+1'),
                           (5, '62951ceb2c6ad65d', '0x1.5bcfd4bf0995cp+1'),
                           (5, '1aa85eef35cbc928', '0x1.463f141205bc1p+1')],
             'fragment_events': '22cd44495670f102',
             'counters': [('impala.rows_scanned', 254.0),
                          ('impala.rows_skipped', 3.0),
                          ('impala.scan_ranges', 20.0)]},
 'pushed-down': {'rows': '6f78c11493910128',
                 'seconds': '0x1.3ca7635bc4f7bp+3',
                 'breakdown': [('planning', '0x1.999999999999ap-2'),
                               ('fragment-startup', '0x1.199999999999ap+0'),
                               ('execution', '0x1.0c3efd40ddebap+3'),
                               ('coordinator', '0x1.a1986b9c304cdp-7')],
                 'instances': [(4, '66ad5fd1e197cb3b', '0x1.aa9003eea209bp+0'),
                               (4, '3297163eb1d24ada', '0x1.bff8a8f3a9b07p+0'),
                               (4, '0ae692812b48d0a0', '0x1.a41ede1198aecp+0')],
                 'fragment_events': 'aa87533f1e0cd831',
                 'counters': [('impala.rows_scanned', 193.0),
                              ('impala.rows_skipped', 2.0),
                              ('impala.scan_ranges', 20.0)]},
 'udf-pushed-down': {'rows': '79c4bf714567b8a2',
                     'seconds': '0x1.27f28f6994ef0p+3',
                     'breakdown': [('planning', '0x1.999999999999ap-2'),
                                   ('fragment-startup', '0x1.199999999999ap+0'),
                                   ('execution', '0x1.ef507c1956124p+2'),
                                   ('coordinator', '0x1.294573a797893p-7')],
                     'instances': [(4, 'e547bff6aac18820', '0x1.7748e4755ffe7p+0'),
                                   (3, '29da4eb1831e0539', '0x1.25668c2613900p+0'),
                                   (3, '68b4637fef95ec8d', '0x1.098cc144028e6p+0')],
                     'fragment_events': 'cef0d758253ab767',
                     'counters': [('impala.rows_scanned', 142.0),
                                  ('impala.rows_skipped', 2.0),
                                  ('impala.scan_ranges', 20.0)]}}


class TestInputShape:
    def test_every_instance_reads_several_ranges_and_batches(self):
        hdfs = _hdfs()
        assert len(split_boundaries(hdfs, "/pts.txt", 3)) >= 9
        result = _backend(RuntimeConfig()).execute(SHAPES["ids"])
        assert all(instance.row_batches > 3 for instance in result.instances)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_query_pinned_across_runtimes(tmp_path, runtime, shape):
    assert snapshot(runtime, str(tmp_path / "events.jsonl"), SHAPES[shape]) == PINNED[shape]


def _spy_calls(monkeypatch, log):
    """Count ``parse_wkt_column`` and ``probe_pairs`` calls, in pool
    workers too: each call appends its row count to ``log``."""

    def note(kind, rows):
        with open(log, "a") as out:
            out.write(f"{kind} {rows}\n")

    parse = columnar_io.parse_wkt_column
    probe = BroadcastIndex.probe_pairs

    def parse_spy(texts, payloads=None):
        note("parse", len(texts))
        return parse(texts, payloads)

    def probe_spy(self, column):
        note("probe", len(column))
        return probe(self, column)

    monkeypatch.setattr(columnar_io, "parse_wkt_column", parse_spy)
    monkeypatch.setattr(BroadcastIndex, "probe_pairs", probe_spy)

    def calls(kind):
        if not log.exists():
            return []
        with open(log) as lines:
            return [int(line.split()[1]) for line in lines if line.split()[0] == kind]

    return calls


class TestOneProbePerQuery:
    def test_inline_query_parses_and_probes_once(self, monkeypatch, tmp_path):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        with collecting() as registry:
            _backend(RuntimeConfig()).execute(SHAPES["ids"])
            scanned = registry.counter("impala.rows_scanned") - len(_cells())
        # The build side's rows parsed in one call first; then every probe
        # row the scans kept, parsed once; all but the malformed one probed
        # once.
        build, *probes = calls("parse")
        assert build == len(_cells())
        assert probes == [scanned]
        assert calls("probe") == [scanned - 1]

    @pytest.mark.parametrize("runtime", RUNTIMES[1:])
    def test_each_fragment_probes_once_on_a_pool_or_plan(self, monkeypatch, tmp_path, runtime):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        _backend(runtime).execute(SHAPES["ids"])
        build, *probes = calls("parse")
        assert build == len(_cells())
        assert len(probes) == CLUSTER.num_nodes
        assert len(calls("probe")) == CLUSTER.num_nodes

    def test_a_charging_pushed_down_filter_probes_batch_by_batch(self, monkeypatch, tmp_path):
        calls = _spy_calls(monkeypatch, tmp_path / "calls.log")
        result = _backend(RuntimeConfig()).execute(SHAPES["udf-pushed-down"])
        batches = sum(instance.row_batches for instance in result.instances)
        build, *probes = calls("parse")
        assert build == len(_cells())
        assert len(probes) == batches
