"""Non-point probes through the columnar pipeline, against the scalar route.

A polyline / polygon probe under ``Intersects`` is bulk-parsed, filtered by
one batched R-tree traversal and refined by one pair-kernel call.  Nothing
observable may move: the pins below are each run's pair list (emission
order included), simulated seconds, registry counters and rendered profile
at the parent commit, where every such probe took ``probe_with_cost`` and
scalar ``predicates.intersects``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import JoinConfig, spatial_join
from repro.cluster.metrics import TaskMetrics
from repro.cluster.model import ClusterSpec, Resource
from repro.columnar import GeometryColumn, parse_wkt_column
from repro.core.broadcast_join import broadcast_spatial_join, read_geometry_pairs
from repro.core.isp import probe_wkt_rows
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import partitioned_spatial_join
from repro.core.probe import BroadcastIndex, naive_spatial_join
from repro.data import generate_lion, generate_nycb
from repro.errors import GeometryError
from repro.geometry import (
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    wkt_dumps,
    wkt_loads,
)
from repro.geometry.algorithms import pairwise, predicates, segments
from repro.geometry.multi import GeometryCollection
from repro.geometry.wkt import WKTReader
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.index.partitioner import SortTilePartitioner
from repro.obs.registry import collecting
from repro.runtime.config import RuntimeConfig
from repro.spark.context import SparkContext
from tests.cluster.test_unit_columns import same_units, unit_columns
from tests.columnar.test_byte_identity import digest
from tests.core.test_probe import probe_with_cost

CLUSTER = ClusterSpec(num_nodes=2, cores_per_node=4, mem_per_node_gb=15.0)
SCHEMA = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
SQL = (
    "SELECT l.id, r.id FROM streets l SPATIAL JOIN blocks r "
    "WHERE ST_INTERSECTS(l.geom, r.geom)"
)


class Sample:
    """A lion x nycb sample as WKT: on HDFS for the substrates, as
    ``(id, WKT)`` rows (id == line index) for the API."""

    def __init__(self, streets: int = 240, blocks: int = 30):
        self.blocks_extent = generate_nycb(blocks, seed=20150401).extent
        self.left = self.rows(generate_lion(streets, seed=20150402))
        self.right = self.rows(generate_nycb(blocks, seed=20150401))
        self.hdfs = SimulatedHDFS(datanodes=("node0", "node1"), replication=2)
        for path, rows in (("/streets.txt", self.left), ("/blocks.txt", self.right)):
            lines = [f"{i}\t{text}" for i, text in rows]
            size = sum(len(line) + 1 for line in lines)
            write_text(self.hdfs, path, lines, block_size=max(1024, size // 6))

    @staticmethod
    def rows(dataset) -> list[tuple[int, str]]:
        return [
            (i, wkt_dumps(geometry, precision=6))
            for i, (_, geometry) in enumerate(dataset.records)
        ]

    def truth(self) -> list[tuple[int, int]]:
        return naive_spatial_join(
            [(i, wkt_loads(text)) for i, text in self.left],
            [(i, wkt_loads(text)) for i, text in self.right],
            SpatialOperator.INTERSECTS,
        )

    # -- the query paths -------------------------------------------------------

    def spark(self, method: str, executors="serial"):
        sc = SparkContext(CLUSTER, hdfs=self.hdfs, runtime=RuntimeConfig(executors=executors))
        left = read_geometry_pairs(sc, "/streets.txt", 1)
        right = read_geometry_pairs(sc, "/blocks.txt", 1)
        if method == "broadcast":
            joined = broadcast_spatial_join(sc, left, right, SpatialOperator.INTERSECTS)
        else:
            sample = left.sample(0.25).collect()
            tiles = SortTilePartitioner(6).partition(
                self.blocks_extent, [geometry.envelope.center for _, geometry in sample]
            )
            joined = partitioned_spatial_join(
                sc, left, right, SpatialOperator.INTERSECTS, partitioning=tiles
            )
        pairs = joined.collect()
        return pairs, sc.simulated_seconds()

    def impala(self, executors="serial"):
        backend = ImpalaBackend(
            CLUSTER, hdfs=self.hdfs, runtime=RuntimeConfig(executors=executors)
        )
        backend.metastore.create_table("streets", SCHEMA, "/streets.txt")
        backend.metastore.create_table("blocks", SCHEMA, "/blocks.txt")
        result = backend.execute(SQL)
        return [tuple(row) for row in result.rows], result.simulated_seconds

    def api(self, method: str, executors="serial"):
        result = spatial_join(
            self.left,
            self.right,
            config=JoinConfig(operator="intersects", method=method, profile=True, workers=4),
            runtime=RuntimeConfig(executors=executors),
        )
        return result.pairs, (
            result.profile.metrics.simulated_seconds, digest(result.profile.render())
        )


@pytest.fixture(scope="module")
def sample() -> Sample:
    return Sample()


def observe(run, *args):
    """``(pair count, digest of the pairs in emission order, clock, registry)``."""
    with collecting() as registry:
        pairs, clock = run(*args)
        counters = dict(registry.snapshot()["counters"])
    return pairs, (len(pairs), digest([list(pair) for pair in pairs]), clock, counters)


# Every value below was recorded at the parent commit (scalar route).
PINNED = {
    "spark-broadcast": (
        373, "5240841261dfe80a", 27.751535891200003,
        {"hdfs.bytes_read": 1502218.0, "hdfs.reads": 244.0},
    ),
    "spark-partitioned": (
        373, "68d7ebf7d3b333b1", 40.1030012,
        {
            "hdfs.bytes_read": 2139323.0, "hdfs.reads": 305.0,
            "partitioned.tiles_joined": 6.0, "shuffle.blocks_read": 133.0,
            "shuffle.blocks_written": 133.0, "shuffle.bytes_written": 55408.0,
            "shuffle.reduce_fetches": 12.0,
        },
    ),
    "impala": (
        373, "e64e48fd0bfbb467", 51.545812520000005,
        {
            "hdfs.bytes_read": 281573.0, "hdfs.reads": 48.0, "impala.rows_scanned": 270.0,
            "impala.rows_skipped": 0.0, "impala.scan_ranges": 14.0,
        },
    ),
    "api-broadcast": (373, "5240841261dfe80a", (73.638216, "5e4529fcd7aa5b28"), {}),
    "api-partitioned": (373, "0fd7b55cd7e4e498", (68.364216, "6ea95235c9911c7d"), {}),
    "api-dual-tree": (373, "e87e53c20ce0bcbe", (82.10433599999999, "5af880754019dc97"), {}),
    "api-auto": (373, "5240841261dfe80a", (73.638216, "a1fb780105a64dd9"), {}),
}


class TestEveryPathKeepsTheParentsAnswer:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pairs_order_clock_and_counters_pinned(self, sample, name):
        substrate, _, method = name.partition("-")
        args = (method,) if method else ()
        pairs, observed = observe(getattr(sample, substrate), *args)
        assert sorted(pairs) == sorted(sample.truth())
        assert observed == PINNED[name]

    def test_two_workers_change_nothing(self, sample):
        for name, args in (("spark", ("broadcast",)), ("impala", ()), ("api", ("broadcast",))):
            _, serial = observe(getattr(sample, name), *args)
            _, pooled = observe(getattr(sample, name), *args, 2)
            assert pooled == serial


class TestSQLPathChargesArePinned:
    """The pins above are all Intersects, whose pair kernel charges no
    refinement units.  Point probes under Within on the slow engine are
    charged vertex ops and allocations per row, and the SQL paths price
    each row batch as the makespan of those rows: every value below —
    seconds by their bits, counters in first-touch order — was recorded
    when the units still travelled as one dict per row.  The build side's
    cost weight makes each instance's parse charge fractional before the
    probe rows' own are added to it."""

    WEIGHT = 0.37

    @pytest.fixture(scope="class")
    def hdfs(self):
        from repro.data import generate_taxi

        def lines(dataset):
            return [f"{i}\t{wkt_dumps(g, precision=6)}" for i, (_, g) in enumerate(dataset.records)]

        left = lines(generate_taxi(700, seed=20150402))
        left[17] = "17\tPOINT (nan 2)"  # parsed, charged, dropped
        left[300] = "300\tPOINT (1 2"
        left[450] = "450"  # no geometry column
        right = lines(generate_nycb(40, seed=20150401))
        hdfs = SimulatedHDFS(datanodes=("node0", "node1"), replication=2)
        for path, rows in (("/pickups.txt", left), ("/blocks.txt", right)):
            size = sum(len(line) + 1 for line in rows)
            write_text(hdfs, path, rows, block_size=max(1024, size // 6))
        return hdfs

    def test_impala_instances(self, hdfs):
        backend = ImpalaBackend(CLUSTER, hdfs=hdfs, build_cost_weight=self.WEIGHT, batch_size=128)
        backend.metastore.create_table("pickups", SCHEMA, "/pickups.txt")
        backend.metastore.create_table("blocks", SCHEMA, "/blocks.txt")
        result = backend.execute(
            "SELECT l.id, r.id FROM pickups l SPATIAL JOIN blocks r"
            " WHERE ST_WITHIN(l.geom, r.geom)"
        )
        assert (len(result.rows), digest([list(row) for row in result.rows])) == (
            697, "ff8f0dbb51cbefad"
        )
        assert result.simulated_seconds.hex() == "0x1.8ce0fcecfe854p+5"
        assert [
            (i.serial_seconds.hex(), i.parallel_seconds.hex(), list(i.metrics.counts.items()))
            for i in result.instances
        ] == [
            ("0x1.d9790148aa68ep+2", "0x1.cb267c6b8b697p+3", [
                ("hdfs_bytes", 18424.0), ("broadcast_bytes", 3951.97), ("wkt_bytes", 15435.33),
                ("index_build", 15.54), ("row_batches", 3.0), ("index_visit", 2457.0),
                ("rows_out", 351.0), ("refine_vertex_slow", 5004.0), ("refine_alloc", 5004.0),
                ("shuffle_bytes", 14040.0),
            ]),
            ("0x1.d93e05ca19695p+2", "0x1.c13e89a88ace2p+3", [
                ("hdfs_bytes", 18417.0), ("broadcast_bytes", 3951.97), ("wkt_bytes", 15256.33),
                ("index_build", 15.54), ("row_batches", 3.0), ("index_visit", 2422.0),
                ("rows_out", 346.0), ("refine_vertex_slow", 5067.0), ("refine_alloc", 5067.0),
                ("shuffle_bytes", 13840.0),
            ]),
        ]

    @pytest.mark.parametrize(
        "scheduling,simulated,probe",
        [
            ("static", "0x1.0ff520e3fb3cap+5", "0x1.ae516db0dd830p+4"),
            ("dynamic", "0x1.0968b382ced1ep+5", "0x1.a13892ee84ad7p+4"),
        ],
    )
    def test_standalone(self, hdfs, scheduling, simulated, probe):
        from repro.core.standalone import standalone_spatial_join

        result = standalone_spatial_join(
            hdfs, "/pickups.txt", "/blocks.txt", SpatialOperator.WITHIN, cores=4,
            scheduling=scheduling, batch_size=128, build_cost_weight=self.WEIGHT,
        )
        assert (len(result.pairs), digest([list(pair) for pair in result.pairs])) == (
            697, "bc10f5257d968d99"
        )
        assert result.rows_dropped == 3
        assert result.simulated_seconds.hex() == simulated
        assert [(phase, s.hex()) for phase, s in result.phase_seconds.items()] == [
            ("scan-build-side", "0x1.155968a7086d1p-3"),
            ("build-index", "0x1.80438df449e96p+2"),
            ("scan-probe-side", "0x1.eba7b9170d62dp-1"),
            ("probe", probe),
        ]
        assert list(result.metrics.counts.items()) == [
            ("hdfs_bytes", 36841.0), ("wkt_bytes", 33271.0), ("index_build", 42.0),
            ("index_visit", 4879.0), ("rows_out", 697.0), ("refine_vertex_slow", 10071.0),
            ("refine_alloc", 10071.0),
        ]


class TestNoScalarWorkOnTheProbeSide:
    """Tier-1 guard: a lion x nycb Intersects query builds no probe-side
    geometry, runs no scalar segment predicate, and enters the pair kernel
    at most once per task / row batch / chunk."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"intersects": 0, "orientation": 0, "left_reads": 0, "kernel": 0, "batches": 0}

        def counted(owner, name, key, when=lambda *args: True):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if when(*args):
                    seen[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(predicates, "intersects", "intersects")
        counted(segments, "orientation", "orientation")
        # Left rows are the LINESTRINGs; the build side's polygons are the
        # reader's (and its parse memo's) as before.
        counted(WKTReader, "read", "left_reads", lambda self, text: "LINESTRING" in text)
        import repro.core.probe as probe_module

        counted(probe_module, "intersects_pairs", "kernel")
        # One probe_pairs call is one Spark task / row batch / API chunk.
        counted(BroadcastIndex, "probe_pairs", "batches")
        return seen

    @pytest.mark.parametrize(
        "path,args,units",
        [
            ("spark", ("broadcast",), 16),  # default parallelism: 2 tasks a core
            ("impala", (), 2),  # one row batch per fragment instance (2 nodes)
            ("api", ("broadcast",), 1),  # 240 rows < batch_size
        ],
    )
    def test_zero_scalar_calls_one_kernel_entry_per_unit(self, sample, calls, path, args, units):
        with collecting() as registry:
            pairs, _ = getattr(sample, path)(*args)
            scalar_rows = registry.counter("probe.scalar_rows")
        assert len(pairs) == 373
        assert calls["intersects"] == calls["orientation"] == calls["left_reads"] == 0
        assert calls["batches"] == units
        assert 1 <= calls["kernel"] <= calls["batches"]
        assert scalar_rows == 0

    def test_plain_constructor_takes_the_pair_kernel(self, sample, calls):
        """``BroadcastIndex(entries, op)`` — how ``benchmarks/e2e/layers.py``
        builds its index — is the one constructor: it used to leave every
        polyline probe to ``probe_with_cost`` (``scalar_rows`` == probes)."""
        build = [(i, wkt_loads(text)) for i, text in sample.right]
        probes = [wkt_loads(text) for _, text in sample.left]
        plain = BroadcastIndex(build, SpatialOperator.INTERSECTS)
        named = BroadcastIndex(build, SpatialOperator.INTERSECTS)
        with collecting() as registry:
            probed = plain.probe_batch(probes)
            scalar_rows = registry.counter("probe.scalar_rows")
        assert scalar_rows == 0
        assert calls["batches"] == calls["kernel"] == 1
        assert calls["intersects"] == calls["orientation"] == 0
        assert same_probe(probed, named.probe_batch(probes))
        matches, _ = probed
        assert sum(map(len, matches)) == 373


def wkt_matches(index, texts):
    """``probe_wkt_rows`` as per-row payload lists (``None`` for a dropped
    row) beside its unit columns."""
    kept, rows, entries, units = probe_wkt_rows(index, texts)
    matches = [None] * len(texts)
    for i in kept.tolist():
        matches[i] = []
    for i, payload in zip(rows.tolist(), index.entry_payloads(entries)):
        matches[i].append(payload)
    return matches, units


def pairs_agree(index, probes, matches, units) -> bool:
    """``probe_pairs`` on a fresh copy of ``index`` over ``probes``' rows,
    flattened through its build payloads, is ``probe_batch``'s
    ``matches`` — row by row, each row's in candidate order — and its
    unit columns are ``units`` at those rows, by their bits."""
    import pickle

    twin = pickle.loads(pickle.dumps(index))
    if isinstance(probes, GeometryColumn):
        present, column = list(range(len(probes))), probes
    else:
        present = [i for i, probe in enumerate(probes) if probe is not None]
        column = GeometryColumn.from_entries((None, probes[i]) for i in present)
    rows, entries, pair_units = twin.probe_pairs(column)
    assert rows.dtype == entries.dtype == np.int64
    flattened = [
        (present[i], twin._entry_payloads[k]) for i, k in zip(rows.tolist(), entries.tolist())
    ]
    at_rows = {key: values[present] for key, values in units.items()}
    return flattened == [(i, m) for i, found in enumerate(matches) for m in found] and (
        same_units(pair_units, at_rows)
    )


def same_probe(got, want) -> bool:
    """Two ``probe_batch`` results agree: matches, and unit columns by bits."""
    return got[0] == want[0] and same_units(got[1], want[1])


def added(units) -> TaskMetrics:
    """What a task holds once it has added a batch's unit columns."""
    task = TaskMetrics()
    task.add_columns(units)
    return task


def probe_scalar(index, geometries):
    """N ``probe_with_cost`` calls: the reference for matches and units
    (one dict per row, ``None`` for a ``None`` row)."""
    matches, units = [], []
    for geometry in geometries:
        if geometry is None:
            matches.append([])
            units.append(None)
        elif geometry.is_empty:
            matches.append([])
            units.append({Resource.INDEX_VISIT: 0.0, Resource.ROWS_OUT: 0.0})
        else:
            found, cost = probe_with_cost(index, geometry)
            matches.append(found)
            units.append(cost)
    return matches, units


def _square(x, y, size=6.0, hole=False):
    holes = [[(x + 2, y + 2), (x + 4, y + 2), (x + 4, y + 4), (x + 2, y + 4)]] if hole else []
    return Polygon([(x, y), (x + size, y), (x + size, y + size), (x, y + size)], holes=holes)


def _street(x, y):
    return LineString([(x, y), (x + 3, y + 1), (x + 3, y + 1), (x + 7, y - 2)])


BLOCK = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]])
BUILD = [
    ("block", BLOCK),
    ("far", Polygon([(20, 20), (30, 20), (30, 30), (20, 30)])),
    ("street", LineString([(-5, 5), (15, 5)])),
    ("islands", MultiPolygon([Polygon([(40, 0), (42, 0), (41, 2)]), Polygon.empty()])),
    ("nothing", LineString.empty()),
]
PROBES = [
    LineString([(1, 1), (3, 3)]),
    LineString([(4.5, 4.5), (5.5, 5.5)]),
    Polygon([(8, 8), (25, 8), (25, 25), (8, 25)]),
    LineString.empty(),
    MultiLineString([LineString([(41, 0.5), (41, 1)]), LineString([(100, 100), (101, 101)])]),
    Point(5, 5),
    MultiPoint([Point(1, 1), Point(21, 21)]),
    LineString([(50, 50), (60, 60)]),
]
# A NearestD build side whose Point and Polygon rows have no segment table.
UNTABLED = [
    ("street", _street(0, 0)),
    ("hydrant", Point(2.0, 2.0)),
    ("block", _square(4, 4)),
    ("streets", MultiLineString([_street(0, 6), _street(8, 0)])),
    ("far", Point(500.0, 500.0)),  # no probe reaches it
]


def mixed_probes():
    """Point and non-point rows, ``None`` and empty rows, one column."""
    return [
        Point(5, 5), None, LineString([(1, 1), (3, 3)]), Point.empty(), Point(4.5, 4.5),
        MultiPoint([Point(1, 1), Point(21, 21)]), Polygon([(8, 8), (25, 8), (25, 25), (8, 25)]),
        LineString.empty(), Point(900, 900), Point(2.0, 2.5), None, Point(9.5, 3.0),
        MultiLineString([LineString([(41, 0.5), (41, 1)]), LineString([(0, 7), (3, 7)])]),
    ]


def point_probes(count=120, seed=11):
    rng = np.random.default_rng(seed)
    # Half-unit grid points sit on shell edges, hole edges and vertices.
    grid = [Point(x / 2, y / 2) for x, y in rng.integers(-4, 50, (count // 2, 2)).tolist()]
    loose = [Point(x, y) for x, y in rng.uniform(-2, 25, (count // 2, 2)).tolist()]
    return grid + loose


class TestBroadcastIndexRoutes:
    """``probe_batch`` == N scalar probes whichever refinement a pair
    takes, and every row with a pair left to ``refine_pair`` is counted."""

    def run(self, index, probes):
        before = index.tree.nodes_visited
        with collecting() as registry:
            matches, units = index.probe_batch(probes)
            scalar_rows = registry.counter("probe.scalar_rows")
        return matches, units, index.tree.nodes_visited - before, scalar_rows

    @pytest.mark.parametrize("as_column", [False, True])
    def test_intersects_matches_units_and_visits(self, as_column):
        index = BroadcastIndex(BUILD, SpatialOperator.INTERSECTS)
        before = index.tree.nodes_visited
        want_matches, want_units = probe_scalar(index, PROBES)
        want_visits = index.tree.nodes_visited - before
        probes = GeometryColumn.from_geometries(PROBES) if as_column else PROBES
        matches, units, visits, scalar_rows = self.run(index, probes)
        assert matches == want_matches
        assert same_units(units, unit_columns(want_units))  # key order included
        assert visits == want_visits
        assert scalar_rows == 2  # the Point and the MultiPoint
        assert pairs_agree(index, probes, matches, units)
        # What a Spark task / API chunk adds: the rows' sums, in that order.
        totals = added(units).counts
        assert totals == {
            Resource.INDEX_VISIT: sum(row[Resource.INDEX_VISIT] for row in want_units),
            Resource.ROWS_OUT: sum(row[Resource.ROWS_OUT] for row in want_units),
        }
        assert list(totals) == [Resource.INDEX_VISIT, Resource.ROWS_OUT]

    def test_none_rows_and_a_collection_keep_their_places(self):
        index = BroadcastIndex(BUILD, SpatialOperator.INTERSECTS)
        probes = [None, PROBES[0], None, None, PROBES[2]]
        want_matches, want_units = probe_scalar(index, probes)
        matches, units, _, scalar_rows = self.run(index, probes)
        assert matches == want_matches and same_units(units, unit_columns(want_units))
        assert not any(column[[0, 2, 3]].any() for column in units.values())
        assert scalar_rows == 0
        assert pairs_agree(index, probes, matches, units)
        present = [row for row in want_units if row is not None]
        assert added(units).counts == {
            key: sum(row[key] for row in present) for key in present[0]
        }
        # No predicate can evaluate a collection, wherever it sits (even
        # clear of every build envelope): probe_batch names its row
        # instead of probing it on the scalar route.
        collection = GeometryCollection([LineString([(200, 200), (201, 201)])])
        with pytest.raises(GeometryError, match="row 1: .* GeometryCollection"):
            index.probe_batch([PROBES[0], collection, None, PROBES[2]])

    @pytest.mark.parametrize("engine", ["fast", "slow"])
    @pytest.mark.parametrize(
        "operator,radius,build,probes,scalar_rows",
        [
            # Per operator: a probe list its scalar predicate supports, and
            # how many rows have a pair no pair kernel covers.
            (SpatialOperator.INTERSECTS, 0.0, BUILD, PROBES, 2),  # Point, MultiPoint
            (SpatialOperator.INTERSECTS, 0.0, BUILD, mixed_probes(), 5),
            (SpatialOperator.CONTAINS, 0.0, BUILD[:2],
             [PROBES[0], PROBES[2], PROBES[3], Point(5, 5)], 3),
            (SpatialOperator.CONTAINS, 0.0, BUILD, mixed_probes()[:5], 3),
            # Point rows are the pair kernel's; the rest meeting a box is scalar.
            (SpatialOperator.WITHIN, 0.0, BUILD[:2], PROBES, 4),
            (SpatialOperator.WITHIN, 0.0, BUILD[:2], mixed_probes(), 4),
            # Point rows against Polygon / MultiPolygon rows: no segment table.
            (SpatialOperator.NEAREST_D, 2.0, BUILD, PROBES, 6),
            (SpatialOperator.NEAREST_D, 1.5, UNTABLED, mixed_probes(), 8),
            (SpatialOperator.NEAREST_D, 1.5, UNTABLED, point_probes(80), 9),
        ],
    )
    def test_what_is_left_is_counted(
        self, monkeypatch, engine, operator, radius, build, probes, scalar_rows
    ):
        import repro.core.probe as probe_module

        reference = BroadcastIndex(build, operator, radius=radius, engine=engine)
        want_matches, want_units = probe_scalar(reference, probes)
        index = BroadcastIndex(build, operator, radius=radius, engine=engine)
        refined = set()
        original = probe_module.refine_pair

        def spy(engine, operator, probe, *args):
            refined.add(id(probe))
            return original(engine, operator, probe, *args)

        monkeypatch.setattr(probe_module, "refine_pair", spy)
        matches, units, _, counted = self.run(index, probes)
        assert matches == want_matches
        assert same_units(units, unit_columns(want_units))  # key order included
        assert index.engine.counters == reference.engine.counters
        assert index.tree.nodes_visited == reference.tree.nodes_visited
        # The distinct probe rows that had a pair refined by refine_pair.
        assert counted == len(refined) == scalar_rows
        # The dual-tree refines the same candidates to the same pairs.
        left = [(i, p) for i, p in enumerate(probes) if p is not None]
        config = JoinConfig(
            operator=operator.value, radius=radius, method="dual-tree", engine=engine
        )
        broadcast = [(i, match) for i, _ in left for match in matches[i]]
        assert sorted(spatial_join(left, build, config=config).pairs) == sorted(broadcast)
        assert pairs_agree(reference, probes, matches, units)

    def test_scalar_rows_allocate_each_column_once(self, monkeypatch):
        # Non-point probes under Within all take the scalar route; the
        # batch's columns are allocated once per batch, not once per row.
        probes = [LineString([(x % 9, 1), (x % 9 + 0.5, 2)]) for x in range(3000)]
        index = BroadcastIndex(BUILD[:2], SpatialOperator.WITHIN)
        want_matches, want_units = probe_scalar(index, probes)
        zeros, batch_columns = np.zeros, []

        def spy(shape, *args, **kwargs):
            if shape == len(probes):
                batch_columns.append(shape)
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", spy)
        matches, units, _, scalar_rows = self.run(index, probes)
        monkeypatch.undo()
        assert matches == want_matches and same_units(units, unit_columns(want_units))
        assert scalar_rows == len(probes)
        assert len(batch_columns) < 10  # a few per batch, never one per row

    def test_a_build_side_with_points_is_all_scalar(self):
        index = BroadcastIndex(
            [*BUILD, ("hydrant", Point(2, 2))], SpatialOperator.INTERSECTS
        )
        want_matches, want_units = probe_scalar(index, PROBES)
        matches, units, _, scalar_rows = self.run(index, PROBES)
        assert matches == want_matches and same_units(units, unit_columns(want_units))
        # Every non-empty row but the far LineString, which meets no box.
        assert scalar_rows == sum(1 for p in PROBES if not p.is_empty) - 1

    def test_isp_row_batch_units_are_the_row_loop_s(self):
        texts = [wkt_dumps(p) for p in PROBES[:5]] + ["LINESTRING (0 0", None, "POINT (5 5)"]
        index = BroadcastIndex(BUILD, SpatialOperator.INTERSECTS, engine="slow")
        matches, units = wkt_matches(index, texts)
        reader = WKTReader()
        want_units = []
        for text, row_matches in zip(texts, matches):
            geometry = reader.try_read(text) if isinstance(text, str) else None
            want = {Resource.WKT_BYTES: float(len(text))} if isinstance(text, str) else {}
            want_units.append(want)
            if geometry is None:
                assert row_matches is None
                continue
            (found,), (cost,) = probe_scalar(index, [geometry])
            want.update(cost)
            assert row_matches == found
        assert same_units(units, unit_columns(want_units))

    def test_parsed_line_column_probes_like_its_objects(self):
        rows = [wkt_dumps(p) for p in (PROBES[0], PROBES[1], PROBES[7])]
        column, dropped = parse_wkt_column(rows)
        assert dropped == [] and isinstance(column, GeometryColumn)
        index = BroadcastIndex(BUILD, SpatialOperator.INTERSECTS)
        want_matches, want_units = probe_scalar(index, [wkt_loads(row) for row in rows])
        sliced = column.take(np.array([2, 0, 1]))
        matches, units = index.probe_batch(sliced)
        assert matches == [want_matches[i] for i in (2, 0, 1)]
        assert same_units(units, unit_columns([want_units[i] for i in (2, 0, 1)]))

    def test_one_block_per_cell_gives_the_same_answers(self, monkeypatch):
        index = BroadcastIndex(BUILD, SpatialOperator.INTERSECTS)
        want = index.probe_batch(PROBES)
        monkeypatch.setattr(pairwise, "_BLOCK_CELLS", 1)
        assert same_probe(index.probe_batch(PROBES), want)


# The four build shapes a point probe meets, as (operator, radius, rows).
POINT_BUILDS = {
    "polygon": (
        SpatialOperator.WITHIN, 0.0,
        [(i, _square(5.0 * (i % 4), 5.0 * (i // 4), hole=i % 2 == 0)) for i in range(12)],
    ),
    "multipolygon": (
        SpatialOperator.WITHIN, 0.0,
        [
            (i, MultiPolygon([_square(6.0 * i, 0), Polygon.empty(), _square(6.0 * i + 2, 3),
                              _square(6.0 * i, 9, size=3.0)]))
            for i in range(4)
        ],
    ),
    "linestring": (
        SpatialOperator.NEAREST_D, 1.5,
        [(i, _street(4.0 * (i % 5), 4.0 * (i // 5))) for i in range(15)],
    ),
    "multilinestring": (
        SpatialOperator.NEAREST_D, 1.5,
        [
            (i, MultiLineString([_street(5.0 * i, 2), LineString.empty(), _street(5.0 * i, 9)]))
            for i in range(4)
        ],
    ),
}


@pytest.fixture
def dispatches(monkeypatch):
    """Counts what one ``probe_batch`` call dispatches: traversals, pair
    kernels, per-handle batch kernels."""
    from repro.geometry.engine import FastGeometryEngine, SlowGeometryEngine
    from repro.index.rtree import STRtree

    seen = {"traversal": 0, "chunks": 0, "pair_kernel": 0, "per_handle": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(STRtree, "_query_batch_arrays", "traversal")
    counted(STRtree, "query_batch_points_chunks", "chunks")
    for engine in (FastGeometryEngine, SlowGeometryEngine):
        counted(engine, "contains_pairs_counted", "pair_kernel")
        counted(engine, "within_distance_pairs_counted", "pair_kernel")
        counted(engine, "contains_batch_counted", "per_handle")
        counted(engine, "within_distance_batch_counted", "per_handle")
    return seen


@pytest.mark.parametrize("engine", ["fast", "slow"])
class TestPointProbesTakeThePairBody:
    """Point probes under Within / NearestD: one traversal and one pair
    kernel dispatch per ``probe_batch`` call, answers, units, unit order
    and counters those of N ``probe_with_cost`` calls."""

    @pytest.mark.parametrize("shape", sorted(POINT_BUILDS))
    def test_one_traversal_one_dispatch_scalar_answers(self, dispatches, engine, shape):
        operator, radius, build = POINT_BUILDS[shape]
        probes = point_probes()
        reference = BroadcastIndex(build, operator, radius=radius, engine=engine)
        want_matches, want_units = probe_scalar(reference, probes)
        assert sum(map(len, want_matches)) > 20
        dispatches.update(dict.fromkeys(dispatches, 0))  # the scalar queries traverse too
        index = BroadcastIndex(build, operator, radius=radius, engine=engine)
        with collecting() as registry:
            matches, units = index.probe_batch(probes)
            scalar_rows = registry.counter("probe.scalar_rows")
        assert dispatches == {"traversal": 1, "chunks": 0, "pair_kernel": 1, "per_handle": 0}
        assert scalar_rows == 0
        assert matches == want_matches
        assert same_units(units, unit_columns(want_units))  # key order included
        assert index.engine.counters == reference.engine.counters
        assert index.tree.nodes_visited == reference.tree.nodes_visited
        # A column probes the same; added up, the per-row units summed,
        # key order kept.
        again = index.probe_batch(GeometryColumn.from_geometries(probes))
        assert same_probe(again, (matches, units))
        summed: dict[str, float] = {}
        for row in want_units:
            for key, amount in row.items():
                summed[key] = summed.get(key, 0.0) + amount
        assert list(added(again[1]).counts.items()) == list(summed.items())
        assert dispatches["traversal"] == dispatches["pair_kernel"] == 2
        assert pairs_agree(index, probes, matches, units)

    def test_an_untabled_build_row_gets_one_per_pair_scalar_call(
        self, dispatches, monkeypatch, engine
    ):
        """A build row with no segment table (a Point, a Polygon under
        NearestD) is refined pair by pair with ``refine_pair``, charged
        what that call charges; the per-handle batch kernels are not called."""
        import repro.core.probe as probe_module

        probes = point_probes(80)
        reference = BroadcastIndex(UNTABLED, SpatialOperator.NEAREST_D, radius=1.5, engine=engine)
        want_matches, want_units = probe_scalar(reference, probes)
        untabled_pairs = sum(
            reference._entry_payloads[k] in ("hydrant", "block")
            for probe in probes
            for k in reference.tree.query(probe.envelope)
        )
        dispatches.update(dict.fromkeys(dispatches, 0))  # the scalar queries traverse too
        calls = []
        original = probe_module.refine_pair
        monkeypatch.setattr(
            probe_module, "refine_pair", lambda *args: calls.append(args) or original(*args)
        )
        index = BroadcastIndex(UNTABLED, SpatialOperator.NEAREST_D, radius=1.5, engine=engine)
        assert same_probe(index.probe_batch(probes), (want_matches, unit_columns(want_units)))
        assert dispatches == {"traversal": 1, "chunks": 0, "pair_kernel": 1, "per_handle": 0}
        assert len(calls) == untabled_pairs > 0
        assert index.engine.counters == reference.engine.counters
        assert pairs_agree(index, probes, want_matches, unit_columns(want_units))

    def test_no_candidates_no_points_no_rows(self, dispatches, engine):
        operator, radius, build = POINT_BUILDS["linestring"]
        index = BroadcastIndex(build, operator, radius=radius, engine=engine)
        far = [Point(900.0, 900.0), Point.empty(), None]
        matches, units = index.probe_batch(far)
        assert matches == [[], [], []]
        scalar = probe_with_cost(
            BroadcastIndex(build, operator, radius=radius, engine=engine), far[0]
        )[1]
        empty = {Resource.INDEX_VISIT: 0.0, Resource.ROWS_OUT: 0.0}
        assert same_units(units, unit_columns([scalar, empty, None]))
        assert index.probe_batch([]) == ([], {})
        assert index.probe_batch([None, None]) == ([[], []], {})
        assert pairs_agree(index, far, matches, units)
        rows, entries, none = index.probe_pairs(GeometryColumn.from_entries([]))
        assert (rows.dtype, entries.dtype, len(rows), len(entries), none) == (
            np.int64, np.int64, 0, 0, {}
        )

    def test_a_shipped_index_packs_its_tables_on_arrival(self, engine):
        import pickle

        for operator, radius, build in POINT_BUILDS.values():
            probes = GeometryColumn.from_geometries(point_probes(60))
            index = BroadcastIndex(build, operator, radius=radius, engine=engine)
            assert index._point_tables is None  # lazy: built by the first point probe
            want = index.probe_batch(probes)
            assert index._point_tables is not None
            shipped = pickle.loads(pickle.dumps(index))
            assert shipped._point_tables is None
            assert same_probe(shipped.probe_batch(probes), want)
            assert shipped._point_tables is not None
            assert same_probe(shipped.probe_batch(probes), index.probe_batch(probes))


class TestScalarRowsOnTheBenchmarkShapes:
    """``probe.scalar_rows`` on the four benchmark workloads' shapes:
    no pair of their probes takes ``refine_pair``."""

    @pytest.mark.parametrize(
        "left,right,operator,radius",
        [
            ("taxi", "nycb", SpatialOperator.WITHIN, 0.0),
            ("taxi", "lion", SpatialOperator.NEAREST_D, 500.0),
            ("gbif", "wwf", SpatialOperator.WITHIN, 0.0),
            ("lion", "nycb", SpatialOperator.INTERSECTS, 0.0),
        ],
    )
    @pytest.mark.parametrize("engine", ["fast", "slow"])
    def test_every_probe_is_batched(self, left, right, operator, radius, engine):
        from repro.data import generate_gbif, generate_taxi, generate_wwf

        generate = {"taxi": generate_taxi, "nycb": generate_nycb, "lion": generate_lion,
                    "gbif": generate_gbif, "wwf": generate_wwf}
        build = generate[right](12, seed=20150401).records
        probes = GeometryColumn.from_entries(generate[left](150, seed=20150402).records)
        index = BroadcastIndex(build, operator, radius=radius, engine=engine)
        with collecting() as registry:
            matches, _ = index.probe_batch(probes)
            scalar_rows = registry.counter("probe.scalar_rows")
        assert scalar_rows == 0
        assert sum(map(len, matches)) > 0


# The four benchmark workloads' shapes (benchmarks/e2e/workloads.py), small.
WORKLOAD_SHAPES = {
    "taxi-nycb": ("taxi", "nycb", "within", 0.0),
    "taxi-lion-500": ("taxi", "lion", "nearestd", 1.9),  # in street-grid pitches
    "g10m-wwf": ("gbif", "wwf", "within", 0.0),
    "lion-nycb-intersects": ("lion", "nycb", "intersects", 0.0),
}


def workload_rows(name, left_count=200, right_count=60):
    from repro.data import generate_gbif, generate_taxi, generate_wwf

    generate = {"taxi": generate_taxi, "nycb": generate_nycb, "lion": generate_lion,
                "gbif": generate_gbif, "wwf": generate_wwf}
    left, right, operator, pitches = WORKLOAD_SHAPES[name]
    build = generate[right](right_count, seed=20150401)
    radius = pitches * build.extent.width / build.metadata["grid"] if pitches else 0.0
    return (
        Sample.rows(generate[left](left_count, seed=20150402)), Sample.rows(build),
        operator, radius,
    )


class TestAutoIsNeverAScalarPlan:
    """Tier-1 guard, by counts: whatever ``method="auto"`` picks on the
    benchmark shapes — and the dual-tree when forced — refines through
    one pair-kernel dispatch (these joins' candidates fit one
    ``_REFINE_BLOCK_PAIRS`` block), expands no ``Envelope`` while
    traversing, and plans from the columns' bounds plus two samples."""

    @pytest.fixture
    def seen(self, monkeypatch):
        import repro.core.probe as probe_module
        import repro.optimizer as optimizer
        from repro.columnar.column import _ColumnData
        from repro.geometry.engine import FastGeometryEngine, SlowGeometryEngine
        from repro.geometry.envelope import Envelope
        from repro.index.rtree import STRtree

        seen = {"refine_pair": 0, "kernel": 0, "joins": 0, "expand_by": 0, "materialized": 0,
                "candidates": 0}
        inside = {"traversal": False, "planning": False}

        def counted(owner, name, key=None, when=lambda: True, scope=None):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if key is not None and when():
                    seen[key] += 1
                if scope is None:
                    return original(*args, **kwargs)
                inside[scope] = True
                try:
                    return original(*args, **kwargs)
                finally:
                    inside[scope] = False

            monkeypatch.setattr(owner, name, wrapper)

        counted(probe_module, "refine_pair", "refine_pair")
        counted(probe_module, "intersects_pairs", "kernel")
        for engine in (FastGeometryEngine, SlowGeometryEngine):
            counted(engine, "contains_pairs_counted", "kernel")
            counted(engine, "within_distance_pairs_counted", "kernel")
        counted(STRtree, "_join_arrays", "joins", scope="traversal")
        refine_candidates = probe_module.PreparedBuild.refine_candidates

        def sized(self, column, rows, entries):
            seen["candidates"] += len(rows)
            return refine_candidates(self, column, rows, entries)

        monkeypatch.setattr(probe_module.PreparedBuild, "refine_candidates", sized)
        counted(Envelope, "expand_by", "expand_by", when=lambda: inside["traversal"])
        counted(optimizer, "choose_plan", scope="planning")
        counted(_ColumnData, "_materialize", "materialized", when=lambda: inside["planning"])
        return seen

    @pytest.mark.parametrize("engine", ["fast", "slow"])
    @pytest.mark.parametrize("method", ["auto", "dual-tree"])
    @pytest.mark.parametrize("name", sorted(WORKLOAD_SHAPES))
    def test_no_scalar_refinement_one_dispatch_bounded_planning(self, seen, name, method, engine):
        from repro.core.probe import _REFINE_BLOCK_PAIRS

        left, right, operator, radius = workload_rows(name)
        config = JoinConfig(
            operator=operator, radius=radius, method=method, engine=engine, sample_size=64
        )
        with collecting() as registry:
            result = spatial_join(left, right, config=config)
            scalar_rows = registry.counter("probe.scalar_rows")
        assert len(result) > 0
        assert result.method in ("broadcast", "partitioned", "dual-tree")
        assert seen["refine_pair"] == scalar_rows == 0
        assert seen["expand_by"] == 0
        if result.method == "dual-tree":
            assert seen["joins"] == seen["kernel"] == 1
            assert len(result) <= seen["candidates"] <= _REFINE_BLOCK_PAIRS
        if method == "auto":
            assert 0 < seen["materialized"] <= 2 * 64
            assert result.stats.left.count == len(left)
        forced = spatial_join(left, right, config=config.with_(method="broadcast"))
        assert sorted(result.pairs) == sorted(forced.pairs)

    def test_auto_reaches_the_dual_tree_on_these_shapes(self, seen):
        """The guard above is not vacuous: at ``workers=1`` the planner
        does pick the dual-tree on candidate-dense shapes."""
        left, right, operator, radius = workload_rows("taxi-lion-500")
        result = spatial_join(left, right, operator=operator, radius=radius)
        assert result.method == "dual-tree"
        assert seen["joins"] == seen["kernel"] == 1

    def test_a_large_join_dispatches_once_per_block_of_candidates(self, seen, monkeypatch):
        """The pair kernels hold a dozen temporaries per pair, so a join
        refines ``_REFINE_BLOCK_PAIRS`` candidates a call — same pairs,
        same order, whatever the block."""
        import repro.core.probe as probe_module

        left, right, operator, radius = workload_rows("taxi-lion-500")
        config = JoinConfig(operator=operator, radius=radius, method="dual-tree")
        whole = spatial_join(left, right, config=config)
        assert seen["kernel"] == 1
        monkeypatch.setattr(probe_module, "_REFINE_BLOCK_PAIRS", 1000)
        blocked = spatial_join(left, right, config=config)
        assert blocked.pairs == whole.pairs
        assert seen["kernel"] == 1 + -(-seen["candidates"] // 2 // 1000)


class TestDualTreeCountsItsScalarRows:
    """Candidates of a shape no pair kernel covers still take
    ``refine_pair`` — and the probe rows that do are counted, as on the
    broadcast routes."""

    def run(self, operator, radius=0.0, build=BUILD, probes=PROBES):
        left = list(enumerate(probes))
        config = JoinConfig(operator=operator, radius=radius, method="dual-tree")
        with collecting() as registry:
            result = spatial_join(left, build, config=config)
            scalar_rows = registry.counter("probe.scalar_rows")
        want = naive_spatial_join(left, build, SpatialOperator(operator), radius)
        assert sorted(result.pairs) == sorted(want)
        return result.pairs, scalar_rows

    def test_point_and_multipoint_probes_under_intersects(self):
        pairs, scalar_rows = self.run("intersects")
        assert scalar_rows == 2  # the Point and the MultiPoint; the rest are batched
        assert {5, 6} <= {left for left, _ in pairs}

    def test_every_probe_under_contains(self):
        wide = Polygon([(-6, 4), (16, 4), (16, 6), (-6, 6)])
        around = Polygon([(19, 19), (31, 19), (31, 31), (19, 31)])
        pairs, scalar_rows = self.run("contains", probes=[wide, around, Point(5, 5)])
        assert pairs == [(0, "street"), (1, "far")]
        assert scalar_rows == 3

    def test_non_point_probes_under_within_and_nearestd(self):
        probes = [Point(1, 1), LineString([(1, 1), (3, 3)]), Point(4.5, 4.5), Point.empty()]
        pairs, scalar_rows = self.run("within", probes=probes)
        assert pairs == [(0, "block"), (1, "block")]
        assert scalar_rows == 1  # the LineString; the hole keeps Point(4.5, 4.5) out
        pairs, scalar_rows = self.run("nearestd", radius=2.0, probes=probes)
        # The LineString, and both points: a polygon has no segment table.
        assert scalar_rows == 3 and (1, "block") in pairs

    def test_a_probe_row_no_build_box_meets_is_not_counted(self):
        _, scalar_rows = self.run("contains", probes=[Point(900, 900), LineString.empty()])
        assert scalar_rows == 0

    def test_an_untabled_build_row_takes_the_per_pair_scalar_route(self, dispatches, monkeypatch):
        """A NearestD build row that is not a polyline has no segment
        table; like the broadcast route, the dual-tree answers its pairs
        with ``refine_pair``, one call a pair, and counts their rows."""
        import repro.core.probe as probe_module

        calls = []
        original = probe_module.refine_pair
        monkeypatch.setattr(
            probe_module, "refine_pair", lambda *args: calls.append(args) or original(*args)
        )
        build = [("street", _street(0, 0)), ("hydrant", Point(2.0, 2.0)), ("block", _square(4, 4))]
        pairs, scalar_rows = self.run("nearestd", 1.5, build=build, probes=point_probes(80))
        assert {right for _, right in pairs} == {"street", "hydrant", "block"}
        assert scalar_rows == len({id(probe) for _, _, probe, *_ in calls}) == 9
        assert len(calls) >= scalar_rows
        assert dispatches["pair_kernel"] == 1 and dispatches["per_handle"] == 0
