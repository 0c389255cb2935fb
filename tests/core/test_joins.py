"""Cross-engine join integration: every plan produces the same pairs."""

import random

import pytest

from repro.cluster import ClusterSpec
from repro.core import (
    SpatialOperator,
    broadcast_spatial_join,
    naive_spatial_join,
    partitioned_spatial_join,
    read_geometry_pairs,
    spatial_join,
    spatial_join_pairs,
    standalone_spatial_join,
)
from repro.core.partitioned_join import derive_partitioning
from repro.errors import ReproError
from repro.geometry import LineString, Point, Polygon
from repro.hdfs import SimulatedHDFS, write_text
from repro.obs.registry import collecting
from repro.spark import SparkContext


@pytest.fixture(scope="module")
def scenario():
    """Points, polygons and streets plus their serialised HDFS files."""
    rng = random.Random(1234)
    points = [(i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(350)]
    polys = []
    for row in range(5):
        for col in range(5):
            x0, y0 = col * 20.0, row * 20.0
            polys.append(
                (row * 5 + col,
                 Polygon([(x0, y0), (x0 + 20, y0), (x0 + 20, y0 + 20), (x0, y0 + 20)]))
            )
    streets = [
        (i, LineString([(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(3)]))
        for i in range(30)
    ]
    fs = SimulatedHDFS(block_size=2048)
    write_text(fs, "/points.txt", [f"{i}\t{g.wkt()}" for i, g in points])
    write_text(fs, "/polys.txt", [f"{i}\t{g.wkt()}" for i, g in polys])
    write_text(fs, "/streets.txt", [f"{i}\t{g.wkt()}" for i, g in streets])
    within_truth = sorted(naive_spatial_join(points, polys, SpatialOperator.WITHIN))
    neard_truth = sorted(
        naive_spatial_join(points, streets, SpatialOperator.NEAREST_D, radius=7.0)
    )
    return {
        "fs": fs,
        "points": points,
        "polys": polys,
        "streets": streets,
        "within_truth": within_truth,
        "neard_truth": neard_truth,
    }


def fresh_sc(scenario, nodes=3):
    return SparkContext(ClusterSpec(nodes, 4), hdfs=scenario["fs"])


class TestInMemoryAPI:
    def test_within(self, scenario):
        got = spatial_join(scenario["points"], scenario["polys"])
        assert sorted(got) == scenario["within_truth"]

    def test_nearestd(self, scenario):
        got = spatial_join(
            scenario["points"], scenario["streets"], "nearestd", radius=7.0
        )
        assert sorted(got) == scenario["neard_truth"]

    def test_naive_method(self, scenario):
        got = spatial_join(
            scenario["points"][:50], scenario["polys"], method="naive"
        )
        expected = naive_spatial_join(
            scenario["points"][:50], scenario["polys"], SpatialOperator.WITHIN
        )
        assert sorted(got) == sorted(expected)

    def test_wkt_string_inputs(self):
        got = spatial_join(
            [(0, "POINT (1 1)")],
            [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")],
        )
        assert got == [(0, "cell")]

    @pytest.mark.parametrize("method", ["auto", "broadcast", "partitioned", "naive"])
    def test_wkt_and_object_inputs_agree(self, scenario, method):
        # All-WKT sides are bulk-parsed into the column the probe runs on;
        # sides mixing strings and objects fall back to entries.
        points, polys = scenario["points"][:120], scenario["polys"]
        as_wkt = [(i, g.wkt()) for i, g in points]
        mixed = [(i, g.wkt() if i % 3 else g) for i, g in points]
        right_wkt = [(i, g.wkt()) for i, g in polys]
        truth = sorted(naive_spatial_join(points, polys, SpatialOperator.WITHIN))
        for left, right in ((as_wkt, right_wkt), (mixed, polys), (as_wkt, polys)):
            assert sorted(spatial_join(left, right, method=method)) == truth
        # A point right side arrives packed too (NearestD against points).
        near = spatial_join(as_wkt, as_wkt[:40], "nearestd", radius=3.0, method=method)
        assert sorted(near) == sorted(
            naive_spatial_join(points, points[:40], SpatialOperator.NEAREST_D, radius=3.0)
        )

    @pytest.mark.parametrize(
        "bad, error",
        [("POINT (1 x)", "expected a number"), ("POINT (nan 2)", "may not be NaN"),
         ("POINT (1_0 2)", "unexpected character")],
    )
    def test_malformed_wkt_raises_the_scalar_reader_s_error(self, bad, error):
        from repro.errors import GeometryError
        from repro.geometry import wkt_loads

        rows = [(0, "POINT (1 1)"), (1, bad), (2, "POINT (2 2)"), (3, "ALSO BAD")]
        with pytest.raises(GeometryError, match=error) as raised:
            spatial_join(rows, [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")])
        with pytest.raises(GeometryError) as reference:
            wkt_loads(bad)
        assert type(raised.value) is type(reference.value)
        assert str(raised.value) == str(reference.value)

    def test_positional_variant(self):
        got = spatial_join_pairs(
            ["POINT (1 1)", "POINT (9 9)"],
            ["POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"],
        )
        assert got == [(0, 0)]

    def test_bad_operator(self):
        with pytest.raises(ReproError):
            spatial_join([], [], "teleport")

    def test_bad_method(self):
        with pytest.raises(ReproError):
            spatial_join([], [], method="quantum")

    def test_bad_geometry_type(self):
        with pytest.raises(ReproError):
            spatial_join([(0, 42)], [])


class TestBroadcastJoin:
    @pytest.mark.parametrize(
        "right_path,operator,options,truth",
        [
            ("/polys.txt", SpatialOperator.WITHIN, {}, "within_truth"),
            ("/streets.txt", SpatialOperator.NEAREST_D, {"radius": 7.0}, "neard_truth"),
            ("/polys.txt", SpatialOperator.WITHIN, {"engine": "slow"}, "within_truth"),
        ],
        ids=["within", "nearestd", "slow-engine"],
    )
    def test_from_hdfs(self, scenario, right_path, operator, options, truth):
        sc = fresh_sc(scenario)
        left = read_geometry_pairs(sc, "/points.txt", 1)
        right = read_geometry_pairs(sc, right_path, 1)
        pairs = broadcast_spatial_join(sc, left, right, operator, **options)
        assert sorted(pairs.collect()) == scenario[truth]

    def test_missing_radius_rejected(self, scenario):
        sc = fresh_sc(scenario)
        left = sc.parallelize(scenario["points"], 2)
        right = sc.parallelize(scenario["streets"], 2)
        with pytest.raises(ReproError):
            broadcast_spatial_join(sc, left, right, SpatialOperator.NEAREST_D)

    def test_dirty_rows_dropped_and_counted(self, scenario):
        sc = fresh_sc(scenario)
        # Rows 4-6 tokenize but cannot be constructed (GeometryError, not
        # WKTParseError): they used to fail the job after four attempts.
        write_text(sc.hdfs, "/dirty.txt",
                   ["0\tPOINT (1 1)", "1\tBROKEN WKT", "2\tPOINT (2 2)", "3",
                    "4\tPOINT (nan 2)", "5\tPOLYGON ((0 0, 1 1, 0 0))",
                    "6\tLINESTRING (0 0)"])
        with collecting() as registry:
            left = read_geometry_pairs(sc, "/dirty.txt", 1)
            right = sc.parallelize(scenario["polys"], 1)
            pairs = broadcast_spatial_join(sc, left, right, SpatialOperator.WITHIN)
            assert sorted(pairs.collect()) == [(0, 0), (2, 0)]
            assert registry.counter("spark.rows_skipped") == 5.0  # drops leave a trace


def mixed_wkt_lines(rng, n=240):
    """``id<TAB>WKT`` lines: mostly points, with a polygon, a broken line,
    a too-short line, odd numbers and a line without a geometry column
    scattered through them (so some partitions stay pure points)."""
    oddities = [
        "POLYGON ((10 10, 30 10, 30 30, 10 30, 10 10))", "LINESTRING (0 0, 1",
        "LINESTRING (0 0)", "POINT (nan 2)", "POINT (1_0 2)", "POINT EMPTY",
        "point(5 5)", "POINT (1e1 +2.5E1)", "POINT (1 2 3)", None,
    ]
    lines = []
    for i in range(n):
        if i % 16 == 7 and i // 16 < len(oddities):
            text = oddities[i // 16]
            lines.append(f"{i}" if text is None else f"{i}\t{text}")
        else:
            lines.append(f"{i}\tPOINT ({rng.uniform(0, 100)!r} {rng.uniform(0, 100)!r})")
    return lines


def scalar_records(lines):
    """What `WKTReader.try_read`, line by line, keeps; and how many it drops."""
    from repro.geometry.wkt import WKTReader

    records, skipped = [], 0
    for record_id, line in enumerate(lines):
        fields = line.split("\t")
        geometry = WKTReader().try_read(fields[1]) if len(fields) > 1 else None
        if geometry is None:
            skipped += 1
        else:
            records.append((record_id, geometry))
    return records, skipped


class TestBulkParsedPartitions:
    """`read_geometry_pairs` parses a partition at a time; its RDD still
    holds `(record_id, geometry)` records for every generic operator."""

    @pytest.fixture
    def loaded(self, scenario):
        sc = fresh_sc(scenario)
        lines = mixed_wkt_lines(random.Random(5))
        write_text(sc.hdfs, "/mixed.txt", lines)
        return sc, lines

    def test_same_records_and_drops_as_the_scalar_reader(self, loaded):
        sc, lines = loaded
        want, skipped = scalar_records(lines)
        with collecting() as registry:
            got = read_geometry_pairs(sc, "/mixed.txt", 1, num_partitions=8).collect()
            assert registry.counter("spark.rows_skipped") == float(skipped)
        assert [record_id for record_id, _ in got] == [record_id for record_id, _ in want]
        for (_, geometry), (_, reference) in zip(got, want):
            assert type(geometry) is type(reference)
            assert geometry.is_empty == reference.is_empty
            assert geometry.is_empty or geometry.wkb() == reference.wkb()

    def test_generic_operators_see_records(self, loaded):
        sc, lines = loaded
        want, _ = scalar_records(lines)
        rdd = read_geometry_pairs(sc, "/mixed.txt", 1, num_partitions=8)
        first = rdd.collect()
        assert rdd.count() == len(want) == len(first)
        assert rdd.collect() == first  # a second pass re-parses to equal records
        assert all(type(record) is tuple and len(record) == 2 for record in first)
        sampled = rdd.sample(0.5).collect()
        assert 0 < len(sampled) < len(first)
        assert sampled == rdd.sample(0.5).collect()
        assert sampled == [record for record in first if record in set(sampled)]
        assert rdd.map(lambda record: record[0]).take(3) == [0, 1, 2]
        assert rdd.filter(lambda record: not record[1].is_empty).count() == len(want) - 1

    def test_joins_agree_with_the_reference(self, loaded, scenario):
        sc, lines = loaded
        want, _ = scalar_records(lines)
        truth = sorted(naive_spatial_join(want, scenario["polys"], SpatialOperator.WITHIN))
        right = sc.parallelize(scenario["polys"], 2)
        left = read_geometry_pairs(sc, "/mixed.txt", 1, num_partitions=8)
        pairs = broadcast_spatial_join(sc, left, right, SpatialOperator.WITHIN)
        assert sorted(pairs.collect()) == truth
        tiled = partitioned_spatial_join(
            sc, left, right, SpatialOperator.WITHIN, num_tiles=4
        )
        assert sorted(tiled.collect()) == truth

    def test_cost_weight_charged_per_row_in_order(self, scenario):
        # bench/runner.py passes non-integer weights: per-row sequential
        # adds and one bulk sum round differently, and the pinned
        # simulated seconds are the sequential ones.
        from repro.cluster.model import Resource

        fs = SimulatedHDFS(block_size=1 << 20)  # one block, one partition
        lines = [f"{i}\t{g.wkt()}" for i, g in scenario["points"]]
        write_text(fs, "/points.txt", lines)
        sc = SparkContext(ClusterSpec(1, 1), hdfs=fs)
        read_geometry_pairs(sc, "/points.txt", 1, num_partitions=1, cost_weight=1.1).count()
        sequential = 0.0
        for line in lines:
            sequential += len(line.split("\t")[1]) * 1.1
        assert sequential != sum(len(line.split("\t")[1]) for line in lines) * 1.1
        assert sc.totals()[Resource.WKT_BYTES] == sequential


class TestPartitionedJoin:
    @pytest.mark.parametrize("tiles", [1, 4, 9, 16])
    def test_within_any_tiling(self, scenario, tiles):
        sc = fresh_sc(scenario)
        left = sc.parallelize(scenario["points"], 4)
        right = sc.parallelize(scenario["polys"], 2)
        pairs = partitioned_spatial_join(
            sc, left, right, SpatialOperator.WITHIN, num_tiles=tiles
        )
        assert sorted(pairs.collect()) == scenario["within_truth"]

    def test_nearestd(self, scenario):
        sc = fresh_sc(scenario)
        left = sc.parallelize(scenario["points"], 4)
        right = sc.parallelize(scenario["streets"], 2)
        pairs = partitioned_spatial_join(
            sc, left, right, SpatialOperator.NEAREST_D, radius=7.0, num_tiles=9
        )
        assert sorted(pairs.collect()) == scenario["neard_truth"]

    def test_no_duplicates_even_with_replication(self, scenario):
        sc = fresh_sc(scenario)
        left = sc.parallelize(scenario["points"], 4)
        right = sc.parallelize(scenario["polys"], 2)
        pairs = partitioned_spatial_join(
            sc, left, right, SpatialOperator.WITHIN, num_tiles=16
        ).collect()
        assert len(pairs) == len(set(pairs))

    def test_explicit_partitioning(self, scenario):
        sc = fresh_sc(scenario)
        left = sc.parallelize(scenario["points"], 4)
        right = sc.parallelize(scenario["polys"], 2)
        partitioning = derive_partitioning(left, num_tiles=8)
        pairs = partitioned_spatial_join(
            sc, left, right, SpatialOperator.WITHIN, partitioning=partitioning
        )
        assert sorted(pairs.collect()) == scenario["within_truth"]

    def test_empty_left_rejected_by_derive(self, scenario):
        sc = fresh_sc(scenario)
        empty = sc.parallelize([], 2)
        with pytest.raises(ReproError):
            derive_partitioning(empty, 4)

    @staticmethod
    def _empty_point_context(left_lines):
        fs = SimulatedHDFS(datanodes=("node0", "node1"), replication=1)
        write_text(fs, "/left.txt", left_lines, block_size=1024)
        write_text(fs, "/right.txt", [
            "0\tPOLYGON ((10 10, 45 10, 45 40, 10 40, 10 10))",
            "1\tPOLYGON ((55 50, 90 50, 90 95, 55 95, 55 50))",
        ])
        sc = SparkContext(ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0), hdfs=fs)
        return sc, read_geometry_pairs(sc, "/left.txt", 1), read_geometry_pairs(sc, "/right.txt", 1)

    def test_plain_layout_skips_empty_left_rows(self):
        # The WKT reader keeps POINT EMPTY rows; the plain sort-tile
        # layout must tile the other rows' centres and join like the
        # broadcast plan.
        rng = random.Random(8)
        lines = [
            f"{k}\tPOINT EMPTY" if k % 3 == 0
            else f"{k}\tPOINT ({rng.uniform(0, 100):.3f} {rng.uniform(0, 100):.3f})"
            for k in range(300)
        ]
        sc, left, right = self._empty_point_context(lines)
        want = broadcast_spatial_join(sc, left, right, SpatialOperator.WITHIN).collect()
        assert len(want) > 40
        for skew_factor in (None, 2.0):
            sc, left, right = self._empty_point_context(lines)
            got = partitioned_spatial_join(
                sc, left, right, SpatialOperator.WITHIN, num_tiles=4, skew_factor=skew_factor
            ).collect()
            assert sorted(got) == sorted(want)

    def test_a_left_side_of_empty_rows_only_is_an_empty_sample(self):
        sc, left, _ = self._empty_point_context([f"{k}\tPOINT EMPTY" for k in range(50)])
        with pytest.raises(ReproError, match="empty left side"):
            derive_partitioning(left, 4)


class TestStandalone:
    def test_within(self, scenario):
        result = standalone_spatial_join(
            scenario["fs"], "/points.txt", "/polys.txt", SpatialOperator.WITHIN
        )
        assert sorted(result.pairs) == scenario["within_truth"]

    def test_nearestd(self, scenario):
        result = standalone_spatial_join(
            scenario["fs"], "/points.txt", "/streets.txt",
            SpatialOperator.NEAREST_D, radius=7.0,
        )
        assert sorted(result.pairs) == scenario["neard_truth"]

    def test_dynamic_scheduling_same_pairs(self, scenario):
        static = standalone_spatial_join(
            scenario["fs"], "/points.txt", "/polys.txt", SpatialOperator.WITHIN,
            scheduling="static",
        )
        dynamic = standalone_spatial_join(
            scenario["fs"], "/points.txt", "/polys.txt", SpatialOperator.WITHIN,
            scheduling="dynamic",
        )
        assert sorted(static.pairs) == sorted(dynamic.pairs)

    def test_bad_scheduling(self, scenario):
        with pytest.raises(ReproError):
            standalone_spatial_join(
                scenario["fs"], "/points.txt", "/polys.txt",
                SpatialOperator.WITHIN, scheduling="wishful",
            )

    def test_simulated_time_positive(self, scenario):
        result = standalone_spatial_join(
            scenario["fs"], "/points.txt", "/polys.txt", SpatialOperator.WITHIN
        )
        assert result.simulated_seconds > 0


class TestAllPlansAgree:
    """The repository's central invariant, asserted in one place."""

    def test_four_plans_one_answer(self, scenario):
        truth = scenario["within_truth"]
        api = sorted(spatial_join(scenario["points"], scenario["polys"]))
        sc = fresh_sc(scenario)
        left = read_geometry_pairs(sc, "/points.txt", 1)
        right = read_geometry_pairs(sc, "/polys.txt", 1)
        broadcast = sorted(
            broadcast_spatial_join(sc, left, right, SpatialOperator.WITHIN).collect()
        )
        partitioned = sorted(
            partitioned_spatial_join(
                sc, left, right, SpatialOperator.WITHIN, num_tiles=9
            ).collect()
        )
        standalone = sorted(
            standalone_spatial_join(
                scenario["fs"], "/points.txt", "/polys.txt", SpatialOperator.WITHIN
            ).pairs
        )
        assert api == truth
        assert broadcast == truth
        assert partitioned == truth
        assert standalone == truth


class TestDualTreeMethod:
    def test_within_matches_index_method(self, scenario):
        got = sorted(
            spatial_join(
                scenario["points"], scenario["polys"], method="dual-tree"
            )
        )
        assert got == scenario["within_truth"]

    def test_nearestd_matches_index_method(self, scenario):
        got = sorted(
            spatial_join(
                scenario["points"], scenario["streets"], "nearestd",
                radius=7.0, method="dual-tree",
            )
        )
        assert got == scenario["neard_truth"]

    def test_slow_engine_agrees(self, scenario):
        got = sorted(
            spatial_join(
                scenario["points"][:100], scenario["polys"],
                method="dual-tree", engine="slow",
            )
        )
        expected = sorted(
            spatial_join(scenario["points"][:100], scenario["polys"])
        )
        assert got == expected
