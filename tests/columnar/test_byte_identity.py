"""The columnar data plane against its references, byte for byte.

Pairs are checked against ``naive_spatial_join``; their emission order,
simulated seconds, registry counters, rendered profiles and normalized
events are pinned to the last commit that still carried the object-path
oracle (where the two planes were asserted byte-identical) — across
operators, executor counts, and both cluster substrates.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro import JoinConfig, spatial_join
from repro.core.operators import SpatialOperator
from repro.core.probe import naive_spatial_join
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.obs.registry import collecting
from repro.runtime.config import RuntimeConfig


def digest(value) -> str:
    """Short stable fingerprint of a JSON-able observation, order included."""
    blob = json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def mixed_workload(seed, n_points=300, n_polygons=24):
    rng = random.Random(seed)
    left = [
        (i, Point(rng.uniform(0, 100), rng.uniform(0, 100)))
        for i in range(n_points)
    ]
    right = []
    for j in range(n_polygons):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        w, h = rng.uniform(2, 12), rng.uniform(2, 12)
        right.append(
            (1000 + j, Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)]))
        )
    return left, right


def observed_run(left, right, method, operator, radius, executors):
    config = JoinConfig(
        method=method, operator=operator, radius=radius, profile=True
    )
    with collecting() as reg:
        result = spatial_join(
            left, right, runtime=RuntimeConfig(executors=executors), config=config
        )
        counters = reg.snapshot()["counters"]
    expected = naive_spatial_join(left, right, SpatialOperator(operator), radius)
    assert sorted(result) == sorted(expected)
    return (
        digest(list(result)),
        result.profile.metrics.simulated_seconds,
        counters,
        digest(result.profile.render()),
    )


class TestCoreByteIdentity:
    # pinned = (ordered-pairs digest, simulated seconds, registry counters,
    # rendered-profile digest) at the parent of the commit that deleted the
    # object path; the core API keeps its counters in the profile, not the
    # registry.  The order is the same for every executor count.  Under
    # NearestD a point's pairs against polygons (no segment table) take
    # refine_pair, so their rows are counted in probe.scalar_rows — in a
    # pool worker's tile task as on the driver.
    @pytest.mark.parametrize("executors", ["serial", 2, 4])
    @pytest.mark.parametrize(
        "method,operator,radius,pinned",
        [
            ("broadcast", "within", 0.0,
             ("722716427c4d47d1", 7.977671999999998, {}, "535cdb131a0a7fb2")),
            ("broadcast", "nearestd", 2.5,
             ("8594f5cd5b3b76d0", 8.808192, {"probe.scalar_rows": 88.0}, "898e0181c8f24abc")),
            ("partitioned", "within", 0.0,
             ("0fd3f8fae0654091", 4.081032, {}, "be49da3bc16dfa52")),
            ("partitioned", "nearestd", 2.5,
             ("ec85df3eafedc303", 4.585751999999999, {"probe.scalar_rows": 89.0},
              "0d9d0651cb2860cc")),
        ],
    )
    def test_matches_pinned_observations(self, method, operator, radius, pinned, executors):
        left, right = mixed_workload(7)
        assert observed_run(left, right, method, operator, radius, executors) == pinned

    def test_nonconvertible_input_raises(self):
        # A geometry outside the columnar model is turned away at the
        # API's door with a typed error naming the row; with the row
        # removed its 59 neighbours return the pairs the parent returned
        # around it (it never contributed one), all on the point kernels.
        from repro.errors import GeometryError
        from repro.geometry.multi import GeometryCollection

        left, right = mixed_workload(3, n_points=60, n_polygons=6)
        left = list(left)
        left[0] = (0, GeometryCollection([Point(50, 50)]))
        with pytest.raises(GeometryError, match="row 0: .* GeometryCollection"):
            spatial_join(left, right, method="broadcast")
        pairs, _, counters, _ = observed_run(
            left[1:], right, "broadcast", "within", 0.0, "serial"
        )
        assert pairs == "ee2b19e34decdcd2"
        assert "probe.scalar_rows" not in counters


class TestSubstrateByteIdentity:
    # pinned = (result rows, simulated seconds, registry counters)
    @pytest.mark.parametrize("executors", ["serial", 2, 4])
    @pytest.mark.parametrize(
        "engine,pinned",
        [
            ("spatialspark", (6800, 79.93071046912002, {
                "hdfs.reads": 478.0, "hdfs.bytes_read": 9779666.0})),
            ("isp-mc", (6800, 140.38686227600016, {
                "impala.scan_ranges": 45.0, "hdfs.reads": 173.0,
                "hdfs.bytes_read": 4811371.0, "impala.rows_scanned": 6816.0,
                "impala.rows_skipped": 0.0})),
        ],
    )
    def test_cluster_runs_pinned(self, engine, pinned, executors):
        from repro.bench.runner import run_ispmc, run_spatialspark
        from repro.bench.workloads import materialize

        mat = materialize("taxi-nycb", scale=0.04, num_datanodes=2)
        runner = run_spatialspark if engine == "spatialspark" else run_ispmc
        with collecting() as reg:
            result = runner(mat, 2, runtime=RuntimeConfig(executors=executors))
            counters = reg.snapshot()["counters"]
        assert (result.result_rows, result.simulated_seconds, counters) == pinned

    def test_normalized_events_pinned(self, tmp_path):
        """The structured event log is representation-blind."""
        from repro.obs.events import normalize_events, read_events

        left, right = mixed_workload(5, n_points=120, n_polygons=8)
        path = str(tmp_path / "events.jsonl")
        runtime = RuntimeConfig(executors="serial", events_out=path)
        spatial_join(left, right, method="partitioned", runtime=runtime)
        normalized = normalize_events(read_events(path))
        assert (len(normalized), digest(normalized)) == (11, "bf9472dbee9968da")


class TestGatheredBuffers:
    """``compact()`` and ``concat`` gather the CSR buffers with array
    arithmetic; the encoding, its size and the bbox bits must be those of
    packing the same rows' geometry objects one by one."""

    @staticmethod
    def rows(seed, n=40):
        from repro.geometry.linestring import LineString
        from repro.geometry.multi import MultiLineString, MultiPoint, MultiPolygon

        rng = random.Random(seed)

        def point():
            return Point(rng.uniform(-50, 50), rng.uniform(-50, 50))

        def line():
            return LineString(
                [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(rng.randint(2, 6))]
            )

        def polygon():
            x, y, w = rng.uniform(-50, 40), rng.uniform(-50, 40), rng.uniform(4, 9)
            shell = [(x, y), (x + w, y), (x + w, y + w), (x, y + w)]
            hole = [(x + 1, y + 1), (x + 2, y + 1), (x + 2, y + 2), (x + 1, y + 2)]
            return Polygon(shell, [hole] if rng.random() < 0.5 else [])

        makers = [
            point, line, polygon,
            Point.empty, LineString.empty, Polygon.empty,
            lambda: MultiPoint([point(), Point.empty(), point()]),
            lambda: MultiLineString([line(), LineString.empty()]),
            lambda: MultiPolygon([Polygon.empty(), polygon(), polygon()]),
            lambda: MultiPolygon([]),
        ]
        return [(f"row-{seed}-{i}", rng.choice(makers)()) for i in range(n)]

    @staticmethod
    def assert_identical(column, reference):
        from tests.columnar.test_column import assert_geometry_equal

        assert column.to_bytes() == reference.to_bytes()
        assert column.nbytes == reference.nbytes
        assert column._data.bbox.tobytes() == reference._data.bbox.tobytes()
        for name in ("coords", "rings", "parts", "geoms", "types"):
            got, want = getattr(column._data, name), getattr(reference._data, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
        assert column._data.is_point_only == reference._data.is_point_only
        for got, want in zip(column.geometries(), reference.geometries()):
            assert_geometry_equal(got, want)

    @pytest.mark.parametrize("seed", range(6))
    def test_compact_of_a_mixed_slice(self, seed):
        from repro.columnar import GeometryColumn

        entries = self.rows(seed)
        rng = random.Random(seed)
        picks = [rng.randrange(len(entries)) for _ in range(25)]  # repeats, any order
        # The source is decoded, so no row carries a geometry object.
        source = GeometryColumn.from_bytes(GeometryColumn.from_entries(entries).to_bytes())
        view = source.take(picks)
        compacted = view.compact()
        # Nothing was materialised to do it.
        assert not source._data._geom_cache and not compacted._data._geom_cache
        self.assert_identical(
            compacted, GeometryColumn.from_entries([entries[i] for i in picks])
        )
        assert view.compact().payloads() == [entries[i][0] for i in picks]
        assert view.to_bytes() == view.compact().to_bytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_concat_of_sliced_mixed_columns(self, seed):
        from repro.columnar import GeometryColumn

        a, b, c = self.rows(seed), self.rows(seed + 100, 15), self.rows(seed + 200, 8)
        points = [(i, Point(float(i), -float(i))) for i in range(9)]
        decoded = GeometryColumn.from_bytes(GeometryColumn.from_entries(b).to_bytes())
        pieces = [
            (GeometryColumn.from_entries(a).take([5, 3, 3, 39, 0]), [a[i] for i in (5, 3, 3, 39, 0)]),
            (decoded.slice(2, 11), b[2:11]),
            (GeometryColumn.from_entries(points).take([8, 1]), [points[8], points[1]]),
            (GeometryColumn.from_entries(c), c),
            (GeometryColumn.from_entries(a).take([]), []),
        ]
        joined = GeometryColumn.concat([column for column, _ in pieces])
        entries = [entry for _, rows in pieces for entry in rows]
        # Live objects are handed on; decoded rows stay unmaterialised.
        assert 6 not in joined._data._geom_cache and not decoded._data._geom_cache
        assert joined.geometry(0) is a[5][1] and joined.geometry(len(entries) - 1) is c[-1][1]
        self.assert_identical(joined, GeometryColumn.from_entries(entries))
        assert joined.payloads() == [payload for payload, _ in entries]

    def test_all_point_selection_of_a_mixed_column_encodes_compact(self):
        from repro.columnar import GeometryColumn

        entries = self.rows(3)
        picks = [i for i, (_, g) in enumerate(entries) if type(g) is Point and not g.is_empty]
        assert picks
        view = GeometryColumn.from_entries(entries).take(picks)
        self.assert_identical(
            view.compact(), GeometryColumn.from_entries([entries[i] for i in picks])
        )
        assert view.compact()._data.is_point_only
