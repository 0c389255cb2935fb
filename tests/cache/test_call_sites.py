"""Every cache call site, through the one lookup in ``repro.cache``.

Three groups:

* **pins** — a cold then a warm run of each artifact kind on its
  substrate: the ordered ``CacheHit`` / ``CacheMiss`` / ``CacheEvict``
  events (type, kind, key, size), the resident entries' sizes and the
  per-kind hit / miss counts are literals, so a change to a key format,
  a size or the lookup order shows up here;
* **the off path** — with caching off (the default) no key is
  fingerprinted and no :class:`~repro.cache.CacheManager` method runs;
* **refused ids** — ids the fingerprinter cannot hash bypass the cache:
  every substrate returns the cache-off pairs instead of raising.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro import JoinConfig, spatial_join
from repro.cache import CacheManager, get_cache, set_cache
from repro.cache import fingerprint as fingerprint_mod
from repro.cluster import ClusterSpec
from repro.core.broadcast_join import broadcast_spatial_join
from repro.core.operators import SpatialOperator
from repro.geometry.prepared import clear_prepared_cache
from repro.geometry.wkt import clear_wkt_cache
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala import ColumnType, ImpalaBackend
from repro.obs.events import CACHE_EVENT_TYPES, logging_events
from repro.obs.explain import explain
from repro.runtime.config import RuntimeConfig
from repro.spark import SparkContext
from repro.spark.shuffle import estimate_bytes

BUDGET = 64 * 1024 * 1024

SQL = (
    "SELECT pnt.id, poly.id FROM pnt SPATIAL JOIN poly "
    "WHERE ST_WITHIN(pnt.geom, poly.geom)"
)


@dataclass(frozen=True, order=True)
class Tag:
    """An id the fingerprinter refuses (it hashes only plain values)."""

    name: str


def points_wkt(n=120, seed=5):
    rng = random.Random(seed)
    return [
        (i, f"POINT ({rng.uniform(0, 100):.6f} {rng.uniform(0, 100):.6f})")
        for i in range(n)
    ]


def squares_wkt():
    rows = []
    for row in range(4):
        for col in range(4):
            x0, y0 = col * 25, row * 25
            rows.append((
                4 * row + col,
                f"POLYGON (({x0} {y0}, {x0 + 25} {y0}, {x0 + 25} {y0 + 25}, "
                f"{x0} {y0 + 25}, {x0} {y0}))",
            ))
    return rows


def parsed(rows):
    from repro.geometry.wkt import loads

    return [(i, loads(text)) for i, text in rows]


@pytest.fixture(autouse=True)
def fresh_process_caches():
    """Each test starts cold and restores the shared manager afterwards."""
    old = set_cache(CacheManager(budget_bytes=None, emit_events=True))
    clear_prepared_cache()
    clear_wkt_cache()
    yield
    set_cache(old)
    clear_prepared_cache()
    clear_wkt_cache()


def cache_events(log):
    return [
        (e["event"], e["kind"], e["key"], e.get("size_bytes"))
        for e in log.events
        if e["event"] in CACHE_EVENT_TYPES
    ]


def cold_then_warm(run):
    """Run ``run()`` twice under one event log; the cache's trace."""
    with logging_events() as log:
        first = run()
        second = run()
    assert second == first
    cache = get_cache()
    return {
        "events": cache_events(log),
        "entries": [(e.kind, e.key.hex(), e.size_bytes) for e in cache.entries()],
        "hits": dict(cache.stats.hits_by_kind),
        "misses": dict(cache.stats.misses_by_kind),
    }


# -- the three substrates -------------------------------------------------------


def api_run(method, left, right, budget=BUDGET):
    runtime = RuntimeConfig(cache_budget_bytes=budget)
    return list(spatial_join(left, right, method=method, runtime=runtime))


def spark_run(left, right, budget=BUDGET):
    sc = SparkContext(ClusterSpec(2, 2), runtime=RuntimeConfig(cache_budget_bytes=budget))
    pairs = broadcast_spatial_join(
        sc, sc.parallelize(left, 2), sc.parallelize(right, 2), SpatialOperator.WITHIN
    )
    return pairs.collect()


def impala_run(budget=BUDGET):
    fs = SimulatedHDFS(block_size=1024)
    write_text(fs, "/pnt.txt", [f"{i}\t{text}" for i, text in points_wkt()])
    write_text(fs, "/poly.txt", [f"{i}\t{text}" for i, text in squares_wkt()])
    backend = ImpalaBackend(
        ClusterSpec(2, 2), hdfs=fs, runtime=RuntimeConfig(cache_budget_bytes=budget)
    )
    schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
    backend.metastore.create_table("pnt", schema, "/pnt.txt")
    backend.metastore.create_table("poly", schema, "/poly.txt")
    return backend.execute(SQL).rows


# -- (a) pins -------------------------------------------------------------------

# A partition-layout entry is charged both samples' (id, geometry)
# records plus 32 bytes a tile box: 6 728 + 1 928 + 4 x 32 = 8 784, and
# 6 728 + 8 when the right side is empty.
PINS: dict = {
    "api-broadcast": {
        "events": [
            ("CacheMiss", "parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", None),
            ("CacheMiss", "parsed-column", "b8f1a1dbf0c816c2ad5b9ee34ebd4814", None),
            ("CacheMiss", "broadcast-index", "535e09fc4124bdb90b44500883997914", None),
            ("CacheHit", "parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", 1964),
            ("CacheHit", "parsed-column", "b8f1a1dbf0c816c2ad5b9ee34ebd4814", 2068),
            ("CacheHit", "broadcast-index", "535e09fc4124bdb90b44500883997914", 2644),
        ],
        "entries": [
            ("parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", 1964),
            ("parsed-column", "b8f1a1dbf0c816c2ad5b9ee34ebd4814", 2068),
            ("broadcast-index", "535e09fc4124bdb90b44500883997914", 2644),
        ],
        "hits": {"parsed-column": 2, "broadcast-index": 1},
        "misses": {"parsed-column": 2, "broadcast-index": 1},
    },
    "api-partitioned": {
        "events": [
            ("CacheMiss", "parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", None),
            ("CacheMiss", "parsed-column", "b8f1a1dbf0c816c2ad5b9ee34ebd4814", None),
            ("CacheMiss", "partition-layout", "e409582eb4d16c14dbac24fb60b2e537", None),
            ("CacheHit", "parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", 1964),
            ("CacheHit", "parsed-column", "b8f1a1dbf0c816c2ad5b9ee34ebd4814", 2068),
            ("CacheHit", "partition-layout", "e409582eb4d16c14dbac24fb60b2e537", 8784),
        ],
        "entries": [
            ("parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", 1964),
            ("parsed-column", "b8f1a1dbf0c816c2ad5b9ee34ebd4814", 2068),
            ("partition-layout", "e409582eb4d16c14dbac24fb60b2e537", 8784),
        ],
        "hits": {"parsed-column": 2, "partition-layout": 1},
        "misses": {"parsed-column": 2, "partition-layout": 1},
    },
    "api-partitioned-empty": {
        "events": [
            ("CacheMiss", "parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", None),
            ("CacheMiss", "partition-layout", "0453c4209c4934142a93ba7089c17b37", None),
            ("CacheHit", "parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", 1964),
            ("CacheHit", "partition-layout", "0453c4209c4934142a93ba7089c17b37", 6736),
        ],
        "entries": [
            ("parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", 1964),
            ("partition-layout", "0453c4209c4934142a93ba7089c17b37", 6736),
        ],
        "hits": {"parsed-column": 1, "partition-layout": 1},
        "misses": {"parsed-column": 1, "partition-layout": 1},
    },
    "spark-broadcast": {
        "events": [
            ("CacheMiss", "spark-broadcast-index", "0f122f84c28b119319c520bb1c2c216a", None),
            ("CacheHit", "spark-broadcast-index", "0f122f84c28b119319c520bb1c2c216a", 2644),
        ],
        "entries": [
            ("spark-broadcast-index", "0f122f84c28b119319c520bb1c2c216a", 2644),
        ],
        "hits": {"spark-broadcast-index": 1},
        "misses": {"spark-broadcast-index": 1},
    },
    "impala": {
        "events": [
            ("CacheMiss", "impala-build-side", "659144587f2cbf2d43cfadeb3df502d9", None),
            ("CacheHit", "impala-build-side", "659144587f2cbf2d43cfadeb3df502d9", 2660),
        ],
        "entries": [
            ("impala-build-side", "659144587f2cbf2d43cfadeb3df502d9", 2660),
        ],
        "hits": {"impala-build-side": 1},
        "misses": {"impala-build-side": 1},
    },
    "explain": [
        ("CacheMiss", "parsed-column", "32df4fdd0d8a816c63a382a2812a8f92", None),
        ("CacheMiss", "parsed-column", "b8f1a1dbf0c816c2ad5b9ee34ebd4814", None),
        ("CacheMiss", "broadcast-index", "535e09fc4124bdb90b44500883997914", None),
    ],
}


class TestPins:
    def test_api_broadcast(self):
        trace = cold_then_warm(lambda: api_run("broadcast", points_wkt(), squares_wkt()))
        assert trace == PINS["api-broadcast"]

    def test_api_partitioned(self):
        trace = cold_then_warm(lambda: api_run("partitioned", points_wkt(), squares_wkt()))
        assert trace == PINS["api-partitioned"]

    def test_api_partitioned_empty_side(self):
        # The layout entry of an empty side holds no tiles; a hit on it
        # still ends the join with no pairs.
        trace = cold_then_warm(lambda: api_run("partitioned", points_wkt(), []))
        assert trace == PINS["api-partitioned-empty"]

    def test_spark_broadcast(self):
        left, right = parsed(points_wkt()), parsed(squares_wkt())
        trace = cold_then_warm(lambda: spark_run(left, right))
        assert trace == PINS["spark-broadcast"]

    def test_impala_build_side(self):
        trace = cold_then_warm(impala_run)
        assert trace == PINS["impala"]

    def test_explain_peeks_residency_without_counting(self):
        left, right = points_wkt(), squares_wkt()
        config = JoinConfig(runtime=RuntimeConfig(cache_budget_bytes=BUDGET))
        cache = get_cache()
        with logging_events() as log:
            cold = explain(left, right, config=config)
            api_run("broadcast", left, right)
            before = cache.stats.as_dict()
            warm = explain(left, right, config=config)
            after = cache.stats.as_dict()
        assert after == before
        assert cold.plan["cache"] == {"enabled": True, "build_resident": False}
        assert warm.plan["cache"] == {"enabled": True, "build_resident": True}
        assert cache_events(log) == PINS["explain"]


# -- (b) the off path -----------------------------------------------------------


@pytest.fixture
def spies(monkeypatch):
    """Counts key fingerprints and every CacheManager method call.

    ``_update_value`` is the body every key fingerprinter streams its
    rows and context through; the always-on prepared-handle cache's
    geometry digest does not use it.
    """
    calls: list[str] = []
    original = fingerprint_mod._update_value

    def update_value(h, value):
        calls.append("fingerprint")
        return original(h, value)

    monkeypatch.setattr(fingerprint_mod, "_update_value", update_value)
    for name, member in list(vars(CacheManager).items()):
        if callable(member):
            def spy(*args, _member=member, _name=name, **kwargs):
                calls.append(f"CacheManager.{_name}")
                return _member(*args, **kwargs)

            monkeypatch.setattr(CacheManager, name, spy)
    return calls


class TestOffPath:
    def test_the_spies_see_a_cached_run(self, spies):
        api_run("broadcast", points_wkt(), squares_wkt())
        assert "fingerprint" in spies
        assert {"CacheManager.get", "CacheManager.put"} <= set(spies)

    @pytest.mark.parametrize("method", ["broadcast", "partitioned", "auto"])
    def test_api(self, spies, method):
        api_run(method, points_wkt(), squares_wkt(), budget=None)
        assert spies == []

    def test_explain(self, spies):
        explain(points_wkt(), squares_wkt())
        assert spies == []

    def test_spark(self, spies):
        spark_run(parsed(points_wkt()), parsed(squares_wkt()), budget=None)
        assert spies == []

    def test_impala(self, spies):
        impala_run(budget=None)
        assert spies == []


# -- (c) refused ids ------------------------------------------------------------


def tagged(rows):
    return [(Tag(f"r{i}"), geometry) for i, geometry in rows]


class TestRefusedIds:
    @pytest.mark.parametrize("method", ["broadcast", "partitioned", "auto"])
    def test_api(self, method):
        left, right = points_wkt(), tagged(squares_wkt())
        off = api_run(method, left, right, budget=None)
        assert api_run(method, left, right) == off
        assert len(get_cache()) == 1  # only the left side's parsed column

    def test_spark(self):
        left, right = parsed(points_wkt()), tagged(parsed(squares_wkt()))
        assert spark_run(left, right) == spark_run(left, right, budget=None)
        assert len(get_cache()) == 0

    def test_impala(self, monkeypatch):
        off = impala_run(budget=None)

        def refuse(h, value):
            raise TypeError("cannot fingerprint")

        monkeypatch.setattr(fingerprint_mod, "_update_value", refuse)
        assert impala_run() == off
        assert len(get_cache()) == 0


# -- partition layouts are sized from what they hold ----------------------------


class TestLayoutSize:
    def test_a_layout_is_charged_its_samples_and_tiles(self):
        left, right = parsed(points_wkt()), parsed(squares_wkt())
        api_run("partitioned", left, right)
        (entry,) = get_cache().entries()
        stats, partitioning = entry.value
        held = (
            estimate_bytes(stats.left.sample)
            + estimate_bytes(stats.right.sample)
            + 32 * len(partitioning)
        )
        assert entry.size_bytes >= held

    def test_the_budget_bounds_layouts(self):
        # Geometry inputs: no parsed-column entry, so the layout would be
        # the only entry; it holds ~7 KB of samples, over this budget.
        left, right = parsed(points_wkt()), parsed(squares_wkt())
        api_run("partitioned", left, right, budget=2048)
        cache = get_cache()
        assert len(cache) == 0
        assert cache.stats.rejected == 1
