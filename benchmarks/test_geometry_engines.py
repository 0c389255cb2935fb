"""Section V.B in-text microbenchmark — JTS vs GEOS on the Within predicate.

The paper runs 10-thousand-point samples (taxi10k, gbif10k) against the
nycb and wwf polygon layers in a standalone harness and measures JTS
3.3x faster than GEOS on taxi10k-nycb and 3.9x on gbif10k-wwf, blaming
GEOS's small-object churn.

This is the one benchmark family measured in *wall-clock* (the engines
are real code, so the churn is real); rounds > 1 give pytest-benchmark
honest statistics.  Note: our fast engine's prepared strip index makes
the measured wall-clock gap larger than the paper's 3.3-3.9x — the
simulated tables charge JTS-equivalent costs instead (see DESIGN.md §5).
"""

import pytest

from repro.bench import materialize
from repro.core import BroadcastIndex, SpatialOperator, refine_pair
from conftest import SCALE

SAMPLE = 2_000  # probes per measurement round


@pytest.fixture(scope="module")
def taxi_nycb():
    mat = materialize("taxi-nycb", scale=SCALE)
    return mat.left.records[:SAMPLE], mat.right.records


@pytest.fixture(scope="module")
def gbif_wwf():
    mat = materialize("G10M-wwf", scale=SCALE)
    return mat.left.records[:SAMPLE], mat.right.records


def probe_all(points, index):
    """Matches of every point, one scalar engine predicate per candidate
    (the engines' pair kernels would charge the churn, not perform it)."""
    total = 0
    for _, point in points:
        for k in index.tree.query(point.envelope):
            total += refine_pair(
                index.engine, index.operator, point, index._geometries[k],
                index.handles[k], index.radius,
            )
    return total


@pytest.mark.parametrize("engine", ["fast", "slow"])
def test_within_taxi10k_nycb(benchmark, taxi_nycb, engine):
    points, polygons = taxi_nycb
    index = BroadcastIndex(polygons, SpatialOperator.WITHIN, engine=engine)
    matches = benchmark(probe_all, points, index)
    benchmark.extra_info["matches"] = matches
    benchmark.extra_info["label"] = f"within taxi10k-nycb [{engine}]"


@pytest.mark.parametrize("engine", ["fast", "slow"])
def test_within_gbif10k_wwf(benchmark, gbif_wwf, engine):
    points, regions = gbif_wwf
    index = BroadcastIndex(regions, SpatialOperator.WITHIN, engine=engine)
    matches = benchmark(probe_all, points, index)
    benchmark.extra_info["matches"] = matches
    benchmark.extra_info["label"] = f"within gbif10k-wwf [{engine}]"


def test_fast_engine_wins_both_samples(taxi_nycb, gbif_wwf):
    """Directional check without pytest-benchmark plumbing."""
    import timeit

    for points, polygons in (taxi_nycb, gbif_wwf):
        fast = BroadcastIndex(polygons, SpatialOperator.WITHIN, engine="fast")
        slow = BroadcastIndex(polygons, SpatialOperator.WITHIN, engine="slow")
        assert probe_all(points, fast) == probe_all(points, slow)
        t_fast = timeit.timeit(lambda: probe_all(points[:500], fast), number=3)
        t_slow = timeit.timeit(lambda: probe_all(points[:500], slow), number=3)
        assert t_slow > t_fast  # the paper's 3.3x/3.9x direction
