"""A pool worker SIGKILLed in the middle of a whole join.

The probe kills its own process whenever it runs in a pool worker, so
every worker dies mid-task without reporting.  Each join must fail with
:class:`PoolError` naming the lost tasks, leave no child process behind
and return promptly instead of waiting on results that never come.
"""

import multiprocessing
import os
import random
import signal
import time

import pytest

from repro import JoinConfig, spatial_join
from repro.cluster import ClusterSpec
from repro.core.broadcast_join import broadcast_spatial_join
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex, PreparedBuild
from repro.geometry import Point, Polygon
from repro.runtime import PoolError, RuntimeConfig
from repro.runtime.pool import current_worker_id
from repro.spark import SparkContext

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _points(n=200, seed=5):
    rng = random.Random(seed)
    return [(i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(n)]


def _boxes():
    return [
        (row * 4 + col, Polygon([
            (col * 25.0, row * 25.0), (col * 25.0 + 25.0, row * 25.0),
            (col * 25.0 + 25.0, row * 25.0 + 25.0), (col * 25.0, row * 25.0 + 25.0),
        ]))
        for row in range(4)
        for col in range(4)
    ]


def _dies_in_worker(probe):
    def patched(*args, **kwargs):
        if current_worker_id() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return probe(*args, **kwargs)

    return patched


def _assert_lost_and_reaped(run):
    start = time.monotonic()
    with pytest.raises(PoolError, match=r"task\(s\) lost"):
        run()
    assert time.monotonic() - start < 30.0
    assert multiprocessing.active_children() == []


def test_broadcast_spatial_join(monkeypatch):
    monkeypatch.setattr(
        BroadcastIndex, "probe_pairs", _dies_in_worker(BroadcastIndex.probe_pairs)
    )
    sc = SparkContext(ClusterSpec(2, 2), runtime=RuntimeConfig(executors=2))
    left = sc.parallelize(_points(), 4)
    right = sc.parallelize(_boxes(), 2)
    joined = broadcast_spatial_join(sc, left, right, SpatialOperator.WITHIN)
    _assert_lost_and_reaped(joined.collect)


def test_partitioned_join(monkeypatch):
    monkeypatch.setattr(
        PreparedBuild, "probe_tiles", _dies_in_worker(PreparedBuild.probe_tiles)
    )
    config = JoinConfig(
        operator="within",
        method="partitioned",
        runtime=RuntimeConfig(executors=2),
    )
    _assert_lost_and_reaped(lambda: spatial_join(_points(), _boxes(), config=config))
