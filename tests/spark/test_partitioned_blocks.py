"""Identity pins for the partitioned joins' tile stage.

Both partitioned joins — SpatialSpark's ``partitioned_spatial_join`` and
``spatial_join(method="partitioned")`` — prepare their build side once
and probe every tile of a stage in one call: one STR-tree per tile, one
``refine_candidates`` over every tile's candidates, the owner rule as
array operations, the result cut back per tile.  None of that may move a
byte: the digests below were taken from the per-tile pipeline (one
``BroadcastIndex`` and one probe per tile, the owner rule as a set loop)
on the same inputs, and every run — serial, on a 2-worker fork pool and
under an empty fault plan — must reproduce them.

The inputs are built to reach every corner of the tile stage: right ids
that repeat with different geometries, a right row that reaches every
tile (the ``wide`` table), left lines that span several tiles, points on
tile edges, tiles with rows on one side only, and rows far outside the
layout's extent that only ``cover_plane``'s unbounded outer tiles reach.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random

import pytest

from repro import JoinConfig, spatial_join
from repro.cluster import ClusterSpec
from repro.core.broadcast_join import read_geometry_pairs
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import partitioned_spatial_join
from repro.core.probe import PreparedBuild
from repro.geometry.envelope import Envelope
from repro.hdfs import SimulatedHDFS, write_text
from repro.index.partitioner import FixedGridPartitioner, cover_plane
from repro.obs.events import normalize_events, read_events
from repro.obs.registry import collecting
from repro.runtime import FaultPlan, RuntimeConfig
from repro.spark import SparkContext

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="fork start method unavailable"
)

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)
LEFT, RIGHT = "/data/left.txt", "/data/right.txt"
BLOCK_SIZE = 700
# A 3 x 3 grid of 4 x 4 tiles over [0, 12]^2, outer edges unbounded.
LAYOUT = cover_plane(FixedGridPartitioner(3, 3).partition(Envelope(0, 0, 12, 12)))
# Right ids repeat: row k carries id k % DUPLICATE_IDS.
DUPLICATE_IDS = 7
OPERATORS = {
    "within": (SpatialOperator.WITHIN, 0.0),
    "nearestd": (SpatialOperator.NEAREST_D, 0.6),
    "intersects": (SpatialOperator.INTERSECTS, 0.0),
}


def _box(x0, y0, w, h):
    return f"POLYGON (({x0} {y0}, {x0 + w} {y0}, {x0 + w} {y0 + h}, {x0} {y0 + h}, {x0} {y0}))"


def left_wkt(seed=3) -> list[str]:
    """Points (some exactly on tile edges), tile-spanning lines, small
    polygons and far-away points; nothing in the tile [0, 4] x [8, 12]."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < 70:
        x, y = round(rng.uniform(0, 12), 2), round(rng.uniform(0, 12), 2)
        if x <= 4.5 and y >= 7.5:
            continue
        kind = len(rows) % 5
        if kind == 3:
            rows.append(f"LINESTRING ({x} {y}, {round(x + 6.5, 2)} {round(y - 2.1, 2)}, "
                        f"{round(x + 7.2, 2)} {round(y + 0.4, 2)})")
        elif kind == 4:
            rows.append(_box(x, y, 0.7, 0.5))
        else:
            rows.append(f"POINT ({x} {y})")
    rows += [f"POINT ({x} {y})" for x, y in ((4, 2), (8, 4), (4, 4), (6, 8), (12, 6))]
    rows += ["POINT (-20 5)", "POINT (30 31)", "LINESTRING (-9 1, 25 2.5)"]
    return rows


def right_wkt(wide: bool, lines: bool) -> list[str]:
    """Polygons (and, with ``lines``, polylines) west of x = 7, a point and
    one far-out polygon per far-away left point; ``wide`` adds a polygon
    that reaches every tile."""
    rows = []
    for i in range(3):
        for j in range(3):
            rows.append(_box(i * 2.0 + 0.3, j * 4.0 + 0.5, 1.8, 3.2))
    if lines:
        # The point leaves its tile's build rows short of the Intersects
        # pair kernel's types; every other tile's are all of them.
        rows += ["LINESTRING (0.5 1, 6.5 3.5)", "LINESTRING (1 6, 6 6.2, 6.9 9)",
                 "POINT (9.5 10.5)"]
    rows += [
        _box(1, 9, 2, 2),  # alone in the tile no left row reaches
        _box(-22, 3, 4, 4),
        _box(28, 29, 4, 4),
    ]
    if wide:
        rows.append(_box(-1, -1, 14, 14))
    return rows


def _hdfs(right: list[str]) -> SimulatedHDFS:
    hdfs = SimulatedHDFS(datanodes=("node0", "node1"), replication=1)
    for path, rows in ((LEFT, left_wkt()), (RIGHT, right)):
        write_text(hdfs, path, [f"{i}\t{text}" for i, text in enumerate(rows)],
                   block_size=BLOCK_SIZE)
    return hdfs


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _duplicate_id(record):
    return record[0] % DUPLICATE_IDS, record[1]


def spark_snapshot(runtime: RuntimeConfig, events_path: str, operator: str, wide: bool):
    op, radius = OPERATORS[operator]
    with collecting() as registry:
        hdfs = _hdfs(right_wkt(wide, op is not SpatialOperator.WITHIN))
        sc = SparkContext(SPEC, hdfs=hdfs, runtime=runtime.with_(events_out=events_path))
        left = read_geometry_pairs(sc, LEFT, 1)
        right = read_geometry_pairs(sc, RIGHT, 1).map(_duplicate_id)
        pairs = partitioned_spatial_join(
            sc, left, right, op, radius=radius, partitioning=LAYOUT
        ).collect()
        sc.close_events()
        counters = sorted(registry.snapshot()["counters"].items())
    tasks = [
        [list(task.counts.items()) for task in stage.tasks]
        for job in sc.job_log
        for stage in job.stages
    ]
    return {
        "pairs": _digest(pairs),
        "num_pairs": len(pairs),
        "task_counts": _digest(tasks),
        "stage_summaries": _digest(sc._scheduler.stage_summaries),
        "events": _digest(normalize_events(read_events(events_path))),
        "counters": _digest(counters),
        "sim_seconds": sc.simulated_seconds().hex(),
    }


def api_snapshot(runtime: RuntimeConfig, events_path: str, operator: str, wide: bool):
    op, radius = OPERATORS[operator]
    right = [(k % DUPLICATE_IDS, text) for k, text in enumerate(
        right_wkt(wide, op is not SpatialOperator.WITHIN)
    )]
    with collecting() as registry:
        result = spatial_join(
            list(enumerate(left_wkt())),
            right,
            config=JoinConfig(
                operator=op.value, radius=radius, method="partitioned", profile=True,
                workers=4,
            ),
            runtime=runtime.with_(events_out=events_path),
        )
        counters = sorted(registry.snapshot()["counters"].items())
    metrics = result.profile.metrics
    tasks = [[list(task.counts.items()) for task in stage.tasks] for stage in metrics.stages]
    return {
        "pairs": _digest(list(result.pairs)),
        "num_pairs": len(result.pairs),
        "task_counts": _digest(tasks),
        "stage_summaries": _digest(
            [(stage.name, stage.makespan_seconds.hex()) for stage in metrics.stages]
        ),
        "events": _digest(normalize_events(read_events(events_path))),
        "counters": _digest(counters),
        "sim_seconds": metrics.simulated_seconds.hex(),
    }


SNAPSHOTS = {"spark": spark_snapshot, "api": api_snapshot}

# Taken from the per-tile pipeline; see the module docstring.
PINNED = {
    ("spark", "within", False): {
        "pairs": "b4139d4e6fbd869e",
        "num_pairs": 13,
        "task_counts": "60b67d326cd71d0d",
        "stage_summaries": "c00d424483c82b2c",
        "events": "dcad39c8c64b4397",
        "counters": "90ba52887c94173c",
        "sim_seconds": "0x1.d3f850df15a4bp+3",
    },
    ("spark", "within", True): {
        "pairs": "bb54983e9892407a",
        "num_pairs": 80,
        "task_counts": "3e63b5ac9b225e57",
        "stage_summaries": "2b552277bc67f569",
        "events": "f76a790ed55dcaaa",
        "counters": "e2d9d6efa4a1ab81",
        "sim_seconds": "0x1.db7f455a7d241p+3",
    },
    ("spark", "nearestd", False): {
        "pairs": "f72a012516d8f2a0",
        "num_pairs": 77,
        "task_counts": "2ab45cd1d8ab0941",
        "stage_summaries": "446c4499c02fb747",
        "events": "0cd1dbc2f98b4a2f",
        "counters": "c98e68855e1351ea",
        "sim_seconds": "0x1.e5e49f51697f1p+3",
    },
    ("spark", "nearestd", True): {
        "pairs": "01b8da0a187f1a0f",
        "num_pairs": 153,
        "task_counts": "2fb6d9506e2f8ca5",
        "stage_summaries": "7382d149eb0be30e",
        "events": "a3fd4960ad78d985",
        "counters": "06958b17094af163",
        "sim_seconds": "0x1.ef729e830d661p+3",
    },
    ("spark", "intersects", False): {
        "pairs": "53f85b91f693c4b5",
        "num_pairs": 43,
        "task_counts": "07fb9cf483ee6c3c",
        "stage_summaries": "26280f11554d0630",
        "events": "a401eda9bf57b385",
        "counters": "81920ca055950fd0",
        "sim_seconds": "0x1.d8b03ef78c93ep+3",
    },
    ("spark", "intersects", True): {
        "pairs": "6b725b77befe3ad2",
        "num_pairs": 119,
        "task_counts": "fbdf8706ee8dc0ba",
        "stage_summaries": "706cbaf804e28b3a",
        "events": "f86afc795ee938b1",
        "counters": "54948edef855d229",
        "sim_seconds": "0x1.dd57745b1baf8p+3",
    },
    ("api", "within", False): {
        "pairs": "6f0d181b747bf0df",
        "num_pairs": 13,
        "task_counts": "60c13aed3739628e",
        "stage_summaries": "f3eacaa1a62e56d2",
        "events": "9e6457eae2cb2188",
        "counters": "3770349f5931524c",
        "sim_seconds": "0x1.5c7c0f4517614p+2",
    },
    ("api", "within", True): {
        "pairs": "514a383ff3de2a79",
        "num_pairs": 80,
        "task_counts": "c2fa5c5db6218d9b",
        "stage_summaries": "5611d3a11b8351c3",
        "events": "6e731295941a16c9",
        "counters": "c07c900a9af3ffe5",
        "sim_seconds": "0x1.5cbcf0b6b6e0ep+2",
    },
    ("api", "nearestd", False): {
        "pairs": "c3fb9675563db1ad",
        "num_pairs": 77,
        "task_counts": "4d1ce2928c5796e7",
        "stage_summaries": "e8edcdb62d6a78d0",
        "events": "70b12ea2935882e1",
        "counters": "70480a662f8d259e",
        "sim_seconds": "0x1.5d9146e4c0df5p+2",
    },
    ("api", "nearestd", True): {
        "pairs": "f29e775d389d3d22",
        "num_pairs": 153,
        "task_counts": "fb473c77461ae856",
        "stage_summaries": "dbd287682d07f455",
        "events": "7bea652d1777eec3",
        "counters": "9d64a571511f077e",
        "sim_seconds": "0x1.6fd7c2ca148bcp+2",
    },
    ("api", "intersects", False): {
        "pairs": "1bb123e16a73f41a",
        "num_pairs": 43,
        "task_counts": "21c08fc4e4cb656e",
        "stage_summaries": "fae847e0dc5c68e8",
        "events": "a71f5b0becbe7b83",
        "counters": "970d67a7e51b8b3b",
        "sim_seconds": "0x1.5c8b652370479p+2",
    },
    ("api", "intersects", True): {
        "pairs": "9fc3ffcd0e4d2c80",
        "num_pairs": 119,
        "task_counts": "4922dbf979a4b999",
        "stage_summaries": "78fa21a172a7072d",
        "events": "b729ec3f8e8bef7a",
        "counters": "c6827409519c24e7",
        "sim_seconds": "0x1.64bf2b239a390p+2",
    },
}

RUNTIMES = [
    pytest.param(RuntimeConfig(), id="serial"),
    pytest.param(RuntimeConfig(executors=2), id="pool2", marks=needs_fork),
    pytest.param(RuntimeConfig(fault_plan=FaultPlan()), id="empty-plan"),
]


@pytest.mark.parametrize("wide", [False, True], ids=["sparse", "wide"])
@pytest.mark.parametrize("operator", list(OPERATORS))
@pytest.mark.parametrize("substrate", list(SNAPSHOTS))
@pytest.mark.parametrize("runtime", RUNTIMES)
def test_pinned_across_runtimes(tmp_path, runtime, substrate, operator, wide):
    snapshot = SNAPSHOTS[substrate](runtime, str(tmp_path / "events.jsonl"), operator, wide)
    assert snapshot == PINNED[substrate, operator, wide]


@pytest.mark.parametrize("substrate", list(SNAPSHOTS))
def test_one_refinement_per_serial_tile_stage(tmp_path, monkeypatch, substrate):
    """Every tile's candidate pairs are refined in one call."""
    calls = []
    refine = PreparedBuild.refine_candidates
    monkeypatch.setattr(
        PreparedBuild,
        "refine_candidates",
        lambda self, column, *args, **kwargs: (
            calls.append(len(column)), refine(self, column, *args, **kwargs)
        )[1],
    )
    snapshot = SNAPSHOTS[substrate](
        RuntimeConfig(), str(tmp_path / "events.jsonl"), "nearestd", True
    )
    assert snapshot == PINNED[substrate, "nearestd", True]
    assert len(calls) == 1
