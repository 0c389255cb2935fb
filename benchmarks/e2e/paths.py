"""The four query paths a user can call, and the inputs they run on.

Each path function takes the environment and one left batch, and returns
``(pairs, simulated_seconds)`` with the full pair list in hand; callers
time the call from outside.  Nothing here records spans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cluster.model import ClusterSpec
from repro.core import naive_spatial_join
from repro.core.api import JoinConfig, spatial_join
from repro.core.broadcast_join import broadcast_spatial_join, read_geometry_pairs
from repro.core.partitioned_join import partitioned_spatial_join
from repro.geometry import wkt_loads
from repro.geometry.wkt import clear_wkt_cache, wkt_cache_stats
from repro.hdfs import SimulatedHDFS
from repro.impala import ColumnType, ImpalaBackend
from repro.index.partitioner import SortTilePartitioner
from repro.runtime import RuntimeConfig
from repro.spark.context import SparkContext

from workloads import (
    Workload,
    generate_left,
    generate_right,
    join_sql,
    radius_of,
    table_lines,
    wkt_rows,
    write_table,
)

# The paper's EC2 fleet: ten g2.2xlarge nodes (8 vCPU, 15 GB).
CLUSTER = ClusterSpec(num_nodes=10, cores_per_node=8, mem_per_node_gb=15.0,
                      name="g2.2xlarge")
RIGHT_PATH = "/data/right.txt"
LEFT_BLOCKS = 40
RIGHT_BLOCKS = 10
TILE_SAMPLE_FRACTION = 0.05
_SCHEMA = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]


@dataclass
class Batch:
    """One left batch: its HDFS file and the same rows as API input."""

    index: int
    path: str
    lines: list[str]
    rows: list[tuple[int, str]]


@dataclass
class Env:
    """A workload's right table on a fresh HDFS, ready for every path."""

    workload: Workload
    seed: int
    hdfs: SimulatedHDFS
    right: object  # the generated right dataset (GBIF batches cluster on it)
    right_lines: list[str]
    right_rows: list[tuple[int, str]]
    radius: float
    # Memo entries when it holds exactly the right table (-1: not yet warmed).
    warm_entries: int = -1


def out_dir() -> Path:
    """Where run-time files go: ``.bench_out`` at the checkout's root."""
    out = Path(__file__).resolve().parents[2] / ".bench_out"
    out.mkdir(exist_ok=True)
    return out


def new_hdfs() -> SimulatedHDFS:
    return SimulatedHDFS(
        datanodes=tuple(f"node{i}" for i in range(CLUSTER.num_nodes)), replication=2
    )


def make_env(workload: Workload, seed: int, right, right_lines: list[str]) -> Env:
    """Write the right table to a fresh HDFS."""
    hdfs = new_hdfs()
    write_table(hdfs, RIGHT_PATH, right_lines, RIGHT_BLOCKS)
    return Env(
        workload=workload,
        seed=seed,
        hdfs=hdfs,
        right=right,
        right_lines=right_lines,
        right_rows=wkt_rows(right_lines),
        radius=radius_of(workload, right),
    )


def write_batch(env: Env, index: int, lines: list[str]) -> Batch:
    path = f"/data/left_{index}.txt"
    write_table(env.hdfs, path, lines, LEFT_BLOCKS)
    return Batch(index=index, path=path, lines=lines, rows=wkt_rows(lines))


def setup(workload: Workload, seed: int) -> tuple[Env, Batch]:
    """Generate, Morton-sort and write the right table and left batch 0."""
    right = generate_right(workload)
    left = generate_left(workload, seed, 0, right)
    env = make_env(workload, seed, right, table_lines(right))
    return env, write_batch(env, 0, table_lines(left))


def next_batch(env: Env, index: int) -> Batch:
    """Generate and write a fresh left batch (outside any timed region)."""
    left = generate_left(env.workload, env.seed, index, env.right)
    return write_batch(env, index, table_lines(left))


def drop_batch(env: Env, batch: Batch) -> None:
    env.hdfs.delete(batch.path)


def cold_left_warm_right(env: Env) -> None:
    """Put the process-wide WKT parse memo in the state a fresh query sees.

    The memo keeps longer texts, so street polylines parsed by one path
    would be memo hits for the next path joining the same batch.  Before
    every sample the memo must hold the reference table and nothing else:
    left side cold, right side warm (an analyst re-probing one reference
    table).  If the last sample left anything else in it, it is dropped
    and the right table re-parsed.
    """
    if wkt_cache_stats()["entries"] == env.warm_entries:
        return
    clear_wkt_cache()
    for _, text in env.right_rows:
        wkt_loads(text)
    env.warm_entries = wkt_cache_stats()["entries"]


# -- the four paths -----------------------------------------------------------


def ss_context(env: Env, runtime: RuntimeConfig | None = None) -> SparkContext:
    return SparkContext(CLUSTER, hdfs=env.hdfs, runtime=runtime)


def ss_join(sc: SparkContext, env: Env, batch: Batch) -> list:
    left = read_geometry_pairs(sc, batch.path, 1)
    right = read_geometry_pairs(sc, RIGHT_PATH, 1)
    pairs = broadcast_spatial_join(
        sc, left, right, env.workload.operator, radius=env.radius
    ).collect()
    sc.close_events()
    return pairs


def run_ss(env: Env, batch: Batch, runtime: RuntimeConfig | None = None):
    """SpatialSpark broadcast join."""
    sc = ss_context(env, runtime)
    pairs = ss_join(sc, env, batch)
    return pairs, sc.simulated_seconds()


def run_ss_part(env: Env, batch: Batch):
    """SpatialSpark partitioned join (the shuffle path).

    Tiles are sort-tile cuts of a 5 % sample of the left side over the
    dataset's known extent, passed in as ``partitioning=`` the way
    SpatialSpark's own partitioned join takes its extent from the caller.
    (Left to itself the join tiles the *sample's* bounding box; pairs that
    meet outside it can then lose their common tile — see README.md.)
    """
    sc = ss_context(env)
    left = read_geometry_pairs(sc, batch.path, 1)
    right = read_geometry_pairs(sc, RIGHT_PATH, 1)
    sample = left.sample(TILE_SAMPLE_FRACTION).collect()
    tiles = SortTilePartitioner(CLUSTER.total_cores).partition(
        env.right.extent, [geometry.envelope.center for _, geometry in sample]
    )
    pairs = partitioned_spatial_join(
        sc, left, right, env.workload.operator, radius=env.radius, partitioning=tiles
    ).collect()
    return pairs, sc.simulated_seconds()


def impala_backend(env: Env, batch: Batch) -> ImpalaBackend:
    backend = ImpalaBackend(CLUSTER, hdfs=env.hdfs)
    backend.metastore.create_table("left_table", _SCHEMA, batch.path)
    backend.metastore.create_table("right_table", _SCHEMA, RIGHT_PATH)
    return backend


def isp_sql(env: Env) -> str:
    return join_sql(env.workload, env.radius, "left_table", "right_table")


def run_isp(env: Env, batch: Batch):
    """ISP-MC: the SQL spatial join on the Impala substrate."""
    result = impala_backend(env, batch).execute(isp_sql(env))
    return result.rows, result.simulated_seconds


def api_config(env: Env, **changes) -> JoinConfig:
    return JoinConfig(
        operator=env.workload.operator, radius=env.radius, **changes
    )


def run_api(env: Env, batch: Batch):
    """``spatial_join`` with the default ``method="auto"``, WKT strings in.

    The API path has no cost-model clock unless profiling is on, so its
    simulated seconds are reported as ``None``.
    """
    result = spatial_join(batch.rows, env.right_rows, config=api_config(env))
    return result.pairs, None


PATHS = {"ss": run_ss, "ss_part": run_ss_part, "isp": run_isp, "api": run_api}


# -- answers ------------------------------------------------------------------


def pair_digest(pairs) -> str:
    """Order-independent digest of a pair list (duplicates count)."""
    array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((array[:, 1], array[:, 0]))
    return hashlib.sha256(array[order].tobytes()).hexdigest()[:32]


def oracle_digest(env: Env, batch: Batch) -> str:
    """The nested-loop reference answer for one batch."""
    left = [(i, wkt_loads(text)) for i, text in batch.rows]
    right = [(i, wkt_loads(text)) for i, text in env.right_rows]
    return pair_digest(
        naive_spatial_join(left, right, env.workload.operator, radius=env.radius)
    )
