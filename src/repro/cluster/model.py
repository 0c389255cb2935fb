"""Cluster specification and the deterministic cost model.

The paper's evaluation ran on 10 Amazon EC2 ``g2.2xlarge`` instances
(8 vCPUs, 15 GB RAM, 60 GB SSD).  We cannot rent that cluster, so the
benchmark harness *executes the joins for real* (real geometry, real
indexes, real join pairs) while accounting each task's work in resource
units; a task's simulated duration is the dot product of its unit counts
with the per-unit costs below, and a query's simulated runtime is the
makespan of its tasks under the engine's scheduling policy
(:mod:`repro.cluster.simulation`).

The per-unit costs are calibrated once, by construction, to reproduce the
*relative* magnitudes the paper reports (its Tables 1-2, Figs 4-5), not
EC2-absolute seconds:

* ``refine_vertex_slow``/``refine_alloc`` vs ``refine_vertex_fast`` encode
  the measured JTS-vs-GEOS refinement gap (3.3x-3.9x in Section V.B);
* ``spark_stage_base``/``spark_stage_per_partition`` encode Spark's
  per-stage actor-system reconstruction overhead (Section III);
* ``spark_jar_ship`` encodes the per-run JAR shipping cost (Section VI);
* ``impala_fragment_startup`` (LLVM JIT + plan distribution) and
  ``impala_batch_overhead`` encode Impala's 7.3-13.9% infrastructure
  overhead over standalone ISP-MC (Section V.B, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BenchError

__all__ = ["ClusterSpec", "CostModel", "EC2_G2_2XLARGE", "Resource"]


class Resource:
    """Names of the resource-unit counters tasks may accrue.

    Kept as plain strings (dict keys) rather than an enum so engines can
    add counters without touching this module; the canonical set is below.
    """

    HDFS_BYTES = "hdfs_bytes"          # bytes read from HDFS
    WKT_BYTES = "wkt_bytes"            # bytes of WKT parsed
    WKB_BYTES = "wkb_bytes"            # bytes of WKB decoded (ablation a3)
    INDEX_BUILD = "index_build"        # entries bulk-loaded into an R-tree
    INDEX_VISIT = "index_visit"        # R-tree nodes visited while probing
    REFINE_VERTEX_FAST = "refine_vertex_fast"  # vertices tested, fast engine
    REFINE_VERTEX_SLOW = "refine_vertex_slow"  # vertices tested, slow engine
    REFINE_ALLOC = "refine_alloc"      # churned objects, slow engine
    SHUFFLE_BYTES = "shuffle_bytes"    # bytes exchanged via shuffle
    BROADCAST_BYTES = "broadcast_bytes"  # bytes broadcast per receiving node
    ROWS_OUT = "rows_out"              # result rows materialised
    RDD_RECORDS = "rdd_records"        # records through JVM RDD pipelines
    ROW_BATCHES = "row_batches"        # Impala row batches processed


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of worker nodes."""

    num_nodes: int
    cores_per_node: int = 8
    mem_per_node_gb: float = 15.0
    name: str = "cluster"

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise BenchError(f"cluster needs >= 1 node, got {self.num_nodes}")
        if self.cores_per_node < 1:
            raise BenchError(f"nodes need >= 1 core, got {self.cores_per_node}")

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.cores_per_node

    def scaled(self, num_nodes: int) -> "ClusterSpec":
        """Return the same node type at a different cluster size."""
        return ClusterSpec(
            num_nodes, self.cores_per_node, self.mem_per_node_gb, self.name
        )


def EC2_G2_2XLARGE(num_nodes: int) -> ClusterSpec:
    """The paper's testbed node type at a chosen cluster size."""
    return ClusterSpec(
        num_nodes=num_nodes, cores_per_node=8, mem_per_node_gb=15.0, name="g2.2xlarge"
    )


@dataclass(frozen=True)
class CostModel:
    """Per-unit simulated costs, in simulated seconds per unit.

    The defaults are the calibrated values used by every benchmark; tests
    that probe scheduling behaviour construct custom models.
    """

    # Global calibration: benchmark datasets are scaled-down stand-ins
    # (e.g. 34K synthetic pickups for 170M real ones), so one unit of
    # counted work represents work_scale units on the paper's testbed.
    # All data-proportional costs are multiplied by it; per-event control
    # overheads (planning, JIT, stage setup, JAR shipping) are real-world
    # constants and are not.  The default was derived once by anchoring
    # the standalone ISP-MC taxi-nycb run to the paper's 507 s (Table 1)
    # and then frozen; repro.bench.calibrate.derive_work_scale re-derives
    # it on demand.
    work_scale: float = 36_000.0
    # JVM execution tax: Spark task work runs on the JVM ("virtual
    # machines (JVM) for portability at the expense of efficiency",
    # Section VI); Impala's backend is native C++.
    spark_jvm_factor: float = 1.35
    # Per-record RDD pipeline overhead: each record crosses several JVM
    # closures with boxing/tuple allocation (map -> zipWithIndex ->
    # flatMap in Fig 2); Impala's codegen'd row batches avoid this, which
    # is why ISP-MC wins the scan-dominated taxi-nycb run in Table 1.
    rdd_record: float = 2.0e-7
    # I/O and parsing.
    hdfs_byte: float = 4.0e-9
    wkt_byte: float = 4.0e-8
    wkb_byte: float = 4.0e-9          # binary decode ~10x cheaper than WKT
    # Spatial filtering.
    index_build_entry: float = 1.2e-6
    index_visit: float = 1.5e-7
    # Spatial refinement: the JTS-vs-GEOS axis.  slow/fast vertex ratio plus
    # the per-allocation churn term yields ~3.3x on nycb-like polygons
    # (9 vertices) and ~3.9x on wwf-like polygons (279 vertices), matching
    # Section V.B.
    refine_vertex_fast: float = 3.0e-8
    refine_vertex_slow: float = 8.0e-8
    refine_alloc: float = 3.8e-8
    # Data movement.
    shuffle_byte: float = 5.0e-10
    broadcast_byte: float = 8.0e-9
    # Extra broadcast cost per additional receiving node (torrent fan-out
    # is pipelined, so the growth is sub-linear but not free).
    broadcast_node_factor: float = 0.35
    row_out: float = 2.0e-9
    # Spark control plane (Section III: leader election + actor-system
    # reconstruction per shuffle stage, scaling with partition count).
    spark_stage_base: float = 0.45
    spark_stage_per_partition: float = 0.004
    spark_jar_ship: float = 10.0       # per run (Section VI)
    spark_task_launch: float = 0.004   # per task dispatch
    # Impala control plane (plan distribution + LLVM JIT per fragment
    # instance, plus per-row-batch exchange bookkeeping).
    impala_fragment_startup: float = 1.1
    impala_batch_overhead: float = 1.0e-3
    impala_plan_base: float = 0.4      # frontend parse/plan, once per query
    # Impala pipeline tax: row-batch virtual dispatch, exchange buffering
    # and coordinator bookkeeping, measured by the paper at 7.3-13.9% of
    # runtime over the standalone program (Table 1).  Applied to instance
    # execution time by the coordinator; the standalone runner skips it.
    impala_infra_factor: float = 1.105
    # Differential degradation of ISP-MC on the memory-constrained EC2
    # fleet.  Cross-referencing the paper's own tables: per-core, ISP-MC
    # slows ~2.45x moving from the 128 GB in-house machine (Table 1) to
    # the 15 GB g2.2xlarge nodes (Fig 5), while SpatialSpark slows only
    # ~1.24x (Table 1 vs Fig 4) — GEOS's small-object churn is much more
    # expensive under memory pressure, and Impala keeps all intermediates
    # in RAM.  The coordinator applies this factor (their ratio) to
    # instance time when nodes have <= 16 GB; the in-house single-node
    # runs are unaffected.
    impala_memory_pressure_factor: float = 2.0
    impala_memory_pressure_threshold_gb: float = 16.0

    def task_seconds(self, counts: dict[str, float]) -> float:
        """Dot product of a task's resource counts with the unit costs,
        scaled by :attr:`work_scale` (see its comment above)."""
        total = 0.0
        for resource, units in counts.items():
            rate = _RATES.get(resource)
            if rate is None:
                raise BenchError(f"unknown resource counter {resource!r}")
            total += units * getattr(self, rate)
        return total * self.work_scale

    def row_seconds(self, units: dict[str, np.ndarray], rows: int) -> np.ndarray:
        """:meth:`task_seconds` of each of a batch's ``rows`` rows, from
        its unit columns (one entry per row, 0 where a row has no such
        count).

        The same loop run a column at a time, so entry ``i`` is
        bit-identical to ``task_seconds`` of row ``i``'s dict whenever that
        dict's keys come in the columns' order: a missing key adds
        ``0.0 * rate``, which leaves a non-negative running sum unchanged.
        """
        total = np.zeros(rows)
        for resource, column in units.items():
            rate = _RATES.get(resource)
            if rate is None:
                raise BenchError(f"unknown resource counter {resource!r}")
            total += column * getattr(self, rate)
        return total * self.work_scale


# Mapping from counter names to CostModel field names.
_RATES = {
    Resource.HDFS_BYTES: "hdfs_byte",
    Resource.WKT_BYTES: "wkt_byte",
    Resource.WKB_BYTES: "wkb_byte",
    Resource.INDEX_BUILD: "index_build_entry",
    Resource.INDEX_VISIT: "index_visit",
    Resource.REFINE_VERTEX_FAST: "refine_vertex_fast",
    Resource.REFINE_VERTEX_SLOW: "refine_vertex_slow",
    Resource.REFINE_ALLOC: "refine_alloc",
    Resource.SHUFFLE_BYTES: "shuffle_byte",
    Resource.BROADCAST_BYTES: "broadcast_byte",
    Resource.ROWS_OUT: "row_out",
    Resource.RDD_RECORDS: "rdd_record",
    Resource.ROW_BATCHES: "impala_batch_overhead",
}
