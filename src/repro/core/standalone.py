"""Standalone ISP-MC: the join core without Impala's infrastructure.

Section V.B builds "a standalone version of ISP-MC" to isolate Impala's
system overhead (measured at 7.3-13.9% of runtime in Table 1).  This
module is that program: it reads the same WKT files, builds the same
R-tree with the same (slow/GEOS-like) engine, probes with the same
multi-core row batches — but pays no query planning, no fragment startup,
no row-batch exchange bookkeeping and no result exchange.  It builds
through :func:`~repro.core.isp.build_spatial_index` and probes every row
batch in one :func:`~repro.core.isp.probe_wkt_blocks` call.

It also exposes the intra-node scheduling policy as a parameter
(``static`` vs ``dynamic``), enabling the a2 ablation: the paper was
forced into OpenMP static scheduling by GEOS thread-safety and LLVM JIT
constraints and conjectures that dynamic scheduling (TBB work stealing)
"might achieve better load balancing and better performance".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.metrics import TaskMetrics
from repro.cluster.model import CostModel, Resource
from repro.cluster.simulation import simulate_dynamic, simulate_static_chunked
from repro.core.isp import build_spatial_index, probe_wkt_blocks
from repro.core.operators import SpatialOperator
from repro.core.probe import gather
from repro.errors import ReproError
from repro.hdfs import SimulatedHDFS, read_lines
from repro.impala.rowbatch import BATCH_SIZE
from repro.obs.profile import ProfileNode, QueryProfile
from repro.obs.tracer import get_tracer
from repro.spark.taskcontext import task_scope

__all__ = ["StandaloneResult", "standalone_spatial_join"]


@dataclass
class StandaloneResult:
    """Join pairs plus the simulated single-node runtime."""

    pairs: list[tuple]
    simulated_seconds: float
    metrics: TaskMetrics = field(default_factory=TaskMetrics)
    rows_dropped: int = 0
    serial_seconds: float = 0.0
    parallel_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pairs)

    def to_profile(self, name: str = "standalone-query") -> QueryProfile:
        """Render the run as a query profile tree.

        The per-phase children partition ``simulated_seconds`` exactly:
        scan/build phases are serial, the probe phase is the summed
        makespan of the statically- or dynamically-scheduled row batches.
        """
        root = ProfileNode(
            name,
            sim_seconds=self.simulated_seconds,
            counters=dict(self.metrics.counts),
            info={
                "engine": "ISP-MC standalone",
                "rows_out": len(self.pairs),
                "rows_dropped": self.rows_dropped,
                "serial_seconds": self.serial_seconds,
                "parallel_seconds": self.parallel_seconds,
            },
        )
        for phase, seconds in self.phase_seconds.items():
            root.add_child(ProfileNode(phase, sim_seconds=seconds))
        return QueryProfile(root)


def standalone_spatial_join(
    hdfs: SimulatedHDFS,
    left_path: str,
    right_path: str,
    operator: SpatialOperator,
    radius: float = 0.0,
    left_geometry_index: int = 1,
    right_geometry_index: int = 1,
    separator: str = "\t",
    cores: int = 8,
    engine: str = "slow",
    scheduling: str = "static",
    cost_model: CostModel | None = None,
    batch_size: int = BATCH_SIZE,
    build_cost_weight: float = 1.0,
) -> StandaloneResult:
    """Join two WKT text files on a single multi-core machine.

    Returns (left_id, right_id) pairs where ids are the files' first
    columns (parsed as-is, usually integers).  ``scheduling`` selects how
    each probe batch's rows are divided across cores: ``static``
    (contiguous OpenMP chunks — ISP-MC as shipped) or ``dynamic``
    (work-stealing — the paper's conjectured improvement).
    """
    if scheduling not in ("static", "dynamic"):
        raise ReproError(f"scheduling must be static|dynamic, got {scheduling!r}")
    model = cost_model or CostModel()
    metrics = TaskMetrics()
    serial_seconds = 0.0
    parallel_seconds = 0.0
    rows_dropped = 0
    phase_seconds: dict[str, float] = {}
    tracer = get_tracer()
    with task_scope(metrics):
        # Right side: scan + parse + build (all single-threaded, as in
        # ISP-MC's blocking build phase).
        with tracer.span("scan-build-side", category="phase") as span:
            right_rows, right_bytes = _read_rows(hdfs, right_path, separator)
            metrics.add(Resource.HDFS_BYTES, right_bytes)
            # File reads use all cores (the standalone program reads with
            # the same multi-threaded I/O the Impala scanners use).
            scan_build = (
                model.task_seconds(
                    {Resource.HDFS_BYTES: right_bytes * build_cost_weight}
                )
                / cores
            )
            span.add_sim(scan_build)
        with tracer.span("build-index", category="phase") as span:
            index, wkt_bytes, dropped = build_spatial_index(
                right_rows, right_geometry_index, operator, radius, engine
            )
            rows_dropped += dropped
            metrics.add(Resource.WKT_BYTES, wkt_bytes)
            metrics.add(Resource.INDEX_BUILD, float(len(index)))
            # WKT parse and the R-tree bulk load stay single-threaded, as
            # in ISP-MC's blocking build phase.
            build_index = model.task_seconds(
                {
                    Resource.WKT_BYTES: wkt_bytes * build_cost_weight,
                    Resource.INDEX_BUILD: len(index) * build_cost_weight,
                }
            )
            span.add_sim(build_index)
            span.set_attr("index_entries", len(index))
        with tracer.span("scan-probe-side", category="phase") as span:
            left_rows, left_bytes = _read_rows(hdfs, left_path, separator)
            metrics.add(Resource.HDFS_BYTES, left_bytes)
            scan_probe = model.task_seconds({Resource.HDFS_BYTES: left_bytes}) / cores
            span.add_sim(scan_probe)
        serial_seconds = scan_build + build_index + scan_probe
        pairs: list[tuple] = []
        right_ids = [
            _coerce_id(right_rows[row][0]) for row in index.entry_payloads(np.arange(len(index)))
        ]
        with tracer.span("probe", category="phase") as span:
            # One parse and probe call; each batch is priced from its rows.
            texts = [
                row[left_geometry_index] if len(row) > left_geometry_index else None
                for row in left_rows
            ]
            starts = range(0, len(left_rows), batch_size)
            outcomes = probe_wkt_blocks(
                index, [texts[start : start + batch_size] for start in starts]
            )
            for start, (kept, rows, entries, units) in zip(starts, outcomes):
                batch = left_rows[start : start + batch_size]
                rows_dropped += len(batch) - len(kept)
                # A dropped row's parse is priced below but not counted.
                metrics.add_columns({key: column[kept] for key, column in units.items()})
                left_ids = {i: _coerce_id(batch[i][0]) for i in set(rows.tolist())}
                pairs.extend(zip(gather(left_ids, rows), gather(right_ids, entries)))
                row_seconds = model.row_seconds(units, len(batch)).tolist()
                if scheduling == "static":
                    parallel_seconds += simulate_static_chunked(row_seconds, cores)
                else:
                    parallel_seconds += simulate_dynamic(row_seconds, cores)
            span.add_sim(parallel_seconds)
            span.set_attr("scheduling", scheduling)
    phase_seconds = {
        "scan-build-side": scan_build,
        "build-index": build_index,
        "scan-probe-side": scan_probe,
        "probe": parallel_seconds,
    }
    return StandaloneResult(
        pairs=pairs,
        simulated_seconds=serial_seconds + parallel_seconds,
        metrics=metrics,
        rows_dropped=rows_dropped,
        serial_seconds=serial_seconds,
        parallel_seconds=parallel_seconds,
        phase_seconds=phase_seconds,
    )


def _coerce_id(value: str):
    """Integer ids stay comparable with the typed engines' BIGINT columns."""
    try:
        return int(value)
    except (TypeError, ValueError):
        return value


def _read_rows(
    hdfs: SimulatedHDFS, path: str, separator: str
) -> tuple[list[tuple], int]:
    """Read a delimited text file into raw field tuples."""
    lines = read_lines(hdfs, path)
    size = hdfs.status(path).size
    return [tuple(line.split(separator)) for line in lines], size
