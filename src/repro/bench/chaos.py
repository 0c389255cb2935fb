"""Chaos benchmark: seeded fault injection must not change any answer.

``python -m repro.bench chaos`` sweeps fault rates over both substrates
(SpatialSpark broadcast join, a mini-Spark shuffle job with lineage
recovery, ISP-MC SQL) and the in-memory core API (broadcast and
partitioned methods).  For every ``(case, fault rate)`` cell it runs the
workload twice — once fault-free, once under a seeded
:class:`~repro.runtime.faults.FaultPlan` — and asserts the chaos run is
**byte-identical** to the baseline: same result rows, same counters,
same rendered profile, same simulated seconds, and the same normalized
event stream once the recovery events themselves are filtered out.

That equivalence is the whole point of the fault-tolerance layer:
injection happens driver-side before dispatch (a crashed attempt charges
nothing) and recovery bookkeeping lives only in the event log, so a
flaky simulated cluster still reproduces the paper's numbers exactly.
The recovery events are counted per cell — the visible trace that faults
really were injected and survived.
"""

from __future__ import annotations

import json
import os
import random
import tempfile

from repro.cluster.model import ClusterSpec
from repro.core.api import JoinConfig, spatial_join
from repro.geometry import Point, Polygon
from repro.obs.events import (
    RECOVERY_EVENT_TYPES,
    normalize_events,
    read_events,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.faults import DEFAULT_KINDS, FaultPlan
from repro.spark.context import SparkContext

__all__ = ["run_chaos_benchmark", "render_chaos", "write_chaos_json"]

DEFAULT_FAULT_RATES = (0.1, 0.3)

_SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)


def _grid_polygons(n: int = 3, cell: float = 4.0) -> list[tuple[str, Polygon]]:
    polygons = []
    for i in range(n):
        for j in range(n):
            x0, y0 = i * cell, j * cell
            polygons.append(
                (
                    f"cell-{i}-{j}",
                    Polygon(
                        [(x0, y0), (x0 + cell, y0), (x0 + cell, y0 + cell), (x0, y0 + cell)]
                    ),
                )
            )
    return polygons


def _points(count: int = 96, extent: float = 12.0, seed: int = 13):
    rng = random.Random(seed)
    return [
        (k, Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent)))
        for k in range(count)
    ]


def _core_case(method: str):
    """One in-memory join; chaos exercises the chunk/tile dispatch path."""

    def run(runtime: RuntimeConfig) -> dict:
        config = JoinConfig(
            method=method,
            profile=True,
            batch_size=16,
            workers=4,
            runtime=runtime,
        )
        result = spatial_join(_points(), _grid_polygons(), config=config)
        return {
            "rows": sorted(result.pairs),
            "sim_seconds": result.profile.root.sim_seconds,
            "profile": result.profile.render(),
        }

    return run


def _spark_broadcast_case(runtime: RuntimeConfig) -> dict:
    """The paper's broadcast join on the mini-Spark substrate."""
    from repro.core.broadcast_join import broadcast_spatial_join
    from repro.core.operators import SpatialOperator

    sc = SparkContext(_SPEC, runtime=runtime)
    left = sc.parallelize(_points(), 4)
    right = sc.parallelize(_grid_polygons(), 2)
    pairs = broadcast_spatial_join(
        sc, left, right, SpatialOperator.WITHIN
    ).collect()
    snapshot = {
        "rows": sorted(pairs),
        "sim_seconds": sc.simulated_seconds(),
        "counters": sc.totals(),
        "profile": sc.to_profile("chaos-spark-broadcast").render(),
    }
    sc.close_events()
    return snapshot


def _spark_shuffle_case(runtime: RuntimeConfig) -> dict:
    """A shuffle job — the lineage-recovery (``shuffle_loss``) surface."""
    sc = SparkContext(_SPEC, runtime=runtime)
    rows = (
        sc.parallelize(list(range(48)), 4)
        .map(lambda value: (value % 6, value))
        .group_by_key(3)
        .map_values(sum)
        .collect()
    )
    snapshot = {
        "rows": sorted(rows),
        "sim_seconds": sc.simulated_seconds(),
        "counters": sc.totals(),
        "profile": sc.to_profile("chaos-spark-shuffle").render(),
    }
    sc.close_events()
    return snapshot


def _impala_case(runtime: RuntimeConfig) -> dict:
    """ISP-MC SQL on the mini-Impala substrate (restart-based recovery)."""
    from repro.hdfs import SimulatedHDFS, write_text
    from repro.impala.catalog import ColumnType
    from repro.impala.coordinator import ImpalaBackend

    hdfs = SimulatedHDFS(datanodes=("node0", "node1"), block_size=2048)
    write_text(
        hdfs,
        "/chaos/points.tsv",
        [f"{k}\tPOINT ({geom.x} {geom.y})" for k, geom in _points()],
    )
    write_text(
        hdfs,
        "/chaos/cells.tsv",
        [f"{name}\t{geom.wkt()}" for name, geom in _grid_polygons()],
    )
    backend = ImpalaBackend(_SPEC, hdfs=hdfs, runtime=runtime)
    schema_points = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
    schema_cells = [("id", ColumnType.STRING), ("geom", ColumnType.STRING)]
    backend.metastore.create_table("points", schema_points, "/chaos/points.tsv")
    backend.metastore.create_table("cells", schema_cells, "/chaos/cells.tsv")
    result = backend.execute(
        "SELECT l.id, r.id FROM points l SPATIAL JOIN cells r "
        "WHERE ST_WITHIN(l.geom, r.geom)"
    )
    snapshot = {
        "rows": sorted(result.rows),
        "sim_seconds": result.simulated_seconds,
        "counters": {
            f"instance-{ctx.node_id}": dict(sorted(ctx.metrics.counts.items()))
            for ctx in result.instances
        },
        "profile": result.to_profile("chaos-impala").render(),
    }
    backend.close_events()
    return snapshot


def _case_plan(name: str, seed: int, fault_rate: float) -> FaultPlan:
    """The per-case plan.

    On top of the random sweep, each substrate pins one explicit fault at
    its marquee recovery path so every chaos report demonstrates it: the
    shuffle case loses a map output (Spark recomputes it from lineage,
    ``StageRecomputed``), the SQL case crashes a fragment (Impala cancels
    and restarts the whole query, ``QueryRestarted``).  Pinned faults
    fire on round 0 only — the retry/restart runs clean.
    """
    if name == "spark-shuffle":
        return FaultPlan(
            seed=seed,
            fault_rate=fault_rate,
            kinds=DEFAULT_KINDS + ("shuffle_loss",),
        ).at("*", task=0, kind="shuffle_loss")
    if name == "impala-sql":
        return FaultPlan(seed=seed, fault_rate=fault_rate).at(
            "*", task=1, kind="crash"
        )
    return FaultPlan(seed=seed, fault_rate=fault_rate)


def _events_of(path: str | None) -> list[dict]:
    if path is None or not os.path.exists(path):
        return []
    return read_events(path)


def _comparable_events(events: list[dict]) -> list[dict]:
    """Normalized stream minus the recovery events chaos adds on top."""
    return [
        record
        for record in normalize_events(events)
        if record.get("event") not in RECOVERY_EVENT_TYPES
    ]


def _recovery_counts(events: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in events:
        kind = record.get("event")
        if kind in RECOVERY_EVENT_TYPES:
            counts[kind] = counts.get(kind, 0) + 1
    return counts


CASES = {
    "core-broadcast": _core_case("broadcast"),
    "core-partitioned": _core_case("partitioned"),
    "spark-broadcast": _spark_broadcast_case,
    "spark-shuffle": _spark_shuffle_case,
    "impala-sql": _impala_case,
}


def run_chaos_benchmark(
    seed: int = 7,
    fault_rates: tuple[float, ...] = DEFAULT_FAULT_RATES,
    events_dir: str | None = None,
) -> dict:
    """Run every case fault-free and at each fault rate; compare snapshots.

    With ``events_dir`` set, each cell's event log is kept there as
    ``<case>-rate<rate>.jsonl`` (the baseline as ``<case>-baseline.jsonl``)
    for ``bench monitor`` replay; otherwise logs land in a temp dir that
    only lives for the comparison.
    """
    owned_tmp = None
    if events_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        events_dir = owned_tmp.name
    else:
        os.makedirs(events_dir, exist_ok=True)
    try:
        doc: dict = {
            "seed": seed,
            "fault_rates": list(fault_rates),
            "cases": {},
            "all_identical": True,
        }
        for name, case in CASES.items():
            base_path = os.path.join(events_dir, f"{name}-baseline.jsonl")
            baseline = case(RuntimeConfig(events_out=base_path))
            base_events = _comparable_events(_events_of(base_path))
            entry: dict = {
                "baseline": {
                    "rows": len(baseline["rows"]),
                    "sim_seconds": baseline["sim_seconds"],
                },
                "rates": {},
                "all_identical": True,
            }
            for rate in fault_rates:
                path = os.path.join(events_dir, f"{name}-rate{rate}.jsonl")
                chaos = case(
                    RuntimeConfig(
                        fault_plan=_case_plan(name, seed, rate), events_out=path
                    )
                )
                events = _events_of(path)
                checks = {
                    "rows": chaos["rows"] == baseline["rows"],
                    "sim_seconds": chaos["sim_seconds"] == baseline["sim_seconds"],
                    "counters": chaos.get("counters") == baseline.get("counters"),
                    "profile": chaos["profile"] == baseline["profile"],
                    "events": _comparable_events(events) == base_events,
                }
                identical = all(checks.values())
                entry["rates"][str(rate)] = {
                    "identical": identical,
                    "mismatches": sorted(k for k, ok in checks.items() if not ok),
                    "recovery_events": _recovery_counts(events),
                }
                if not identical:
                    entry["all_identical"] = False
                    doc["all_identical"] = False
            doc["cases"][name] = entry
        return doc
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()


def render_chaos(doc: dict) -> str:
    lines = [
        f"chaos sweep: seed={doc['seed']} "
        f"fault_rates={','.join(str(r) for r in doc['fault_rates'])}",
        "",
    ]
    for name, entry in doc["cases"].items():
        base = entry["baseline"]
        lines.append(
            f"{name:>17}: {base['rows']} rows, "
            f"sim={base['sim_seconds']:.4f}s fault-free"
        )
        for rate, cell in entry["rates"].items():
            recovered = (
                ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(cell["recovery_events"].items())
                )
                or "no faults drawn"
            )
            verdict = (
                "identical"
                if cell["identical"]
                else f"DIFFERS ({', '.join(cell['mismatches'])})"
            )
            lines.append(f"{'':>17}  rate {rate}: {verdict} [{recovered}]")
    lines.append("")
    lines.append(
        "all identical"
        if doc["all_identical"]
        else "FAIL: some chaos runs diverged from their fault-free baseline"
    )
    return "\n".join(lines)


def write_chaos_json(doc: dict, path: str) -> None:
    from repro.bench.report import stamp_bench_doc

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            stamp_bench_doc(doc), handle, indent=1, sort_keys=True, default=str
        )
        handle.write("\n")
