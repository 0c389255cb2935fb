"""Calibration utilities: derive the cost model's global scale from a run.

DESIGN.md §5 describes the calibration; this module *is* that procedure,
so the constants in :class:`~repro.cluster.model.CostModel` are
reproducible rather than folklore:

* ``derive_work_scale`` re-derives ``work_scale`` by anchoring one
  experiment to one paper number (the standalone ISP-MC taxi-nycb run,
  507 s in Table 1);
* ``micro_ratio`` measures the refinement engines' charged cost ratio on
  a workload sample — the JTS-vs-GEOS band (3.3–3.9x) the per-vertex
  rates were tuned to;
* ``calibration_report`` prints every calibrated knob next to its paper
  evidence.
"""

from __future__ import annotations

import dataclasses

from repro.bench.report import DEFAULT_SCALE
from repro.bench.runner import run_isp_standalone
from repro.bench.workloads import materialize
from repro.cluster.model import CostModel, Resource
from repro.columnar.column import GeometryColumn
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex

__all__ = ["derive_work_scale", "micro_ratio", "calibration_report"]

# The anchor: standalone ISP-MC on taxi-nycb took 507 s on the paper's
# in-house machine (Table 1, last column, first row).
ANCHOR_WORKLOAD = "taxi-nycb"
ANCHOR_SECONDS = 507.0


def derive_work_scale(
    scale: float = DEFAULT_SCALE,
    target_seconds: float = ANCHOR_SECONDS,
    workload: str = ANCHOR_WORKLOAD,
) -> float:
    """Return the ``work_scale`` that maps the anchor run to the paper.

    Runs the anchor experiment under a unit-scale cost model and divides
    the paper's seconds by the raw simulated seconds.  The derived value
    is scale-dependent (half the data means half the raw cost), so it is
    only meaningful at the calibration scale (0.12).  The shipped default
    (36,000) sits deliberately *below* the pure anchor value (~78,000 at
    scale 0.12): charging the full anchor would shrink the fixed
    control-plane overheads (JAR shipping, stage metadata, plan/JIT) to
    irrelevance relative to work, pushing Fig 4's parallel efficiency to
    ~1.0 where the paper measured ~0.8.  The shipped value balances the
    anchor against those overhead fractions.
    """
    mat = materialize(workload, scale=scale)
    unit_model = dataclasses.replace(CostModel(), work_scale=1.0)
    raw = run_isp_standalone(mat, cost_model=unit_model).simulated_seconds
    if raw <= 0.0:
        raise ZeroDivisionError("anchor run accrued no cost")
    return target_seconds / raw


def micro_ratio(
    workload: str = "taxi-nycb",
    scale: float = DEFAULT_SCALE,
    sample: int = 1500,
    model: CostModel | None = None,
) -> float:
    """Charged slow/fast refinement-cost ratio on a workload sample.

    This is the §V.B micro-benchmark in cost-model units; the per-vertex
    rates were tuned so it lands in the paper's 3.3–3.9x GEOS/JTS band.
    """
    model = model or CostModel()
    mat = materialize(workload, scale=scale)
    points = GeometryColumn.from_entries(mat.left.records[:sample])
    fast = BroadcastIndex(mat.right.records, SpatialOperator.WITHIN, engine="fast")
    slow = BroadcastIndex(mat.right.records, SpatialOperator.WITHIN, engine="slow")
    fast.probe_pairs(points)
    slow.probe_pairs(points)
    fast_cost = model.task_seconds(
        {Resource.REFINE_VERTEX_FAST: fast.engine.counters.vertex_ops}
    )
    slow_cost = model.task_seconds(
        {
            Resource.REFINE_VERTEX_SLOW: slow.engine.counters.vertex_ops,
            Resource.REFINE_ALLOC: slow.engine.counters.allocations,
        }
    )
    return slow_cost / fast_cost


def calibration_report(scale: float = DEFAULT_SCALE) -> str:
    """Human-readable table of every calibrated knob and its evidence."""
    model = CostModel()
    derived = derive_work_scale(scale=scale)
    nycb_ratio = micro_ratio("taxi-nycb", scale=scale)
    wwf_ratio = micro_ratio("G10M-wwf", scale=scale)
    lines = [
        f"Calibration report (scale {scale})",
        "",
        f"{'knob':>32} | {'shipped':>10} | evidence",
        f"{'work_scale':>32} | {model.work_scale:>10.0f} | "
        f"re-derived from Table 1 anchor: {derived:.0f}",
        f"{'refine slow/fast (nycb)':>32} | {nycb_ratio:>10.2f} | paper 3.3x (SV.B)",
        f"{'refine slow/fast (wwf)':>32} | {wwf_ratio:>10.2f} | paper 3.9x (SV.B)",
        f"{'spark_jvm_factor':>32} | {model.spark_jvm_factor:>10.2f} | "
        "SVI JVM-vs-native",
        f"{'impala_infra_factor':>32} | {model.impala_infra_factor:>10.3f} | "
        "Table 1: 7.3-13.9% over standalone",
        f"{'impala_memory_pressure':>32} | "
        f"{model.impala_memory_pressure_factor:>10.2f} | cross-table per-core "
        "arithmetic (DESIGN.md S5)",
    ]
    return "\n".join(lines)
