"""Perf-regression gate: fresh measurements vs committed BENCH baselines.

``python -m repro.bench regress`` re-runs the cheap deterministic
benchmarks, checks the live EXPLAIN ANALYZE invariants, validates every
committed ``BENCH_*.json`` artifact, and prints one regression table.
Any ``FAIL`` row makes the command exit non-zero — the CI
``regress-smoke`` job turns a perf or correctness regression into a red
build instead of a silently drifting baseline.

Three kinds of checks, weakest evidence last:

* **deterministic re-runs** — the optimizer study is a pure function of
  the workload generators and the cost model, so the fresh run must
  reproduce ``BENCH_optimizer.json`` *exactly* (chosen methods, priced
  seconds, skew makespans).  This is the backbone: a doctored baseline,
  a stale schema, or a genuine planner change all trip it.
* **live invariants** — a fresh ``explain="analyze"`` run on the
  ``hotspot-nycb`` skew workload must produce per-operator actuals that
  sum to the engine's profile total, and must flag the canned
  build-cost misestimate.
* **noise-tolerant wall-clock comparisons** — measured speedups are
  held above fixed floors far under the committed values, so CI jitter
  cannot flake the gate but an order-of-magnitude loss still fails.

``--quick`` (the CI mode) skips the slower fresh cache run and checks
the committed artifact's internal invariants instead.

The engines have one execution path; its reference implementations
(``naive_spatial_join``, ``BroadcastIndex.probe_with_cost``, the scalar
engine predicates) are compared against it at the kernel layer by the
test suite, not here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

__all__ = [
    "CheckRow",
    "BASELINE_FILES",
    "REGRESS_SCHEMA_VERSION",
    "load_baselines",
    "run_regress",
    "render_regress",
]

REGRESS_SCHEMA_VERSION = 1
BASELINE_FILES = {
    "optimizer": "BENCH_optimizer.json",
    "cache": "BENCH_cache.json",
}
# The skew workload the live explain checks run on; scale keeps the
# whole check under a couple of seconds.
_EXPLAIN_WORKLOAD = "hotspot-nycb"
_EXPLAIN_SCALE = 0.05


@dataclass
class CheckRow:
    """One line of the regression table."""

    baseline: str  # which artifact/surface the check belongs to
    metric: str
    status: str  # "ok" | "FAIL" | "skip"
    baseline_value: object = None
    current_value: object = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "baseline": self.baseline,
            "metric": self.metric,
            "status": self.status,
            "baseline_value": self.baseline_value,
            "current_value": self.current_value,
            "detail": self.detail,
        }


# -- baseline loading --------------------------------------------------------


def load_baselines(baseline_dir: str = ".") -> tuple[dict, list[CheckRow]]:
    """Read and validate every known baseline file.

    Returns the parsed documents keyed by short name, plus one schema
    check row per file: missing files are ``skip`` (a repo need not
    commit every benchmark), unreadable or wrongly-stamped files are
    ``FAIL`` — a foreign or pre-schema baseline must not silently pass.
    """
    from repro.bench.report import BENCH_SCHEMA_VERSION

    docs: dict[str, dict] = {}
    rows: list[CheckRow] = []
    for name, filename in BASELINE_FILES.items():
        path = os.path.join(baseline_dir, filename)
        if not os.path.exists(path):
            rows.append(
                CheckRow(name, "schema", "skip", detail=f"{filename} not found")
            )
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            rows.append(
                CheckRow(name, "schema", "FAIL", detail=f"unreadable: {error}")
            )
            continue
        version = doc.get("schema_version")
        generated = doc.get("generated_by", "")
        if version != BENCH_SCHEMA_VERSION:
            rows.append(
                CheckRow(
                    name, "schema", "FAIL",
                    baseline_value=BENCH_SCHEMA_VERSION, current_value=version,
                    detail=f"{filename}: schema_version mismatch",
                )
            )
            continue
        if not str(generated).startswith("repro.bench/"):
            rows.append(
                CheckRow(
                    name, "schema", "FAIL", current_value=generated,
                    detail=f"{filename}: foreign generated_by",
                )
            )
            continue
        rows.append(CheckRow(name, "schema", "ok", current_value=version))
        docs[name] = doc
    return docs, rows


# -- individual checks -------------------------------------------------------


def check_explain(explain_out: str | None = None) -> list[CheckRow]:
    """Live EXPLAIN ANALYZE invariants on the canned skew workload."""
    from repro.bench.workloads import materialize
    from repro.core.api import JoinConfig, spatial_join

    rows: list[CheckRow] = []
    wl = materialize(_EXPLAIN_WORKLOAD, scale=_EXPLAIN_SCALE)
    result = spatial_join(
        wl.left.records,
        wl.right.records,
        config=JoinConfig(operator=wl.workload.operator, explain="analyze"),
    )
    report = result.explain_report
    total = report.total_actual_seconds
    children = sum(
        (node.actual or {}).get("seconds", 0.0)
        for node in report.root.children
    )
    ok = abs(total - children) <= 1e-9 * max(1.0, abs(total))
    rows.append(
        CheckRow(
            "explain", "actuals-sum-match", "ok" if ok else "FAIL",
            baseline_value=round(total, 6), current_value=round(children, 6),
            detail=f"{_EXPLAIN_WORKLOAD}@{_EXPLAIN_SCALE}: per-operator "
                   "actuals vs profile total",
        )
    )
    flagged = report.misestimates()
    rows.append(
        CheckRow(
            "explain", "seeded-misestimate", "ok" if flagged else "FAIL",
            current_value=len(flagged),
            detail=(
                "; ".join(f"{f['operator']}: {f['flag']}" for f in flagged[:2])
                if flagged
                else "skew case produced no misestimate flag"
            ),
        )
    )
    if explain_out:
        with open(explain_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=1, sort_keys=True)
            handle.write("\n")
    return rows


def check_optimizer(base: dict) -> list[CheckRow]:
    """Exact reproduction of the deterministic optimizer study."""
    from repro.bench.optimizer_study import optimizer_study

    fresh = optimizer_study(scale=base["scale"], nodes=base["nodes"])
    rows: list[CheckRow] = []
    fresh_by_wl = {p["workload"]: p for p in fresh["plans"]}
    for plan in base.get("plans", []):
        workload = plan.get("workload", "?")
        current = fresh_by_wl.get(workload)
        if current is None:
            rows.append(
                CheckRow("optimizer", f"plan:{workload}", "FAIL",
                         detail="workload missing from fresh study")
            )
            continue
        same = (
            current["method"] == plan["method"]
            and current["est_seconds"] == plan["est_seconds"]
        )
        rows.append(
            CheckRow(
                "optimizer", f"plan:{workload}", "ok" if same else "FAIL",
                baseline_value=plan["method"], current_value=current["method"],
                detail="deterministic: method + priced seconds must match"
                       " exactly",
            )
        )
    skew_base = base.get("skew", {})
    skew_fresh = fresh.get("skew", {})
    same_skew = (
        skew_base.get("makespan_before") == skew_fresh.get("makespan_before")
        and skew_base.get("makespan_after") == skew_fresh.get("makespan_after")
    )
    rows.append(
        CheckRow(
            "optimizer", "skew-makespans", "ok" if same_skew else "FAIL",
            baseline_value=(skew_base.get("makespan_after") or {}).get("dynamic"),
            current_value=(skew_fresh.get("makespan_after") or {}).get("dynamic"),
            detail="hot-tile splitting study must reproduce exactly",
        )
    )
    return rows


def _identity_rows(name: str, base: dict, flags: list[tuple[str, bool]],
                   speedups: list[tuple[str, float, float]]) -> list[CheckRow]:
    """Committed-artifact invariants (quick mode's slow-bench stand-in)."""
    rows = [
        CheckRow(
            name, f"baseline:{metric}", "ok" if value else "FAIL",
            current_value=value,
            detail="committed artifact must record result identity",
        )
        for metric, value in flags
    ]
    for metric, value, floor in speedups:
        rows.append(
            CheckRow(
                name, f"baseline:{metric}",
                "ok" if value >= floor else "FAIL",
                baseline_value=floor, current_value=round(value, 3),
                detail="committed speedup above its minimum floor",
            )
        )
    return rows


def check_cache(base: dict, quick: bool) -> list[CheckRow]:
    flags = [("all_identical", bool(base.get("all_identical")))]
    flags += [
        (f"identical:{case.get('workload')}/{case.get('engine')}",
         bool(case.get("identical")))
        for case in base.get("cases", [])
    ]
    # Warm re-runs must beat cold by a wide margin in the committed
    # artifact; 1.5x is far under the recorded ~5-10x but above noise.
    speedups = [
        ("best_warm_speedup", float(base.get("best_warm_speedup", 0.0)), 1.5)
    ]
    rows = _identity_rows("cache", base, flags, speedups)
    if quick:
        rows.append(
            CheckRow("cache", "fresh-run", "skip",
                     detail="--quick: committed-artifact checks only")
        )
    else:
        from repro.bench.cache_study import run_cache_benchmark

        fresh = run_cache_benchmark(
            batches=6, scale=0.05, budget_bytes=base.get("budget_bytes")
        )
        rows.append(
            CheckRow(
                "cache", "fresh-identical",
                "ok" if fresh.get("all_identical") else "FAIL",
                detail="warm results identical to cold at reduced scale",
            )
        )
        rows.append(
            CheckRow(
                "cache", "fresh-warm-speedup",
                "ok"
                if float(fresh.get("best_warm_speedup", 0.0)) >= 1.2
                else "FAIL",
                current_value=round(float(fresh.get("best_warm_speedup", 0.0)), 2),
                detail="reduced-scale warm speedup above 1.2x floor",
            )
        )
    return rows


# -- orchestration -----------------------------------------------------------


def collect_checks(baseline_dir: str = ".", quick: bool = False,
                   explain_out: str | None = None) -> list[CheckRow]:
    """Run every check against the baselines in ``baseline_dir``."""
    baselines, rows = load_baselines(baseline_dir)
    rows += check_explain(explain_out)
    if "optimizer" in baselines:
        rows += check_optimizer(baselines["optimizer"])
    if "cache" in baselines:
        rows += check_cache(baselines["cache"], quick)
    return rows


def render_regress(rows: list[CheckRow]) -> str:
    """The regression table plus a one-line verdict."""

    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    header = f"{'baseline':<10} {'check':<28} {'status':<6} " \
             f"{'committed':>12} {'current':>12}  detail"
    lines = ["perf-regression gate", header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.baseline:<10} {row.metric:<28} {row.status:<6} "
            f"{cell(row.baseline_value):>12} {cell(row.current_value):>12}"
            f"  {row.detail}"
        )
    failures = [r for r in rows if r.status == "FAIL"]
    ok = sum(1 for r in rows if r.status == "ok")
    skipped = sum(1 for r in rows if r.status == "skip")
    lines.append("")
    if failures:
        lines.append(
            f"REGRESSION: {len(failures)} failed check(s), {ok} ok, "
            f"{skipped} skipped"
        )
    else:
        lines.append(f"no regressions: {ok} ok, {skipped} skipped")
    return "\n".join(lines)


def run_regress(baseline_dir: str = ".", quick: bool = False,
                explain_out: str | None = None,
                out: str | None = None) -> int:
    """The ``bench regress`` entry point; returns the process exit code."""
    rows = collect_checks(baseline_dir, quick=quick, explain_out=explain_out)
    print(render_regress(rows))
    if out:
        doc = {
            "schema_version": REGRESS_SCHEMA_VERSION,
            "quick": quick,
            "checks": [row.to_json() for row in rows],
            "failed": sum(1 for r in rows if r.status == "FAIL"),
        }
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if any(row.status == "FAIL" for row in rows) else 0
