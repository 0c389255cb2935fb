"""EXPLAIN / EXPLAIN ANALYZE: annotated plan trees with estimate overlays.

The paper attributes the SpatialSpark-vs-ISP-MC gap to per-operator
costs (refinement engine churn, static-vs-dynamic scheduling) that only
become visible when plan-level *estimates* can be compared against
measured *actuals*.  This module is that comparison surface:

* :func:`explain` renders the plan the optimizer would pick for a query
  — method, partitioner, tile count, broadcast-vs-shuffle distribution,
  cache residency, and per-operator cost-model estimates for rows /
  bytes / seconds — **without executing anything**;
* ``spatial_join(..., explain="analyze")`` executes the query and calls
  :func:`overlay_profile` to graft the measured actuals from the
  :class:`~repro.obs.profile.QueryProfile` onto the same tree (rows
  produced, bytes shuffled, simulated seconds, straggler skew), flagging
  any operator whose estimate was off by more than a configurable ratio;
* :func:`report_from_profile` wraps any engine profile (SpatialSpark /
  ISP-MC trees included) into the same :class:`ExplainReport` shape, so
  one renderer serves all three substrates.

An :class:`ExplainReport` is machine-readable (``to_json`` — the
document ``bench regress`` archives as a CI artifact) and human-readable
(``render`` — a ``bench monitor``-style table).  Its per-operator
deltas feed :class:`~repro.optimizer.calibration.CalibrationLog`.

Everything here is strictly off the hot path: with ``explain="off"``
(the default) none of this module is imported, and query output stays
byte-identical to a build without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ReproError

__all__ = [
    "ExplainNode",
    "ExplainReport",
    "explain",
    "build_plan_report",
    "overlay_profile",
    "report_from_profile",
    "DEFAULT_MISESTIMATE_RATIO",
    "EXPLAIN_SCHEMA_VERSION",
]

EXPLAIN_SCHEMA_VERSION = 1
GENERATED_BY = "repro.obs.explain/1"
# An operator's estimate is "flagged" when actual and estimate disagree
# by more than this factor — provided the larger of the two clears the
# per-metric absolute floor below (tiny quantities flap harmlessly).
DEFAULT_MISESTIMATE_RATIO = 4.0
_METRIC_FLOORS = {"seconds": 0.05, "rows": 16.0, "bytes": 4096.0}
# Profile counter -> report "bytes" metric, first match wins.
_BYTES_COUNTERS = ("shuffle_bytes", "broadcast_bytes", "wkt_bytes", "hdfs_bytes")


@dataclass
class ExplainNode:
    """One operator of the annotated plan tree.

    ``estimate`` and ``actual`` are small ``{"rows": .., "bytes": ..,
    "seconds": ..}`` dicts (each key optional); ``actual`` is ``None``
    until an ANALYZE overlay runs.  ``flags`` holds human-readable
    misestimate verdicts; ``info`` carries operator annotations (tile
    counts, skew, cache residency...).
    """

    name: str
    info: dict[str, Any] = field(default_factory=dict)
    estimate: dict[str, float] = field(default_factory=dict)
    actual: dict[str, float] | None = None
    flags: list[str] = field(default_factory=list)
    children: list["ExplainNode"] = field(default_factory=list)

    def add_child(self, node: "ExplainNode") -> "ExplainNode":
        self.children.append(node)
        return node

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "info": dict(self.info),
            "estimate": dict(self.estimate),
            "actual": None if self.actual is None else dict(self.actual),
            "flags": list(self.flags),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExplainNode":
        return cls(
            name=doc["name"],
            info=dict(doc.get("info", {})),
            estimate=dict(doc.get("estimate", {})),
            actual=(
                None if doc.get("actual") is None else dict(doc["actual"])
            ),
            flags=list(doc.get("flags", [])),
            children=[cls.from_dict(c) for c in doc.get("children", [])],
        )


@dataclass
class ExplainReport:
    """The full EXPLAIN (ANALYZE) artifact for one query."""

    root: ExplainNode
    method: str
    mode: str = "plan"  # "plan" (estimates only) | "analyze" (overlaid)
    ratio: float = DEFAULT_MISESTIMATE_RATIO
    plan: dict[str, Any] = field(default_factory=dict)

    def operators(self) -> Iterator[ExplainNode]:
        """Every node below the root, depth-first."""
        stack = list(reversed(self.root.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find(self, name: str) -> ExplainNode | None:
        for node in self.operators():
            if node.name == name:
                return node
        return None

    def misestimates(self) -> list[dict]:
        """Flagged operators: [{operator, flag}], in tree order."""
        found = []
        for node in [self.root, *self.operators()]:
            for flag in node.flags:
                found.append({"operator": node.name, "flag": flag})
        return found

    @property
    def total_estimated_seconds(self) -> float:
        return self.root.estimate.get("seconds", 0.0)

    @property
    def total_actual_seconds(self) -> float | None:
        if self.root.actual is None:
            return None
        return self.root.actual.get("seconds")

    # -- serialisation ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "generated_by": GENERATED_BY,
            "mode": self.mode,
            "method": self.method,
            "misestimate_ratio": self.ratio,
            "plan": dict(self.plan),
            "misestimates": self.misestimates(),
            "tree": self.root.to_dict(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ExplainReport":
        version = doc.get("schema_version")
        if version != EXPLAIN_SCHEMA_VERSION:
            raise ReproError(
                f"ExplainReport schema_version {version!r} != "
                f"{EXPLAIN_SCHEMA_VERSION}"
            )
        return cls(
            root=ExplainNode.from_dict(doc["tree"]),
            method=doc["method"],
            mode=doc.get("mode", "plan"),
            ratio=doc.get("misestimate_ratio", DEFAULT_MISESTIMATE_RATIO),
            plan=dict(doc.get("plan", {})),
        )

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        """The monitor-style text form: header, operator table, flags."""
        analyze = self.mode == "analyze"
        title = "EXPLAIN ANALYZE" if analyze else "EXPLAIN"
        header = f"{title} {self.root.name}  method={self.method}"
        est_total = self.total_estimated_seconds
        act_total = self.total_actual_seconds
        header += f"  (est {est_total:.3f}s"
        if act_total is not None:
            header += f", actual {act_total:.3f}s"
        header += ")"
        lines = [header]
        annotations = []
        for key in ("distribution", "partitioner", "tiles", "split_tiles",
                    "workers", "nodes"):
            if key in self.plan:
                annotations.append(f"{key}={self.plan[key]}")
        cache = self.plan.get("cache")
        if isinstance(cache, dict) and cache.get("enabled"):
            state = "warm" if cache.get("build_resident") else "cold"
            annotations.append(f"cache={state}")
        if annotations:
            lines.append("  " + "  ".join(annotations))
        costs = self.plan.get("costs")
        if isinstance(costs, dict) and costs:
            lines.append(
                "  plan costs: "
                + "  ".join(f"{m}={s:.3f}s" for m, s in costs.items())
            )
        col = (
            f"{'operator':<12} {'est s':>9} {'act s':>9} "
            f"{'est rows':>10} {'act rows':>10} {'est bytes':>11} "
            f"{'act bytes':>11} {'skew':>6}"
        )
        lines += ["", col, "-" * len(col)]

        def cell(values: dict[str, float] | None, metric: str,
                 fmt: str) -> str:
            if values is None or metric not in values:
                return "-"
            return format(values[metric], fmt)

        for node in self.root.children:
            skew = node.info.get("skew")
            skew_cell = f"{skew:.2f}" if skew is not None else "-"
            lines.append(
                f"{node.name:<12} "
                f"{cell(node.estimate, 'seconds', '.3f'):>9} "
                f"{cell(node.actual, 'seconds', '.3f'):>9} "
                f"{cell(node.estimate, 'rows', '.0f'):>10} "
                f"{cell(node.actual, 'rows', '.0f'):>10} "
                f"{cell(node.estimate, 'bytes', '.0f'):>11} "
                f"{cell(node.actual, 'bytes', '.0f'):>11} "
                f"{skew_cell:>6}"
            )
        flagged = self.misestimates()
        if analyze:
            lines.append("")
            if flagged:
                lines.append(f"misestimates (> {self.ratio:g}x):")
                lines.extend(
                    f"  {item['operator']}: {item['flag']}" for item in flagged
                )
            else:
                lines.append(f"misestimates (> {self.ratio:g}x): none")
        calibration = self.plan.get("calibration")
        if calibration:
            lines.append(
                "calibration factors (recorded, not applied): "
                + "  ".join(f"{k}={v:.2f}x" for k, v in calibration.items())
            )
        return "\n".join(lines)


# -- estimate-tree construction ---------------------------------------------


def _stage_estimates(method: str, terms: dict[str, float], stats,
                     parse_seconds: float) -> list[tuple[str, dict, dict]]:
    """(name, estimate, info) per operator, in execution order.

    Operator names deliberately match the stage names the executed query
    reports in its :class:`QueryProfile` (``parse``/``build``/``probe``
    for broadcast, ``parse``/``shuffle``/``join`` for partitioned, ...)
    so the ANALYZE overlay lines up term by term.
    """
    left, right = stats.left, stats.right
    est_bytes = left.estimated_bytes + right.estimated_bytes
    pairs = stats.estimated_pairs
    parse = (
        "parse",
        {
            "rows": float(left.count + right.count),
            "bytes": est_bytes,
            "seconds": parse_seconds,
        },
        {},
    )
    if method == "broadcast":
        # setup and ship are driver-side pricing terms the local execution
        # never bills; folding them into build keeps the root estimate
        # equal to the plan's priced total.
        return [
            parse,
            (
                "build",
                {"rows": float(right.count),
                 "bytes": right.estimated_bytes,
                 "seconds": terms["setup"] + terms["build"] + terms["ship"]},
                {"operator": "index build + broadcast (right side)"},
            ),
            (
                "probe",
                {"rows": pairs, "seconds": terms["probe"]},
                {"operator": "parallel index probes (left side)"},
            ),
        ]
    if method == "partitioned":
        return [
            parse,
            (
                "shuffle",
                {"bytes": est_bytes * 1.3, "seconds": terms["shuffle"]},
                {"operator": "route both sides to tiles"},
            ),
            (
                "join",
                {"rows": pairs, "seconds": terms["setup"] + terms["join"]},
                {"operator": "per-tile index joins"},
            ),
        ]
    if method == "dual-tree":
        return [
            parse,
            (
                "build",
                {"rows": float(left.count + right.count),
                 "seconds": terms["setup"] + terms["build"]},
                {"operator": "pack both R-trees"},
            ),
            (
                "join",
                {"rows": pairs, "seconds": terms["join"]},
                {"operator": "synchronized traversal"},
            ),
        ]
    # naive
    return [
        parse,
        (
            "join",
            {"rows": pairs, "seconds": terms["join"]},
            {"operator": "nested-loop filter+refine"},
        ),
    ]


def build_plan_report(
    plan,
    method: str | None = None,
    model=None,
    engine: str = "fast",
    parse_wkt: bool = False,
    ratio: float = DEFAULT_MISESTIMATE_RATIO,
    cache_info: dict | None = None,
    query_name: str = "spatial-join",
) -> ExplainReport:
    """Estimate-only :class:`ExplainReport` from a priced plan.

    ``plan`` is the optimizer's :class:`~repro.optimizer.PlanChoice`;
    ``method`` overrides the chosen strategy when the caller forced one
    (the forced plan is annotated with the same stats-driven estimates).
    ``parse_wkt`` marks inputs that arrive as WKT strings — only then is
    parse time estimated (geometry objects parse for free; the byte
    estimate stands in for the unknown WKT character count).
    """
    from repro.cluster.model import CostModel, Resource
    from repro.optimizer.planner import estimate_plan_terms

    model = model or CostModel()
    method = method or plan.method
    stats = plan.stats
    all_terms = estimate_plan_terms(
        stats,
        model,
        workers=plan.workers,
        nodes=plan.nodes,
        engine=engine,
        histogram=plan.histogram,
        cached_build=plan.cached_build,
    )
    terms = all_terms.get(method, all_terms["naive"])
    parse_seconds = 0.0
    if parse_wkt:
        parse_seconds = model.task_seconds(
            {Resource.WKT_BYTES: stats.left.estimated_bytes
             + stats.right.estimated_bytes}
        )
    stages = _stage_estimates(method, terms, stats, parse_seconds)
    root = ExplainNode(
        name=query_name,
        estimate={
            "seconds": sum(est.get("seconds", 0.0) for _, est, _ in stages)
        },
        info={"method": method},
    )
    for name, estimate, info in stages:
        root.add_child(ExplainNode(name=name, estimate=estimate, info=info))
    plan_info: dict[str, Any] = {
        "method": method,
        "chosen": plan.method,
        "workers": plan.workers,
        "nodes": plan.nodes,
        "costs": {m: round(s, 6) for m, s in plan.costs.items()},
        "distribution": {
            "broadcast": "broadcast",
            "partitioned": "shuffle",
        }.get(method, "local"),
        "stats": stats.to_info(),
    }
    if plan.partitioning is not None:
        plan_info["partitioner"] = "sort-tile+hot-split"
        plan_info["tiles"] = len(plan.partitioning)
        plan_info["split_tiles"] = plan.split_tiles
        if method == "partitioned":
            join = root.children[-1]
            join.info["tiles"] = len(plan.partitioning)
            join.info["split_tiles"] = plan.split_tiles
    if plan.cached_build:
        plan_info["cached_build"] = True
    if plan.calibration:
        plan_info["calibration"] = dict(plan.calibration)
    if cache_info is not None:
        plan_info["cache"] = dict(cache_info)
    return ExplainReport(
        root=root, method=method, mode="plan", ratio=ratio, plan=plan_info
    )


# -- the ANALYZE overlay ------------------------------------------------------


def _actuals_from_counters(counters: dict) -> dict[str, float]:
    actual: dict[str, float] = {}
    if "rows_out" in counters:
        actual["rows"] = float(counters["rows_out"])
    for key in _BYTES_COUNTERS:
        if key in counters:
            actual["bytes"] = float(counters[key])
            break
    return actual


def _flag_node(node: ExplainNode, ratio: float) -> None:
    """Compare estimate vs actual per metric and record misestimates."""
    if node.actual is None:
        if node.estimate:
            node.flags.append("never executed (no actuals recorded)")
        return
    for metric, estimate in sorted(node.estimate.items()):
        actual = node.actual.get(metric)
        if actual is None:
            continue
        low, high = sorted((float(estimate), float(actual)))
        if high <= _METRIC_FLOORS.get(metric, 0.0):
            continue  # both sides tiny: no signal in the ratio
        observed = high / max(low, 1e-12)
        if observed > ratio:
            node.flags.append(
                f"{metric} misestimate: est {estimate:g} vs actual "
                f"{actual:g} ({observed:.1f}x)"
            )


def overlay_profile(report: ExplainReport, profile, ratio: float | None = None,
                    cache_info: dict | None = None) -> ExplainReport:
    """Graft measured actuals from a :class:`QueryProfile` onto ``report``.

    Every top-level profile stage lands on the estimate node with the
    same name (stages the estimate tree did not predict are appended with
    an empty estimate), so the per-operator ``actual["seconds"]`` always
    sum to the profile's engine total — the accounting identity
    ``bench regress`` pins.  Misestimates beyond ``ratio`` are flagged.
    """
    if ratio is not None:
        report.ratio = ratio
    report.mode = "analyze"
    report.root.actual = {"seconds": profile.total_simulated_seconds}
    by_name = {node.name: node for node in report.root.children}
    for child in profile.root.children:
        node = by_name.get(child.name)
        if node is None:
            node = report.root.add_child(ExplainNode(name=child.name))
            by_name[child.name] = node
        actual = _actuals_from_counters(child.counters)
        actual["seconds"] = child.sim_seconds
        # Merge: several profile stages with one name (job-* trees)
        # accumulate into the same operator row.
        if node.actual is None:
            node.actual = actual
        else:
            for key, value in actual.items():
                node.actual[key] = node.actual.get(key, 0.0) + value
        for key in ("tasks", "skew", "max_task_seconds",
                    "median_task_seconds", "makespan_seconds"):
            if key in child.info:
                node.info[key] = child.info[key]
    if cache_info is not None:
        report.plan["cache"] = dict(cache_info)
    for node in [report.root, *report.root.children]:
        node.flags = [f for f in node.flags if "misestimate" not in f]
        _flag_node(node, report.ratio)
    return report


def report_from_profile(profile, ratio: float = DEFAULT_MISESTIMATE_RATIO,
                        method: str | None = None) -> ExplainReport:
    """Actuals-only :class:`ExplainReport` from any engine profile.

    This is the engine-side entry point: SpatialSpark and ISP-MC runs
    produce :class:`QueryProfile` trees with no optimizer estimates, but
    their stage structure, counters and skew statistics still render and
    serialise through the same report machinery (estimate columns show
    ``-``).  When the profile root carries ``plan_est_seconds`` (the
    core API's auto-planned runs), it becomes the root estimate so the
    top-line est-vs-actual comparison still works.
    """
    root_info = dict(profile.root.info)
    method = method or str(root_info.get("method", root_info.get("engine", "?")))
    root = ExplainNode(
        name=profile.root.name,
        info=root_info,
        actual={"seconds": profile.total_simulated_seconds},
    )
    if "plan_est_seconds" in root_info:
        root.estimate["seconds"] = float(root_info["plan_est_seconds"])
    report = ExplainReport(
        root=root, method=method, mode="analyze", ratio=ratio,
        plan={"method": method, "source": "profile"},
    )
    for child in profile.root.children:
        actual = _actuals_from_counters(child.counters)
        actual["seconds"] = child.sim_seconds
        info = {
            key: child.info[key]
            for key in ("tasks", "skew", "max_task_seconds",
                        "median_task_seconds", "makespan_seconds",
                        "straggler_seconds", "imbalance")
            if key in child.info
        }
        root.add_child(ExplainNode(name=child.name, actual=actual, info=info))
    _flag_node(root, ratio)
    return report


# -- plan-only entry point ----------------------------------------------------


def explain(left, right, config=None, **kwargs) -> ExplainReport:
    """Render the plan :func:`repro.core.api.spatial_join` would run,
    without executing it.

    Accepts the same inputs and knobs as ``spatial_join`` (loose keywords
    or ``config=JoinConfig(...)``).  Both collections are normalised and
    sampled — that is the whole cost; no index is built, nothing is
    joined, no events are emitted.  Cache residency of the broadcast
    build side is peeked (a plain containment test that counts neither a
    hit nor a miss) so a warm cache shows up as ``cache=warm`` and a
    discounted build estimate, exactly as the executed auto plan would
    see it.
    """
    from repro.cache import cache_for
    from repro.cache.artifacts import resident, slot_for
    from repro.cluster.model import CostModel
    from repro.core.api import JoinConfig, _choose_plan, _coerce_operator, _normalise

    if config is not None:
        cfg = config
    else:
        kwargs.pop("explain", None)
        cfg = JoinConfig(**kwargs)
    op = _coerce_operator(cfg.operator)
    left = left if isinstance(left, list) else list(left)
    right = right if isinstance(right, list) else list(right)
    parse_wkt = any(isinstance(g, str) for _, g in left) or any(
        isinstance(g, str) for _, g in right
    )
    left_column = _normalise(left)
    right_column = _normalise(right)
    model = cfg.cost_model or CostModel()
    cache = cache_for(cfg.runtime)
    cached_build = resident(slot_for(
        cache, "broadcast-index", right_column,
        operator=op, radius=cfg.radius, engine=cfg.engine,
    ))
    plan = _choose_plan(cfg, op, model, left_column, right_column, cached_build)
    return build_plan_report(
        plan,
        method=None if cfg.method == "auto" else cfg.method,
        model=model,
        engine=cfg.engine,
        parse_wkt=parse_wkt,
        ratio=cfg.explain_ratio,
        cache_info={"enabled": cache is not None, "build_resident": cached_build},
    )
