"""High-level spatial-join API.

Most users don't want to stand up a (mini-)cluster; this module joins
in-memory collections directly with the same filter+refine machinery the
engines use.  Geometries may be given as objects or WKT strings.

The default ``method="auto"`` samples both inputs and lets
:func:`repro.optimizer.choose_plan` pick the cheapest strategy
(``broadcast`` / ``partitioned`` / ``dual-tree`` / ``naive``); any of the
method names may also be forced explicitly.  Every call returns a
:class:`JoinResult`, which behaves exactly like the list of (left_id,
right_id) pairs older code expects while also carrying the query profile,
the optimizer's :class:`~repro.optimizer.PlanChoice` and the sampled
:class:`~repro.optimizer.JoinStats`.
"""

from __future__ import annotations

import time
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

import numpy as np

from repro.cache import cache_for, fingerprint_entries, fingerprint_rows
from repro.cluster.metrics import QueryMetrics, StageMetrics, TaskMetrics
from repro.cluster.model import CostModel, Resource
from repro.cluster.simulation import simulate_dynamic
from repro.columnar.block import positions_by_value
from repro.columnar.column import GeometryColumn
from repro.columnar.io import parse_wkt_column, refuse_wkt_row
from repro.core.operators import SpatialOperator
from repro.core.probe import (
    BroadcastIndex,
    PreparedBuild,
    cached_index,
    gather,
    index_cache_key,
    join_tile,
    naive_spatial_join,
)
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.index.rtree import STRtree
from repro.obs.events import (
    EventLog,
    emit_task_end,
    emit_task_start,
    get_event_log,
    install_event_log,
)
from repro.obs.tracer import NULL_SPAN, get_tracer
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import SerialBackend, make_pool
from repro.runtime.recovery import RecoveryContext, run_tasks
from repro.runtime.shipping import ObsCapture, apply_capture, capture_observability

__all__ = ["spatial_join", "spatial_join_pairs", "JoinConfig", "JoinResult"]

_METHODS = ("auto", "broadcast", "partitioned", "dual-tree", "naive", "index")


@dataclass(frozen=True)
class JoinConfig:
    """All knobs of :func:`spatial_join` as one value.

    Prefer ``spatial_join(left, right, config=JoinConfig(...))`` over the
    loose keyword arguments — the config form always returns a
    :class:`JoinResult`.  (The legacy loose ``profile=True`` call shape,
    which used to return a ``(pairs, profile)`` tuple, completed its
    deprecation cycle and now raises.)

    ``workers`` is the parallelism the optimizer prices parallel plans
    against (and the partitioned method's simulated task slots);
    ``num_tiles``/``skew_factor``/``sample_size`` tune the partitioned
    plan's skew-aware tiling.

    ``batch_size`` is the row-batch granularity shared with the Impala
    substrate (how many probes each bulk index probe + batched kernel
    dispatch covers); it must be positive.

    ``runtime`` is the execution policy
    (:class:`~repro.runtime.config.RuntimeConfig`), ``None`` meaning its
    defaults.  Its ``executors`` is the *real*-parallelism knob: an int
    > 1 dispatches probe chunks / tile joins to that many worker
    processes.  Unlike ``workers`` (which only scales the *simulated*
    task slots) it changes wall-clock time — and nothing else: results,
    counters and profiles are byte-identical either way.  Its
    ``events_out`` names a JSONL file to receive the structured event log
    (QueryStart / StageSubmitted / TaskStart / TaskEnd / QueryEnd — the
    stream ``python -m repro.bench monitor`` replays).  The retry /
    backoff / speculation budgets, the optional
    :class:`~repro.runtime.faults.FaultPlan` and the cache budget live
    there too.

    ``explain`` selects the plan-introspection surface (DESIGN.md §15):
    ``"off"`` (default) adds nothing; ``"plan"`` attaches an estimate-only
    :class:`~repro.obs.explain.ExplainReport` to the result;
    ``"analyze"`` additionally runs the query under full metrics and
    overlays the measured per-operator actuals onto the same tree,
    flagging estimates that are off by more than ``explain_ratio``.
    ``calibration_out`` names a JSONL file that every ANALYZE run appends
    its estimate-vs-actual deltas to (the optimizer's
    :class:`~repro.optimizer.calibration.CalibrationLog`).  All three are
    observers only: pairs, counters, profiles, simulated seconds and
    events are byte-identical whatever their values.
    """

    operator: SpatialOperator | str = SpatialOperator.WITHIN
    radius: float = 0.0
    engine: str = "fast"
    method: str = "auto"
    profile: bool = False
    cost_model: CostModel | None = None
    workers: int = 1
    num_tiles: int | None = None
    skew_factor: float = 2.0
    sample_size: int | None = None
    batch_size: int = 1024
    runtime: RuntimeConfig | None = None
    explain: str = "off"
    explain_ratio: float = 4.0
    calibration_out: str | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ReproError(
                f"method must be one of {', '.join(sorted(set(_METHODS)))},"
                f" got {self.method!r}"
            )
        if self.method == "index":  # the historical name of broadcast
            object.__setattr__(self, "method", "broadcast")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ReproError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )
        if self.explain not in ("off", "plan", "analyze"):
            raise ReproError(
                f"explain must be 'off', 'plan' or 'analyze', got {self.explain!r}"
            )
        if not self.explain_ratio > 1.0:
            raise ReproError(
                f"explain_ratio must be > 1, got {self.explain_ratio!r}"
            )
        if self.runtime is not None and not isinstance(self.runtime, RuntimeConfig):
            raise ReproError(
                f"runtime must be a RuntimeConfig, got {type(self.runtime).__name__}"
            )

    def with_(self, **changes) -> "JoinConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class JoinResult(_SequenceABC):
    """The outcome of a spatial join.

    Behaves like the plain ``list[(left_id, right_id)]`` the API used to
    return (iteration, ``len``, indexing, ``==`` against lists), so
    existing callers keep working, while exposing:

    * ``pairs`` — the matching id pairs;
    * ``profile`` — a :class:`~repro.obs.profile.QueryProfile` when the
      join ran with ``profile=True``, else ``None``;
    * ``plan`` — the optimizer's :class:`~repro.optimizer.PlanChoice`
      when ``method="auto"`` chose the strategy, else ``None``;
    * ``stats`` — the sampled :class:`~repro.optimizer.JoinStats` backing
      that choice, else ``None``;
    * ``method`` — the strategy that actually executed;
    * ``explain_report`` — the :class:`~repro.obs.explain.ExplainReport`
      when the join ran with ``explain="plan"`` / ``"analyze"``, else
      ``None``.
    """

    __hash__ = None  # mutable-list semantics, like the list it replaces

    def __init__(
        self,
        pairs: list[tuple[Any, Any]],
        profile=None,
        plan=None,
        stats=None,
        method: str | None = None,
        explain_report=None,
    ):
        self.pairs = pairs
        self.profile = profile
        self.plan = plan
        self.stats = stats
        self.method = method
        self.explain_report = explain_report

    def __getitem__(self, index):
        return self.pairs[index]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if isinstance(other, JoinResult):
            return self.pairs == other.pairs
        if isinstance(other, list):
            return self.pairs == other
        if isinstance(other, tuple):
            return tuple(self.pairs) == other
        return NotImplemented

    def __repr__(self) -> str:
        method = f" method={self.method!r}" if self.method else ""
        return f"JoinResult({self.pairs!r}{method})"

    def explain(self) -> str:
        """The optimizer's plan summary (empty string when none)."""
        if self.plan is None:
            return ""
        return "\n".join(self.plan.explain())

    def explain_analyze(self):
        """The estimate-vs-actual :class:`~repro.obs.explain.ExplainReport`.

        Returns the report attached by ``explain="analyze"`` directly.
        Joins that ran with ``profile=True`` but without the analyze knob
        still get a report, lazily built from the query profile (actuals
        and skew only — no per-operator estimates, since the plan was not
        priced operator-by-operator at run time).  Anything else raises
        with guidance.
        """
        if self.explain_report is not None and self.explain_report.mode == "analyze":
            return self.explain_report
        from repro.obs.explain import overlay_profile, report_from_profile

        if self.explain_report is not None and self.profile is not None:
            return overlay_profile(self.explain_report, self.profile)
        if self.profile is not None:
            return report_from_profile(self.profile, method=self.method)
        raise ReproError(
            "explain_analyze() needs measured actuals — run the join with"
            " config=JoinConfig(explain='analyze') (or at least"
            " profile=True) and call it on that result"
        )


def _normalise(
    entries: Iterable[tuple[Any, Geometry | str]],
    metrics: TaskMetrics | None = None,
) -> GeometryColumn:
    """Pack ``(payload, Geometry | WKT)`` rows into a column, ids as payloads.

    The API's door: WKT strings are parsed in one bulk pass
    (:func:`~repro.columnar.io.parse_wkt_column`), charged per row, and a
    row no join can take raises before any index is built — the scalar
    reader's own error for malformed WKT, a ``GeometryError`` naming the
    row for a ``GeometryCollection`` (object or WKT), a ``ReproError`` for
    a value that is neither a geometry nor a string.  A table of WKT
    points and / or linestrings comes back without one geometry object
    built.
    """
    entries = list(entries)
    rows = [i for i, (_, geometry) in enumerate(entries) if isinstance(geometry, str)]
    if rows:
        texts = [entries[i][1] for i in rows]
        if metrics is not None:
            for text in texts:
                metrics.add(Resource.WKT_BYTES, float(len(text)))
        column, dropped = parse_wkt_column(texts, [entries[i][0] for i in rows])
        if dropped:
            refuse_wkt_row(texts[dropped[0]], rows[dropped[0]])
        if len(rows) == len(entries):
            return column
        for i, entry in zip(rows, column.entries()):
            entries[i] = entry
    for _, geometry in entries:
        if not isinstance(geometry, Geometry):
            raise ReproError(
                f"expected Geometry or WKT string, got {type(geometry).__name__}"
            )
    return GeometryColumn.from_entries(entries)


def _normalise_cached(entries, metrics, cache) -> GeometryColumn:
    """`_normalise` through the cross-query parsed-column cache.

    The key is a content fingerprint of the *raw* rows (payloads plus WKT
    strings / geometry coordinates), so re-submitting the same table skips
    the WKT parse while a mutated or different table misses.  Counter
    identity: the entry stores the exact ``WKT_BYTES`` total the parse
    accrued, and a hit charges that same total — profiles and simulated
    seconds cannot tell the difference.  Inputs whose payloads the
    fingerprinter does not understand simply bypass the cache.
    """
    if cache is None:
        return _normalise(entries, metrics)
    entries = entries if isinstance(entries, list) else list(entries)
    if not any(isinstance(geometry, str) for _, geometry in entries):
        # Nothing to parse: caching would only add hashing overhead.
        return _normalise(entries, metrics)
    try:
        key = fingerprint_rows(entries, "parsed-column")
    except TypeError:
        return _normalise(entries, metrics)
    cached = cache.get(key, "parsed-column")
    if cached is None:
        parse_metrics = TaskMetrics()
        column = _normalise(entries, parse_metrics)
        wkt_chars = parse_metrics.counts.get(Resource.WKT_BYTES, 0.0)
        cache.put(key, "parsed-column", (column, wkt_chars),
                  build_cost=float(wkt_chars))
    else:
        column, wkt_chars = cached
    if metrics is not None and wkt_chars:
        metrics.add(Resource.WKT_BYTES, wkt_chars)
    return column


def _coerce_operator(operator: SpatialOperator | str) -> SpatialOperator:
    if isinstance(operator, str):
        try:
            return SpatialOperator(operator.lower())
        except ValueError:
            raise ReproError(f"unknown operator {operator!r}") from None
    return operator


def spatial_join(
    left: Iterable[tuple[Any, Geometry | str]],
    right: Iterable[tuple[Any, Geometry | str]],
    operator: SpatialOperator | str = SpatialOperator.WITHIN,
    radius: float = 0.0,
    engine: str = "fast",
    method: str = "auto",
    profile: bool = False,
    cost_model: CostModel | None = None,
    workers: int = 1,
    runtime: RuntimeConfig | None = None,
    explain: str = "off",
    config: JoinConfig | None = None,
) -> JoinResult:
    """Join two (id, geometry) collections; returns matching id pairs.

    ``operator`` accepts a :class:`SpatialOperator` or its name
    (``"within"``, ``"nearestd"``, ``"intersects"``, ``"contains"``).
    ``method`` is one of:

    * ``"auto"`` (default) — sample both inputs and run the cheapest plan
      per :func:`repro.optimizer.choose_plan`;
    * ``"broadcast"`` — index the right side, probe with the left (the
      paper's broadcast join; ``"index"`` is the historical alias);
    * ``"partitioned"`` — skew-aware tiled join, duplicates suppressed
      by the lowest-common-tile owner rule;
    * ``"dual-tree"`` — synchronized traversal of two R-trees;
    * ``"naive"`` — the O(n*m) nested loop, ground truth in tests.

    The returned :class:`JoinResult` compares equal to the plain list of
    pairs older code expects.  With ``config=JoinConfig(profile=True)``
    it carries a :class:`~repro.obs.profile.QueryProfile` whose phases
    hold the run's resource counters.  The historical *loose-keyword*
    ``profile=True`` call (which returned a ``(pairs, profile)`` tuple)
    completed its deprecation cycle and now raises.

    ``runtime`` installs a :class:`~repro.runtime.config.RuntimeConfig`
    (executors, event log, retry / speculation policy, fault plan); it
    replaces ``config.runtime`` when both are given.  It is the only
    keyword that may accompany ``config=``: any other one set to a
    non-default value beside it is a ``TypeError``, not a silently
    ignored argument.

    Example::

        >>> from repro import spatial_join
        >>> pairs = spatial_join(
        ...     [(0, "POINT (1 1)"), (1, "POINT (9 9)")],
        ...     [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")],
        ... )
        >>> pairs == [(0, 'cell')]
        True
    """
    if config is not None:
        # ``config`` is the whole join description; a loose keyword beside
        # it used to be dropped without a word.
        for keyword, given in (
            ("operator", operator is not SpatialOperator.WITHIN),
            ("radius", radius != 0.0),
            ("engine", engine != "fast"),
            ("method", method != "auto"),
            ("profile", profile is not False),
            ("cost_model", cost_model is not None),
            ("workers", workers != 1),
            ("explain", explain != "off"),
        ):
            if given:
                raise TypeError(
                    f"spatial_join() got {keyword}= beside config=; set it on the"
                    f" JoinConfig instead (config.with_({keyword}=...))"
                )
        cfg = config
    else:
        if profile:
            raise ReproError(
                "spatial_join(..., profile=True) as a loose keyword used to"
                " return the legacy (pairs, profile) tuple; that shape"
                " completed its deprecation cycle and was removed — pass"
                " config=JoinConfig(profile=True) and read .pairs / .profile"
                " off the returned JoinResult"
            )
        cfg = JoinConfig(
            operator=operator,
            radius=radius,
            engine=engine,
            method=method,
            profile=profile,
            cost_model=cost_model,
            workers=workers,
            explain=explain,
        )
    if runtime is not None:
        cfg = cfg.with_(runtime=runtime)
    return _execute_join(left, right, cfg)


def _execute_join(left, right, cfg: JoinConfig) -> JoinResult:
    """Event-log envelope around :func:`_run_join`.

    With the runtime's ``events_out`` set, the join owns a JSONL-backed
    :class:`EventLog` for its duration; otherwise the ambient sink (an
    enclosing :func:`~repro.obs.events.logging_events` block, or the
    disabled no-op default) is left in place.
    """
    runtime = cfg.runtime or RuntimeConfig()
    owned = EventLog(path=runtime.events_out) if runtime.events_out else None
    try:
        with install_event_log(owned):
            return _run_join(left, right, cfg, runtime)
    finally:
        if owned is not None:
            owned.close()


def _run_join(left, right, cfg: JoinConfig, runtime: RuntimeConfig) -> JoinResult:
    op = _coerce_operator(cfg.operator)
    model = cfg.cost_model or CostModel()
    # One recovery context per join call: blacklist state and fault
    # consumption are scoped to the query, like the engines' drivers.
    recovery = RecoveryContext(runtime)
    # None unless the runtime opts in via cache_budget_bytes.
    cache = cache_for(runtime)
    tracer = get_tracer()
    # Pure observers: nothing below this block changes when explain is on.
    explain_on = cfg.explain != "off"
    raw_wkt = False
    cache_before = None
    if explain_on:
        left = left if isinstance(left, list) else list(left)
        right = right if isinstance(right, list) else list(right)
        raw_wkt = any(isinstance(g, str) for _, g in left) or any(
            isinstance(g, str) for _, g in right
        )
        if cache is not None:
            cache_before = cache.stats.as_dict()
    query = (
        QueryMetrics(name="spatial-join")
        if cfg.profile or cfg.explain == "analyze"
        else None
    )
    log = get_event_log()
    events_query = log.next_id("query") if log.enabled else None
    if events_query is not None:
        log.emit(
            "QueryStart",
            query=events_query,
            name="spatial-join",
            engine="core",
            wall_start=time.perf_counter(),
        )

    if query is not None:
        parse_metrics = TaskMetrics()
        with tracer.span("parse", category="phase") as span:
            left_column = _normalise_cached(left, parse_metrics, cache)
            right_column = _normalise_cached(right, parse_metrics, cache)
            span.add_sim(parse_metrics.seconds(model))
        _add_stage(query, "parse", [parse_metrics], model)
    else:
        left_column = _normalise_cached(left, None, cache)
        right_column = _normalise_cached(right, None, cache)

    method = cfg.method
    plan = None
    stats = None
    bindex_key = None
    if cache is not None:
        bindex_key = index_cache_key(
            "broadcast-index", right_column, op, cfg.radius, cfg.engine
        )
    # Residency of the broadcast build side *at planning time* — a plain
    # containment peek (counts neither hit nor miss), recorded for the
    # explain report before execution can warm the cache.
    explain_resident = (
        explain_on and bindex_key is not None and bindex_key in cache
    )
    if method == "auto":
        # A cache-resident build side makes broadcast (nearly) free to set
        # up; tell the planner so a warm cache can flip the plan.  The
        # residency peek is a plain containment test — it must not count a
        # hit/miss the subsequent build lookup will count again.
        cached_build = bindex_key is not None and bindex_key in cache
        with tracer.span("plan", category="phase") as span:
            plan = _choose_plan(cfg, op, model, left_column, right_column, cached_build)
            span.set_attr("method", plan.method)
        stats = plan.stats
        method = plan.method

    if method == "naive":
        pairs = _naive_join(left_column, right_column, op, cfg, model, query)
    elif method == "broadcast":
        pairs = _broadcast_join(
            left_column, right_column, op, cfg, model, query, events_query,
            recovery, cache=cache, cache_key=bindex_key,
        )
    elif method == "dual-tree":
        pairs = _dual_tree_join(left_column, right_column, op, cfg, model, query)
    elif method == "partitioned":
        pairs = _partitioned_join_local(
            left_column, right_column, op, cfg, model, query, plan,
            events_query, recovery, cache=cache,
        )
    else:  # pragma: no cover - guarded by JoinConfig's _METHODS check
        raise ReproError(f"unhandled method {method!r}")

    if events_query is not None:
        log.emit(
            "QueryEnd",
            query=events_query,
            name="spatial-join",
            sim_seconds=query.simulated_seconds if query is not None else None,
            rows=len(pairs),
            wall_end=time.perf_counter(),
        )

    profile_obj = None
    if query is not None:
        profile_obj = query.to_profile(model)
        profile_obj.root.info["method"] = method
        if plan is not None:
            profile_obj.root.info["plan_est_seconds"] = plan.estimated_seconds
            if plan.partitioning is not None:
                profile_obj.root.info["plan_tiles"] = len(plan.partitioning)
    report = None
    if explain_on:
        report = _build_explain_report(
            cfg, op, model, plan, method, left_column, right_column,
            raw_wkt, cache, bindex_key, explain_resident, cache_before,
            profile_obj,
        )
    return JoinResult(
        pairs=pairs, profile=profile_obj, plan=plan, stats=stats,
        method=method, explain_report=report,
    )


def _choose_plan(cfg: JoinConfig, op, model, left_column, right_column, cached_build):
    """The optimizer's priced plan for ``cfg``'s knobs over the two
    columns — what auto runs, and what EXPLAIN prices."""
    from repro.optimizer import choose_plan

    return choose_plan(
        left_column,
        right_column,
        operator=op,
        radius=cfg.radius,
        cost_model=model,
        workers=cfg.workers,
        num_tiles=cfg.num_tiles,
        skew_factor=cfg.skew_factor,
        engine=cfg.engine,
        sample_size=cfg.sample_size,
        cached_build=cached_build,
    )


def _build_explain_report(
    cfg, op, model, plan, method, left_column, right_column, raw_wkt,
    cache, bindex_key, explain_resident, cache_before, profile_obj,
):
    """Price the executed plan and (for ANALYZE) overlay measured actuals.

    Runs strictly after the join: it reads the already-built profile and
    plan, re-prices via the same deterministic chooser when the caller
    forced a method, and never touches metrics, events or the cache's
    hit/miss counters (residency checks are containment peeks).
    """
    from repro.obs.explain import build_plan_report, overlay_profile

    pricing = plan
    if pricing is None:
        pricing = _choose_plan(cfg, op, model, left_column, right_column, explain_resident)
    cache_info = {
        "enabled": cache is not None,
        "build_resident": explain_resident,
    }
    if cache is not None and cache_before is not None:
        after = cache.stats.as_dict()
        cache_info["hits_delta"] = after["hits"] - cache_before["hits"]
        cache_info["misses_delta"] = after["misses"] - cache_before["misses"]
        cache_info["residency"] = cache.residency()
    report = build_plan_report(
        pricing,
        method=method if plan is None else None,
        model=model,
        engine=cfg.engine,
        parse_wkt=raw_wkt,
        ratio=cfg.explain_ratio,
        cache_info=cache_info,
    )
    if cfg.explain == "analyze" and profile_obj is not None:
        overlay_profile(report, profile_obj, cache_info=cache_info)
        if cfg.calibration_out:
            from repro.optimizer.calibration import CalibrationLog

            CalibrationLog(cfg.calibration_out).record_report(report)
    return report


def _add_stage(
    query: QueryMetrics,
    name: str,
    tasks: list[TaskMetrics],
    model: CostModel,
    makespan: float | None = None,
) -> None:
    stage = StageMetrics(name=name, tasks=tasks)
    if makespan is None:
        makespan = max((task.seconds(model) for task in tasks), default=0.0)
    stage.makespan_seconds = makespan
    query.add_stage(stage)


def _naive_join(left_column, right_column, op, cfg, model, query):
    tracer = get_tracer()
    with tracer.span("join", category="phase") as span:
        pairs = naive_spatial_join(
            left_column.entries(), right_column.entries(), op, cfg.radius
        )
        if query is not None:
            join_metrics = TaskMetrics()
            join_metrics.add(
                Resource.INDEX_VISIT,
                float(len(left_column)) * float(len(right_column)),
            )
            join_metrics.add(Resource.ROWS_OUT, float(len(pairs)))
            span.add_sim(join_metrics.seconds(model))
            _add_stage(query, "join", [join_metrics], model)
        span.set_attr("rows_out", len(pairs))
    return pairs


def _phase(query, name: str):
    """The span of one billed phase; only profiled runs trace them."""
    if query is None:
        return NULL_SPAN
    return get_tracer().span(name, category="phase")


def _dispatch_pool(runtime: RuntimeConfig, num_tasks: int):
    """The pool probe chunks and tile joins are dispatched through.

    Real workers need more than one task and fork-style closure dispatch
    (the index rides into workers free); otherwise an inline
    :class:`SerialBackend` runs the same thunks on the driver, so serial,
    pooled and fault-injected runs share one code path.
    """
    pool = make_pool(runtime.executors)
    if num_tasks < 2 or pool.is_serial or not pool.supports_closures:
        return SerialBackend()
    return pool


def _submit_stage(events_query, name: str, num_tasks: int):
    """Emit StageSubmitted; returns the tasks' ``(query, stage)`` event
    context, or None with the event log off."""
    log = get_event_log()
    if events_query is None or not log.enabled:
        return None
    events_stage = log.next_id("stage")
    log.emit(
        "StageSubmitted",
        query=events_query,
        stage=events_stage,
        name=name,
        num_tasks=num_tasks,
    )
    return (events_query, events_stage)


def _run_tasks(pool, tasks, model, events_ctx, recovery, scope):
    """Run ``(label, partition, body)`` tasks on ``pool``; returns each
    body's ``(pairs, TaskMetrics)`` in task order.

    Pure fan-out: a body reads the (fork-inherited) index and its slice of
    the inputs; what it does to observability state — registry counters,
    and with the event log on (``events_ctx`` is a ``(query, stage)``
    pair) its TaskStart / TaskEnd frame — goes into an
    :class:`ObsCapture` whenever the task runs in a worker, may be
    discarded (a fault plan is active) or emits events.  The capture
    ships back with its result and is replayed here in task order —
    workers never write the driver's registry or sink, and a losing
    speculative attempt's capture is simply dropped.  With a fault plan
    active the same thunks run under
    :func:`~repro.runtime.recovery.run_recovered`.
    """
    captured = events_ctx is not None or recovery.active or not pool.is_serial

    def make_thunk(task_index, label, partition, body):
        if not captured:
            return lambda: (*body(), None)
        ids = None if events_ctx is None else (*events_ctx, task_index)

        def run_captured():
            capture = ObsCapture()
            with capture_observability(capture):
                if ids is not None:
                    emit_task_start(ids, partition, label)
                pairs, task = body()
                if ids is not None:
                    emit_task_end(ids, partition, label, task.seconds(model), task.counts)
            return pairs, task, capture

        return run_captured

    results = []

    def absorb(index, shipment):
        pairs, task, capture = shipment
        if capture is not None:
            apply_capture(capture)
        results.append((pairs, task))

    run_tasks(
        pool,
        [make_thunk(index, *task) for index, task in enumerate(tasks)],
        recovery,
        absorb,
        scope=scope,
        events=events_ctx,
        sim_seconds=lambda index, value: value[1].seconds(model),
    )
    return results


def _broadcast_join(
    left_column, right_column, op, cfg, model, query, events_query, recovery,
    cache=None, cache_key=None,
):
    """The paper's broadcast join: index the right side, probe with the
    left in ``batch_size`` chunks — each a zero-copy slice of the left
    column.  With profiling on, build/probe become exactly-billed stages."""
    left_ids = left_column.payloads()
    starts = range(0, len(left_ids), cfg.batch_size)
    events_ctx = _submit_stage(events_query, "probe", len(starts))

    build_metrics = TaskMetrics()
    with _phase(query, "build") as span:
        # The build stage charges index.build_cost_units() whether the
        # index was rebuilt or reused — a warm query simulates the same
        # cluster, it just skips the real STR-tree construction.
        index = cached_index(
            cache, "broadcast-index", right_column, op, cfg.radius, cfg.engine,
            key=cache_key,
        )
        for resource, amount in index.build_cost_units().items():
            build_metrics.add(resource, amount)
        span.add_sim(build_metrics.seconds(model))
        span.set_attr("index_entries", len(index))

    def chunk_task(task_index, start):
        def probe_chunk():
            stop = start + cfg.batch_size
            rows, entries, units = index.probe_pairs(left_column.slice(start, stop))
            chunk_pairs = list(
                zip(gather(left_ids, rows + start), index.entry_payloads(entries))
            )
            task = TaskMetrics()
            task.add_columns(units)
            return chunk_pairs, task

        return f"chunk-{task_index}", task_index, probe_chunk

    pairs: list[tuple[Any, Any]] = []
    probe_metrics = TaskMetrics()
    with _phase(query, "probe") as span:
        for chunk_pairs, task in _run_tasks(
            _dispatch_pool(recovery.runtime, len(starts)),
            [chunk_task(task_index, start) for task_index, start in enumerate(starts)],
            model, events_ctx, recovery, "spatial-join:probe",
        ):
            probe_metrics.merge(task)
            pairs.extend(chunk_pairs)
        span.add_sim(probe_metrics.seconds(model))
        span.set_attr("rows_out", len(pairs))
    if query is not None:
        _add_stage(query, "build", [build_metrics], model)
        _add_stage(query, "probe", [probe_metrics], model)
    return pairs


def _dual_tree_join(left_column, right_column, op, cfg, model, query):
    """Filter with a synchronized R-tree join (both sides indexed), then
    refine.  Section II's 'both can be indexed' option — it beats the
    probe-per-row plan when the left side is also large and indexable.

    Pair-major like the probe routes: both trees are bulk-loaded from the
    columns' bounds arrays, one array traversal yields every candidate
    ``(left row, build row)`` pair and one pair-kernel call refines them
    (:meth:`~repro.core.probe.PreparedBuild.refine_candidates`).
    """
    tracer = get_tracer()
    expand = cfg.radius if op.needs_radius else 0.0
    with tracer.span("build", category="phase"):
        build = PreparedBuild(right_column, op, cfg.radius, cfg.engine)
        probes = left_column.non_empty()
        left_tree, right_tree = STRtree(), STRtree()
        left_tree.bulk_load_arrays(range(len(probes)), *probes.bounds())
        right_tree.bulk_load_arrays(range(len(build)), *build._column.bounds())
    if query is not None:
        build_metrics = TaskMetrics()
        build_metrics.add(Resource.INDEX_BUILD, float(len(left_tree) + len(right_tree)))
        _add_stage(query, "build", [build_metrics], model)
    with tracer.span("join", category="phase") as span:
        left_rows, build_rows = left_tree._join_arrays(right_tree, expand=expand)
        hit, _, _ = build.refine_candidates(probes, left_rows, build_rows)
        pairs = list(zip(
            gather(probes.payloads(), left_rows[hit]),
            gather(build._column.payloads(), build_rows[hit]),
        ))
        span.set_attr("rows_out", len(pairs))
    if query is not None:
        join_metrics = TaskMetrics()
        if len(build_rows):
            vertices = build._column.num_points_array()[build_rows]
            join_metrics.add(build._vertex_resource, float(np.maximum(vertices, 2).sum()))
        join_metrics.add(Resource.ROWS_OUT, float(len(pairs)))
        _add_stage(query, "join", [join_metrics], model)
    return pairs


def _route_side(tiles, column, expand, shuffle_metrics):
    """Route one whole side with the batch router; returns ``{tile: rows}``.

    Rows are positions into ``column``, ascending per tile.  Charges the
    side's ``SHUFFLE_BYTES`` — 48 bytes a routed record plus 16 per
    vertex, integer-valued, so the one add equals an add per record.
    """
    rows, tile_ids = tiles.route_rows(*column.bounds(), expand=expand)
    if shuffle_metrics is not None and len(rows):
        vertices = column.num_points_array()
        shuffle_metrics.add(
            Resource.SHUFFLE_BYTES,
            float(48 * len(rows) + 16 * int(vertices[rows].sum())),
        )
    return {
        int(tile_ids[group[0]]): rows[group] for group in positions_by_value(tile_ids)
    }


def _partitioned_join_local(
    left_column, right_column, op, cfg, model, query, plan,
    events_query, recovery, cache=None,
):
    """Skew-aware tiled join over in-memory collections.

    Mirrors :func:`repro.core.partitioned_join.partitioned_spatial_join`:
    both sides are routed to every tile they overlap, each tile runs an
    indexed join, and the owner rule (lowest common tile emits)
    suppresses the duplicates replication would create.  Tiles come
    from the optimizer's skew-aware partitioner, so hot spots are split
    before tasks are formed.
    """
    from repro.optimizer import collect_join_stats
    from repro.optimizer.planner import derive_skew_aware_partitioning

    tracer = get_tracer()
    expand = cfg.radius if op.needs_radius else 0.0
    partitioning = plan.partitioning if plan is not None else None
    if partitioning is None:
        num_tiles = cfg.num_tiles or max(4, 2 * cfg.workers)
        layout_key = None
        if cache is not None:
            # Both sides shape the sampled stats and the tile layout, so
            # both belong in the key, along with every deriving knob.
            layout_key = fingerprint_entries(
                left_column.entries(), "partition-layout", float(expand),
                num_tiles, float(cfg.skew_factor), cfg.engine,
                cfg.sample_size, fingerprint_entries(right_column.entries()),
            )
            layout = cache.get(layout_key, "partition-layout")
            if layout is not None:
                stats, partitioning = layout
                if not (stats.left.count and stats.right.count):
                    return []
        if partitioning is None:
            sample_kwargs = (
                {"sample_size": cfg.sample_size} if cfg.sample_size else {}
            )
            stats = collect_join_stats(
                left_column, right_column, radius=expand, **sample_kwargs
            )
            if not (stats.left.count and stats.right.count):
                if layout_key is not None:
                    cache.put(layout_key, "partition-layout", (stats, None))
                return []
            with tracer.span("derive-partitioning", category="phase") as span:
                partitioning, _, _ = derive_skew_aware_partitioning(
                    stats,
                    num_tiles,
                    model,
                    skew_factor=cfg.skew_factor,
                    engine=cfg.engine,
                )
                span.set_attr("tiles", len(partitioning))
            if layout_key is not None:
                cache.put(
                    layout_key, "partition-layout", (stats, partitioning),
                    build_cost=float(stats.left.count + stats.right.count),
                )
    tiles = partitioning

    shuffle_metrics = TaskMetrics() if query is not None else None
    # Each tile gets zero-copy slices (row-index arrays into the shared
    # buffers) of the whole-side columns.  The build side's payloads are
    # whole (id, geometry) pairs, so the owner rule can route a match.
    build_column = GeometryColumn.from_entries(
        (pair, pair[1]) for pair in right_column.entries()
    )
    with tracer.span("route", category="phase"):
        left_rows_by_tile = _route_side(tiles, left_column, 0.0, shuffle_metrics)
        right_rows_by_tile = _route_side(tiles, build_column, expand, shuffle_metrics)
    if shuffle_metrics is not None:
        _add_stage(query, "shuffle", [shuffle_metrics], model)

    def tile_task(tile_id):
        """Index-join one tile, owner-rule deduped — the partitioned
        join's task granularity, the unit the executors pool fans out."""

        def join():
            index = BroadcastIndex(
                build_column.take(right_rows_by_tile[tile_id]),
                op, radius=cfg.radius, engine=cfg.engine,
            )
            task = TaskMetrics()
            task.add(Resource.INDEX_BUILD, float(len(index)))
            tile_pairs, units = join_tile(
                index, left_column.take(left_rows_by_tile[tile_id]),
                tiles, tile_id, expand,
            )
            task.add_columns(units)
            return tile_pairs, task

        return f"tile-{tile_id}", tile_id, join

    pairs: list[tuple[Any, Any]] = []
    tile_tasks: list[TaskMetrics] = []
    joinable = [
        tile_id for tile_id in sorted(left_rows_by_tile) if tile_id in right_rows_by_tile
    ]
    events_ctx = _submit_stage(events_query, "join", len(joinable))
    with tracer.span("join", category="phase") as span:
        for tile_pairs, task in _run_tasks(
            _dispatch_pool(recovery.runtime, len(joinable)),
            [tile_task(tile_id) for tile_id in joinable],
            model, events_ctx, recovery, "spatial-join:join",
        ):
            pairs.extend(tile_pairs)
            tile_tasks.append(task)
        span.set_attr("rows_out", len(pairs))
        span.set_attr("tiles_joined", len(tile_tasks))
    if query is not None and tile_tasks:
        makespan = simulate_dynamic(
            [task.seconds(model) for task in tile_tasks], max(1, cfg.workers)
        )
        _add_stage(query, "join", tile_tasks, model, makespan=makespan)
    return pairs


def spatial_join_pairs(
    left_geometries: Sequence[Geometry | str],
    right_geometries: Sequence[Geometry | str],
    operator: SpatialOperator | str = SpatialOperator.WITHIN,
    radius: float = 0.0,
    engine: str = "fast",
    method: str = "auto",
    profile: bool = False,
    cost_model: CostModel | None = None,
    workers: int = 1,
    runtime: RuntimeConfig | None = None,
    config: JoinConfig | None = None,
) -> JoinResult:
    """Positional variant: ids are the sequences' indexes.

    Forwards every option (``method``, ``profile``, ``cost_model``,
    ``runtime``, ``config``...) to :func:`spatial_join` — historically it
    silently dropped everything past ``engine``.
    """
    left = list(enumerate(left_geometries))
    right = list(enumerate(right_geometries))
    return spatial_join(
        left,
        right,
        operator,
        radius=radius,
        engine=engine,
        method=method,
        profile=profile,
        cost_model=cost_model,
        workers=workers,
        runtime=runtime,
        config=config,
    )
