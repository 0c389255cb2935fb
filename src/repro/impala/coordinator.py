"""Impala backend: coordinator + worker instances with static scheduling.

Execution follows Section IV of the paper:

1. the frontend parses and plans the query (once, on the coordinator);
2. scan ranges are bound to fragment instances (one per node) **before
   execution starts** — round-robin, never rebalanced;
3. the build (right) side is scanned by every instance's share of ranges
   and broadcast; each instance builds an in-memory R-tree from the
   broadcast row batches;
4. each instance probes its left rows batch-by-batch, with OpenMP-static
   multi-core refinement, and ships results (or partial aggregates) to
   the coordinator, which merges/sorts/limits.  Results travel as
   columns — one object array per ORDER BY key and per SELECT item — and
   become row tuples once, in :attr:`QueryResult.rows`.

The query's simulated runtime is frontend planning + fragment startup
(LLVM JIT et al.) + the *maximum* instance time (static inter-node
scheduling: everyone waits for the straggler) + coordinator merge time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cache import cache_for, estimate_index_bytes, fingerprint_rows
from repro.cluster.model import ClusterSpec, CostModel, Resource
from repro.errors import ImpalaError, PlanError
from repro.hdfs import SimulatedHDFS, split_boundaries
from repro.impala.catalog import Metastore
from repro.impala.exec_nodes import (
    Aggregator,
    CrossJoinNode,
    ExecNode,
    FilterNode,
    InstanceContext,
    ScanNode,
)
from repro.impala.ast_nodes import ColumnRef
from repro.impala.exprs import TupleDescriptor, compile_expr, vectorize_conjuncts
from repro.impala.rowbatch import BATCH_SIZE, object_column
from repro.impala.parser import parse
from repro.impala.planner import PhysicalPlan, Planner
from repro.obs.events import EventLog, get_event_log, install_event_log
from repro.obs.profile import ProfileNode, QueryProfile
from repro.obs.tracer import get_tracer
from repro.runtime.config import RuntimeConfig
from repro.runtime.faults import InjectedFaultError
from repro.runtime.pool import current_worker_id, make_pool, picklable_error
from repro.runtime.recovery import RecoveryContext, resolve_faults
from repro.runtime.shipping import ObsCapture, apply_capture, capture_observability
from repro.obs.registry import REGISTRY
from repro.spark.shuffle import estimate_bytes, values_bytes
from repro.spark.taskcontext import task_scope

__all__ = ["QueryResult", "ImpalaBackend", "exchange_bytes"]


@dataclass
class QueryResult:
    """Rows plus the accounting needed by the benchmark harness."""

    columns: list[str]
    rows: list[tuple]
    simulated_seconds: float
    instances: list[InstanceContext] = field(default_factory=list)
    plan: PhysicalPlan | None = None
    coordinator_seconds: float = 0.0
    # Additive decomposition of simulated_seconds, filled by the
    # coordinator: planning / fragment-startup / execution / coordinator.
    breakdown: dict[str, float] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.rows)

    def to_profile(self, name: str = "impala-query") -> QueryProfile:
        """Impala-style runtime profile of this query.

        Top-level children mirror :attr:`breakdown` (their simulated
        seconds sum to :attr:`simulated_seconds` exactly); the execution
        node carries one child per fragment instance — the static-
        scheduling straggler is the longest of those concurrent bars.
        """
        root = ProfileNode(
            name,
            sim_seconds=self.simulated_seconds,
            info={
                "engine": "ISP-MC",
                "instances": len(self.instances),
                "rows": len(self.rows),
            },
        )
        for phase, seconds in self.breakdown.items():
            node = root.add_child(ProfileNode(phase, sim_seconds=seconds))
            if phase != "execution" or not self.instances:
                continue
            node.concurrent = True
            node.info = {
                "straggler_seconds": self.straggler_seconds,
                "mean_instance_seconds": self.mean_instance_seconds,
                "imbalance": (
                    self.straggler_seconds / self.mean_instance_seconds
                    if self.mean_instance_seconds
                    else 1.0
                ),
            }
            for instance in self.instances:
                node.add_child(
                    ProfileNode(
                        f"instance-{instance.node_id}",
                        sim_seconds=instance.total_seconds,
                        counters=dict(instance.metrics.counts),
                        info={
                            "serial_seconds": instance.serial_seconds,
                            "parallel_seconds": instance.parallel_seconds,
                            "row_batches": instance.row_batches,
                        },
                        concurrent=True,
                    )
                )
        return QueryProfile(root)

    def explain_report(self, ratio: float | None = None):
        """EXPLAIN ANALYZE view of this query's measured profile.

        Wraps :meth:`to_profile` in the shared
        :class:`~repro.obs.explain.ExplainReport` shape (actuals plus
        per-phase straggler/imbalance annotations; the estimate columns
        stay empty — the Impala planner prices fragments, not the
        operator tree), so ISP-MC runs render and serialise through the
        same machinery as the core and SpatialSpark substrates.
        """
        from repro.obs.explain import (
            DEFAULT_MISESTIMATE_RATIO,
            report_from_profile,
        )

        report = report_from_profile(
            self.to_profile(),
            ratio=DEFAULT_MISESTIMATE_RATIO if ratio is None else ratio,
            method="ISP-MC",
        )
        if self.plan is not None:
            report.plan["fragments"] = len(self.plan.fragments)
        report.plan["instances"] = len(self.instances)
        return report

    @property
    def straggler_seconds(self) -> float:
        """The slowest instance's time (the static-scheduling bottleneck)."""
        return max((i.total_seconds for i in self.instances), default=0.0)

    @property
    def mean_instance_seconds(self) -> float:
        """Average instance time (straggler/mean gauges the imbalance)."""
        if not self.instances:
            return 0.0
        return sum(i.total_seconds for i in self.instances) / len(self.instances)


class ImpalaBackend:
    """A mini-Impala cluster: metastore, planner, coordinator, workers."""

    def __init__(
        self,
        cluster: ClusterSpec,
        hdfs: SimulatedHDFS | None = None,
        cost_model: CostModel | None = None,
        engine: str = "slow",
        assignment: str = "round_robin",
        build_cost_weight: float = 1.0,
        batch_size: int | None = None,
        runtime: RuntimeConfig | None = None,
    ):
        if assignment not in ("contiguous", "round_robin"):
            raise ImpalaError(
                f"assignment must be contiguous|round_robin, got {assignment!r}"
            )
        if batch_size is None:
            batch_size = BATCH_SIZE
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ImpalaError(
                f"batch_size must be a positive integer, got {batch_size!r}"
            )
        self.cluster = cluster
        self.hdfs = hdfs or SimulatedHDFS(
            datanodes=tuple(f"node{i}" for i in range(cluster.num_nodes))
        )
        self.cost_model = cost_model or CostModel()
        self.engine_name = engine
        self.assignment = assignment
        self.batch_size = batch_size
        # Representativity correction for right-side work at reduced
        # benchmark scale; see MaterializedWorkload.build_cost_weight.
        self.build_cost_weight = build_cost_weight
        self.metastore = Metastore(self.hdfs)
        self._planner = Planner(self.metastore, num_nodes=self.cluster.num_nodes)
        if runtime is None:
            runtime = RuntimeConfig()
        self.runtime = runtime
        # Coordinator-side recovery state.  Impala's scheduling is static
        # (Section IV): there is no per-fragment retry or speculation —
        # an injected fragment fault cancels the whole query, which the
        # coordinator restarts from scratch within runtime.restart_budget.
        self.recovery = RecoveryContext(runtime)
        # Cross-query cache handle (None unless the runtime sets
        # cache_budget_bytes); _build_side reuses built R-tree bundles
        # through it.
        self.cache = cache_for(runtime)
        self._query_counter = 0
        # Real parallelism (runtime.executors): fragment instances for
        # different workers run on a process pool while keeping the *static*
        # fragment→worker binding (instance i still owns exactly the scan
        # ranges bound to it at plan time — the pool changes when a
        # fragment runs, never what it runs).  Results are byte-identical
        # with the pool on or off.
        self.task_pool = make_pool(runtime.executors)
        # Structured event log: given a JSONL path (runtime.events_out),
        # every executed query emits QueryStart/FragmentStart/FragmentEnd/
        # QueryEnd events the monitor replays.  None keeps the disabled
        # global sink (no-op).
        self._event_log = (
            EventLog(path=runtime.events_out) if runtime.events_out else None
        )
        self._events_query: int | None = None

    # -- public API -----------------------------------------------------------

    @property
    def event_log(self) -> EventLog | None:
        """The backend-owned event log (None without ``runtime.events_out``)."""
        return self._event_log

    def close_events(self) -> None:
        """Flush and close the events file (the in-memory stream stays)."""
        if self._event_log is not None:
            self._event_log.close()

    def execute(self, sql: str) -> QueryResult:
        """Parse, plan and run one SELECT (or describe it, for EXPLAIN)."""
        with get_tracer().span("impala-query", category="query", sql=sql) as span:
            statement = parse(sql)
            plan = self._planner.plan(statement)
            if plan.explain:
                lines = self.explain_plan(plan)
                return QueryResult(
                    columns=["Explain"],
                    rows=[(line,) for line in lines],
                    simulated_seconds=self.cost_model.impala_plan_base,
                    plan=plan,
                    breakdown={"planning": self.cost_model.impala_plan_base},
                )
            with install_event_log(self._event_log):
                log = get_event_log()
                self._events_query = log.next_id("query") if log.enabled else None
                if self._events_query is not None:
                    log.emit(
                        "QueryStart",
                        query=self._events_query,
                        name="impala-query",
                        engine="impala",
                        wall_start=time.perf_counter(),
                    )
                try:
                    result = self._execute_with_restarts(plan, log)
                    if self._events_query is not None:
                        log.emit(
                            "QueryEnd",
                            query=self._events_query,
                            name="impala-query",
                            sim_seconds=result.simulated_seconds,
                            rows=len(result),
                            wall_end=time.perf_counter(),
                        )
                finally:
                    self._events_query = None
            span.add_sim(result.simulated_seconds)
            span.set_attr("rows", len(result))
            return result

    def explain_plan(self, plan: PhysicalPlan) -> list[str]:
        """Render the physical plan the way ``EXPLAIN`` prints it."""
        lines = [f"PLAN (instances={self.cluster.num_nodes}, "
                 f"assignment={self.assignment})"]
        indent = "  "
        lines.append(f"{indent}EXCHANGE [MERGE] -> coordinator")
        cursor = indent * 2
        if plan.aggregate is not None:
            keys = ", ".join(str(e) for e in plan.aggregate.key_exprs) or "<global>"
            aggs = ", ".join(
                f"{name}({arg if arg is not None else '*'})"
                for name, arg, _ in plan.aggregate.functions
            )
            lines.append(f"{cursor}AGGREGATE [FINALIZE] group by: {keys}; {aggs}")
            if plan.having is not None:
                lines.append(f"{cursor}HAVING {plan.having}")
            lines.append(f"{cursor}AGGREGATE [PARTIAL] (per instance)")
            cursor += indent
        if plan.residual:
            conj = " AND ".join(str(c) for c in plan.residual)
            lines.append(f"{cursor}FILTER {conj}")
        if plan.join is not None:
            pred = plan.join.predicate
            distribution = plan.join.distribution.upper()
            kind = (
                f"SPATIAL JOIN [R-tree, {distribution}]" if plan.join.indexed
                else f"CROSS JOIN [single-core, {distribution}]"
            )
            lines.append(
                f"{cursor}{kind} {pred.function}({pred.probe_column}, "
                f"{pred.build_column}"
                + (f", {pred.radius}" if pred.radius else "") + ")"
            )
            cursor += indent
            build_filters = " AND ".join(
                str(c) for c in plan.join.build.conjuncts
            )
            lines.append(
                f"{cursor}SCAN {plan.join.build.table.name} [{distribution}]"
                + (f" filter: {build_filters}" if build_filters else "")
            )
        probe_filters = " AND ".join(str(c) for c in plan.probe.conjuncts)
        lines.append(
            f"{cursor}SCAN {plan.probe.table.name} "
            f"[{len(self._assign_ranges(plan.probe.table.path, [None] * self.cluster.num_nodes))}x ranges, static]"
            + (f" filter: {probe_filters}" if probe_filters else "")
        )
        return lines

    # -- execution ---------------------------------------------------------------

    def _execute_with_restarts(self, plan: PhysicalPlan, log) -> QueryResult:
        """Run the plan; on an injected fault, restart the whole query.

        This is the paper's static model made concrete: Impala has no
        lineage, so a lost fragment cannot be recomputed in isolation —
        the coordinator cancels the query and resubmits it from scratch,
        up to ``runtime.restart_budget`` times.  Faults are resolved
        before any fragment work starts (see :meth:`_execute_plan`), so a
        cancelled attempt charges nothing and the successful attempt is
        byte-identical to a fault-free run.
        """
        self._query_counter += 1
        restarts = 0
        while True:
            try:
                return self._execute_plan(plan, restart=restarts)
            except InjectedFaultError as error:
                budget = self.runtime.restart_budget
                if restarts >= budget:
                    raise ImpalaError(
                        f"query failed after {restarts} restart(s) "
                        f"(restart budget {budget}): {error}"
                    ) from error
                restarts += 1
                if self._events_query is not None and log.enabled:
                    log.emit(
                        "QueryRestarted",
                        query=self._events_query,
                        restart=restarts,
                        reason=error.fault.kind,
                        fragment=error.task,
                    )

    def _execute_plan(self, plan: PhysicalPlan, restart: int = 0) -> QueryResult:
        model = self.cost_model
        if self.recovery.active:
            # Resolve injected fragment faults up front — before the
            # build side scans anything.  Impala binds fragments
            # statically and retries nothing, so every fragment gets
            # exactly one attempt (limit=1) and any non-slow fault
            # surfaces as its own error class for the restart loop.
            # ``slow`` faults are deliberately ignored: a static engine
            # has no speculation, the straggler just finishes.
            resolve_faults(
                self.recovery,
                self.cluster.num_nodes,
                scope=f"query-{self._query_counter}",
                events=(self._events_query, None),
                limit=1,
                base_round=restart,
            )
        instances = [
            InstanceContext(node_id=i, cores=self.cluster.cores_per_node, cost_model=model)
            for i in range(self.cluster.num_nodes)
        ]
        tracer = get_tracer()
        probe_ranges = self._assign_ranges(plan.probe.table.path, instances)
        row_descriptor = plan.row_descriptor
        shared_index = None
        if plan.join is not None:
            with tracer.span("build-side", category="phase") as build_span:
                shared_index = self._build_side(plan, instances)
                build_span.set_attr("index_entries", len(shared_index))
        # Probe fragments: real execution once per instance's ranges.
        residual_eval = self._compile_conjuncts(plan.residual, row_descriptor)
        # One entry per instance: its materialised partial-aggregate pairs
        # (a plain list so pooled fragments can ship it — the Aggregator
        # itself holds compiled expressions and stays worker-side).
        aggregators: list[list] = []
        # Projection pushdown: instances materialise only the ORDER BY
        # keys and the SELECT columns, not whole joined rows (which would
        # re-ship every WKT string to the coordinator).  Aggregated
        # queries exchange partial states instead, and their
        # aggregate-bearing projections never compile as row scalars.
        fields = (
            _result_fields(
                [item.expr for item in (*plan.order_by, *plan.projection)], row_descriptor
            )
            if plan.aggregate is None
            else []
        )
        # One entry per instance: its result columns, ORDER BY keys first.
        instance_columns: list[list[np.ndarray]] = []
        pool = self.task_pool
        if pool.is_serial or not pool.supports_closures or len(instances) < 2:
            for instance in instances:
                payload = self._run_fragment(
                    plan, instance, probe_ranges[instance.node_id],
                    shared_index, residual_eval, fields,
                )
                if payload[0] == "agg":
                    aggregators.append(payload[1])
                else:
                    instance_columns.append(payload[1])
        else:
            instances = self._run_fragments_pooled(
                pool, plan, instances, probe_ranges, shared_index,
                residual_eval, fields, aggregators, instance_columns,
            )
        # Coordinator: merge, sort, limit, project.
        coordinator_seconds = 0.0
        if plan.aggregate is not None:
            final = self._new_aggregator(plan, row_descriptor)
            for partials in aggregators:
                for key, states in partials:
                    final.merge(key, states)
            output_rows = list(final.finalize())
            output_rows = self._project_aggregate(plan, output_rows)
            if plan.having is not None:
                having = self._compile_output_expr(plan, plan.having)
                output_rows = [row for row in output_rows if having(row) is True]
            coordinator_seconds += model.task_seconds(
                {Resource.ROWS_OUT: len(output_rows) * 4.0}
            )
            output_rows = self._order_and_limit_agg(plan, output_rows)
        else:
            columns = [np.concatenate(parts) for parts in zip(*instance_columns)]
            rows = len(columns[0])
            coordinator_seconds += model.task_seconds({Resource.ROWS_OUT: float(rows)})
            # Stable sorts of a row permutation, last key first.
            order = None
            for i in reversed(range(len(plan.order_by))):
                keys = columns[i].tolist()
                if order is None:
                    order = list(range(rows))
                order.sort(
                    key=lambda row: _null_safe_key(keys[row]),
                    reverse=not plan.order_by[i].ascending,
                )
            selected = columns[len(plan.order_by) :]
            if order is not None:
                positions = np.array(order[: plan.limit], dtype=np.int64)
                selected = [column[positions] for column in selected]
            elif plan.limit is not None:
                selected = [column[: plan.limit] for column in selected]
            output_rows = list(zip(*(column.tolist() for column in selected)))
        pressure = (
            model.impala_memory_pressure_factor
            if self.cluster.mem_per_node_gb
            <= model.impala_memory_pressure_threshold_gb
            else 1.0
        )
        execution_seconds = (
            max((i.total_seconds for i in instances), default=0.0)
            * model.impala_infra_factor
            * pressure
        )
        breakdown = {
            "planning": model.impala_plan_base,
            "fragment-startup": model.impala_fragment_startup,
            "execution": execution_seconds,
            "coordinator": coordinator_seconds,
        }
        simulated = sum(breakdown.values())
        tracer.event(
            "coordinator-merge",
            category="phase",
            sim_seconds=coordinator_seconds,
            rows=len(output_rows),
        )
        return QueryResult(
            columns=list(plan.output_names),
            rows=output_rows,
            simulated_seconds=simulated,
            instances=instances,
            plan=plan,
            coordinator_seconds=coordinator_seconds,
            breakdown=breakdown,
        )

    # -- fragment execution -----------------------------------------------------

    def _run_fragment(
        self, plan, instance, scan_ranges, shared_index, residual_eval, fields,
    ) -> tuple:
        """Execute one fragment instance; returns its exchange payload.

        ``("agg", partials)`` for aggregated queries (the materialised
        partial-state pairs the coordinator merges), else ``("rows",
        columns)``: the ORDER BY keys' and SELECT items' values, one object
        array per :func:`_result_fields` field.  Runs identically inline
        (serial path, driver tracer) and inside a pool worker (capture
        tracer) — the span, charging and byte-accounting arithmetic is
        shared, which is what keeps the two modes byte-identical.
        """
        log = get_event_log()
        emit_events = log.enabled and self._events_query is not None
        if emit_events:
            log.emit(
                "FragmentStart",
                query=self._events_query,
                fragment=instance.node_id,
                worker=current_worker_id(),
                pid=os.getpid(),
                wall_start=time.perf_counter(),
            )
        fragment_span = get_tracer().span(
            f"fragment-instance-{instance.node_id}", category="fragment"
        )
        seconds_before = instance.total_seconds
        with fragment_span as span, task_scope(instance.metrics):
            root = self._instance_pipeline(
                plan, instance, scan_ranges, shared_index, residual_eval
            )
            if plan.aggregate is not None:
                aggregator = self._new_aggregator(plan, plan.row_descriptor)
                for batch in root.batches():
                    for row in batch:
                        aggregator.accumulate(row)
                partials = list(aggregator.partials())
                exchange = sum(estimate_bytes((k, s)) for k, s in partials)
                payload = ("agg", partials)
            else:
                columns = _result_columns(root, fields)
                exchange = exchange_bytes(columns)
                payload = ("rows", columns)
            # Result exchange crosses the network only on a real
            # cluster; single-node results land in a local buffer.
            if self.cluster.num_nodes > 1:
                instance.charge_serial(Resource.SHUFFLE_BYTES, exchange)
        span.add_sim(instance.total_seconds - seconds_before)
        span.set_attr("row_batches", instance.row_batches)
        if emit_events:
            log.emit(
                "FragmentEnd",
                query=self._events_query,
                fragment=instance.node_id,
                worker=current_worker_id(),
                pid=os.getpid(),
                wall_end=time.perf_counter(),
                sim_seconds=instance.total_seconds - seconds_before,
                counters=dict(instance.metrics.counts),
                row_batches=instance.row_batches,
            )
        return payload

    def _run_fragments_pooled(
        self, pool, plan, instances, probe_ranges, shared_index,
        residual_eval, fields, aggregators, instance_columns,
    ) -> list[InstanceContext]:
        """All fragment instances concurrently; returns the mutated contexts.

        Static binding is preserved by construction: each task closes
        over one ``(instance, scan_ranges)`` pair fixed at plan time —
        the pool only decides *when* a fragment runs, never *what* it
        runs.  Workers mutate their forked copy of the InstanceContext
        and ship it back whole (it is a picklable dataclass of floats and
        counter dicts); spans and registry increments ride back in an
        :class:`ObsCapture`, merged here in instance order.
        """

        def make_task(instance, scan_ranges):
            def run_fragment():
                capture = ObsCapture()
                payload = None
                error = None
                with capture_observability(capture):
                    try:
                        payload = self._run_fragment(
                            plan, instance, scan_ranges, shared_index,
                            residual_eval, fields,
                        )
                    except Exception as exc:  # noqa: BLE001 - re-raised on driver
                        error = picklable_error(exc)
                return (instance, payload, capture, error)

            return run_fragment

        shipments = pool.run(
            [
                make_task(instance, probe_ranges[instance.node_id])
                for instance in instances
            ]
        )
        merged: list[InstanceContext] = []
        for instance, payload, capture, error in shipments:
            apply_capture(capture)
            if error is not None:
                raise error
            merged.append(instance)
            if payload[0] == "agg":
                aggregators.append(payload[1])
            else:
                instance_columns.append(payload[1])
        return merged

    # -- fragment construction --------------------------------------------------

    def _assign_ranges(
        self, path: str, instances: list[InstanceContext]
    ) -> list[list[tuple[int, int]]]:
        """Static scan-range assignment — fixed at 'plan time', never moved.

        ``contiguous`` (default) gives each instance a contiguous run of
        the file's blocks, the locality-driven placement a pipelined HDFS
        writer produces (consecutive blocks share replicas); with
        spatially-ordered files this is the inter-node skew behind the
        paper's "some Impala instances take much longer" observation.
        ``round_robin`` interleaves blocks — the a2 ablation's milder
        static policy.
        """
        ranges = split_boundaries(self.hdfs, path, min_splits=len(instances))
        assigned: list[list[tuple[int, int]]] = [[] for _ in instances]
        if self.assignment == "round_robin":
            for i, scan_range in enumerate(ranges):
                assigned[i % len(instances)].append(scan_range)
            return assigned
        n = len(ranges)
        workers = len(instances)
        base = n // workers
        remainder = n % workers
        start = 0
        for w in range(workers):
            size = base + (1 if w < remainder else 0)
            assigned[w] = ranges[start : start + size]
            start += size
        return assigned

    def _build_side(
        self, plan: PhysicalPlan, instances: list[InstanceContext]
    ):
        """Scan + distribute + index the right side.

        The scan is distributed (each instance reads its own ranges).
        Under ``broadcast`` distribution *every* instance is charged for
        receiving the full row set, parsing its WKT and building its own
        R-tree copy — we build one real index and bill each instance.
        Under ``partitioned`` distribution (the planner's choice for large
        build sides) each side crosses the network once, so an instance
        pays a 1/N shuffle share of both tables and parses only its own
        build partition.  Execution still uses the one real shared index —
        results are identical by construction; only the billing differs.
        """
        from repro.core.isp import build_spatial_index

        join = plan.join
        build_ranges = self._assign_ranges(join.build.table.path, instances)
        build_filter = self._compile_conjuncts(
            join.build.conjuncts, join.build.descriptor
        )
        all_rows: list[tuple] = []
        for instance in instances:
            with task_scope(instance.metrics):
                scan = ScanNode(
                    instance,
                    self.hdfs,
                    join.build.table,
                    build_ranges[instance.node_id],
                    row_filter=build_filter,
                    batch_size=self.batch_size,
                )
                for batch in scan.batches():
                    all_rows.extend(batch.rows)
        geometry_slot = join.build.descriptor.resolve(join.predicate.build_column)
        from repro.core.operators import SpatialOperator

        operator = SpatialOperator.from_sql(join.predicate.function)
        # Cross-query cache: the scan above always runs (it charges each
        # instance's HDFS/scan metrics and produced the rows we key on);
        # only the R-tree construction and the byte-estimation walk are
        # reused.  The cached bundle carries the *unweighted* totals so
        # one entry serves backends with different build_cost_weight.
        radius = join.predicate.radius or 0.0
        bundle_key = None
        if self.cache is not None:
            try:
                bundle_key = fingerprint_rows(
                    all_rows, "impala-build-side", geometry_slot,
                    operator.value, float(radius), self.engine_name,
                )
            except TypeError:
                bundle_key = None
        bundle = (
            self.cache.get(bundle_key, "impala-build-side")
            if bundle_key is not None
            else None
        )
        if bundle is None:
            index, wkt_bytes, dropped = build_spatial_index(
                all_rows, geometry_slot, operator, radius, self.engine_name
            )
            raw_build_bytes = sum(estimate_bytes(r) for r in all_rows)
            if bundle_key is not None:
                self.cache.put(
                    bundle_key, "impala-build-side",
                    (index, wkt_bytes, raw_build_bytes, dropped),
                    size_bytes=estimate_index_bytes(index) + 16,
                    build_cost=float(wkt_bytes)
                    + sum(index.build_cost_units().values()),
                )
        else:
            index, wkt_bytes, raw_build_bytes, dropped = bundle
        if dropped:
            REGISTRY.inc("impala.rows_skipped", dropped)
        weight = self.build_cost_weight
        build_bytes = raw_build_bytes * weight
        if join.distribution == "partitioned" and self.cluster.num_nodes > 1:
            share = len(instances)
            try:
                probe_bytes = float(
                    self.metastore.table_bytes(plan.probe.table.name)
                )
            except Exception:
                probe_bytes = 0.0
            for instance in instances:
                instance.charge_serial(
                    Resource.SHUFFLE_BYTES, (build_bytes + probe_bytes) / share
                )
                instance.charge_serial(Resource.WKT_BYTES, wkt_bytes * weight / share)
        else:
            for instance in instances:
                if self.cluster.num_nodes > 1:
                    instance.charge_serial(Resource.BROADCAST_BYTES, build_bytes)
                instance.charge_serial(Resource.WKT_BYTES, wkt_bytes * weight)
        return index

    def _instance_pipeline(
        self,
        plan: PhysicalPlan,
        instance: InstanceContext,
        scan_ranges: list[tuple[int, int]],
        shared_index,
        residual_eval,
    ) -> ExecNode:
        probe_filter = self._compile_conjuncts(
            plan.probe.conjuncts, plan.probe.descriptor
        )
        scan = ScanNode(
            instance,
            self.hdfs,
            plan.probe.table,
            scan_ranges,
            row_filter=probe_filter,
            batch_size=self.batch_size,
        )
        root: ExecNode = scan
        if plan.join is not None:
            probe_slot = plan.probe.descriptor.resolve(plan.join.predicate.probe_column)
            if plan.join.indexed:
                from repro.core.isp import SpatialJoinNode

                root = SpatialJoinNode(
                    instance,
                    root,
                    shared_index,
                    probe_slot,
                    build_cost_weight=self.build_cost_weight,
                    batch_size=self.batch_size,
                )
            else:
                # Naive fallback: Impala's single-core cross join + UDF filter.
                root = self._cross_join(plan, instance, root, shared_index)
        if residual_eval is not None:
            vector_residual = vectorize_conjuncts(plan.residual, plan.row_descriptor)
            root = FilterNode(
                instance, root, residual_eval, vector_predicate=vector_residual
            )
        return root

    def _cross_join(self, plan, instance, probe_node, shared_index) -> ExecNode:
        join = plan.join
        build_rows = list(shared_index._entry_payloads)
        predicate = self._join_predicate_eval(plan)
        return CrossJoinNode(instance, probe_node, build_rows, residual=predicate)

    def _join_predicate_eval(self, plan: PhysicalPlan):
        """Compile the spatial predicate as a scalar over joined rows."""
        from repro.impala.ast_nodes import FunctionCall, Literal

        pred = plan.join.predicate
        args: list = [pred.probe_column, pred.build_column]
        if pred.function == "ST_NEARESTD":
            args.append(Literal(pred.radius))
        call = FunctionCall(pred.function, tuple(args))
        return compile_expr(call, plan.row_descriptor)

    # -- expression plumbing --------------------------------------------------------

    @staticmethod
    def _compile_conjuncts(conjuncts, descriptor) -> Callable | None:
        if not conjuncts:
            return None
        compiled = [compile_expr(c, descriptor) for c in conjuncts]
        if len(compiled) == 1:
            return compiled[0]

        def evaluate(row):
            for func in compiled:
                if func(row) is not True:
                    return False
            return True

        return evaluate

    def _new_aggregator(self, plan: PhysicalPlan, descriptor: TupleDescriptor):
        spec = plan.aggregate
        key_getters = [compile_expr(e, descriptor) for e in spec.key_exprs]
        agg_specs = []
        for name, arg, distinct in spec.functions:
            getter = compile_expr(arg, descriptor) if arg is not None else None
            agg_specs.append((name, getter, distinct))
        return Aggregator(key_getters, agg_specs)

    def _project_aggregate(self, plan: PhysicalPlan, rows: list[tuple]) -> list[tuple]:
        """Reorder (keys..., aggs...) rows into SELECT-list order."""
        from repro.impala.ast_nodes import FunctionCall

        spec = plan.aggregate
        layout: list[tuple[str, int]] = []
        key_cursor = 0
        agg_cursor = 0
        num_keys = len(spec.key_exprs)
        for item in plan.projection:
            expr = item.expr
            if isinstance(expr, FunctionCall) and expr.name in (
                "COUNT", "SUM", "MIN", "MAX", "AVG",
            ):
                layout.append(("agg", num_keys + agg_cursor))
                agg_cursor += 1
            else:
                layout.append(("key", key_cursor))
                key_cursor += 1
        return [tuple(row[idx] for _, idx in layout) for row in rows]

    def _order_and_limit_agg(self, plan: PhysicalPlan, rows: list[tuple]) -> list[tuple]:
        if plan.order_by:
            for item in reversed(plan.order_by):
                index = self._output_position(plan, item.expr)
                rows.sort(key=lambda r: _null_safe_key(r[index]), reverse=not item.ascending)
        if plan.limit is not None:
            rows = rows[: plan.limit]
        return rows

    def _compile_output_expr(self, plan: PhysicalPlan, expr):
        """Compile an expression over the *output* rows of an aggregation.

        Any subexpression matching a SELECT item (by structure) or an
        output alias collapses to a positional reference; the remainder
        must be literals and scalar operators.
        """
        from repro.impala.ast_nodes import BinaryOp, ColumnRef, Literal, UnaryOp

        for i, item in enumerate(plan.projection):
            if item.expr == expr:
                return lambda row, i=i: row[i]
        if isinstance(expr, ColumnRef) and expr.table is None:
            for i, name in enumerate(plan.output_names):
                if name == expr.column:
                    return lambda row, i=i: row[i]
        if isinstance(expr, Literal):
            return lambda row, value=expr.value: value
        if isinstance(expr, UnaryOp):
            operand = self._compile_output_expr(plan, expr.operand)
            if expr.op == "NOT":
                return lambda row: None if operand(row) is None else not operand(row)
            if expr.op == "-":
                return lambda row: None if operand(row) is None else -operand(row)
        if isinstance(expr, BinaryOp):
            left = self._compile_output_expr(plan, expr.left)
            right = self._compile_output_expr(plan, expr.right)
            from repro.impala.exprs import _sql_and, _sql_or

            ops = {
                "=": lambda a, b: a == b, "<>": lambda a, b: a != b,
                "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
                "+": lambda a, b: a + b, "-": lambda a, b: a - b,
                "*": lambda a, b: a * b, "/": lambda a, b: a / b,
            }
            if expr.op == "AND":
                return lambda row: _sql_and(left(row), right(row))
            if expr.op == "OR":
                return lambda row: _sql_or(left(row), right(row))
            if expr.op in ops:
                func = ops[expr.op]

                def evaluate(row, func=func, left=left, right=right):
                    a = left(row)
                    b = right(row)
                    if a is None or b is None:
                        return None
                    return func(a, b)

                return evaluate
        raise PlanError(
            f"HAVING/output expression {expr} must reference grouped output"
        )

    def _output_position(self, plan: PhysicalPlan, expr) -> int:
        from repro.impala.ast_nodes import ColumnRef

        if isinstance(expr, ColumnRef) and expr.table is None:
            for i, name in enumerate(plan.output_names):
                if name == expr.column:
                    return i
        for i, item in enumerate(plan.projection):
            if item.expr == expr:
                return i
        raise PlanError(f"ORDER BY {expr} does not match any output column")


def _result_fields(exprs, descriptor: TupleDescriptor) -> list[int | Callable]:
    """One result column per expression: a column reference's slot (a
    column gather), any other expression compiled over rows."""
    return [
        descriptor.resolve(expr) if isinstance(expr, ColumnRef) else compile_expr(expr, descriptor)
        for expr in exprs
    ]


def _result_columns(root: ExecNode, fields: list[int | Callable]) -> list[np.ndarray]:
    """``root``'s output as one object array per field.

    A slot is gathered from each batch's column; the compiled expressions
    are evaluated row by row, all of a row's in field order, so any
    charge they make lands as it did when rows were projected one at a
    time.
    """
    computed = [field for field in fields if callable(field)]
    parts: list[list[np.ndarray]] = [[] for _ in fields]
    for batch in root.batches():
        if computed:
            values = iter(zip(*[tuple(fn(row) for fn in computed) for row in batch.rows]))
        for part, field in zip(parts, fields):
            part.append(
                object_column(next(values)) if callable(field) else batch.column_array(field)
            )
    return [
        np.concatenate(part) if part else np.empty(0, dtype=object) for part in parts
    ]


def exchange_bytes(columns: list[np.ndarray]) -> int:
    """Bytes one instance's result columns ship to the coordinator.

    What the rows weigh as ``(order_key_tuple, row_tuple)`` records —
    ``records_bytes`` of them, by arithmetic: an 8-byte header for each
    of a row's three tuples plus every value's
    :func:`~repro.spark.shuffle.estimate_bytes`, summed column by column.
    """
    return 24 * len(columns[0]) + sum(values_bytes(column) for column in columns)


def _null_safe_key(value):
    """NULLs sort last ascending and first descending (Impala's default)."""
    return (value is None, value)
