"""DAG scheduler: stages, tasks, dynamic placement, cost accounting.

Spark's scheduler splits the lineage DAG into stages at shuffle
dependencies, runs each stage as a set of per-partition tasks, and places
tasks *dynamically* onto free executor slots.  Section III of the paper
observes that Spark "selects a new leader and reconstructs an actor system
to exchange the metadata of partitions for every job stage that involves
shuffling", with overhead proportional to the partition count — both
charged here per shuffle stage, which is what the partition-count ablation
(a1) measures.

Every stage runs one task body, :meth:`DAGScheduler._run_task`: the
retry rules of :meth:`DAGScheduler._attempts`, in a task span between
TaskStart and TaskEnd only while a tracer or an event log is on, its
RDD-cache fills shipped home only from a pool worker.  An inline stage
(:func:`~repro.runtime.dispatch.runs_inline`) calls it in a plain loop;
any other hands it to :func:`repro.runtime.dispatch.run_tasks`, the
dispatch path the Impala coordinator and the core join API share.
Either way one :func:`~repro.cluster.metrics.price_tasks` call prices
every task of the stage once it is done, a task being a row of the
(task x resource) table rather than a Python call of its own.

Every stage whose pipeline holds a
:class:`~repro.spark.rdd.FusedPartitionsRDD` — the loader's WKT parse,
the partitioned join's route, the broadcast join's probe, the tile
stage — runs that chain of fused steps once for the whole stage when
its tasks run inline, result and shuffle map stages alike: each task's
upstream pipeline first runs under the task's own metrics, then one
batch call per fused step computes every partition, one
:class:`~repro.spark.rdd.StageBatch` handed from step to step, every
task is charged every step's units at once, as one table, and each task
then takes its own part.  Under a real pool or an active fault plan a
batch is a single task, so the tasks' charges, events and results are
the same either way.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from repro.cluster.metrics import (
    QueryMetrics,
    StageMetrics,
    TaskMetrics,
    price_tasks,
    straggler_stats,
)
from repro.cluster.model import Resource
from repro.columnar.block import ColumnBlock, RoutedRows
from repro.errors import SparkError
from repro.obs.events import (
    emit_query_end,
    emit_query_start,
    emit_stage_submitted,
    emit_task_end,
    emit_task_start,
    get_event_log,
    install_event_log,
)
from repro.obs.tracer import get_tracer
from repro.runtime.dispatch import run_tasks, runs_inline
from repro.runtime.faults import InjectedFaultError
from repro.runtime.pool import current_worker_id, picklable_error
from repro.runtime.shipping import discard_observability
from repro.spark.rdd import (
    RDD,
    FusedPartitionsRDD,
    NarrowDependency,
    ShuffleDependency,
    fused_step,
)
from repro.spark.shuffle import ShuffleStore
from repro.spark.taskcontext import task_scope
from repro.cluster.simulation import simulate_dynamic

__all__ = ["DAGScheduler"]


class DAGScheduler:
    """Executes RDD jobs stage by stage with simulated-time accounting.

    Fault tolerance follows Spark's model (Section III: "Spark provides
    fault tolerance through re-computing as RDDs keep track of data
    processing workflows"): a failing task is retried up to
    ``RuntimeConfig.max_task_attempts`` times (default 4, Spark's
    ``spark.task.maxFailures``), recomputing its partition from lineage;
    only then does the job fail.  Failed attempts still cost simulated
    time — the work was done before the crash.
    """

    def __init__(self, sc):
        self.sc = sc
        self._job_counter = 0
        self.task_failures = 0
        self._events_query: int | None = None  # current job's event-log query id
        # Per-stage scheduling outcomes (name, tasks, makespan, overhead,
        # skew), appended as stages finish — the EXPLAIN ANALYZE feed for
        # SpatialSpark runs.  Observational only; never read by execution.
        self.stage_summaries: list[dict] = []
        self.max_task_attempts = sc.runtime.max_task_attempts

    # -- task execution ---------------------------------------------------------

    def _attempts(
        self, body, partition, task: TaskMetrics
    ) -> tuple[object, int, Exception | None]:
        """``body(task, partition)`` under the task's scope, retried:
        ``(value, failed attempts, terminal error)``.

        Each attempt accrues into the task's metrics (lineage
        recomputation repeats the work).  A :class:`SparkError` is fatal
        and not retried; any other crash is, and the last one ends up as
        the cause of the terminal :class:`SparkError`.
        """
        last_error: Exception | None = None
        for attempt in range(self.max_task_attempts):
            try:
                with task_scope(task):
                    return body(task, partition), attempt, None
            except SparkError as error:
                return None, attempt, error
            except Exception as error:  # noqa: BLE001 - any task crash retries
                last_error = error
        error = SparkError(
            f"task failed {self.max_task_attempts} times; last error: {last_error!r}"
        )
        error.__cause__ = last_error
        return None, self.max_task_attempts, error

    def _run_task(
        self, ids, prefix: str, body, partition, task: TaskMetrics | None = None
    ) -> tuple:
        """The one task body: :meth:`_attempts` as a shipment, ``(value,
        task, failed attempts, terminal error, cache fills)``.

        Errors never raise here — the stage re-raises at absorb time, so
        they surface the same from a worker process.  Only while a tracer
        or an event log is on does the task run in a span labelled
        ``<prefix>-<partition>``, between TaskStart and TaskEnd (``ids``,
        the ``(query, stage, task)`` triple, is None while the event sink
        is disabled) — the one place a task is priced on its own.  Only in
        a worker do its RDD-cache fills ride home.  ``task`` is given when
        the stage already charged the task's upstream work to it.
        """
        if task is None:
            task = TaskMetrics()
        in_worker = current_worker_id() is not None
        if in_worker:
            cache = self.sc._cache
            cache_before = set(cache)
        tracer = get_tracer()
        if ids is None and not tracer.enabled:
            value, failures, error = self._attempts(body, partition, task)
        else:
            label = f"{prefix}-{partition}"
            if ids is not None:
                emit_task_start(ids, partition, label)
            with tracer.span(label, category="task") as span:
                value, failures, error = self._attempts(body, partition, task)
                if error is None:
                    model = self.sc.cost_model
                    seconds = task.seconds(model) * model.spark_jvm_factor
                    span.add_sim(seconds)
                    span.add_counts(task.counts)
                    if failures:
                        span.set_attr("attempts", failures + 1)
            if ids is not None and error is None:
                emit_task_end(ids, partition, label, seconds, task.counts, failures)
        fills = None
        if in_worker:
            # The shipment crosses a process boundary: the worker's
            # RDD-cache fills ride along, and the error must pickle.
            fills = {key: cache[key] for key in cache.keys() - cache_before}
            if error is not None:
                error = picklable_error(error)
        return value, task, failures, error, fills

    def _run_stage_tasks(
        self, prefix: str, body, partitions, stage: StageMetrics, stage_id,
        metrics, absorb_value, repair=None, fused: FusedPartitionsRDD | None = None,
    ) -> None:
        """Run ``body(task, partition)`` over ``partitions`` as the stage's
        tasks, each through :meth:`_run_task`.

        Shipments are absorbed in task order — failure counts, cache
        fills, the terminal error, ``stage.tasks``, then
        ``absorb_value(index, value, task)``.

        An inline stage runs its tasks in a plain loop; ``fused`` is the
        pipeline's batchable step, and inline tasks of distinct
        partitions have it (and the fused steps upstream of it)
        prefetched as one batch, each partition's preparation and units
        charged to its task's metrics.  Whatever no task collected is
        released when the stage ends, however it ends.

        Any other stage goes through
        :func:`~repro.runtime.dispatch.run_tasks`, which decides where
        the tasks run and replays what captured tasks did to
        observability.  With a fault plan, injected faults are retried /
        speculated (a task priced from its shipped metrics) /
        blacklisted driver-side under the stage's logical scope,
        ``repair`` restores lost shuffle output from lineage, and an
        exhausted budget surfaces as :class:`SparkError` like any
        terminal task failure.
        """
        pool = self.sc.task_pool
        recovery = self.sc.recovery
        inline = runs_inline(pool, len(partitions), recovery)
        batched = fused is not None and inline and len(set(partitions)) == len(partitions)
        query = self._events_query

        def absorb(index: int, shipment: tuple) -> None:
            value, task, failures, error, fills = shipment
            self.task_failures += failures
            if fills:
                for key, fill in fills.items():
                    self.sc._cache.setdefault(key, fill)
            if error is not None:
                raise error
            stage.tasks.append(task)
            absorb_value(index, value, task)

        # A task under a pool or a fault plan gets fresh metrics where it
        # runs: a speculative duplicate must not add to the original's.
        tasks = [TaskMetrics() for _ in partitions] if inline else [None] * len(partitions)
        calls = [
            (None if stage_id is None else (query, stage_id, index), prefix, body, partition, task)
            for index, (partition, task) in enumerate(zip(partitions, tasks))
        ]
        scope = f"{metrics.name}:{stage.name}"
        model = self.sc.cost_model
        try:
            if batched:
                fused.prefetch(partitions, tasks)
            if inline:
                for index, call in enumerate(calls):
                    absorb(index, self._run_task(*call))
            else:
                run_tasks(
                    pool,
                    [partial(self._run_task, *call) for call in calls],
                    recovery,
                    absorb,
                    scope=scope,
                    events=(query, stage_id),
                    sim_seconds=lambda index, shipment: (
                        0.0 if shipment[3] is not None
                        else shipment[1].seconds(model) * model.spark_jvm_factor
                    ),
                    repair=repair,
                )
        except InjectedFaultError as error:
            raise SparkError(f"{scope}: {error}") from error
        finally:
            if batched:
                fused.release()

    # -- public entry ---------------------------------------------------------

    def run_job(
        self,
        rdd: RDD,
        func: Callable,
        partitions: Sequence[int] | None = None,
        *,
        read: Callable[[int], Any] | None = None,
    ) -> list:
        """Run ``func`` over each requested partition; returns its results.

        A task hands ``func`` its partition, ``rdd.iterator(split)``, or
        ``read(split)`` when ``read`` is given (zipWithIndex's size job
        counts a text split's lines without decoding them).

        Side effects: shuffle map stages for unmaterialised shuffle
        dependencies are executed first, and a :class:`QueryMetrics` entry
        is appended to the context's job log.
        """
        if partitions is None:
            partitions = range(rdd.num_partitions)
        self._job_counter += 1
        metrics = QueryMetrics(name=f"job-{self._job_counter}")
        with install_event_log(self.sc._event_log):
            self._events_query = emit_query_start(metrics.name, "spark")
            try:
                with get_tracer().span(metrics.name, category="job") as span:
                    if self.sc._charge_jar_ship():
                        metrics.overhead_seconds += self.sc.cost_model.spark_jar_ship
                    for dep in self._unmaterialised_shuffles(rdd):
                        self._run_shuffle_stage(dep, metrics)
                    results = self._run_result_stage(
                        rdd, func, partitions, metrics, rdd.iterator if read is None else read
                    )
                    span.add_sim(metrics.simulated_seconds)
                    span.set_attr("stages", len(metrics.stages))
                emit_query_end(
                    self._events_query, metrics.name, metrics.simulated_seconds,
                    len(results),
                )
            finally:
                self._events_query = None
        self.sc._record_job(metrics)
        return results

    # -- stage discovery --------------------------------------------------------

    def _unmaterialised_shuffles(self, rdd: RDD) -> list[ShuffleDependency]:
        """Shuffle dependencies reachable from ``rdd``, parents first."""
        ordered: list[ShuffleDependency] = []
        seen_rdds: set[int] = set()

        def visit(node: RDD) -> None:
            if node.id in seen_rdds:
                return
            seen_rdds.add(node.id)
            for dep in node.dependencies:
                visit(dep.parent)
                if isinstance(dep, ShuffleDependency) and dep.shuffle_id is None:
                    ordered.append(dep)

        visit(rdd)
        return ordered

    # -- stage execution --------------------------------------------------------

    def _run_shuffle_stage(self, dep: ShuffleDependency, metrics: QueryMetrics) -> None:
        """Map tasks charge and return their buckets; the driver writes them.

        The store and its registry counters only ever mutate here, in task
        order, and ShuffleWrite is emitted driver-side, so inline and
        pooled runs agree on both.  Run inline, the stage batches the
        fused steps of the map side's pipeline as a result stage does
        (the partitioned join's parse and route: one call each for every
        map partition), and each map task then cuts its own buckets.
        """
        store = self.sc._shuffle_store
        dep.shuffle_id = store.new_shuffle_id()
        stage = StageMetrics(name=f"shuffle-{dep.shuffle_id}")
        stage_id = emit_stage_submitted(
            self._events_query, stage.name, dep.parent.num_partitions
        )

        def map_body(task: TaskMetrics, split: int):
            bucketed = self._map_output(dep, split)
            written = ShuffleStore.bucket_bytes(bucketed)
            task.add(Resource.SHUFFLE_BYTES, written)
            return bucketed, written

        def write_output(split: int, value, task: TaskMetrics) -> None:
            store.write(dep.shuffle_id, split, *value)
            if stage_id is not None:
                get_event_log().emit(
                    "ShuffleWrite",
                    query=self._events_query,
                    stage=stage_id,
                    task=split,
                    shuffle_id=dep.shuffle_id,
                    bytes=task.get(Resource.SHUFFLE_BYTES),
                )

        with get_tracer().span(stage.name, category="stage"):
            self._run_stage_tasks(
                "map",
                map_body,
                range(dep.parent.num_partitions),
                stage,
                stage_id,
                metrics,
                write_output,
                fused=fused_step(dep.parent),
            )
            self._finish_stage(stage, shuffling=True, metrics=metrics)

    @staticmethod
    def _map_output(dep: ShuffleDependency, split: int) -> dict[int, object]:
        """One map task's output, bucketed by reduce partition.

        The one definition of what a map task writes — shared by the
        map task and lineage repair, so a recovered output has the
        representation of the one that was lost.  A routed
        column partition (:class:`~repro.columnar.block.RoutedRows`)
        arrives already bucketed by key — by its own batch or by the
        stage's — and its buckets are sliced straight into one
        :class:`~repro.columnar.block.ColumnBlock` per reduce partition;
        any other partition is bucketed record by record, and
        buckets of ``(key, (id, geometry))`` records are then packed into
        blocks too — iterating a block yields value-identical records,
        the store charges the same byte total, and pickling it (map
        tasks on a pool ship buckets back to the driver) moves the packed
        binary encoding instead of the object graph.  Other buckets
        (combiner output, plain key/value jobs) stay record lists.
        """
        partitioner = dep.partitioner
        records = dep.parent.iterator(split)
        if dep.combiner is None and isinstance(records, RoutedRows):
            return records.shuffle_blocks(partitioner.partition)
        bucketed: dict[int, list] = {}
        if dep.combiner is not None:
            create, merge_value, _ = dep.combiner
            combined: dict[int, dict] = {}
            for key, value in records:
                bucket = partitioner.partition(key)
                per_bucket = combined.setdefault(bucket, {})
                if key in per_bucket:
                    per_bucket[key] = merge_value(per_bucket[key], value)
                else:
                    per_bucket[key] = create(value)
            for bucket, pairs in combined.items():
                bucketed[bucket] = list(pairs.items())
        else:
            for record in records:
                key = record[0]
                bucketed.setdefault(partitioner.partition(key), []).append(record)
        packed: dict[int, object] = {}
        for reduce_partition, bucket_records in bucketed.items():
            block = ColumnBlock.from_records(bucket_records)
            packed[reduce_partition] = bucket_records if block is None else block
        return packed

    def _run_result_stage(
        self,
        rdd: RDD,
        func: Callable,
        partitions: Sequence[int],
        metrics: QueryMetrics,
        read: Callable[[int], Any],
    ) -> list:
        stage = StageMetrics(name="result")
        results: list = []
        stage_id = emit_stage_submitted(self._events_query, stage.name, len(partitions))
        # Every shuffle the pipeline reads was materialised before this
        # stage, so these are all of them.
        shuffle_deps = self._pipeline_shuffle_deps(rdd)
        with get_tracer().span(stage.name, category="stage"):
            self._run_stage_tasks(
                "task",
                lambda task, split: func(read(split)),
                partitions,
                stage,
                stage_id,
                metrics,
                lambda index, value, task: results.append(value),
                repair=self._make_repair(shuffle_deps, stage_id),
                fused=fused_step(rdd),
            )
            self._finish_stage(stage, shuffling=bool(shuffle_deps), metrics=metrics)
        return results

    # -- lineage recovery --------------------------------------------------------

    def _pipeline_shuffle_deps(self, rdd: RDD) -> list[ShuffleDependency]:
        """The materialised shuffle dependencies the result pipeline reads."""
        node = rdd
        while True:
            shuffles = [
                dep
                for dep in node.dependencies
                if isinstance(dep, ShuffleDependency) and dep.shuffle_id is not None
            ]
            if shuffles:
                return shuffles
            narrow_parents = [
                dep for dep in node.dependencies if isinstance(dep, NarrowDependency)
            ]
            if not narrow_parents:
                return []
            node = narrow_parents[0].parent

    def _make_repair(self, deps: list[ShuffleDependency], stage_id):
        """Lineage-based recovery hook for ``shuffle_loss`` faults.

        This is Spark's answer to the static model's whole-query restart
        (Section III: RDDs "keep track of data processing workflows"): a
        reduce task that finds its shuffle input gone re-derives *only*
        the lost map output by re-running the parent stage's bucketing
        for that map partition, then retries.  The recompute happens
        under a discarded observability capture and writes back via
        :meth:`ShuffleStore.restore` — recovery restores state, it never
        re-bills counters or simulated time, which keeps chaos runs
        byte-identical to fault-free ones.  ``deps`` are the shuffles the
        result pipeline reads; with none, returns ``None`` (the fault then
        degrades to a transient).
        """
        if not deps:
            return None
        store = self.sc._shuffle_store

        def repair(task_index: int, fault) -> None:
            for dep in deps:
                parent = dep.parent
                map_split = task_index % parent.num_partitions
                store.drop_map_output(dep.shuffle_id, map_split)
                with discard_observability():
                    bucketed = self._map_output(dep, map_split)
                store.restore(dep.shuffle_id, map_split, bucketed)
                log = get_event_log()
                if log.enabled and self._events_query is not None:
                    log.emit(
                        "StageRecomputed",
                        query=self._events_query,
                        stage=stage_id,
                        shuffle_id=dep.shuffle_id,
                        map_partition=map_split,
                        reason=fault.kind,
                    )

        return repair

    def _finish_stage(
        self, stage: StageMetrics, shuffling: bool, metrics: QueryMetrics
    ) -> None:
        """Price the stage's tasks, schedule them and record its outcome.

        One :func:`~repro.cluster.metrics.price_tasks` call prices every
        task, a row of the (task x resource) table; the straggler
        statistics read those prices, the schedule the same with the
        JVM factor.
        """
        model = self.sc.cost_model
        work = price_tasks(model, stage.tasks)
        stats = straggler_stats(work.tolist())
        stage.makespan_seconds = simulate_dynamic(
            (work * model.spark_jvm_factor).tolist(),
            workers=self.sc.cluster.total_cores,
            per_task_overhead=model.spark_task_launch,
        )
        # Partition-metadata exchange: the driver tracks per-task metadata
        # for every stage, so this grows with the partition count (the a1
        # ablation's tradeoff).  Stages that shuffle additionally pay the
        # actor-system reconstruction the paper observed (Section III).
        stage.overhead_seconds = model.spark_stage_per_partition * max(
            1, stage.num_tasks
        )
        if shuffling:
            stage.overhead_seconds += model.spark_stage_base
        metrics.add_stage(stage)
        # The enclosing stage span (a no-op while tracing is disabled)
        # gets the scheduling outcome: makespan + overhead as duration,
        # straggler statistics as attributes.
        span = get_tracer().current_span()
        span.add_sim(stage.makespan_seconds + stage.overhead_seconds)
        span.set_attr("tasks", stage.num_tasks)
        span.set_attr("makespan_seconds", stage.makespan_seconds)
        for key, value in stats.items():
            span.set_attr(key, value)
        self.stage_summaries.append(
            {
                "name": stage.name,
                "tasks": stage.num_tasks,
                "makespan_seconds": stage.makespan_seconds,
                "overhead_seconds": stage.overhead_seconds,
                **stats,
                "shuffling": shuffling,
            }
        )
