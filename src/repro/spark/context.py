"""SparkContext: the mini-Spark driver entry point.

Owns the cluster spec, cost model, simulated HDFS, shuffle store, block
cache and broadcast registry, and exposes the ``parallelize`` /
``textFile`` / ``broadcast`` API that Fig 2 of the paper uses.
"""

from __future__ import annotations

from typing import TypeVar

from repro.cache import cache_for
from repro.cluster.metrics import QueryMetrics
from repro.cluster.model import ClusterSpec, CostModel
from repro.hdfs import SimulatedHDFS
from repro.obs.events import EventLog
from repro.obs.profile import ProfileNode, QueryProfile
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import make_pool
from repro.runtime.recovery import RecoveryContext
from repro.spark.broadcast import Broadcast
from repro.spark.rdd import BinaryRecordsRDD, ParallelCollectionRDD, RDD, TextFileRDD
from repro.spark.scheduler import DAGScheduler
from repro.spark.shuffle import ShuffleStore, estimate_bytes

__all__ = ["SparkContext"]

T = TypeVar("T")


class SparkContext:
    """Driver-side handle to the simulated Spark cluster.

    ``default_parallelism`` follows Spark's rule of thumb (2 tasks per
    core) unless overridden.  All simulated-time accounting accumulates in
    ``job_log``; :meth:`simulated_seconds` sums it, and
    :meth:`reset_metrics` clears it between benchmark measurements (also
    re-arming the once-per-run JAR-shipping charge of Section VI).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        hdfs: SimulatedHDFS | None = None,
        cost_model: CostModel | None = None,
        default_parallelism: int | None = None,
        runtime: RuntimeConfig | None = None,
    ):
        self.cluster = cluster
        if runtime is None:
            runtime = RuntimeConfig()
        self.runtime = runtime
        # Driver-side recovery state (fault plan, virtual-worker
        # blacklist); inert unless the runtime carries a FaultPlan.
        self.recovery = RecoveryContext(runtime)
        # Cross-query cache handle (None unless the runtime sets
        # cache_budget_bytes); the broadcast join reuses its index.
        self.cache = cache_for(runtime)
        # Structured event log: given a JSONL path (runtime.events_out),
        # every job emits the QueryStart/StageSubmitted/TaskStart/...
        # stream the monitor replays.  None keeps the disabled global
        # sink — a strict no-op.
        self._event_log = (
            EventLog(path=runtime.events_out) if runtime.events_out else None
        )
        # Real parallelism (runtime.executors): "serial"/None/1 runs tasks
        # inline (the default, and what tests use); an int > 1 dispatches
        # each stage's tasks to that many worker processes.  Results are
        # byte-identical either way; a TaskPool instance passes through
        # for tests.
        self.task_pool = make_pool(runtime.executors)
        self.hdfs = hdfs or SimulatedHDFS(
            datanodes=tuple(f"node{i}" for i in range(cluster.num_nodes))
        )
        self.cost_model = cost_model or CostModel()
        self.default_parallelism = default_parallelism or (cluster.total_cores * 2)
        self._scheduler = DAGScheduler(self)
        self._shuffle_store = ShuffleStore()
        self._cache: dict[tuple[int, int], list] = {}
        self._broadcast_counter = 0
        self.job_log: list[QueryMetrics] = []
        self._jar_shipped = False
        self.broadcast_overhead_seconds = 0.0
        self.last_plan: dict | None = None

    # -- dataset creation -------------------------------------------------------

    def parallelize(self, data: list[T], num_partitions: int | None = None) -> RDD[T]:
        """Distribute a driver-side list into an RDD."""
        if num_partitions is None:
            num_partitions = self.default_parallelism
        return ParallelCollectionRDD(self, data, num_partitions)

    def text_file(self, path: str, min_partitions: int | None = None) -> RDD[str]:
        """Lines of an HDFS text file (one partition per split)."""
        return TextFileRDD(self, path, min_partitions or 1)

    textFile = text_file

    def binary_records(self, path: str, min_partitions: int | None = None) -> RDD[bytes]:
        """Records of a paged binary HDFS file (one partition per split).

        The input side of the binary-geometry pipeline (Section III's
        future work, implemented here as the a3 ablation's fast path).
        """
        return BinaryRecordsRDD(self, path, min_partitions or 1)

    # -- broadcast ---------------------------------------------------------------

    def broadcast(
        self,
        value: T,
        cost_weight: float = 1.0,
        fingerprint: bytes | None = None,
    ) -> Broadcast[T]:
        """Replicate a read-only value to every executor node.

        Charges simulated network time for shipping the payload to each
        node (pipelined torrent-style: one serialisation plus a per-extra-
        node factor), which is how the broadcast join pays for a growing
        cluster.  The shipping charge is identical whether the payload was
        freshly built or reused from the cross-query cache — the simulated
        cluster still has to ship it; ``fingerprint`` only links the
        :class:`Broadcast` to its cache entry for destroy-time
        invalidation.
        """
        self._broadcast_counter += 1
        size = self._broadcast_size(value) * cost_weight
        model = self.cost_model
        nodes = self.cluster.num_nodes
        self.broadcast_overhead_seconds += (
            size * model.broadcast_byte * (1.0 + model.broadcast_node_factor * (nodes - 1))
        )
        return Broadcast(self._broadcast_counter, value, size, fingerprint)

    @staticmethod
    def _broadcast_size(value) -> int:
        # Only a value with ``iter_all`` is charged per entry.  A
        # BroadcastIndex has none and is charged as an opaque 64-byte
        # object: the wrong charge of ROADMAP item 1(a).
        iter_all = getattr(value, "iter_all", None)
        if iter_all is not None:
            total = 0
            count = 0
            for item, envelope in iter_all():
                total += estimate_bytes(item) + 32
                count += 1
            return total + 48 * max(1, count // 8)  # interior-node overhead
        return estimate_bytes(value)

    # -- metrics ------------------------------------------------------------------

    def _charge_jar_ship(self) -> bool:
        """True exactly once per measured run (per-run JAR shipping)."""
        if self._jar_shipped:
            return False
        self._jar_shipped = True
        return True

    def _record_job(self, metrics: QueryMetrics) -> None:
        self.job_log.append(metrics)

    def record_plan(self, info: dict) -> None:
        """Attach the optimizer's plan summary to the next profile.

        Join helpers call this with :meth:`PlanChoice.to_info`-style dicts
        so :meth:`to_profile` can render an explain()-style header without
        perturbing any simulated-seconds accounting.
        """
        self.last_plan = dict(info)

    def simulated_seconds(self) -> float:
        """Total simulated runtime of every job since the last reset."""
        return self.broadcast_overhead_seconds + sum(
            job.simulated_seconds for job in self.job_log
        )

    def reset_metrics(self) -> None:
        """Clear the job log and re-arm per-run overheads."""
        self.job_log.clear()
        self.broadcast_overhead_seconds = 0.0
        self._jar_shipped = False
        self.last_plan = None

    def totals(self) -> dict[str, float]:
        """Aggregate resource counters over the whole job log."""
        merged: dict[str, float] = {}
        for job in self.job_log:
            for resource, units in job.totals().items():
                merged[resource] = merged.get(resource, 0.0) + units
        return merged

    def to_profile(self, name: str = "spark-query") -> QueryProfile:
        """Profile tree for everything run since the last metrics reset.

        Children are the driver-side broadcast cost (when any) plus one
        subtree per job (stages with task-skew stats); their simulated
        seconds sum to :meth:`simulated_seconds` exactly.
        """
        root = ProfileNode(
            name,
            sim_seconds=self.simulated_seconds(),
            info={
                "engine": "SpatialSpark",
                "nodes": self.cluster.num_nodes,
                "cores": self.cluster.total_cores,
                "jobs": len(self.job_log),
            },
        )
        if self.last_plan:
            for key, value in self.last_plan.items():
                root.info[f"plan_{key}"] = value
        if self.broadcast_overhead_seconds:
            root.add_child(
                ProfileNode(
                    "broadcast",
                    sim_seconds=self.broadcast_overhead_seconds,
                    info={"kind": "collect + index build + torrent fan-out"},
                )
            )
        for job in self.job_log:
            root.add_child(job.to_profile(self.cost_model).root)
        return QueryProfile(root)

    # -- cache & internal helpers ----------------------------------------------

    def _cache_get_or_compute(self, rdd: RDD, split: int) -> list:
        key = (rdd.id, split)
        if key not in self._cache:
            self._cache[key] = list(rdd.compute(split))
        return self._cache[key]

    def _run_partition_sizes_job(self, rdd: RDD) -> list[int]:
        """Count records per partition (zipWithIndex's helper job): an
        uncached text file's splits by their newlines, never decoded
        (:meth:`TextFileRDD.count_lines`); any other list block with
        ``len``."""
        if isinstance(rdd, TextFileRDD) and not rdd.cached:
            return self._scheduler.run_job(rdd, lambda size: size, read=rdd.count_lines)
        return self._scheduler.run_job(
            rdd, lambda it: len(it) if isinstance(it, list) else sum(1 for _ in it)
        )

    def clear_state(self) -> None:
        """Drop shuffle blocks and cached partitions (between benchmarks)."""
        self._shuffle_store.clear()
        self._cache.clear()

    # -- event log ---------------------------------------------------------------

    @property
    def event_log(self) -> EventLog | None:
        """The context-owned event log (None without ``runtime.events_out``)."""
        return self._event_log

    def close_events(self) -> None:
        """Flush and close the events file (the in-memory stream stays)."""
        if self._event_log is not None:
            self._event_log.close()
