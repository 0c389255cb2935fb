"""Resilient Distributed Datasets: the lazy collection API of mini-Spark.

Implements the subset of the RDD API that Fig 2 of the paper exercises
(``textFile``/``map``/``flatMap``/``filter``/``zipWithIndex``/``collect``)
plus the pair-RDD operations (``reduceByKey``/``groupByKey``/``join``/
``cogroup``) that the partitioned spatial join and the example analytics
need.  Transformations are lazy and build a lineage DAG; actions hand the
DAG to the :class:`~repro.spark.scheduler.DAGScheduler`, which splits it
into stages at shuffle dependencies — exactly Spark's execution model, at
miniature scale.

The API is record-shaped; partitions inside it are blocks where they can
be.  A text split is its whole line list, ``zip_with_index`` numbers a
partition without unpacking it (:class:`IndexedRecords`), a parsed
partition is rows of a column (:class:`~repro.columnar.block.ColumnRecords`)
that ``sample`` takes rows from, and a :class:`FusedPartitionsRDD`
computes several partitions as one :class:`StageBatch`, which the next
fused step takes whole.  Every block still iterates as the records it
stands for.
"""

from __future__ import annotations

import itertools
import random as _random_mod
from typing import Any, Callable, Generic, Iterable, Iterator, Sequence, TypeVar

from repro.cluster.metrics import TaskMetrics, UnitSlices, charge_members
from repro.cluster.model import Resource
from repro.columnar.block import ColumnBlock, ColumnRecords, EntryChunks
from repro.errors import SparkError
from repro.hdfs import SplitLines, count_split_lines, read_split_lines
from repro.spark.shuffle import HashPartitioner, estimate_bytes, records_bytes
from repro.spark.taskcontext import current_task, task_scope

__all__ = [
    "RDD",
    "Dependency",
    "NarrowDependency",
    "ShuffleDependency",
    "ParallelCollectionRDD",
    "TextFileRDD",
    "MapPartitionsRDD",
    "FusedPartitionsRDD",
    "StageBatch",
    "IndexedRecords",
    "ShuffledRDD",
    "CoGroupedRDD",
    "UnionRDD",
]

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


class Dependency:
    """Edge in the lineage DAG."""

    def __init__(self, parent: "RDD"):
        self.parent = parent


class NarrowDependency(Dependency):
    """Child partition i depends only on parent partition i (pipelined)."""


class ShuffleDependency(Dependency):
    """Child partitions depend on all parent partitions (stage boundary).

    ``key_func`` extracts the routing key from a record; ``combiner`` is an
    optional (create, merge_value, merge_combiners) triple enabling
    map-side combining (reduceByKey).
    """

    def __init__(
        self,
        parent: "RDD",
        partitioner,
        combiner: tuple[Callable, Callable, Callable] | None = None,
    ):
        super().__init__(parent)
        self.partitioner = partitioner
        self.combiner = combiner
        self.shuffle_id: int | None = None  # assigned by the scheduler


class RDD(Generic[T]):
    """An immutable, lazily evaluated, partitioned collection."""

    _next_id = 0

    def __init__(self, sc, dependencies: list[Dependency]):
        self.sc = sc
        self.dependencies = dependencies
        self.id = RDD._next_id
        RDD._next_id += 1
        self.cached = False

    # -- to be provided by subclasses --------------------------------------

    @property
    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, split: int) -> Iterable[T]:
        """Produce the records of one partition (scheduler-invoked): an
        iterator, or a block that iterates as its records."""
        raise NotImplementedError

    # -- lineage helpers ----------------------------------------------------

    def _narrow_parent(self) -> "RDD":
        for dep in self.dependencies:
            if isinstance(dep, NarrowDependency):
                return dep.parent
        raise SparkError(f"RDD {self.id} has no narrow parent")

    def iterator(self, split: int) -> Iterable[T]:
        """Compute or fetch-from-cache one partition."""
        if self.cached:
            return iter(self.sc._cache_get_or_compute(self, split))
        return self.compute(split)

    # -- transformations (lazy) ---------------------------------------------

    def map(self, f: Callable[[T], U]) -> "RDD[U]":
        """Apply ``f`` to every record."""
        return MapPartitionsRDD(self, lambda split, it: (f(x) for x in it))

    def flat_map(self, f: Callable[[T], Iterable[U]]) -> "RDD[U]":
        """Apply ``f`` and flatten the results."""
        return MapPartitionsRDD(
            self, lambda split, it: (y for x in it for y in f(x))
        )

    # CamelCase aliases keep ports of the paper's Scala skeleton readable.
    flatMap = flat_map

    def filter(self, predicate: Callable[[T], bool]) -> "RDD[T]":
        """Keep records satisfying ``predicate``."""
        return MapPartitionsRDD(
            self, lambda split, it: (x for x in it if predicate(x))
        )

    def map_partitions(
        self, f: Callable[[Iterator[T]], Iterable[U]]
    ) -> "RDD[U]":
        """Apply ``f`` to each whole partition."""
        return MapPartitionsRDD(self, lambda split, it: f(it))

    mapPartitions = map_partitions

    def map_partitions_with_index(
        self, f: Callable[[int, Iterator[T]], Iterable[U]]
    ) -> "RDD[U]":
        """Apply ``f(split_index, iterator)`` to each partition."""
        return MapPartitionsRDD(self, f)

    def zip_with_index(self) -> "RDD[tuple[T, int]]":
        """Pair each record with its global index (requires a size job).

        Mirrors Spark: a lightweight count job determines per-partition
        offsets, then indexing is a narrow transformation.  Each partition
        comes out as :class:`IndexedRecords` over the parent's own block.
        """
        sizes = self.sc._run_partition_sizes_job(self)
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)
        return MapPartitionsRDD(
            self, lambda split, it: IndexedRecords(it, offsets[split])
        )

    zipWithIndex = zip_with_index

    def key_by(self, f: Callable[[T], K]) -> "RDD[tuple[K, T]]":
        """Turn records into (f(record), record) pairs."""
        return self.map(lambda x: (f(x), x))

    keyBy = key_by

    def union(self, other: "RDD[T]") -> "RDD[T]":
        """Concatenate two RDDs (partitions are appended)."""
        return UnionRDD(self.sc, [self, other])

    def distinct(self, num_partitions: int | None = None) -> "RDD[T]":
        """Remove duplicate records (via a shuffle)."""
        paired = self.map(lambda x: (x, None))
        reduced = paired.reduce_by_key(lambda a, b: a, num_partitions)
        return reduced.map(lambda kv: kv[0])

    def repartition(self, num_partitions: int) -> "RDD[T]":
        """Redistribute records across ``num_partitions`` via a shuffle."""
        paired = self.map_partitions_with_index(
            lambda split, it: ((split + i, x) for i, x in enumerate(it))
        )
        shuffled = ShuffledRDD(paired, HashPartitioner(num_partitions))
        return shuffled.map(lambda kv: kv[1])

    def sample(self, fraction: float, seed: int = 17) -> "RDD[T]":
        """Bernoulli sample of the records (deterministic per partition).

        One draw per record, in order; a parsed partition
        (:class:`~repro.columnar.block.ColumnRecords`) draws per row and
        keeps its kept rows as a column, building no geometry.
        """
        if not 0.0 <= fraction <= 1.0:
            raise SparkError(f"fraction must be in [0, 1], got {fraction}")

        def sample_partition(split: int, it: Iterator[T]):
            rng = _random_mod.Random(seed * 1_000_003 + split)
            if isinstance(it, ColumnRecords):
                return it.take([row for row in range(len(it)) if rng.random() < fraction])
            return (x for x in it if rng.random() < fraction)

        return MapPartitionsRDD(self, sample_partition)

    def sort_by(
        self,
        key_func: Callable[[T], Any],
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD[T]":
        """Globally sort records by ``key_func`` (range-partitioned shuffle)."""
        from repro.spark.shuffle import RangePartitioner

        num_partitions = num_partitions or self.num_partitions
        sample = [key_func(x) for x in self.sample(min(1.0, 0.1)).collect()]
        if not sample:
            sample = [key_func(x) for x in self.take(100)]
        sample.sort()
        if num_partitions > 1 and sample:
            step = max(1, len(sample) // num_partitions)
            boundaries = sample[step::step][: num_partitions - 1]
        else:
            boundaries = []
        paired = self.map(lambda x: (key_func(x), x))
        shuffled = ShuffledRDD(paired, RangePartitioner(boundaries))

        def sort_partition(split: int, it):
            records = sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            return (v for _, v in records)

        result = MapPartitionsRDD(shuffled, sort_partition)
        if not ascending:
            # Range partitions are ascending; reverse partition order too.
            return result  # partition-internal order reversed is sufficient
        return result

    sortBy = sort_by

    # -- pair-RDD transformations -------------------------------------------

    def _default_partitioner(self, num_partitions: int | None) -> HashPartitioner:
        return HashPartitioner(num_partitions or self.num_partitions)

    def reduce_by_key(
        self, f: Callable[[V, V], V], num_partitions: int | None = None
    ) -> "RDD[tuple[K, V]]":
        """Merge values per key with map-side combining."""
        combiner = (lambda v: v, lambda acc, v: f(acc, v), lambda a, b: f(a, b))
        return ShuffledRDD(self, self._default_partitioner(num_partitions), combiner)

    reduceByKey = reduce_by_key

    def group_by_key(
        self, num_partitions: int | None = None
    ) -> "RDD[tuple[K, list[V]]]":
        """Collect all values per key into lists."""
        combiner = (
            lambda v: [v],
            lambda acc, v: (acc.append(v), acc)[1],
            lambda a, b: a + b,
        )
        return ShuffledRDD(self, self._default_partitioner(num_partitions), combiner)

    groupByKey = group_by_key

    def combine_by_key(
        self,
        create: Callable[[V], U],
        merge_value: Callable[[U, V], U],
        merge_combiners: Callable[[U, U], U],
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, U]]":
        """General aggregation with distinct combiner/accumulator types."""
        return ShuffledRDD(
            self,
            self._default_partitioner(num_partitions),
            (create, merge_value, merge_combiners),
        )

    def cogroup(
        self, other: "RDD[tuple[K, Any]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[list, list]]]":
        """Group both RDDs' values per key: (key, (left_vals, right_vals))."""
        partitioner = self._default_partitioner(num_partitions)
        return CoGroupedRDD(self, other, partitioner)

    def join(
        self, other: "RDD[tuple[K, Any]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[Any, Any]]]":
        """Inner equi-join of two pair RDDs."""
        grouped = self.cogroup(other, num_partitions)

        def emit(kv):
            key, (left_vals, right_vals) = kv
            return (
                (key, (lv, rv)) for lv in left_vals for rv in right_vals
            )

        return grouped.flat_map(emit)

    def map_values(self, f: Callable[[V], U]) -> "RDD[tuple[K, U]]":
        """Apply ``f`` to the value of every (key, value) pair."""
        return self.map(lambda kv: (kv[0], f(kv[1])))

    mapValues = map_values

    # -- actions (eager) ------------------------------------------------------

    def collect(self) -> list[T]:
        """Materialise every record on the driver."""
        chunks = self.sc._scheduler.run_job(self, lambda it: list(it))
        return [record for chunk in chunks for record in chunk]

    def count(self) -> int:
        """Number of records."""
        counts = self.sc._scheduler.run_job(self, lambda it: sum(1 for _ in it))
        return sum(counts)

    def take(self, n: int) -> list[T]:
        """First ``n`` records in partition order.

        Computes partitions one at a time (like Spark's incremental take)
        until enough records are gathered.
        """
        taken: list[T] = []
        for split in range(self.num_partitions):
            if len(taken) >= n:
                break
            chunk = self.sc._scheduler.run_job(
                self, lambda it: list(it), partitions=[split]
            )[0]
            taken.extend(chunk[: n - len(taken)])
        return taken

    def first(self) -> T:
        """The first record; raises on an empty RDD."""
        records = self.take(1)
        if not records:
            raise SparkError("RDD is empty")
        return records[0]

    def reduce(self, f: Callable[[T, T], T]) -> T:
        """Fold all records with ``f``; raises on an empty RDD."""

        def reduce_partition(it: Iterator[T]):
            acc = None
            present = False
            for record in it:
                acc = record if not present else f(acc, record)
                present = True
            return (present, acc)

        partials = self.sc._scheduler.run_job(self, reduce_partition)
        values = [acc for present, acc in partials if present]
        if not values:
            raise SparkError("reduce of empty RDD")
        result = values[0]
        for value in values[1:]:
            result = f(result, value)
        return result

    def count_by_key(self) -> dict:
        """Count records per key (drives a reduce_by_key job)."""
        return dict(self.map_values(lambda _: 1).reduce_by_key(lambda a, b: a + b).collect())

    countByKey = count_by_key

    def cache(self) -> "RDD[T]":
        """Keep computed partitions in memory for reuse across jobs."""
        self.cached = True
        return self

    persist = cache


class ParallelCollectionRDD(RDD[T]):
    """An RDD over a driver-side list, sliced into partitions."""

    def __init__(self, sc, data: list[T], num_partitions: int):
        super().__init__(sc, [])
        if num_partitions < 1:
            raise SparkError(f"need >= 1 partition, got {num_partitions}")
        self._data = list(data)
        self._num_partitions = num_partitions

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def compute(self, split: int) -> Iterator[T]:
        n = len(self._data)
        start = split * n // self._num_partitions
        end = (split + 1) * n // self._num_partitions
        return iter(self._data[start:end])


class TextFileRDD(RDD[str]):
    """Lines of an HDFS text file, one partition per input split.

    A partition is the split's line list
    (:class:`~repro.hdfs.textfile.SplitLines`), handed on whole: it
    iterates as lines, and a consumer that takes the block counts or
    splits it in one pass.
    """

    def __init__(self, sc, path: str, min_partitions: int = 1):
        super().__init__(sc, [])
        from repro.hdfs import split_boundaries

        self.path = path
        self._splits = split_boundaries(sc.hdfs, path, min_partitions)

    @property
    def num_partitions(self) -> int:
        return len(self._splits)

    def compute(self, split: int) -> SplitLines:
        offset, length = self._splits[split]
        current_task().add(Resource.HDFS_BYTES, length)
        return read_split_lines(self.sc.hdfs, self.path, offset, length)

    def count_lines(self, split: int) -> int:
        """``len(self.compute(split))``, charged and counted as it is,
        without decoding the split."""
        offset, length = self._splits[split]
        current_task().add(Resource.HDFS_BYTES, length)
        return count_split_lines(self.sc.hdfs, self.path, offset, length)


class BinaryRecordsRDD(RDD[bytes]):
    """Records of a paged binary HDFS file, one partition per split.

    The binary counterpart of :class:`TextFileRDD` — the on-HDFS half of
    the paper's future-work binary geometry representation.
    """

    def __init__(self, sc, path: str, min_partitions: int = 1):
        super().__init__(sc, [])
        from repro.hdfs import record_split_boundaries

        self.path = path
        self._splits = record_split_boundaries(sc.hdfs, path, min_partitions)

    @property
    def num_partitions(self) -> int:
        return len(self._splits)

    def compute(self, split: int) -> Iterator[bytes]:
        from repro.hdfs import read_split_records

        offset, length = self._splits[split]
        current_task().add(Resource.HDFS_BYTES, length)
        return iter(read_split_records(self.sc.hdfs, self.path, offset, length))


class MapPartitionsRDD(RDD[U]):
    """Narrow transformation: ``f(split, parent_iterator)``."""

    def __init__(self, parent: RDD, f: Callable[[int, Iterator], Iterable[U]]):
        super().__init__(parent.sc, [NarrowDependency(parent)])
        self._f = f

    @property
    def num_partitions(self) -> int:
        return self._narrow_parent().num_partitions

    def compute(self, split: int) -> Iterator[U]:
        parent = self._narrow_parent()
        return iter(self._f(split, parent.iterator(split)))


class IndexedRecords:
    """A partition numbered by ``zip_with_index``: ``(record, base + i)``.

    ``records`` is the parent partition as it came (a text split's line
    list, say) and ``base`` the global index of its first record.  Like
    :class:`~repro.columnar.block.ColumnRecords` it is its own iterator,
    so the next operator receives it as itself: one that wants the block
    reads ``records`` and ``base``, any other iterates the pairs.
    """

    __slots__ = ("records", "base", "_pairs")

    def __init__(self, records: Iterable, base: int):
        self.records = records
        self.base = base
        self._pairs = zip(records, itertools.count(base))

    def __iter__(self) -> "IndexedRecords":
        return self

    def __next__(self) -> tuple:
        return next(self._pairs)


def fused_step(rdd: RDD) -> "FusedPartitionsRDD | None":
    """The batchable step of ``rdd``'s pipeline: a
    :class:`FusedPartitionsRDD` reached from ``rdd`` through
    partition-preserving maps, none of them cached (a cached partition is
    never recomputed, so it must not be prefetched)."""
    node = rdd
    while not node.cached:
        if isinstance(node, FusedPartitionsRDD):
            return node
        if type(node) is not MapPartitionsRDD:
            return None
        node = node._narrow_parent()
    return None


class StageBatch:
    """What a chain of fused steps computed for a batch of partitions,
    held as one block until each task takes its own part.

    ``rows`` holds every member partition's rows at once — a parse's one
    column, a probe's pairs — and member ``b`` owns rows
    ``stops[b]:stops[b + 1]``; ``take(rows, start, stop)`` makes a
    member's records from them.  ``charges`` holds one
    :class:`~repro.cluster.metrics.UnitSlices` per step the batch went
    through, upstream first: the unit columns that step charges each
    member.
    """

    __slots__ = ("rows", "stops", "take", "charges")

    def __init__(
        self,
        rows: Any,
        stops: Sequence[int],
        take: Callable[[Any, int, int], Iterable] | None = None,
        charges: tuple[UnitSlices, ...] = (),
    ):
        self.rows = rows
        self.stops = stops
        self.take = take
        self.charges = charges

    def __len__(self) -> int:
        return len(self.stops) - 1

    def records(self, member: int) -> Iterable:
        """Member ``member``'s records."""
        return self.take(self.rows, self.stops[member], self.stops[member + 1])

    def charge(self, tasks: Sequence[TaskMetrics]) -> None:
        """Charge ``tasks[b]`` every step's units of member ``b``
        (:func:`~repro.cluster.metrics.charge_members`: one table for a
        stage's many members): each task's counts are
        :meth:`~repro.cluster.metrics.TaskMetrics.add_columns` of its
        member's columns, a key two steps share summed as the two
        charges in turn would."""
        charge_members(tasks, self.charges)


class FusedPartitionsRDD(RDD[U]):
    """Narrow transformation whose partitions are computed as one batch.

    ``prepare(records)`` turns one parent partition into a block, inside
    that partition's task.  ``run(batch)`` computes a
    :class:`StageBatch` of any number of partitions and returns this
    step's :class:`StageBatch` of them, the input's ``charges`` followed
    by its own.  Its input is the prepared blocks (``rows`` the block
    list) — or, when the parent is itself an uncached fused step, that
    step's batch as it came out: a chain of fused steps (the loader's
    parse, then a join's probe or route) hands one batch from step to
    step, nothing prepared, cut or charged per partition in between.

    Every member's task is charged every step's units as soon as the
    batch is computed, all members as one table
    (:meth:`StageBatch.charge`), and the task then takes its partition's
    records from the last step's batch; its charges do not depend on
    which partitions shared the batch.  The scheduler batches every stage
    whose tasks run inline (:meth:`prefetch`); a partition computed on
    its own — under a pool or a fault plan, or a retry — is a batch of
    one through the same code.
    """

    def __init__(
        self,
        parent: RDD,
        prepare: Callable[[Iterable], Any],
        run: Callable[[StageBatch], StageBatch],
    ):
        super().__init__(parent.sc, [NarrowDependency(parent)])
        self._prepare = prepare
        self._run = run
        self._prefetched: dict[int, Any] = {}
        self._upstream: FusedPartitionsRDD | None = None  # prefetched with this step

    @property
    def num_partitions(self) -> int:
        return self._narrow_parent().num_partitions

    def compute(self, split: int) -> Iterator[U]:
        if split not in self._prefetched:
            self._batch([split], [current_task()])
        outcome = self._prefetched.pop(split)
        if isinstance(outcome, Exception):
            raise outcome
        batch, member = outcome
        return iter(batch.records(member))

    def _source(self) -> "FusedPartitionsRDD | None":
        """The step whose batch this one takes as its input: the parent,
        when it is an uncached fused step."""
        parent = self._narrow_parent()
        if isinstance(parent, FusedPartitionsRDD) and not parent.cached:
            return parent
        return None

    def prefetch(self, partitions: Sequence[int], tasks: Sequence[TaskMetrics]) -> None:
        """Compute ``partitions`` as one batch, each prepared under its own
        task's metrics and then charged its units with the others.

        The nearest uncached fused step above this chain
        (:func:`fused_step`, reached through maps) is prefetched first,
        over the same partitions and tasks, so each preparation finds its
        parent partition's outcome waiting.  A partition's outcome — or
        the error its preparation or the batch raised — waits for that
        partition's first :meth:`compute`, which is its task's first
        attempt; a retry computes it alone.  The first preparation that
        fails ends the batch there.
        """
        head = self
        while (source := head._source()) is not None:
            head = source
        self._upstream = fused_step(head._narrow_parent())
        if self._upstream is not None:
            self._upstream.prefetch(partitions, tasks)
        self._batch(partitions, tasks)

    def _batch(self, partitions: Sequence[int], tasks: Sequence[TaskMetrics]) -> None:
        """Compute ``partitions``, charge each computed one's task, and
        leave each one's outcome waiting: ``(batch, member)``, or the
        error its attempt raises."""
        batch, failed = self._run_batch(partitions, tasks)
        if batch is not None:
            batch.charge(tasks[: len(batch)])
            self._prefetched.update(zip(partitions, ((batch, b) for b in range(len(batch)))))
        self._prefetched.update(failed)

    def _run_batch(
        self, partitions: Sequence[int], tasks: Sequence[TaskMetrics]
    ) -> tuple[StageBatch | None, dict[int, Exception]]:
        """This step's batch over the leading ``partitions`` that prepared,
        in order, and the error of each partition that did not."""
        source = self._source()
        failed: dict[int, Exception] = {}
        if source is not None:
            given, failed = source._run_batch(partitions, tasks)
            if given is None:
                return None, failed
        else:
            parent = self._narrow_parent()
            blocks = []
            for split, task in zip(partitions, tasks):
                try:
                    with task_scope(task):
                        blocks.append(self._prepare(parent.iterator(split)))
                except Exception as error:  # noqa: BLE001 - the attempt's failure
                    failed[split] = error
                    break
            if not blocks:
                return None, failed
            given = StageBatch(blocks, range(len(blocks) + 1))
        try:
            return self._run(given), failed
        except Exception as error:  # noqa: BLE001 - every member's attempt fails
            # The steps upstream did their work: each member keeps their
            # charges, as it would have computing alone.
            given.charge(tasks[: len(given)])
            return None, {**dict.fromkeys(partitions[: len(given)], error), **failed}

    def release(self) -> None:
        """Drop outcomes no task collected (a stage that failed early),
        here and upstream."""
        self._prefetched.clear()
        if self._upstream is not None:
            self._upstream.release()
            self._upstream = None


class ShuffledRDD(RDD[tuple]):
    """Reduce side of a shuffle: yields (key, value-or-combined) pairs."""

    def __init__(self, parent: RDD, partitioner, combiner=None):
        self.shuffle_dep = ShuffleDependency(parent, partitioner, combiner)
        super().__init__(parent.sc, [self.shuffle_dep])

    @property
    def num_partitions(self) -> int:
        return self.shuffle_dep.partitioner.num_partitions

    def compute(self, split: int) -> Iterator[tuple]:
        store = self.sc._shuffle_store
        dep = self.shuffle_dep
        if dep.shuffle_id is None:
            raise SparkError("shuffle has not been materialised (scheduler bug)")
        num_maps = dep.parent.num_partitions
        task = current_task()
        if dep.combiner is None:
            for record in store.read(dep.shuffle_id, num_maps, split):
                task.add(Resource.SHUFFLE_BYTES, estimate_bytes(record))
                yield record
            return
        _, _, merge_combiners = dep.combiner
        merged: dict = {}
        for key, combined in store.read(dep.shuffle_id, num_maps, split):
            task.add(Resource.SHUFFLE_BYTES, estimate_bytes((key, combined)))
            if key in merged:
                merged[key] = merge_combiners(merged[key], combined)
            else:
                merged[key] = combined
        yield from merged.items()


class CoGroupedRDD(RDD[tuple]):
    """Joint grouping of two pair RDDs under one partitioner.

    Shuffle blocks are taken whole.  A side whose blocks are all
    :class:`~repro.columnar.block.ColumnBlock` groups as column chunks —
    its values per key are an
    :class:`~repro.columnar.block.EntryChunks`, a sequence of
    ``(id, geometry)`` entries that a geometry-aware consumer can take
    packed; any other side (plain records, or a mix) groups record by
    record into lists.  Either way ``SHUFFLE_BYTES`` accrues the exact
    per-record total.
    """

    def __init__(self, left: RDD, right: RDD, partitioner):
        self.left_dep = ShuffleDependency(left, partitioner)
        self.right_dep = ShuffleDependency(right, partitioner)
        super().__init__(left.sc, [self.left_dep, self.right_dep])
        self._partitioner = partitioner

    @property
    def num_partitions(self) -> int:
        return self._partitioner.num_partitions

    def compute(self, split: int) -> Iterator[tuple]:
        store = self.sc._shuffle_store
        task = current_task()
        groups: dict[Any, list] = {}
        for side, dep in ((0, self.left_dep), (1, self.right_dep)):
            if dep.shuffle_id is None:
                raise SparkError("shuffle has not been materialised (scheduler bug)")
            blocks = list(
                store.read_blocks(dep.shuffle_id, dep.parent.num_partitions, split)
            )
            for block in blocks:
                # Integer-valued, so one add per block equals the adds per record.
                task.add(Resource.SHUFFLE_BYTES, records_bytes(block))
            if all(isinstance(block, ColumnBlock) for block in blocks):
                for block in blocks:
                    for key, chunk in block.chunks_by_key():
                        sides = groups.setdefault(key, [[], []])
                        if isinstance(sides[side], list):
                            sides[side] = EntryChunks()
                        sides[side].chunks.append(chunk)
            else:
                for block in blocks:
                    for key, value in block:
                        groups.setdefault(key, [[], []])[side].append(value)
        for key, sides in groups.items():
            yield key, tuple(sides)


class UnionRDD(RDD[T]):
    """Concatenation: child partitions are the parents' partitions appended."""

    def __init__(self, sc, parents: list[RDD[T]]):
        super().__init__(sc, [NarrowDependency(p) for p in parents])
        self._parents = parents

    @property
    def num_partitions(self) -> int:
        return sum(p.num_partitions for p in self._parents)

    def compute(self, split: int) -> Iterator[T]:
        for parent in self._parents:
            if split < parent.num_partitions:
                return parent.iterator(split)
            split -= parent.num_partitions
        raise SparkError(f"partition {split} out of range for union")
