"""Shuffle machinery: partitioners, in-memory shuffle blocks, size estimates.

Spark splits a job into stages at shuffle dependencies; map-side tasks
write their output bucketed by reduce partition, and reduce-side tasks
fetch their bucket from every map task.  We keep the blocks in an
in-memory store (the simulation is single-process) and account the bytes
moved so the cost model can charge network time.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

import numpy as np

from repro.errors import SparkError
from repro.obs.registry import REGISTRY

__all__ = [
    "HashPartitioner",
    "RangePartitioner",
    "ShuffleStore",
    "estimate_bytes",
    "records_bytes",
    "values_bytes",
]


_SCALAR_TYPES = (int, float, bool)
# np.float64 subclasses float; numpy's integers and bool_ subclass nothing
# Python, so they are named: a numpy scalar weighs what it stands for.
_NUMPY_SCALAR_TYPES = (np.integer, np.floating, np.bool_)
_ANY_SCALAR_TYPES = _SCALAR_TYPES + _NUMPY_SCALAR_TYPES
_PYTHON_NUMBER_TYPES = frozenset(_SCALAR_TYPES)


def estimate_bytes(record: Any) -> int:
    """Cheap serialized-size estimate for shuffle/broadcast accounting.

    Not exact serialisation — a stable, fast heuristic: containers are the
    sum of their elements plus a small header, strings weigh their UTF-8
    byte length, geometries 16 bytes per vertex (two float64 coordinates),
    numpy arrays their buffer size plus a header, scalars 8 — numpy
    scalars included, which weigh what the Python scalar they stand for
    weighs.  The container walk is iterative (explicit stack) so deeply
    nested records can't hit the interpreter recursion limit.
    """
    total = 0
    stack = [record]
    while stack:
        item = stack.pop()
        if item is None:
            total += 1
        elif isinstance(item, (bytes, bytearray)):
            total += len(item)
        elif isinstance(item, str):
            total += len(item.encode("utf-8"))
        elif isinstance(item, _ANY_SCALAR_TYPES):
            total += 8
        elif isinstance(item, (tuple, list)):
            total += 8
            stack.extend(item)
        elif isinstance(item, dict):
            total += 16
            for key, value in item.items():
                stack.append(key)
                stack.append(value)
        elif isinstance(item, np.ndarray):
            total += 16 + item.nbytes
        else:
            num_points = getattr(item, "num_points", None)
            if num_points is not None:
                total += 24 + 16 * int(num_points)
            else:
                column_nbytes = getattr(item, "column_nbytes", None)
                if column_nbytes is not None:
                    total += 16 + int(column_nbytes)
                else:
                    total += 64  # opaque object
    return total


def values_bytes(values) -> int:
    """``sum(estimate_bytes(value) for value in values)`` over a column of
    values — a list or a 1-D array — sized by arithmetic when every value
    is a Python number (8 bytes each) or every one an ASCII string (its
    length); any other column takes the per-value estimator."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds <= _PYTHON_NUMBER_TYPES:
        return 8 * len(values)
    if kinds == {str} and all(map(str.isascii, values)):
        return sum(map(len, values))
    return sum(map(estimate_bytes, values))


def records_bytes(records) -> int:
    """Bulk :func:`estimate_bytes` over one shuffle bucket or exchange.

    Three cases, cheapest first:

    * a :class:`~repro.columnar.block.ColumnBlock` carries its exact
      object-path total in ``charge_bytes`` — return it directly;
    * the dominant spatial-join record shape ``(key, (id, geometry))``
      with scalar (Python or numpy) key/id sizes to ``56 + 16 * num_points``
      without walking the container (byte-for-byte what the generic walk
      produces for that shape);
    * anything else falls back to the per-record estimator.

    The returned total is identical to ``sum(estimate_bytes(r) for r in
    records)`` for every input — this is a hot-loop optimisation, not a
    new size model, so ``SHUFFLE_BYTES`` charges cannot drift.
    """
    charge = getattr(records, "charge_bytes", None)
    if charge is not None:
        return int(charge)
    total = 0
    for record in records:
        if type(record) is tuple and len(record) == 2:
            key, value = record
            if (
                type(value) is tuple
                and (type(key) in _SCALAR_TYPES or isinstance(key, _NUMPY_SCALAR_TYPES))
                and len(value) == 2
                and (
                    type(value[0]) in _SCALAR_TYPES
                    or isinstance(value[0], _NUMPY_SCALAR_TYPES)
                )
            ):
                num_points = getattr(value[1], "num_points", None)
                if num_points is not None:
                    total += 56 + 16 * int(num_points)
                    continue
        total += estimate_bytes(record)
    return total


class HashPartitioner:
    """Route keys to ``hash(key) % num_partitions``."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise SparkError(f"need >= 1 partition, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: Hashable) -> int:
        return hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashPartitioner)
            and other.num_partitions == self.num_partitions
        )

    def __hash__(self) -> int:
        return hash(("hash", self.num_partitions))


class RangePartitioner:
    """Route ordered keys into contiguous ranges given sorted boundaries.

    ``boundaries`` has ``num_partitions - 1`` entries; key k goes to the
    first partition whose boundary exceeds it (binary search).
    """

    def __init__(self, boundaries: list):
        self.boundaries = list(boundaries)
        self.num_partitions = len(self.boundaries) + 1

    def partition(self, key) -> int:
        lo, hi = 0, len(self.boundaries)
        while lo < hi:
            mid = (lo + hi) // 2
            if key <= self.boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RangePartitioner)
            and other.boundaries == self.boundaries
        )

    def __hash__(self) -> int:
        return hash(("range", tuple(self.boundaries)))


class ShuffleStore:
    """In-memory shuffle block store.

    Blocks are keyed ``(shuffle_id, map_partition, reduce_partition)``;
    byte counters are tracked per shuffle for cost accounting.
    """

    def __init__(self) -> None:
        self._blocks: dict[tuple[int, int, int], list] = {}
        self._bytes_by_shuffle: dict[int, int] = {}
        self._next_shuffle_id = 0

    def new_shuffle_id(self) -> int:
        shuffle_id = self._next_shuffle_id
        self._next_shuffle_id += 1
        return shuffle_id

    def write(
        self,
        shuffle_id: int,
        map_partition: int,
        bucketed: dict[int, list],
        written: int | None = None,
    ) -> int:
        """Store one map task's buckets; returns bytes written.

        Buckets may be plain record lists or packed
        :class:`~repro.columnar.block.ColumnBlock` values; blocks charge
        their exact object-path byte total (so the registry counters and
        cost model cannot tell the representations apart); their honest
        encoded size is ``block.nbytes``.  ``written`` is
        :meth:`bucket_bytes` of the buckets when the caller already holds
        it (the scheduler's map task charged it), so record lists are not
        walked twice.
        """
        if written is None:
            written = self.bucket_bytes(bucketed)
        for reduce_partition, records in bucketed.items():
            self._blocks[(shuffle_id, map_partition, reduce_partition)] = records
        self._bytes_by_shuffle[shuffle_id] = (
            self._bytes_by_shuffle.get(shuffle_id, 0) + written
        )
        REGISTRY.inc("shuffle.blocks_written", len(bucketed))
        REGISTRY.inc("shuffle.bytes_written", written)
        return written

    @staticmethod
    def bucket_bytes(bucketed: dict[int, list]) -> int:
        """The byte total of one map task's buckets: what the task charges
        as ``SHUFFLE_BYTES`` and what :meth:`write` records."""
        total = 0
        for records in bucketed.values():
            total += records_bytes(records)
        return total

    def read_blocks(
        self, shuffle_id: int, num_map_partitions: int, reduce_partition: int
    ) -> Iterable:
        """Yield every non-empty block destined for ``reduce_partition``,
        whole and in map-partition order."""
        REGISTRY.inc("shuffle.reduce_fetches")
        for map_partition in range(num_map_partitions):
            block = self._blocks.get((shuffle_id, map_partition, reduce_partition))
            if block:
                REGISTRY.inc("shuffle.blocks_read")
                yield block

    def read(
        self, shuffle_id: int, num_map_partitions: int, reduce_partition: int
    ) -> Iterable:
        """Yield every record destined for ``reduce_partition``."""
        for block in self.read_blocks(shuffle_id, num_map_partitions, reduce_partition):
            yield from block

    def bytes_for(self, shuffle_id: int) -> int:
        """Total bytes written for a shuffle."""
        return self._bytes_by_shuffle.get(shuffle_id, 0)

    # -- lineage recovery --------------------------------------------------------

    def drop_map_output(self, shuffle_id: int, map_partition: int) -> int:
        """Simulate storage loss of one map task's output; returns blocks dropped.

        Byte accounting is left untouched: the original write happened and
        was legitimately charged; losing the blocks costs nothing on the
        simulated clock until someone recomputes them.
        """
        keys = [
            key
            for key in self._blocks
            if key[0] == shuffle_id and key[1] == map_partition
        ]
        for key in keys:
            del self._blocks[key]
        return len(keys)

    def restore(
        self,
        shuffle_id: int,
        map_partition: int,
        bucketed: dict[int, list],
    ) -> None:
        """Re-insert recomputed buckets *without* charging any counters.

        Lineage recovery restores state, it does not re-bill: the
        fault-free run already paid for this map output once, and the
        byte-identity invariant (counters and profiles equal to the
        fault-free run) requires the recompute to stay off the books.
        """
        for reduce_partition, records in bucketed.items():
            self._blocks[(shuffle_id, map_partition, reduce_partition)] = records

    def clear(self) -> None:
        """Drop all blocks (between benchmark runs)."""
        self._blocks.clear()
        self._bytes_by_shuffle.clear()
