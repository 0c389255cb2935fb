"""Columnar shuffle blocks: routed rows move as column slices, not records.

A parsed partition is :class:`ColumnRecords`: its rows of a column.
Three more shapes, one per hop of a keyed geometry shuffle:

* :class:`RoutedRows` — a routed *partition* on the map side: a column
  (a whole map stage's, which routes and buckets in one call,
  :meth:`RoutedRows.route`), the rows of it the router selected for the
  partition and their keys, bucketed by key;
* :class:`ColumnBlock` — one (map, reduce) bucket in the shuffle store: a
  zero-copy slice of that column plus the rows' keys;
* :class:`EntryChunks` — one key's values on the reduce side: the column
  chunks the blocks contributed, concatenated only when asked.

Each still iterates as the ``(key, (id, geometry))`` records (or
``(id, geometry)`` values) it stands for — original objects while
in-process — so generic operators are oblivious; pickling a block (a pool
worker shipping a map task's buckets home) ships the compact binary
encoding of its selected rows instead of an object graph.

``charge_bytes`` is the exact total the per-record ``estimate_bytes``
walk would have produced — the simulated ``SHUFFLE_BYTES`` charges stay
byte-identical to the object path; the honest encoded size is
``nbytes``.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Hashable, Iterator, Sequence

import numpy as np

from repro.columnar.column import GeometryColumn
from repro.geometry.base import Geometry

__all__ = [
    "ColumnBlock",
    "ColumnRecords",
    "EntryChunks",
    "RoutedRows",
    "batch_column",
    "distinct_rows",
    "partition_column",
    "positions_by_value",
]


def positions_by_value(values: np.ndarray) -> list[np.ndarray]:
    """Positions of ``values`` grouped by equal value: groups ascending
    by value, positions ascending within a group (a stable sort, split)."""
    if not len(values):
        return []
    order = np.argsort(values, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(values[order])) + 1)


class ColumnRecords:
    """A parsed partition: ``(record_id, geometry)`` records over rows
    ``start:stop`` of a column — the partition's own, or the one column
    a whole stage batch was parsed into.

    It is its own iterator, so it survives ``MapPartitionsRDD.compute``'s
    ``iter()`` and reaches the next operator as itself: one that wants
    the rows packed reads ``column`` (the partition's rows as a column
    of their own, cut from the batch's the first time it is read) or
    takes some of them (:meth:`take`), any other just iterates, and gets
    one geometry built per record consumed.
    """

    __slots__ = ("_source", "_start", "_stop", "_column", "_records")

    def __init__(self, column: GeometryColumn, start: int = 0, stop: int | None = None):
        stop = len(column) if stop is None else stop
        self._source, self._start, self._stop = column, start, stop
        self._column = column if (start, stop) == (0, len(column)) else None
        self._records = map(column.entry, range(start, stop))

    @property
    def column(self) -> GeometryColumn:
        if self._column is None:
            self._column = self._source.cut(self._start, self._stop)
        return self._column

    def __len__(self) -> int:
        return self._stop - self._start

    def take(self, rows: Sequence[int]) -> "ColumnRecords":
        """The records at positions ``rows`` of this partition, over the
        same buffers."""
        return ColumnRecords(self._source.take(np.asarray(rows, dtype=np.int64) + self._start))

    def __iter__(self) -> "ColumnRecords":
        return self

    def __next__(self) -> tuple[object, Geometry]:
        return next(self._records)


def partition_column(records) -> GeometryColumn:
    """One partition of ``(id, geometry)`` records as a column, ids as
    payloads: a parsed partition's own, anything else packed once."""
    if isinstance(records, ColumnRecords):
        return records.column
    return GeometryColumn.from_entries(records)


def batch_column(batch) -> tuple[GeometryColumn, Sequence[int]]:
    """A stage batch's rows (:class:`~repro.spark.rdd.StageBatch`) as
    one column, and each member's row stops: a parse's column as it came
    out, or the members' own columns (:func:`partition_column`)
    concatenated."""
    rows = batch.rows
    if isinstance(rows, GeometryColumn):
        return rows, batch.stops
    return GeometryColumn.concat(rows), np.cumsum([0] + [len(column) for column in rows]).tolist()


class ColumnBlock:
    """A shuffle bucket: ``column`` holds ``(id, geometry)`` per record,
    ``keys[i]`` is record ``i``'s routing key (a Python object)."""

    __slots__ = ("column", "keys", "charge_bytes")

    def __init__(self, column: GeometryColumn, keys: list, charge_bytes: int):
        self.column = column
        self.keys = keys
        self.charge_bytes = charge_bytes

    @classmethod
    def from_records(cls, records: Sequence[object]) -> "ColumnBlock | None":
        """Convert a bucket of ``(key, (id, geometry))`` records; None if not that shape."""
        if not records:
            return None
        for record in records:
            if (
                type(record) is not tuple
                or len(record) != 2
                or type(record[1]) is not tuple
                or len(record[1]) != 2
                or not GeometryColumn.holds(record[1][1])
            ):
                return None
        from repro.spark.shuffle import records_bytes

        return cls(
            GeometryColumn.from_entries(value for _, value in records),
            [key for key, _ in records],
            records_bytes(records),
        )

    @property
    def nbytes(self) -> int:
        return self.column.nbytes

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[object, tuple[object, Geometry]]]:
        return zip(self.keys, self.column.entries())

    def chunks_by_key(self) -> list[tuple[Hashable, GeometryColumn]]:
        """The block's rows grouped by key: keys in first-arrival order,
        each with its rows (in order) as a slice of the column."""
        keys = self.keys
        if keys.count(keys[0]) == len(keys):
            return [(keys[0], self.column)]
        rows_of: dict[Hashable, list[int]] = {}
        for row, key in enumerate(keys):
            rows_of.setdefault(key, []).append(row)
        return [(key, self.column.take(rows)) for key, rows in rows_of.items()]

    def __reduce__(self):
        # The column pickles as the compact encoding of its selected rows.
        return (ColumnBlock, (self.column, self.keys, self.charge_bytes))

    def __repr__(self) -> str:
        return f"ColumnBlock({len(self)} records)"


class RoutedRows:
    """One routed partition: ``column.entry(rows[k])`` under key ``keys[k]``.

    ``rows`` and ``keys`` are the router's parallel index arrays (a row
    routed to several keys appears once per key); ``column`` may hold
    other partitions' rows too.  ``buckets`` holds the
    routed positions bucketed by key, keys in first-arrival order, each
    with the ``records_bytes`` of its records — given by
    :meth:`route`, which buckets a whole stage's partitions in one pass,
    or computed here by the same pass over this partition alone.  Like a
    freshly parsed partition it is its own iterator, so it survives
    ``MapPartitionsRDD.compute``'s ``iter()``: a generic operator just
    iterates ``(key, (id, geometry))`` records, and a shuffle's map side
    takes :meth:`shuffle_blocks` without building one.
    """

    __slots__ = ("column", "rows", "keys", "buckets", "_records")

    def __init__(
        self,
        column: GeometryColumn,
        rows: np.ndarray,
        keys: np.ndarray,
        buckets: list[tuple[int, np.ndarray, int]] | None = None,
    ):
        self.column = column
        self.rows = rows
        self.keys = keys
        if buckets is None:
            [buckets] = _bucket_by_key(column, rows, keys, [0, len(rows)])
        self.buckets = buckets
        self._records = self._iter_records()

    @classmethod
    def route(
        cls,
        column: GeometryColumn,
        stops: Sequence[int],
        route: Callable[..., tuple[np.ndarray, np.ndarray]],
    ) -> list["RoutedRows"]:
        """Route a stage batch's column, partition ``b`` its rows
        ``stops[b]:stops[b + 1]``, with one ``route(min_x, min_y, max_x,
        max_y)`` call over its bounds — it returns ``(rows, keys)``, rows
        ascending — and bucket every partition's routed rows in one pass.
        Each partition's :class:`RoutedRows` selects its rows of the
        shared column."""
        rows, keys = route(*column.bounds())
        cuts = np.searchsorted(rows, stops).tolist()
        buckets = _bucket_by_key(column, rows, keys, cuts)
        return [
            cls(column, rows[lo:hi], keys[lo:hi], buckets[b])
            for b, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        ]

    def _iter_records(self) -> Iterator[tuple[int, tuple[object, Geometry]]]:
        entry = self.column.entry
        for key, row in zip(self.keys.tolist(), self.rows.tolist()):
            yield (key, entry(row))

    def __iter__(self) -> "RoutedRows":
        return self

    def __next__(self) -> tuple[int, tuple[object, Geometry]]:
        return next(self._records)

    def shuffle_blocks(
        self, partition: Callable[[int], int]
    ) -> dict[int, ColumnBlock]:
        """One :class:`ColumnBlock` per reduce partition ``partition(key)``.

        Maps each bucket's key to its reduce partition.  Buckets come in
        first-arrival order with their records in routed order — what
        bucketing the records one at a time yields — and each block's
        ``charge_bytes`` is ``records_bytes`` of the records it stands
        for; keys that share a reduce partition share its block, their
        records merged back into routed order.
        """
        targets: dict[int, tuple[np.ndarray, int]] = {}
        for key, positions, charge in self.buckets:
            target = partition(key)
            if target in targets:
                merged, total = targets[target]
                positions = np.sort(np.concatenate((merged, positions)))
                charge += total
            targets[target] = (positions, charge)
        column, rows, keys = self.column, self.rows, self.keys
        return {
            target: ColumnBlock(column.take(rows[positions]), keys[positions].tolist(), charge)
            for target, (positions, charge) in targets.items()
        }


def _bucket_by_key(
    column: GeometryColumn, rows: np.ndarray, keys: np.ndarray, cuts: Sequence[int]
) -> list[list[tuple[int, np.ndarray, int]]]:
    """Every partition's routed positions bucketed by key, in one pass.

    Partition ``b`` owns routed positions ``cuts[b]:cuts[b + 1]`` of
    ``rows`` (rows of ``column``) and ``keys``.  One ``lexsort`` by (partition, key) groups
    them, routed order kept within a group; groups come back per
    partition in first-arrival order as ``(key, positions, charge)``,
    positions counted from the partition's first, and ``charge`` the
    ``records_bytes`` of the group's ``(key, (id, geometry))`` records
    from one ``np.add.reduceat`` of per-row sizes.
    """
    from repro.spark.shuffle import estimate_bytes

    buckets: list[list] = [[] for _ in cuts[1:]]
    if not len(rows):
        return buckets
    payloads = column.payloads()
    id_bytes = np.fromiter(
        (8 if type(rid) in (int, float, bool) else estimate_bytes(rid) for rid in payloads),
        dtype=np.int64,
        count=len(payloads),
    )
    num_points = column.num_points_array()
    # estimate_bytes((key, (id, geometry))) with an int key: two tuple
    # headers, the key, the id, and 24 + 16 bytes per vertex.
    record_bytes = (48 + id_bytes + 16 * num_points)[rows]
    owner = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    order = np.lexsort((keys, owner))
    owner, sorted_keys = owner[order], keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], (owner[1:] != owner[:-1]) | (sorted_keys[1:] != sorted_keys[:-1])))
    )
    charges = np.add.reduceat(record_bytes[order], starts).tolist()
    groups = np.split(order, starts[1:])
    # A group's first position is its first arrival; positions grow
    # partition by partition, so this order is partition-major too.
    for g in np.argsort(order[starts], kind="stable").tolist():
        b = int(owner[starts[g]])
        buckets[b].append((int(sorted_keys[starts[g]]), groups[g] - cuts[b], charges[g]))
    return buckets


class EntryChunks(Sequence):
    """One key's ``(id, geometry)`` values, held as the column chunks the
    shuffle blocks contributed (in arrival order).

    A sequence of entries to any consumer; one that wants them packed
    calls :meth:`column`.
    """

    __slots__ = ("chunks",)

    def __init__(self) -> None:
        self.chunks: list[GeometryColumn] = []

    def column(self) -> GeometryColumn:
        """The chunks as one column, ids as payloads."""
        return GeometryColumn.concat(self.chunks)

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    def __iter__(self) -> Iterator[tuple[object, Geometry]]:
        for chunk in self.chunks:
            yield from chunk.entries()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if index >= 0:
            for chunk in self.chunks:
                if index < len(chunk):
                    return chunk.entry(index)
                index -= len(chunk)
        raise IndexError("EntryChunks index out of range")


def distinct_rows(
    chunk_lists: Sequence[Sequence[GeometryColumn]],
) -> tuple[GeometryColumn, list[np.ndarray]]:
    """The distinct rows that several keys' column chunks slice, as one
    column, and each key's rows in it (its chunks' rows, in order).

    A row is its buffer and base row (:meth:`GeometryColumn.packed_rows`),
    never its payload: the same row routed to several keys is one row,
    and two rows that share a payload stay two.
    """
    # Every buffer's rows get one key range, in order of first sight.
    starts: dict[int, int] = {}
    sources, bases, offsets, tile_ends = [], [], [], []
    end = rows = 0
    for chunks in chunk_lists:
        for chunk in chunks:
            data, base = chunk.packed_rows()
            start = starts.get(id(data))
            if start is None:
                start = starts[id(data)] = end
                sources.append((chunk, start))
                end += data.count
            bases.append(base)
            offsets.append(start)
            rows += len(base)
        tile_ends.append(rows)
    keys = np.concatenate(bases) + np.repeat(offsets, [len(base) for base in bases])
    seen = np.zeros(end, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    cuts = np.searchsorted(distinct, [start for _, start in sources] + [end]).tolist()
    column = GeometryColumn.concat(
        [
            chunk.take_packed(distinct[lo:hi] - start)
            for (chunk, start), lo, hi in zip(sources, cuts, cuts[1:])
        ]
    )
    return column, np.split((np.cumsum(seen) - 1)[keys], tile_ends[:-1])
