"""Row batches: the unit of data flow between Impala exec nodes.

Section IV of the paper stresses "the fundamental role of the row batch
structure in determining data flows between parent and child AST nodes";
ISP-MC builds its R-tree from the right side's row batches and probes it
batch-by-batch, with OpenMP statically splitting each batch across cores.

Two batch shapes flow between nodes and answer the same questions —
``len``, ``rows``, iteration, ``column`` / ``columns``, ``take`` and
``chunks`` — so a consumer cannot tell them apart:

* :class:`ColumnBatch` — rows held as columns, what scans and the
  spatial join produce.  A scan's columns are typed (an int64 array per
  BIGINT column, a list of strings per STRING column, ...); a spatial
  join's are the probe batch's columns gathered at the matching probe
  rows beside the build rows' columns gathered at the matching build
  rows.  Its row tuples are built only if a consumer asks for them (a
  filter's row predicate, an aggregator, the cross join);
* :class:`RowBatch` — a list of row tuples, what the cross join produces.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ImpalaError

__all__ = [
    "RowBatch",
    "ColumnBatch",
    "BATCH_SIZE",
    "batches_of",
    "object_column",
]

BATCH_SIZE = 1024  # Impala's default row-batch capacity


def object_column(values: Sequence) -> np.ndarray:
    """``values`` as a 1-D object array: the very same objects, or a typed
    array's values as Python scalars."""
    if isinstance(values, np.ndarray):
        return values.astype(object)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


class RowBatch:
    """A bounded list of row tuples flowing between exec nodes."""

    __slots__ = ("rows", "capacity")

    def __init__(self, rows: list[tuple] | None = None, capacity: int = BATCH_SIZE):
        if capacity < 1:
            raise ImpalaError(f"row-batch capacity must be positive, got {capacity}")
        self.rows: list[tuple] = rows if rows is not None else []
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def add(self, row: tuple) -> None:
        """Append one row tuple."""
        self.rows.append(row)

    def column(self, slot: int) -> list:
        """One slot's values across the whole batch (columnar view)."""
        return [row[slot] for row in self.rows]

    def columns(self) -> list[list]:
        """All slots as column lists; empty list for an empty batch."""
        if not self.rows:
            return []
        return [self.column(slot) for slot in range(len(self.rows[0]))]

    def column_array(self, slot: int) -> np.ndarray:
        """One slot's values as an object array."""
        return object_column(self.column(slot))

    def take(self, positions: Iterable[int]) -> "RowBatch":
        """The rows at ``positions``, in that order."""
        rows = self.rows
        return RowBatch([rows[i] for i in np.asarray(positions).tolist()], self.capacity)

    def chunks(self, batch_size: int) -> Iterator["RowBatch"]:
        """This batch's rows re-batched into ``batch_size`` chunks."""
        return batches_of(self.rows, batch_size)


class ColumnBatch:
    """Rows held as columns: one numpy array or list per slot.

    Answers every :class:`RowBatch` question with the rows a
    :class:`RowBatch` of the same tuples would give — a typed array's
    values read back as Python ``int`` / ``float`` / ``bool`` — and
    :attr:`rows` builds those tuples once, the first time a consumer
    asks.
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: list):
        self._columns = columns
        self._rows: list[tuple] | None = None

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """The rows of ``batches``, in order (the first batch itself when
        there is one)."""
        if len(batches) == 1:
            return batches[0]
        return cls([_concat_columns(columns) for columns in zip(*(b._columns for b in batches))])

    @property
    def rows(self) -> list[tuple]:
        """The row tuples, built from the columns on first use."""
        if self._rows is None:
            self._rows = list(zip(*map(_values, self._columns)))
        return self._rows

    def column(self, slot: int) -> list:
        """One slot's values across the whole batch."""
        return _values(self._columns[slot])

    def columns(self) -> list[list]:
        """All slots as column lists; empty list for an empty batch."""
        if not len(self):
            return []
        return [_values(column) for column in self._columns]

    def column_array(self, slot: int) -> np.ndarray:
        """One slot's values as an object array (no copy if it is one)."""
        column = self._columns[slot]
        if isinstance(column, np.ndarray) and column.dtype == object:
            return column
        return object_column(column)

    def take(self, positions: Iterable[int]) -> "ColumnBatch":
        """The rows at ``positions``, in that order."""
        positions = np.asarray(positions, dtype=np.int64)
        return ColumnBatch([_gather(column, positions) for column in self._columns])

    def beside(self, other: "ColumnBatch") -> "ColumnBatch":
        """These rows with ``other``'s slots appended (as many rows)."""
        return ColumnBatch(self._columns + other._columns)

    def chunks(self, batch_size: int) -> Iterator["ColumnBatch"]:
        """This batch re-batched into ``batch_size`` slices."""
        if batch_size < 1:
            raise ImpalaError(f"batch_size must be positive, got {batch_size}")
        for start in range(0, len(self), batch_size):
            yield self.slice(start, start + batch_size)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        """Rows ``start:stop``."""
        return ColumnBatch([column[start:stop] for column in self._columns])


def _values(column) -> list:
    """A column's values as a list of Python values."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _gather(column, positions: np.ndarray):
    """A column's values at ``positions``, as the same kind of column."""
    if isinstance(column, np.ndarray):
        return column[positions]
    return list(map(column.__getitem__, positions.tolist()))


def _concat_columns(columns: Sequence) -> np.ndarray | list:
    """One slot's pieces end to end: a list when every piece is one, else
    an array (object dtype once the pieces' types differ)."""
    if all(isinstance(column, list) for column in columns):
        return list(chain.from_iterable(columns))
    arrays = [c if isinstance(c, np.ndarray) else object_column(c) for c in columns]
    if len({array.dtype for array in arrays}) > 1:
        arrays = [array.astype(object) for array in arrays]
    return np.concatenate(arrays)


def batches_of(rows: Iterable[tuple], batch_size: int = BATCH_SIZE) -> Iterator[RowBatch]:
    """Re-batch a row stream into :class:`RowBatch` chunks."""
    if batch_size < 1:
        raise ImpalaError(f"batch_size must be positive, got {batch_size}")
    batch = RowBatch(capacity=batch_size)
    for row in rows:
        batch.add(row)
        if len(batch) >= batch_size:
            yield batch
            batch = RowBatch(capacity=batch_size)
    if len(batch):
        yield batch
