"""Row batches: the unit of data flow between Impala exec nodes.

Section IV of the paper stresses "the fundamental role of the row batch
structure in determining data flows between parent and child AST nodes";
ISP-MC builds its R-tree from the right side's row batches and probes it
batch-by-batch, with OpenMP statically splitting each batch across cores.

Two batch shapes flow between nodes and answer the same questions —
``len``, ``rows``, iteration, ``column`` / ``columns``, ``take`` and
``chunks`` — so a consumer cannot tell them apart:

* :class:`RowBatch` — a list of row tuples, what scans and the cross join
  produce;
* :class:`PairBatch` — a spatial join's output as columns: one object
  array per slot, the probe batch's columns gathered at the matching
  probe rows and the build rows' columns at the matching build rows.  Its
  row tuples are built only if a consumer asks for them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ImpalaError

__all__ = [
    "RowBatch",
    "PairBatch",
    "BATCH_SIZE",
    "batches_of",
    "object_column",
    "object_columns",
]

BATCH_SIZE = 1024  # Impala's default row-batch capacity


def object_column(values: Sequence) -> np.ndarray:
    """``values`` as a 1-D object array holding the very same objects."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def object_columns(rows: Sequence[tuple], width: int) -> list[np.ndarray]:
    """The slots of ``width``-slot row tuples, one object array each."""
    if not rows:
        return [np.empty(0, dtype=object) for _ in range(width)]
    return [object_column(values) for values in zip(*rows)]


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

    @property
    def is_full(self) -> bool:
        """True once the batch reaches its capacity."""
        return len(self.rows) >= self.capacity

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


class PairBatch:
    """A join's output rows held as columns: one object array per slot.

    Answers every :class:`RowBatch` question with the rows a
    :class:`RowBatch` of the same tuples would give; :attr:`rows` builds
    those tuples once, the first time a consumer asks.
    """

    __slots__ = ("_columns", "_rows")

    def __init__(self, columns: list[np.ndarray]):
        self._columns = columns
        self._rows: list[tuple] | None = None

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    @property
    def rows(self) -> list[tuple]:
        """The row tuples, built from the columns on first use."""
        if self._rows is None:
            self._rows = list(zip(*(column.tolist() for column in self._columns)))
        return self._rows

    def column(self, slot: int) -> list:
        """One slot's values across the whole batch."""
        return self._columns[slot].tolist()

    def columns(self) -> list[list]:
        """All slots as column lists; empty list for an empty batch."""
        if not len(self):
            return []
        return [column.tolist() for column in self._columns]

    def column_array(self, slot: int) -> np.ndarray:
        """One slot's values as an object array (no copy)."""
        return self._columns[slot]

    def take(self, positions: Iterable[int]) -> "PairBatch":
        """The rows at ``positions``, in that order."""
        positions = np.asarray(positions, dtype=np.int64)
        return PairBatch([column[positions] for column in self._columns])

    def chunks(self, batch_size: int) -> Iterator["PairBatch"]:
        """This batch re-batched into ``batch_size`` slices."""
        if batch_size < 1:
            raise ImpalaError(f"batch_size must be positive, got {batch_size}")
        for start in range(0, len(self), batch_size):
            yield PairBatch([column[start : start + batch_size] for column in self._columns])


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
