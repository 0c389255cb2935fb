"""Columnar shuffle blocks.

A :class:`ColumnBlock` replaces a shuffle bucket's Python list of routed
``(key, (id, geometry))`` records with one packed column.  Iteration
yields value-identical records (original key/id/geometry objects while
in-process), so the reduce side is oblivious; pickling the block for a
spawn-style pool ships the compact binary encoding instead of an object
graph.

``charge_bytes`` is the exact total the per-record ``estimate_bytes``
walk would have produced — the simulated ``SHUFFLE_BYTES`` charges stay
byte-identical to the object path; the honest encoded size is
``nbytes``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.columnar.column import GeometryColumn
from repro.geometry.base import Geometry

__all__ = ["ColumnBlock"]


class ColumnBlock:
    __slots__ = ("_column", "charge_bytes")

    def __init__(self, column: GeometryColumn, charge_bytes: float):
        self._column = column
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
                or not isinstance(record[1][1], Geometry)
            ):
                return None
        column = GeometryColumn.from_entries(
            ((key, rid), geometry) for key, (rid, geometry) in records
        )
        if column is None:
            return None
        from repro.spark.shuffle import records_bytes

        return cls(column, records_bytes(records))

    @property
    def column(self) -> GeometryColumn:
        return self._column

    @property
    def nbytes(self) -> int:
        return self._column.nbytes

    def __len__(self) -> int:
        return len(self._column)

    def __iter__(self) -> Iterator[tuple[object, tuple[object, Geometry]]]:
        column = self._column
        for i in range(len(column)):
            key, rid = column.payload(i)
            yield (key, (rid, column.geometry(i)))

    def __reduce__(self):
        return (ColumnBlock, (self._column, self.charge_bytes))

    def __repr__(self) -> str:
        return f"ColumnBlock({len(self._column)} records)"
