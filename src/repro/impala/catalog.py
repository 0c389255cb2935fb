"""Metastore: table schemas and HDFS locations.

Plays the role of the Hive metastore the Impala frontend consults when
turning a logical plan into a physical one (Section IV): table -> columns,
delimiter, and the HDFS path whose blocks become scan ranges.  A table
also types its own text: :meth:`Table.parse_row` is the one typing rule,
and :meth:`Table.parse_lines` applies it to a scan range's lines as
columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import PlanError
from repro.hdfs import SimulatedHDFS, split_fields
from repro.impala.rowbatch import object_column

__all__ = ["ColumnType", "Column", "Table", "Metastore", "NULL_TEXT"]

# Impala's text tables spell NULL as ``\N`` in every column type.
NULL_TEXT = "\\N"

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_TRUE = ("true", "1")


class ColumnType(enum.Enum):
    """Impala column types the ISP-MC dialect needs.

    Geometry is stored as STRING (WKT) — the paper's workaround for
    Impala's lack of user-defined types ("we represent geometry as
    strings to bypass this problem", Section IV).
    """

    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    STRING = "STRING"
    BOOLEAN = "BOOLEAN"


@dataclass(frozen=True)
class Column:
    """One column: a name and a type."""

    name: str
    type: ColumnType


@dataclass(frozen=True)
class Table:
    """A registered external text table."""

    name: str
    columns: tuple[Column, ...]
    path: str
    delimiter: str = "\t"

    def column_index(self, name: str) -> int:
        """Position of ``name`` in the row tuple; raises on unknown names."""
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise PlanError(f"table {self.name} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        """True when the table defines a column called ``name``."""
        return any(column.name == name for column in self.columns)

    def parse_row(self, line: str) -> tuple | None:
        """Convert one text line to a typed row tuple; None on bad rows.

        Mirrors Impala's text scanners: rows with the wrong field count or
        unconvertible numerics — a BIGINT outside int64 included — become
        NULL-row skips rather than errors, and a ``\\N`` field reads as
        NULL (``None``) whatever its column's type.
        """
        fields = line.split(self.delimiter)
        if len(fields) != len(self.columns):
            return None
        try:
            return tuple(map(_typed_value, self.columns, fields))
        except ValueError:
            return None

    def parse_lines(self, lines: list[str]) -> tuple[list, int]:
        """Type a scan range's lines as columns: ``(columns, skipped)``.

        The columns hold, in line order, the rows :meth:`parse_row` gives
        the lines — the same values of the same types — and ``skipped``
        counts the lines it turns away.  One vectorised pass takes a range
        of a one-character-delimited table whose every line has the right
        field count and no NULL field: the lines are joined and split
        once, each line's field count is read off the line and field
        lengths, and each column converts at once — BIGINT to an int64
        array, DOUBLE to float64, BOOLEAN to bool, STRING kept as a list.
        A range the pass cannot take — a line of the wrong arity, a NULL,
        a field that does not convert — goes line by line through
        :meth:`parse_row`, and its columns are object arrays.
        """
        texts = self._fields_by_column(lines)
        if texts is not None:
            try:
                columns = [_typed_column(c.type, values) for c, values in zip(self.columns, texts)]
                return columns, 0
            except (ValueError, OverflowError):
                pass
        rows = [row for row in map(self.parse_row, lines) if row is not None]
        if not rows:
            return [_typed_column(column.type, []) for column in self.columns], len(lines)
        return [object_column(values) for values in zip(*rows)], len(lines) - len(rows)

    def _fields_by_column(self, lines: list[str]) -> list[list[str]] | None:
        """The range's fields column by column, when every line has the
        right field count and no field is NULL; else None."""
        texts = split_fields(lines, self.delimiter, len(self.columns))
        if texts is None or any(NULL_TEXT in values for values in texts):
            return None
        return texts


def _typed_value(column: Column, text: str) -> object:
    """One field's value under ``column``'s type; raises ``ValueError``
    when it does not convert."""
    if text == NULL_TEXT:
        return None
    if column.type is ColumnType.BIGINT:
        value = int(text)
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ValueError(f"BIGINT out of range: {text!r}")
        return value
    if column.type is ColumnType.DOUBLE:
        return float(text)
    if column.type is ColumnType.BOOLEAN:
        return text.strip().lower() in _TRUE
    return text


def _typed_column(column_type: ColumnType, texts: list[str]) -> np.ndarray | list[str]:
    """A column of NULL-free fields converted at once, as
    :func:`_typed_value` converts each (numpy's string conversions are
    Python's ``int`` / ``float``); raises ``ValueError`` or
    ``OverflowError`` when some field does not convert."""
    if column_type is ColumnType.BIGINT:
        return np.array(texts, dtype=np.int64)
    if column_type is ColumnType.DOUBLE:
        return np.array(texts, dtype=np.float64)
    if column_type is ColumnType.BOOLEAN:
        return np.fromiter(
            (text.strip().lower() in _TRUE for text in texts), dtype=bool, count=len(texts)
        )
    return texts


class Metastore:
    """Name -> table registry with existence validation against HDFS."""

    def __init__(self, hdfs: SimulatedHDFS):
        self._hdfs = hdfs
        self._tables: dict[str, Table] = {}

    def create_table(
        self,
        name: str,
        columns: list[tuple[str, ColumnType]],
        path: str,
        delimiter: str = "\t",
    ) -> Table:
        """Register an external table over an existing HDFS file."""
        if name in self._tables:
            raise PlanError(f"table {name!r} already exists")
        if not self._hdfs.exists(path):
            raise PlanError(f"no HDFS file at {path!r} for table {name!r}")
        table = Table(
            name, tuple(Column(n, t) for n, t in columns), path, delimiter
        )
        self._tables[name] = table
        return table

    def get(self, name: str) -> Table:
        """Look up a table; raises :class:`PlanError` when missing."""
        try:
            return self._tables[name]
        except KeyError:
            raise PlanError(f"unknown table {name!r}") from None

    def table_bytes(self, name: str) -> int:
        """On-disk size of a table's backing file.

        The cheapest statistic the real metastore serves (``COMPUTE
        STATS`` would refresh it); the planner's broadcast-vs-partitioned
        choice needs nothing finer.
        """
        return self._hdfs.status(self.get(name).path).size

    def drop_table(self, name: str) -> None:
        """Unregister a table (the HDFS file is left in place)."""
        if name not in self._tables:
            raise PlanError(f"unknown table {name!r}")
        del self._tables[name]

    def tables(self) -> list[str]:
        """Sorted names of all registered tables."""
        return sorted(self._tables)
