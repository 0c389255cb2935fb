"""Columnar geometry data plane.

A :class:`GeometryColumn` stores a batch of geometries as flat numpy
buffers (GeoArrow-style nested offsets) plus a parallel payload column.
Partition slices are O(1) index arrays into the shared buffers; the
versioned binary encoding (``to_bytes``/``from_bytes``) is what ships
across simulated shuffles and process pools.

It is the only row container between parse and pairs.  The column holds
every row a join can evaluate — the six Simple-Features types, empties
included; a row it cannot (a ``GeometryCollection``, a ``None``) is
turned away where it enters: the engines' file loaders charge, drop and
count it like a malformed WKT row, the API and the constructors here
raise a ``GeometryError`` naming it (DESIGN.md section 13 lists the doors).
Results (pairs, order, counters, simulated seconds, profiles, events) are
pinned in tier-1 to what the deleted object data plane produced.
"""

from .block import ColumnBlock, ColumnRecords, EntryChunks, RoutedRows
from .column import GeometryColumn
from .io import column_from_wkt, parse_wkt_column

__all__ = [
    "ColumnBlock",
    "ColumnRecords",
    "EntryChunks",
    "GeometryColumn",
    "RoutedRows",
    "column_from_wkt",
    "parse_wkt_column",
]
