"""Columnar geometry data plane.

A :class:`GeometryColumn` stores a batch of geometries as flat numpy
buffers (GeoArrow-style nested offsets) plus a parallel payload column.
Partition slices are O(1) index arrays into the shared buffers; the
versioned binary encoding (``to_bytes``/``from_bytes``) is what ships
across simulated shuffles and process pools.

Every join runs on this plane whenever its input converts; inputs the
column cannot hold (``GeometryCollection``, ``None`` geometries) take the
object constructors instead, chosen from the input, never by an option.
Results (pairs, order, counters, simulated seconds, profiles, events) are
pinned in tier-1 to what the object data plane produced.
"""

from .block import ColumnBlock, EntryChunks, RoutedRows
from .column import GeometryColumn
from .io import column_from_wkt, parse_wkt_column

__all__ = [
    "ColumnBlock",
    "EntryChunks",
    "GeometryColumn",
    "RoutedRows",
    "column_from_wkt",
    "parse_wkt_column",
]
