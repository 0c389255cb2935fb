"""Packed columnar geometry storage.

``GeometryColumn`` stores a batch of ``(payload, geometry)`` entries as a
GeoArrow-style nested layout over flat numpy buffers:

    coords : float64 (ncoords, 2)   every vertex of every geometry
    rings  : int32   (nrings + 1)   ring r covers coords[rings[r]:rings[r+1]]
    parts  : int32   (nparts + 1)   part p covers rings  [parts[p]:parts[p+1]]
    geoms  : int32   (n + 1)        geometry i covers parts[geoms[i]:geoms[i+1]]
    types  : uint8   (n,)           geometry type codes (POINT..MULTIPOLYGON)
    bbox   : float64 (n, 4)         min_x, min_y, max_x, max_y per geometry
                                    (the ``Envelope.empty()`` sentinel — inf,
                                    inf, -inf, -inf — marks empty geometries)

Empty geometries have zero parts; empty *members* of a multi geometry are
parts with zero rings, so part counts round-trip exactly.  A column built
from live objects keeps them in a materialisation memo, so ``geometry(i)``
returns the *original* object (preserving identity-keyed caches); decoded
columns materialise lazily from the buffers.

Slicing (``take``/``slice``) composes an index array over the shared
buffers — no coordinates are copied until ``compact()`` or ``to_bytes()``.
The binary encoding is versioned and nbytes-exact: raw little-endian
buffer dumps, with an all-points compact layout (flag 0x1) that omits the
offset/type/bbox buffers entirely, and varint-framed payload columns.
"""

from __future__ import annotations

import pickle
import struct
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.algorithms import pairwise
from repro.geometry.algorithms.pairwise import RingTables, ring_tables
from repro.geometry.base import Geometry
from repro.geometry.linestring import LineString
from repro.geometry.multi import MultiLineString, MultiPoint, MultiPolygon
from repro.geometry.point import Point
from repro.geometry.polygon import LinearRing, Polygon

__all__ = ["GeometryColumn"]

_POINT = 1
_LINESTRING = 2
_POLYGON = 3
_MULTIPOINT = 4
_MULTILINESTRING = 5
_MULTIPOLYGON = 6

_TYPE_CODE: dict[type, int] = {
    Point: _POINT,
    LineString: _LINESTRING,
    Polygon: _POLYGON,
    MultiPoint: _MULTIPOINT,
    MultiLineString: _MULTILINESTRING,
    MultiPolygon: _MULTIPOLYGON,
}

_INF = float("inf")
_EMPTY_BBOX = (_INF, _INF, -_INF, -_INF)

_MAGIC = b"GCOL"
_VERSION = 1
_FLAG_COMPACT_POINTS = 0x01

_PAYLOAD_NONE = 0
_PAYLOAD_INT64 = 1
_PAYLOAD_STR = 2
_PAYLOAD_OBJECT = 3
_PAYLOAD_INT64_PAIR = 4  # (key, id) shuffle-record payloads

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


class _ColumnData:
    """The shared, immutable buffer set behind one or more column views."""

    __slots__ = (
        "coords",
        "rings",
        "parts",
        "geoms",
        "types",
        "count",
        "_bbox",
        "_coord_starts",
        "_ring_tables",
        "_geom_cache",
        "is_point_only",
    )

    def __init__(self, coords, rings, parts, geoms, types, bbox=None):
        self.coords = coords
        self.rings = rings
        self.parts = parts
        self.geoms = geoms
        self.types = types
        self.count = len(types)
        self._bbox = bbox
        self._coord_starts = None
        self._ring_tables = None
        self._geom_cache: dict[int, Geometry] = {}
        self.is_point_only = bool(
            len(coords) == self.count and (self.count == 0 or bool(np.all(types == _POINT)))
        )

    @property
    def bbox(self) -> np.ndarray:
        if self._bbox is None:
            # Only the all-points compact decode leaves bbox unset; for
            # points the bbox degenerates to (x, y, x, y).
            self._bbox = np.concatenate([self.coords, self.coords], axis=1)
        return self._bbox

    @property
    def coord_starts(self) -> np.ndarray:
        if self._coord_starts is None:
            if self.is_point_only:
                self._coord_starts = np.arange(self.count + 1, dtype=np.int32)
            else:
                self._coord_starts = self.rings[self.parts[self.geoms]]
        return self._coord_starts

    @property
    def ring_tables(self) -> RingTables:
        """Part envelopes and edge offsets for the pair kernel, derived once."""
        if self._ring_tables is None:
            self._ring_tables = ring_tables(self.coords, self.rings, self.parts)
        return self._ring_tables

    def rows(self, sel: np.ndarray | None) -> tuple[np.ndarray, ...]:
        """The buffers of rows ``sel`` (every row for ``None``), offsets
        as counts: ``(coords, coordinates per ring, rings per part, parts
        per geometry, types, bbox)``."""
        if sel is None:
            return (
                self.coords, np.diff(self.rings), np.diff(self.parts),
                np.diff(self.geoms), self.types, self.bbox,
            )
        geom_parts = self.geoms[sel + 1] - self.geoms[sel]
        part_ids = _ranges(self.geoms[sel], geom_parts)
        part_rings = self.parts[part_ids + 1] - self.parts[part_ids]
        ring_ids = _ranges(self.parts[part_ids], part_rings)
        ring_sizes = self.rings[ring_ids + 1] - self.rings[ring_ids]
        coords = self.coords[_ranges(self.rings[ring_ids], ring_sizes)]
        return coords, ring_sizes, part_rings, geom_parts, self.types[sel], self.bbox[sel]

    def geometry(self, j: int) -> Geometry:
        cached = self._geom_cache.get(j)
        if cached is None:
            cached = self._materialize(j)
            self._geom_cache[j] = cached
        return cached

    # -- materialisation ------------------------------------------------

    def _ring(self, r: int) -> LinearRing:
        return LinearRing(self.coords[self.rings[r] : self.rings[r + 1]])

    def _polygon_from_part(self, p: int) -> Polygon:
        r0 = int(self.parts[p])
        r1 = int(self.parts[p + 1])
        if r0 == r1:
            return Polygon.empty()
        return Polygon(self._ring(r0), [self._ring(r) for r in range(r0 + 1, r1)])

    def _point_from_part(self, p: int) -> Point:
        r0 = int(self.parts[p])
        if r0 == int(self.parts[p + 1]):
            return Point.empty()
        c = int(self.rings[r0])
        return Point(float(self.coords[c, 0]), float(self.coords[c, 1]))

    def _linestring_from_part(self, p: int) -> LineString:
        r0 = int(self.parts[p])
        if r0 == int(self.parts[p + 1]):
            return LineString.empty()
        return LineString(self.coords[self.rings[r0] : self.rings[r0 + 1]])

    def _materialize(self, j: int) -> Geometry:
        if self.is_point_only:
            return Point(float(self.coords[j, 0]), float(self.coords[j, 1]))
        code = int(self.types[j])
        p0 = int(self.geoms[j])
        p1 = int(self.geoms[j + 1])
        if code == _POINT:
            return Point.empty() if p0 == p1 else self._point_from_part(p0)
        if code == _LINESTRING:
            return LineString.empty() if p0 == p1 else self._linestring_from_part(p0)
        if code == _POLYGON:
            return Polygon.empty() if p0 == p1 else self._polygon_from_part(p0)
        if code == _MULTIPOINT:
            return MultiPoint(self._point_from_part(p) for p in range(p0, p1))
        if code == _MULTILINESTRING:
            return MultiLineString(self._linestring_from_part(p) for p in range(p0, p1))
        if code == _MULTIPOLYGON:
            return MultiPolygon(self._polygon_from_part(p) for p in range(p0, p1))
        raise GeometryError(f"unknown geometry type code {code}")


class _DataBuilder:
    """Accumulates the nested offset buffers during bulk conversion."""

    __slots__ = ("chunks", "ncoords", "rings", "parts", "geoms")

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []
        self.ncoords = 0
        self.rings = [0]
        self.parts = [0]
        self.geoms = [0]

    def add_ring(self, coords: np.ndarray) -> None:
        if len(coords):
            self.chunks.append(coords)
            self.ncoords += len(coords)
        self.rings.append(self.ncoords)

    def end_part(self) -> None:
        self.parts.append(len(self.rings) - 1)

    def end_geom(self) -> None:
        self.geoms.append(len(self.parts) - 1)

    def add_point_part(self, point: Point) -> None:
        if point.is_empty:
            self.end_part()
            return
        self.add_ring(np.array([[point.x, point.y]], dtype=np.float64))
        self.end_part()

    def add_linestring_part(self, line: LineString) -> None:
        if line.is_empty:
            self.end_part()
            return
        self.add_ring(line.coords)
        self.end_part()

    def add_polygon_part(self, polygon: Polygon) -> None:
        if polygon.is_empty:
            self.end_part()
            return
        for ring in polygon.rings:
            self.add_ring(ring.coords)
        self.end_part()

    def finish(self, types: np.ndarray, bbox: np.ndarray) -> _ColumnData:
        if self.chunks:
            coords = np.ascontiguousarray(np.concatenate(self.chunks, axis=0))
        else:
            coords = np.empty((0, 2), dtype=np.float64)
        return _ColumnData(
            coords,
            np.asarray(self.rings, dtype=np.int32),
            np.asarray(self.parts, dtype=np.int32),
            np.asarray(self.geoms, dtype=np.int32),
            types,
            bbox,
        )


def _point_only_data(coords: np.ndarray) -> _ColumnData:
    n = len(coords)
    unit = np.arange(n + 1, dtype=np.int32)
    types = np.full(n, _POINT, dtype=np.uint8)
    return _ColumnData(coords, unit, unit, unit, types, None)


def _point_line_data(coords: np.ndarray, sizes: Sequence[int]) -> _ColumnData:
    """Buffers for rows of ``sizes[i]`` consecutive coordinates each: a
    one-coordinate row is a point, a longer one a linestring — what
    :func:`_convert` builds from those geometries."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(sizes)
    rings = _offsets(sizes)
    unit = np.arange(n + 1, dtype=np.int32)
    types = np.where(sizes == 1, _POINT, _LINESTRING).astype(np.uint8)
    bbox = np.empty((n, 4), dtype=np.float64)
    if n:
        bbox[:, :2] = np.minimum.reduceat(coords, rings[:-1], axis=0)
        bbox[:, 2:] = np.maximum.reduceat(coords, rings[:-1], axis=0)
    return _ColumnData(np.ascontiguousarray(coords), rings, unit, unit, types, bbox)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``starts[k] .. starts[k] + counts[k]`` of every ``k``, flattened."""
    item, offset = pairwise._ranges(counts)
    return starts[item] + offset


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _gathered(columns: Sequence["GeometryColumn"]) -> "GeometryColumn":
    """One dense column over the rows of ``columns``, in order.

    Array arithmetic only: each view's per-level counts (parts per
    geometry, rings per part, coordinates per ring) are concatenated and
    summed into fresh offsets, and its coordinates arrive in one gather.
    No geometry is built; one a source already materialised is carried
    over, so identity-keyed caches keep working.
    """
    levels = zip(*(column._data.rows(column._sel) for column in columns))
    coords, ring_sizes, part_rings, geom_parts, types, bbox = map(np.concatenate, levels)
    data = _ColumnData(
        np.ascontiguousarray(coords),
        _offsets(ring_sizes),
        _offsets(part_rings),
        _offsets(geom_parts),
        types,
        bbox,
    )
    base = 0
    for column in columns:
        cache = column._data._geom_cache
        if cache:
            rows = range(len(column)) if column._sel is None else column._sel.tolist()
            for i, j in enumerate(rows, base):
                if j in cache:
                    data._geom_cache[i] = cache[j]
        base += len(column)
    return GeometryColumn(data, [p for column in columns for p in column.payloads()])


def _unsupported_row(row: int, value: object) -> GeometryError:
    return GeometryError(
        f"row {row}: a geometry column holds the six Simple-Features types,"
        f" not a {type(value).__name__}"
    )


def _convert(geometries: Sequence[Geometry]) -> _ColumnData:
    n = len(geometries)
    fast = True
    for g in geometries:
        if type(g) is not Point or g.is_empty:
            fast = False
            break
    if fast:
        coords = np.array([(g.x, g.y) for g in geometries], dtype=np.float64).reshape(n, 2)
        return _point_only_data(np.ascontiguousarray(coords))

    builder = _DataBuilder()
    types = np.empty(n, dtype=np.uint8)
    bbox = np.empty((n, 4), dtype=np.float64)
    for i, g in enumerate(geometries):
        code = _TYPE_CODE.get(type(g))
        if code is None:
            raise _unsupported_row(i, g)
        types[i] = code
        env = g.envelope
        bbox[i] = _EMPTY_BBOX if env.is_empty else (env.min_x, env.min_y, env.max_x, env.max_y)
        if code == _POINT:
            if not g.is_empty:
                builder.add_point_part(g)
        elif code == _LINESTRING:
            if not g.is_empty:
                builder.add_linestring_part(g)
        elif code == _POLYGON:
            if not g.is_empty:
                builder.add_polygon_part(g)
        elif code == _MULTIPOINT:
            for part in g.parts:
                builder.add_point_part(part)
        elif code == _MULTILINESTRING:
            for part in g.parts:
                builder.add_linestring_part(part)
        else:
            for part in g.parts:
                builder.add_polygon_part(part)
        builder.end_geom()
    return builder.finish(types, bbox)


def _encode_payloads(payloads: Sequence[object]) -> tuple[int, bytes]:
    kind = _PAYLOAD_NONE
    has_none = False
    for value in payloads:
        if value is None:
            has_none = True
            continue
        tp = type(value)
        if tp is int and _INT64_MIN <= value <= _INT64_MAX:
            candidate = _PAYLOAD_INT64
        elif tp is str:
            candidate = _PAYLOAD_STR
        elif (
            tp is tuple
            and len(value) == 2
            and type(value[0]) is int
            and type(value[1]) is int
            and _INT64_MIN <= value[0] <= _INT64_MAX
            and _INT64_MIN <= value[1] <= _INT64_MAX
        ):
            candidate = _PAYLOAD_INT64_PAIR
        else:
            kind = _PAYLOAD_OBJECT
            break
        if kind == _PAYLOAD_NONE:
            kind = candidate
        elif kind != candidate:
            kind = _PAYLOAD_OBJECT
            break
    if kind == _PAYLOAD_NONE:
        return kind, b""
    if has_none and kind != _PAYLOAD_OBJECT:
        # Mixed None/value columns have no compact lane; pickle is exact.
        kind = _PAYLOAD_OBJECT
    if kind == _PAYLOAD_INT64:
        return kind, np.asarray(payloads, dtype=np.int64).tobytes()
    if kind == _PAYLOAD_INT64_PAIR:
        # Shuffle-record payloads (tile key, row id) are small naturals —
        # zigzag varints beat fixed int64 lanes by ~5x there.
        out = bytearray()
        for a, b in payloads:
            _write_varint(out, (a << 1) ^ (a >> 63))
            _write_varint(out, (b << 1) ^ (b >> 63))
        return kind, bytes(out)
    if kind == _PAYLOAD_STR:
        out = bytearray()
        for value in payloads:
            encoded = value.encode("utf-8")
            _write_varint(out, len(encoded))
            out += encoded
        return kind, bytes(out)
    return kind, pickle.dumps(list(payloads), protocol=pickle.HIGHEST_PROTOCOL)


def _decode_payloads(kind: int, blob: bytes, n: int) -> list[object]:
    if kind == _PAYLOAD_NONE:
        return [None] * n
    if kind == _PAYLOAD_INT64:
        return np.frombuffer(blob, dtype="<i8", count=n).tolist()
    if kind == _PAYLOAD_INT64_PAIR:
        values = []
        pos = 0
        for _ in range(n):
            ua, pos = _read_varint(blob, pos)
            ub, pos = _read_varint(blob, pos)
            values.append(((ua >> 1) ^ -(ua & 1), (ub >> 1) ^ -(ub & 1)))
        return values
    if kind == _PAYLOAD_STR:
        values: list[object] = []
        pos = 0
        for _ in range(n):
            length, pos = _read_varint(blob, pos)
            values.append(blob[pos : pos + length].decode("utf-8"))
            pos += length
        return values
    if kind == _PAYLOAD_OBJECT:
        values = pickle.loads(blob)
        if len(values) != n:
            raise ValueError("payload column length mismatch")
        return values
    raise ValueError(f"unknown payload kind {kind}")


class GeometryColumn:
    """A batch of (payload, geometry) entries over shared packed buffers."""

    __slots__ = ("_data", "_payloads", "_sel")

    def __init__(self, data: _ColumnData, payloads: list[object], sel: np.ndarray | None = None):
        self._data = data
        self._payloads = payloads
        self._sel = sel

    # -- construction ---------------------------------------------------

    @classmethod
    def from_entries(cls, entries: Iterable[tuple[object, Geometry]]) -> "GeometryColumn":
        """Bulk-convert ``(payload, geometry)`` pairs.

        Total over the six Simple-Features types, empties included; any
        other value (a ``GeometryCollection``, ``None``, a non-geometry)
        raises a :class:`~repro.errors.GeometryError` naming its row — a
        door that takes rows from outside tests :meth:`holds` first and
        applies its own bad-row policy.  The originals are seeded into the
        materialisation memo so that ``geometry(i)`` hands back the very
        same objects — identity-keyed caches (prepared geometries) keep
        working.
        """
        entries = list(entries)
        payloads = [p for p, _ in entries]
        geometries = [g for _, g in entries]
        data = _convert(geometries)
        for j, g in enumerate(geometries):
            data._geom_cache[j] = g
        return cls(data, payloads)

    @staticmethod
    def holds(geometry: object) -> bool:
        """Whether the column model has a type code for ``geometry``
        (everything but ``None``, non-geometries and ``GeometryCollection``)."""
        return type(geometry) in _TYPE_CODE

    @classmethod
    def from_geometries(
        cls, geometries: Sequence[Geometry], payloads: Sequence[object] | None = None
    ) -> "GeometryColumn":
        if payloads is None:
            payloads = [None] * len(geometries)
        return cls.from_entries(zip(payloads, geometries))

    @classmethod
    def concat(cls, columns: Sequence["GeometryColumn"]) -> "GeometryColumn":
        """One column holding the rows of ``columns``, in order.

        Buffers are concatenated, no geometry object touched — the
        coordinate buffer alone for point-only columns, every level of
        the nested layout otherwise; a column built from live objects
        hands those same objects on.
        """
        if len(columns) == 1:
            return columns[0]
        if all(column._data.is_point_only for column in columns):
            coords = np.concatenate(
                [
                    column._data.coords
                    if column._sel is None
                    else column._data.coords[column._sel]
                    for column in columns
                ]
            )
            payloads = [p for column in columns for p in column.payloads()]
            return cls(_point_only_data(np.ascontiguousarray(coords)), payloads)
        return _gathered(columns)

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sel) if self._sel is not None else self._data.count

    def payload(self, i: int) -> object:
        j = int(self._sel[i]) if self._sel is not None else i
        return self._payloads[j]

    def geometry(self, i: int) -> Geometry:
        j = int(self._sel[i]) if self._sel is not None else i
        return self._data.geometry(j)

    def entry(self, i: int) -> tuple[object, Geometry]:
        j = int(self._sel[i]) if self._sel is not None else i
        return self._payloads[j], self._data.geometry(j)

    def entries(self) -> Iterator[tuple[object, Geometry]]:
        for i in range(len(self)):
            yield self.entry(i)

    def geometries(self) -> Iterator[Geometry]:
        for i in range(len(self)):
            yield self.geometry(i)

    def payloads(self) -> list[object]:
        if self._sel is None:
            return list(self._payloads)
        return list(map(self._payloads.__getitem__, self._sel.tolist()))

    # -- zero-copy slicing ----------------------------------------------

    def take(self, indices) -> "GeometryColumn":
        """Select rows by position — an index array, no coordinate copies."""
        sel = np.asarray(indices, dtype=np.int64)
        if self._sel is not None:
            sel = self._sel[sel]
        return GeometryColumn(self._data, self._payloads, sel)

    def take_packed(self, rows) -> "GeometryColumn":
        """Select rows by where they live in the shared buffer set — the
        positions :meth:`packed_rows` reports — whatever this view selects."""
        return GeometryColumn(self._data, self._payloads, np.asarray(rows, dtype=np.int64))

    def slice(self, start: int, stop: int) -> "GeometryColumn":
        if self._sel is not None:
            return GeometryColumn(self._data, self._payloads, self._sel[start:stop])
        stop = min(stop, self._data.count)
        return self.take(np.arange(start, max(start, stop), dtype=np.int64))

    def cut(self, start: int, stop: int) -> "GeometryColumn":
        """Rows ``start:stop`` as a standalone column over its own buffer
        set: the buffers, payloads and point-only layout of a column
        built from those rows alone.  Contiguous buffer slices, no
        geometry built; a materialised geometry is carried over."""
        if self._sel is not None:
            return self.compact().cut(start, stop)
        data = self._data
        if data.is_point_only:
            piece = _point_only_data(data.coords[start:stop])
        else:
            part0, part1 = data.geoms[start], data.geoms[stop]
            ring0, ring1 = data.parts[part0], data.parts[part1]
            coord0, coord1 = data.rings[ring0], data.rings[ring1]
            piece = _ColumnData(
                data.coords[coord0:coord1],
                data.rings[ring0 : ring1 + 1] - coord0,
                data.parts[part0 : part1 + 1] - ring0,
                data.geoms[start : stop + 1] - part0,
                data.types[start:stop],
                data.bbox[start:stop],
            )
        cache = data._geom_cache
        if cache:
            for j in range(start, stop):
                if j in cache:
                    piece._geom_cache[j - start] = cache[j]
        return GeometryColumn(piece, self._payloads[start:stop])

    def non_empty(self) -> "GeometryColumn":
        """The rows holding at least one coordinate (``num_points > 0 <=>
        not is_empty``) — this column itself when that is every row."""
        keep = np.flatnonzero(self.num_points_array() > 0)
        return self if len(keep) == len(self) else self.take(keep)

    # -- columnar accessors ---------------------------------------------

    def types_array(self) -> np.ndarray:
        if self._sel is None:
            return self._data.types
        return self._data.types[self._sel]

    def num_points_array(self) -> np.ndarray:
        starts = self._data.coord_starts
        if self._sel is None:
            return np.diff(starts).astype(np.int64)
        sel = self._sel
        return (starts[sel + 1] - starts[sel]).astype(np.int64)

    def bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-geometry ``(min_x, min_y, max_x, max_y)`` arrays."""
        bbox = self._data.bbox
        if self._sel is not None:
            bbox = bbox[self._sel]
        return bbox[:, 0], bbox[:, 1], bbox[:, 2], bbox[:, 3]

    def packed_rows(self, rows: np.ndarray | None = None) -> tuple[_ColumnData, np.ndarray]:
        """The shared buffer set and where in it view rows ``rows`` (every
        row for ``None``) live — what a kernel reading ``coords / rings /
        parts / geoms`` takes."""
        if self._sel is None:
            return self._data, np.arange(len(self)) if rows is None else rows
        return self._data, self._sel if rows is None else self._sel[rows]

    def point_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(positions, xs, ys)`` for the non-empty point rows.

        Coordinates are read straight from the packed buffer — for a pure
        unsliced point column the returned xs/ys are zero-copy views.
        """
        data = self._data
        if data.is_point_only:
            if self._sel is None:
                pos = np.arange(data.count, dtype=np.int64)
                return pos, data.coords[:, 0], data.coords[:, 1]
            pos = np.arange(len(self._sel), dtype=np.int64)
            picked = data.coords[self._sel]
            return pos, picked[:, 0], picked[:, 1]
        types = self.types_array()
        counts = self.num_points_array()
        pos = np.flatnonzero((types == _POINT) & (counts > 0))
        starts = data.coord_starts
        base = starts[self._sel] if self._sel is not None else starts[:-1]
        ci = base[pos]
        return pos, data.coords[ci, 0], data.coords[ci, 1]

    # -- sizing ---------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Exact geometry-buffer bytes of this column's binary encoding.

        Matches ``len(to_bytes())`` minus the payload framing — the honest
        size of what ships for the geometry side of the selected rows,
        for a view too: ``to_bytes()`` encodes the compacted rows.
        """
        n = len(self)
        ncoords = int(self.num_points_array().sum())
        coord_bytes = 16 * ncoords
        if self._data.is_point_only or (
            # A view whose rows are all one-coordinate points (or none)
            # ships the compact layout, whatever its buffer set holds.
            self._sel is not None
            and ncoords == n
            and bool(np.all(self.types_array() == _POINT))
        ):
            return 12 + coord_bytes
        geoms = self._data.geoms
        parts = self._data.parts
        if self._sel is None:
            nparts = int(geoms[-1])
            nrings = int(parts[-1])
        else:
            sel = self._sel
            nparts = int((geoms[sel + 1] - geoms[sel]).sum())
            nrings = int((parts[geoms[sel + 1]] - parts[geoms[sel]]).sum())
        return 24 + 4 * (n + 1) + 4 * (nparts + 1) + 4 * (nrings + 1) + n + 32 * n + coord_bytes

    @property
    def column_nbytes(self) -> int:
        """Sizing hook for cache accounting (`estimate_*` integrations)."""
        return self.nbytes

    # -- compaction and binary encoding ---------------------------------

    def compact(self) -> "GeometryColumn":
        """Materialise the selection into dense buffers (copies coords)."""
        if self._sel is None:
            return self
        if self._data.is_point_only:
            coords = np.ascontiguousarray(self._data.coords[self._sel])
            return GeometryColumn(_point_only_data(coords), self.payloads())
        return _gathered([self])

    def to_bytes(self) -> bytes:
        """Versioned binary encoding: raw nbytes-exact buffer dumps."""
        if self._sel is not None:
            return self.compact().to_bytes()
        data = self._data
        n = data.count
        kind, payload_blob = _encode_payloads(self._payloads)
        out = bytearray()
        compact = data.is_point_only
        flags = _FLAG_COMPACT_POINTS if compact else 0
        out += _MAGIC
        out += struct.pack("<BBBBI", _VERSION, flags, kind, 0, n)
        if not compact:
            ncoords = len(data.coords)
            nrings = len(data.rings) - 1
            nparts = len(data.parts) - 1
            out += struct.pack("<III", ncoords, nrings, nparts)
            out += np.ascontiguousarray(data.geoms, dtype="<i4").tobytes()
            out += np.ascontiguousarray(data.parts, dtype="<i4").tobytes()
            out += np.ascontiguousarray(data.rings, dtype="<i4").tobytes()
            out += data.types.tobytes()
            out += np.ascontiguousarray(data.bbox, dtype="<f8").tobytes()
        out += np.ascontiguousarray(data.coords, dtype="<f8").tobytes()
        out += struct.pack("<I", len(payload_blob))
        out += payload_blob
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GeometryColumn":
        if blob[:4] != _MAGIC:
            raise ValueError("not a GeometryColumn encoding (bad magic)")
        version, flags, kind, _, n = struct.unpack_from("<BBBBI", blob, 4)
        if version != _VERSION:
            raise ValueError(f"unsupported GeometryColumn encoding version {version}")
        pos = 12
        if flags & _FLAG_COMPACT_POINTS:
            coords = np.frombuffer(blob, dtype="<f8", count=2 * n, offset=pos).reshape(n, 2)
            pos += 16 * n
            data = _point_only_data(coords)
        else:
            ncoords, nrings, nparts = struct.unpack_from("<III", blob, pos)
            pos += 12
            geoms = np.frombuffer(blob, dtype="<i4", count=n + 1, offset=pos)
            pos += 4 * (n + 1)
            parts = np.frombuffer(blob, dtype="<i4", count=nparts + 1, offset=pos)
            pos += 4 * (nparts + 1)
            rings = np.frombuffer(blob, dtype="<i4", count=nrings + 1, offset=pos)
            pos += 4 * (nrings + 1)
            types = np.frombuffer(blob, dtype=np.uint8, count=n, offset=pos)
            pos += n
            bbox = np.frombuffer(blob, dtype="<f8", count=4 * n, offset=pos).reshape(n, 4)
            pos += 32 * n
            coords = np.frombuffer(blob, dtype="<f8", count=2 * ncoords, offset=pos)
            coords = coords.reshape(ncoords, 2)
            pos += 16 * ncoords
            data = _ColumnData(coords, rings, parts, geoms, types, bbox)
        (blob_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        payloads = _decode_payloads(kind, blob[pos : pos + blob_len], n)
        return cls(data, payloads)

    def __reduce__(self):
        # Pickling a column (pool workers' results, shuffle blobs)
        # automatically ships the compact binary encoding, decoded once on
        # the receiving side.
        return (GeometryColumn.from_bytes, (self.to_bytes(),))

    # -- cache integration ----------------------------------------------

    def update_hash(self, h, hash_value) -> None:
        """Stream the column's content into a hasher (cache fingerprints).

        ``hash_value`` is the caller's recursive value hasher, used for
        the payload column.
        """
        col = self.compact()
        data = col._data
        h.update(struct.pack("<q", data.count))
        h.update(data.types.tobytes())
        h.update(np.ascontiguousarray(data.geoms, dtype="<i4").tobytes())
        h.update(np.ascontiguousarray(data.parts, dtype="<i4").tobytes())
        h.update(np.ascontiguousarray(data.rings, dtype="<i4").tobytes())
        h.update(np.ascontiguousarray(data.coords, dtype="<f8").tobytes())
        hash_value(h, col._payloads)

    def __repr__(self) -> str:
        kind = "points" if self._data.is_point_only else "mixed"
        sliced = "" if self._sel is None else f", sliced from {self._data.count}"
        return f"GeometryColumn({len(self)} {kind}{sliced})"
