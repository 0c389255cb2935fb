"""Pair-major point refinement: one vector pass over candidate-pair arrays.

The kernels here answer a whole array of ``(point, build entry)``
candidate pairs at once, against the build side's part tables
concatenated into flat arrays (:func:`pack_polygon_parts`,
:func:`pack_line_parts`) — one numpy pass per task, where refining one
build geometry per call would cost a join with many small tasks thousands
of dispatches on a dozen points each.  They are the only point refinement
a join runs: a pair against a build handle with no part tables takes the
scalar ``repro.core.probe.refine_pair``.  An engine's per-handle
``*_batch_counted`` call is one of these calls over its handle packed
alone.

The tables are the handles' *own* — a prepared polygon's strip tables, a
prepared polyline's segment arrays, the slow engine's churn tables — and
every float expression is the engine's scalar predicate's, evaluated
elementwise in the same IEEE order over a ragged ``(pair,
edge-or-segment)`` grid, so each answer and each charge is bit-for-bit
that of one scalar call per pair (the reference these are tested
against).  The grid is walked in blocks of ``pairwise._BLOCK_CELLS``
cells; a block may end in the middle of a pair.

A Multi* build entry keeps ``any()``'s early exit: :func:`first_hit_rounds`
runs one round per part ordinal over the pairs still active, so a pair is
neither tested nor charged past its first hit.  The engines wrap these
functions (``contains_pairs_counted`` / ``within_distance_pairs_counted``)
and advance their own counters from the returned charges.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.geometry.algorithms import pairwise
from repro.geometry.prepared import _envelope_within_distance

__all__ = [
    "LineParts",
    "PolygonParts",
    "first_hit_rounds",
    "first_segment_within",
    "min_distance_within",
    "pack_line_parts",
    "pack_polygon_parts",
    "points_in_parts",
]


class _Boxes(NamedTuple):
    """Envelope columns, shaped like an ``Envelope`` for the shared prune."""

    min_x: np.ndarray
    min_y: np.ndarray
    max_x: np.ndarray
    max_y: np.ndarray


class PolygonParts(NamedTuple):
    """The polygon parts of a build side, edge tables concatenated.

    Entry ``k``'s parts are rows ``first_part[k]:first_part[k + 1]`` of the
    per-part arrays; part ``p``'s strips are ``num_strips[p]`` consecutive
    strips from ``first_strip[p]``; strip ``s`` holds the ``edges`` rows
    ``strip_start[s]:strip_start[s + 1]``, each ``(x1, y1, x2, y2, bx0,
    by0, bx1, by1, ceps)`` as ``prepared.strip_cut`` takes and cuts it.
    """

    first_part: np.ndarray  # (entries + 1,)
    tabled: np.ndarray  # (entries,) bool: the entry's handle has tables here
    multi: np.ndarray  # (entries,) bool: the handle is a collection of parts
    box: np.ndarray  # (parts, 4): the envelope gating the part's edge walk
    charge: np.ndarray  # (parts,): units a pair is charged for reaching it
    edges: np.ndarray  # (edges, 9)
    strip_start: np.ndarray  # (strips + 1,)
    first_strip: np.ndarray  # (parts,)
    num_strips: np.ndarray  # (parts,)
    y_min: np.ndarray  # (parts,)
    strip_height: np.ndarray  # (parts,)


class LineParts(NamedTuple):
    """The polyline parts of a build side, segment tables concatenated.

    Part ``p``'s segments are positions ``first_segment[p]:first_segment[p
    + 1]`` of ``x1 / y1 / dx / dy / len_sq`` (start, delta and squared
    length, as the owning handle computed them).
    """

    first_part: np.ndarray
    tabled: np.ndarray
    multi: np.ndarray
    box: np.ndarray
    charge: np.ndarray
    first_segment: np.ndarray  # (parts + 1,)
    x1: np.ndarray
    y1: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    len_sq: np.ndarray


def _offsets(counts: Sequence[int]) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _stack(arrays: list[np.ndarray], width: int | None = None) -> np.ndarray:
    if arrays:
        return np.ascontiguousarray(np.concatenate(arrays))
    return np.empty(0 if width is None else (0, width), dtype=np.float64)


def _entry_columns(entries: Sequence[tuple[bool, list] | None]):
    """``(first_part, tabled, multi, parts)`` of a packer's input: one
    ``(is a collection, part specs)`` per build entry, ``None`` for an
    entry whose handle has no table."""
    first_part = _offsets([len(entry[1]) if entry else 0 for entry in entries])
    tabled = np.fromiter((entry is not None for entry in entries), bool, len(entries))
    multi = np.fromiter((bool(entry and entry[0]) for entry in entries), bool, len(entries))
    parts = [part for entry in entries if entry for part in entry[1]]
    return first_part, tabled, multi, parts


def pack_polygon_parts(entries: Sequence[tuple[bool, list] | None]) -> PolygonParts:
    """Concatenate per-part ``(strip tables, y_min, strip_height, box,
    charge)`` specs into one :class:`PolygonParts`."""
    first_part, tabled, multi, parts = _entry_columns(entries)
    strips = [strip for part in parts for strip in part[0]]
    num_strips = np.array([len(part[0]) for part in parts], dtype=np.int64)
    return PolygonParts(
        first_part,
        tabled,
        multi,
        np.array([part[3] for part in parts], dtype=np.float64).reshape(-1, 4),
        np.array([part[4] for part in parts], dtype=np.int64),
        _stack(strips, 9),
        _offsets([len(strip) for strip in strips]),
        np.cumsum(num_strips) - num_strips,
        num_strips,
        np.array([part[1] for part in parts], dtype=np.float64),
        np.array([part[2] for part in parts], dtype=np.float64),
    )


def pack_line_parts(entries: Sequence[tuple[bool, list] | None]) -> LineParts:
    """Concatenate per-part ``(x1, y1, dx, dy, len_sq, box, charge)`` specs
    into one :class:`LineParts`."""
    first_part, tabled, multi, parts = _entry_columns(entries)
    return LineParts(
        first_part,
        tabled,
        multi,
        np.array([part[5] for part in parts], dtype=np.float64).reshape(-1, 4),
        np.array([part[6] for part in parts], dtype=np.int64),
        _offsets([len(part[0]) for part in parts]),
        *(_stack([part[column] for part in parts]) for column in range(5)),
    )


def first_hit_rounds(
    part_kernel: Callable[..., tuple[np.ndarray, np.ndarray]],
    tables: PolygonParts | LineParts,
    px: np.ndarray,
    py: np.ndarray,
    entries: np.ndarray,
    *args,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``any(hit(point, part) for part in entry)`` for every pair, with
    any()'s early exit.

    Round ``r`` hands ``part_kernel(tables, px, py, parts, *args)`` — one
    of the three kernels below — the pairs still active and each one's
    ``r``-th part; it answers them and says what each is charged.  A pair
    leaves at its first hit or its last part.  Returns ``(hit, charged,
    parts reached)`` per pair.
    """
    first = tables.first_part[entries]
    count = tables.first_part[entries + 1] - first
    hit = np.zeros(len(entries), dtype=bool)
    charged = np.zeros(len(entries), dtype=np.int64)
    reached = np.zeros(len(entries), dtype=np.int64)
    active = np.flatnonzero(count > 0)
    ordinal = 0
    while len(active):
        part_hit, part_charge = part_kernel(
            tables, px[active], py[active], first[active] + ordinal, *args
        )
        reached[active] += 1
        charged[active] += part_charge
        hit[active[part_hit]] = True
        ordinal += 1
        active = active[~part_hit & (count[active] > ordinal)]
    return hit, charged, reached


def _leaders(item: np.ndarray) -> np.ndarray:
    """Positions where a sorted ``item`` array starts a new value."""
    lead = np.ones(len(item), dtype=bool)
    lead[1:] = item[1:] != item[:-1]
    return np.flatnonzero(lead)


def points_in_parts(
    tables: PolygonParts, px: np.ndarray, py: np.ndarray, parts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whether point ``k`` lies in polygon part ``parts[k]`` — the
    envelope gate, strip choice, and boundary and crossing-parity tests of
    ``PreparedPolygon.contains_point`` (or of the churn loop, over its
    strip-cut churn table), one cell per (pair, strip edge) — and the part's
    charge, which reaching it costs whatever the answer."""
    box = tables.box[parts]
    hit = np.zeros(len(parts), dtype=bool)
    charged = tables.charge[parts]
    near = np.flatnonzero(
        (box[:, 0] <= px) & (px <= box[:, 2]) & (box[:, 1] <= py) & (py <= box[:, 3])
    )
    if not len(near):
        return hit, charged
    part = parts[near]
    x = px[near]
    y = py[near]
    # Truncation equals floor: the gate guarantees y >= y_min.
    strip = ((y - tables.y_min[part]) / tables.strip_height[part]).astype(np.int64)
    strip = tables.first_strip[part] + np.clip(strip, 0, tables.num_strips[part] - 1)
    start = tables.strip_start[strip]
    boundary = np.zeros(len(near), dtype=bool)
    crossings = np.zeros(len(near), dtype=np.int64)
    for item, cell in pairwise._cell_blocks(tables.strip_start[strip + 1] - start):
        x1, y1, x2, y2, bx0, by0, bx1, by1, ceps = tables.edges[start[item] + cell].T
        X = x[item]
        Y = y[item]
        cross = (x2 - x1) * (Y - y1) - (y2 - y1) * (X - x1)
        on_edge = (
            (by0 <= Y)
            & (Y <= by1)
            & (bx0 <= X)
            & (X <= bx1)
            & (-ceps <= cross)
            & (cross <= ceps)
        )
        boundary[item[on_edge]] = True
        s = np.flatnonzero((y1 > Y) != (y2 > Y))
        x_cross = x1[s] + (Y[s] - y1[s]) * (x2[s] - x1[s]) / (y2[s] - y1[s])
        low = int(item[0])
        crossings[low : int(item[-1]) + 1] += np.bincount(
            item[s[X[s] < x_cross]] - low, minlength=int(item[-1]) - low + 1
        )
    hit[near] = boundary | (crossings % 2 == 1)
    return hit, charged


def _near_segments(tables: LineParts, px, py, parts, d: float):
    """The envelope prune shared by both polyline kernels: the mask of
    pairs it lets through, their positions, and each one's segment range
    and coordinates."""
    near = _envelope_within_distance(_Boxes(*tables.box[parts].T), px, py, d)
    at = np.flatnonzero(near)
    start = tables.first_segment[parts[at]]
    return near, at, start, tables.first_segment[parts[at] + 1] - start, px[at], py[at]


def first_segment_within(
    tables: LineParts, px: np.ndarray, py: np.ndarray, parts: np.ndarray, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """``PreparedLineString.within_distance_counted`` for point ``k``
    against polyline part ``parts[k]``: ``(within, segments examined)`` —
    one for an envelope-pruned pair, the 1-based index of the first
    segment within ``d``, the segment count on a miss."""
    hit = np.zeros(len(parts), dtype=bool)
    examined = np.ones(len(parts), dtype=np.int64)
    _, at, start, count, x, y = _near_segments(tables, px, py, parts, d)
    d_sq = d * d
    first = count.copy()  # ordinal of the first segment within d; count = none
    for item, cell in pairwise._cell_blocks(count):
        segment = start[item] + cell
        dx = tables.dx[segment]
        dy = tables.dy[segment]
        len_sq = tables.len_sq[segment]
        rel_x = x[item] - tables.x1[segment]
        rel_y = y[item] - tables.y1[segment]
        dot = rel_x * dx + rel_y * dy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(len_sq > 0.0, dot / len_sq, 0.0)
        t = np.clip(t, 0.0, 1.0)
        off_x = rel_x - t * dx
        off_y = rel_y - t * dy
        within = np.flatnonzero(off_x * off_x + off_y * off_y <= d_sq)
        # Cells ascend within a pair, so a pair's first cell here is its
        # lowest; an earlier block's answer stands.
        within = within[_leaders(item[within])]
        first[item[within]] = np.minimum(first[item[within]], cell[within])
    found = first < count
    hit[at] = found
    examined[at] = np.where(found, first + 1, count)
    return hit, examined


def min_distance_within(
    tables: LineParts, px: np.ndarray, py: np.ndarray, parts: np.ndarray, d: float
) -> tuple[np.ndarray, np.ndarray]:
    """The slow engine's ``point_within_distance`` for point ``k`` against
    polyline part ``parts[k]``: ``(full minimum distance <= d, coordinates
    cloned)`` — a part's charge, or nothing when the envelope prune stops
    the pair.  np.hypot and math.hypot may differ in the last ulp, so a
    minimum within rounding reach of ``d`` is re-decided with math.hypot,
    the churn loop's own."""
    hit = np.zeros(len(parts), dtype=bool)
    near, at, start, count, x, y = _near_segments(tables, px, py, parts, d)
    best = np.full(len(at), np.inf)
    for item, cell in pairwise._cell_blocks(count):
        off_x, off_y = _segment_offsets(tables, start[item] + cell, x[item], y[item])
        lead = _leaders(item)
        held = item[lead]
        # fmin skips NaN candidates, as the loop's ``candidate < best`` does.
        best[held] = np.fmin(best[held], np.fmin.reduceat(np.hypot(off_x, off_y), lead))
    within = best <= d
    for i in np.flatnonzero(np.abs(best - d) <= 1e-9 * max(abs(d), 1.0)).tolist():
        off_x, off_y = _segment_offsets(
            tables, np.arange(start[i], start[i] + count[i]), x[i], y[i]
        )
        exact = math.inf
        for a, b in zip(off_x.tolist(), off_y.tolist()):
            candidate = math.hypot(a, b)
            if candidate < exact:
                exact = candidate
        within[i] = exact <= d
    hit[at] = within
    return hit, near * tables.charge[parts]


def _segment_offsets(tables: LineParts, segment: np.ndarray, x, y):
    """The churn loop's offset from a point to its closest position on
    each segment (a zero-length segment measures to its start point)."""
    x1 = tables.x1[segment]
    y1 = tables.y1[segment]
    dx = tables.dx[segment]
    dy = tables.dy[segment]
    len_sq = tables.len_sq[segment]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((x - x1) * dx + (y - y1) * dy) / len_sq
    t = np.where(len_sq == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    return x - (x1 + t * dx), y - (y1 + t * dy)
