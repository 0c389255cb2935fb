"""Axis-aligned envelopes (Minimum Bounding Boxes).

The envelope is the workhorse of the *spatial filtering* phase described in
Section II of the paper: candidate pairs are produced by intersecting MBBs
(with or without an index) before the expensive *spatial refinement* phase
evaluates exact predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import GeometryError

__all__ = ["Envelope", "bounds_rows"]


@dataclass(frozen=True, slots=True)
class Envelope:
    """An immutable axis-aligned bounding box ``[min_x, max_x] x [min_y, max_y]``.

    An envelope may be *empty* (contains no points); the canonical empty
    envelope is obtained from :meth:`Envelope.empty`.  All predicate methods
    treat an empty envelope as intersecting/containing nothing.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        coords = (self.min_x, self.min_y, self.max_x, self.max_y)
        if any(math.isnan(value) for value in coords):
            raise GeometryError(f"envelope coordinates may not be NaN: {coords}")

    @staticmethod
    def empty() -> "Envelope":
        """Return the canonical empty envelope (min > max in both axes)."""
        return Envelope(math.inf, math.inf, -math.inf, -math.inf)

    @staticmethod
    def of_point(x: float, y: float) -> "Envelope":
        """Return the degenerate envelope covering a single point."""
        return Envelope(x, y, x, y)

    @staticmethod
    def of_points(xs, ys) -> "Envelope":
        """Return the tight envelope of parallel coordinate sequences.

        ``xs``/``ys`` may be any non-empty sequences (lists, numpy arrays).
        """
        if len(xs) == 0:
            return Envelope.empty()
        return Envelope(min(xs), min(ys), max(xs), max(ys))

    @property
    def is_empty(self) -> bool:
        """True when the envelope contains no points."""
        return self.min_x > self.max_x or self.min_y > self.max_y

    @property
    def width(self) -> float:
        """Extent along the x axis (0.0 for an empty envelope)."""
        return 0.0 if self.is_empty else self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along the y axis (0.0 for an empty envelope)."""
        return 0.0 if self.is_empty else self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Area of the envelope (0.0 for empty or degenerate envelopes)."""
        return self.width * self.height

    @property
    def perimeter(self) -> float:
        """Perimeter (the R*-tree "margin" criterion); 0.0 when empty."""
        return 0.0 if self.is_empty else 2.0 * (self.width + self.height)

    @property
    def center(self) -> tuple[float, float]:
        """Midpoint of the envelope; raises on an empty envelope."""
        if self.is_empty:
            raise GeometryError("empty envelope has no center")
        return (self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0

    def intersects(self, other: "Envelope") -> bool:
        """True when the two envelopes share at least one point.

        Boundary contact counts as intersection, matching the JTS/GEOS
        convention used by the paper's filtering phase (a false negative
        here would lose join results; a false positive only costs a
        refinement test).
        """
        if self.is_empty or other.is_empty:
            return False
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    def contains(self, other: "Envelope") -> bool:
        """True when ``other`` lies entirely inside this envelope."""
        if self.is_empty or other.is_empty:
            return False
        return (
            self.min_x <= other.min_x
            and other.max_x <= self.max_x
            and self.min_y <= other.min_y
            and other.max_y <= self.max_y
        )

    def contains_point(self, x: float, y: float) -> bool:
        """True when the point lies inside or on the envelope boundary."""
        if self.is_empty:
            return False
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def expand_by(self, distance: float) -> "Envelope":
        """Return a copy grown by ``distance`` on every side.

        This mirrors ``Envelope.expandBy`` in Fig 2 of the paper, which is
        how the NearestD predicate is pushed into the R-tree filter: the
        right-side polyline MBBs are inflated by the search radius so the
        index query returns every polyline possibly within distance D.
        A negative distance shrinks the envelope and may make it empty.
        """
        if self.is_empty:
            return self
        result = Envelope(
            self.min_x - distance,
            self.min_y - distance,
            self.max_x + distance,
            self.max_y + distance,
        )
        return result if not result.is_empty else Envelope.empty()

    def union(self, other: "Envelope") -> "Envelope":
        """Return the smallest envelope covering both operands."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Envelope(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersection(self, other: "Envelope") -> "Envelope":
        """Return the overlapping region, or the empty envelope."""
        if not self.intersects(other):
            return Envelope.empty()
        return Envelope(
            max(self.min_x, other.min_x),
            max(self.min_y, other.min_y),
            min(self.max_x, other.max_x),
            min(self.max_y, other.max_y),
        )

    def distance(self, other: "Envelope") -> float:
        """Minimum Euclidean distance between the two envelopes.

        Zero when they intersect; infinity when either is empty.  Used as a
        cheap lower bound that lets NearestD refinement skip exact
        point-to-polyline computations.
        """
        if self.is_empty or other.is_empty:
            return math.inf
        if self.intersects(other):
            return 0.0
        dx = max(other.min_x - self.max_x, self.min_x - other.max_x, 0.0)
        dy = max(other.min_y - self.max_y, self.min_y - other.max_y, 0.0)
        return math.hypot(dx, dy)

    def distance_to_point(self, x: float, y: float) -> float:
        """Minimum Euclidean distance from the envelope to a point."""
        if self.is_empty:
            return math.inf
        dx = max(self.min_x - x, x - self.max_x, 0.0)
        dy = max(self.min_y - y, y - self.max_y, 0.0)
        return math.hypot(dx, dy)


def bounds_rows(envelopes: Iterable[Envelope]) -> np.ndarray:
    """The ``(4, n)`` min_x / min_y / max_x / max_y rows of ``envelopes`` —
    what the batched filters compare instead of calling :meth:`Envelope.intersects`."""
    return np.array(
        [(e.min_x, e.min_y, e.max_x, e.max_y) for e in envelopes], dtype=np.float64
    ).reshape(-1, 4).T
