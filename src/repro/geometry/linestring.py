"""LineString geometry — street polylines in the paper's NearestD joins."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.base import Geometry, GeometryType
from repro.geometry.envelope import Envelope

__all__ = ["LineString", "coordinate_array"]


def coordinate_array(coords: Iterable[Sequence[float]]) -> np.ndarray:
    """Normalise an iterable of ``(x, y)`` pairs to a float64 ``(n, 2)`` array.

    Accepts lists of tuples, numpy arrays, or generators.  Raises
    :class:`GeometryError` on ragged input or NaN coordinates so dirty rows
    fail fast at construction (the engines' text scanners rely on this to
    filter bad records the way Fig 2's ``Try(...)`` filter does).
    """
    if isinstance(coords, np.ndarray):
        # Already rows of numbers: one copy, no per-row list (the packed
        # columns materialise their lines and rings through here).
        array = np.array(coords, dtype=np.float64)
    else:
        array = np.asarray(list(coords), dtype=np.float64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) coordinates, got shape {array.shape}")
    if np.isnan(array).any():
        raise GeometryError("coordinates may not contain NaN")
    return array


class LineString(Geometry):
    """An immutable polyline of two or more vertices.

    Coordinates are stored as a contiguous float64 numpy array, which is the
    "binary, cache-friendly" layout the paper's Section III describes as
    future work for SpatialSpark; the slow refinement engine deliberately
    bypasses this layout (see :mod:`repro.geometry.engine`).
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Sequence[float]]):
        super().__init__()
        array = coordinate_array(coords)
        if len(array) == 1:
            raise GeometryError("a linestring needs 0 or >= 2 vertices, got 1")
        self.coords = array
        self.coords.setflags(write=False)

    @staticmethod
    def empty() -> "LineString":
        return LineString([])

    @property
    def geometry_type(self) -> GeometryType:
        return GeometryType.LINESTRING

    @property
    def is_empty(self) -> bool:
        return len(self.coords) == 0

    @property
    def num_points(self) -> int:
        return len(self.coords)

    @property
    def is_closed(self) -> bool:
        """True when first and last vertices coincide (and non-empty)."""
        if self.is_empty:
            return False
        return bool(np.array_equal(self.coords[0], self.coords[-1]))

    def length(self) -> float:
        """Total Euclidean length of the polyline."""
        if len(self.coords) < 2:
            return 0.0
        deltas = np.diff(self.coords, axis=0)
        return float(np.hypot(deltas[:, 0], deltas[:, 1]).sum())

    def segments(self) -> np.ndarray:
        """Return segments as an ``(n-1, 4)`` array of ``x1, y1, x2, y2``."""
        if len(self.coords) < 2:
            return np.empty((0, 4), dtype=np.float64)
        return np.hstack([self.coords[:-1], self.coords[1:]])

    def _compute_envelope(self) -> Envelope:
        if self.is_empty:
            return Envelope.empty()
        return Envelope(
            float(self.coords[:, 0].min()),
            float(self.coords[:, 1].min()),
            float(self.coords[:, 0].max()),
            float(self.coords[:, 1].max()),
        )

    def _coordinates_equal(self, other: Geometry) -> bool:
        assert isinstance(other, LineString)
        return self.coords.shape == other.coords.shape and bool(
            np.array_equal(self.coords, other.coords)
        )

    def interpolate(self, fraction: float) -> tuple[float, float]:
        """Return the point at ``fraction`` (0..1) of the polyline's length."""
        if self.is_empty:
            raise GeometryError("cannot interpolate on an empty linestring")
        if not 0.0 <= fraction <= 1.0:
            raise GeometryError(f"fraction must be in [0, 1], got {fraction}")
        if len(self.coords) == 1 or fraction == 0.0:
            return (float(self.coords[0, 0]), float(self.coords[0, 1]))
        target = self.length() * fraction
        walked = 0.0
        for (x1, y1), (x2, y2) in zip(self.coords[:-1], self.coords[1:]):
            seg = math.hypot(x2 - x1, y2 - y1)
            if walked + seg >= target and seg > 0.0:
                t = (target - walked) / seg
                return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))
            walked += seg
        return (float(self.coords[-1, 0]), float(self.coords[-1, 1]))
