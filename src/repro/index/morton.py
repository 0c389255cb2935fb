"""Morton (Z-order) codes over 16-bit normalised coordinates.

The HDFS writers lay datasets out in Morton order (see
``repro.bench.workloads``), and the batch R-tree probe sorts its probe
points the same way: consecutive probes then descend largely the same
subtrees, which keeps the per-node probe subsets dense — the traversal-
locality trick ISP-MC gets for free from its spatially-sorted scan ranges.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["morton_code", "morton_codes"]


def morton_code(x: float, y: float, extent) -> int:
    """Interleave 16-bit normalised coordinates into a Morton (Z) code."""
    nx = int(65535 * (x - extent.min_x) / max(extent.width, 1e-300))
    ny = int(65535 * (y - extent.min_y) / max(extent.height, 1e-300))
    nx = min(max(nx, 0), 65535)
    ny = min(max(ny, 0), 65535)
    return int(_spread_bits(np.uint64(nx)) | (_spread_bits(np.uint64(ny)) << np.uint64(1)))


def _spread_bits(v):
    """Spread the low 16 bits of ``v`` into the even bit positions."""
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def morton_codes(
    xs: np.ndarray,
    ys: np.ndarray,
    min_x: float,
    min_y: float,
    width: float,
    height: float,
) -> np.ndarray:
    """Vectorised Morton codes for coordinate arrays.

    Same normalisation as :func:`morton_code`: coordinates map onto a
    65536x65536 grid over the given extent, clamped at the borders.  Any
    input has a defined code: the clamp happens in float, before the
    integer cast, so -inf / +inf land on the first / last cell and NaN on
    the first; an axis whose extent has no positive finite size (a
    zero-width box, an unbounded one) puts every coordinate in its first
    cell.  Finite coordinates over a proper extent get the codes of
    :func:`morton_code`.
    """
    return _spread_bits(_cells(xs, min_x, width)) | (
        _spread_bits(_cells(ys, min_y, height)) << np.uint64(1)
    )


def _cells(values, low: float, size: float) -> np.ndarray:
    """Grid cells (0..65535) of ``values`` along one axis, as uint64."""
    values = np.asarray(values, dtype=np.float64)
    if not (math.isfinite(low) and 0.0 < size < math.inf):
        return np.zeros(values.shape, dtype=np.uint64)
    # Far outside the extent the scaled value overflows to +-inf, which
    # the clamp below maps to the border cell it stands for.
    with np.errstate(over="ignore"):
        scaled = 65535 * (values - low) / max(size, 1e-300)
    # fmax / fmin drop a NaN operand, so NaN clamps to cell 0.
    return np.fmin(np.fmax(scaled, 0.0), 65535.0).astype(np.uint64)
