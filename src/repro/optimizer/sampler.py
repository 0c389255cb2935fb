"""Deterministic sampling primitives for the optimizer.

Statistics must be *cheap* relative to the join they inform (Quoc et
al.'s approximate-join argument, PAPERS.md) and *deterministic* so the
simulated benchmarks stay reproducible run to run.  Two samplers cover
the optimizer's needs:

* :func:`reservoir_sample` — Vitter's algorithm R over any iterable, one
  pass, O(k) memory; used when nothing is known about the input.
* :func:`stratified_sample` — proportional allocation over a coarse grid
  of the data extent with a guaranteed minimum per non-empty stratum.
  Uniform reservoirs under-represent sparse regions of heavily clustered
  data (NYC taxi pickups, GBIF survey hotspots), which is exactly where
  tile boundaries go wrong; stratification keeps the tails visible.

A table is a :class:`~repro.columnar.column.GeometryColumn` (an entry
sequence is packed once, at the door): extent and strata are read from
the column's bounds arrays and only the sampled rows are materialised.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Sequence

import numpy as np

from repro.columnar.block import positions_by_value
from repro.columnar.column import GeometryColumn
from repro.errors import OptimizerError
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope

__all__ = ["reservoir_sample", "stratified_sample", "populated_column", "extent_of"]


def populated_column(
    entries: Iterable[tuple[Any, Geometry]] | GeometryColumn,
) -> GeometryColumn:
    """The optimizer's door: a table is a column (an entry sequence is
    packed once), read without its empty rows."""
    if not isinstance(entries, GeometryColumn):
        entries = GeometryColumn.from_entries(entries)
    return entries.non_empty()


def extent_of(column: GeometryColumn) -> Envelope:
    """Union of the rows' boxes (none of them empty), off the bounds arrays.

    ``argmin`` / ``argmax`` pick the first of equal extremes, like the
    ``Envelope.union`` chain over the rows — the bits of a ``-0.0``
    against ``0.0`` tie included.
    """
    if not len(column):
        return Envelope.empty()
    min_x, min_y, max_x, max_y = column.bounds()
    return Envelope(
        float(min_x[min_x.argmin()]),
        float(min_y[min_y.argmin()]),
        float(max_x[max_x.argmax()]),
        float(max_y[max_y.argmax()]),
    )


def reservoir_sample(items: Iterable[Any], k: int, seed: int = 17) -> list[Any]:
    """Uniform sample of ``k`` items in one pass (algorithm R).

    Returns all items when the input has fewer than ``k``; order of the
    returned sample is the reservoir's, not the stream's.
    """
    if k < 1:
        raise OptimizerError(f"sample size must be >= 1, got {k}")
    rng = random.Random(seed)
    reservoir: list[Any] = []
    for i, item in enumerate(items):
        if i < k:
            reservoir.append(item)
        else:
            j = rng.randint(0, i)
            if j < k:
                reservoir[j] = item
    return reservoir


def stratified_sample(
    entries: Sequence[tuple[Any, Geometry]] | GeometryColumn,
    k: int,
    seed: int = 17,
    grid: int = 8,
) -> list[tuple[Any, Geometry]]:
    """Spatially stratified sample of (payload, geometry) entries.

    The data extent is cut into a ``grid x grid`` lattice of strata by
    envelope center; each non-empty stratum contributes proportionally to
    its population but never fewer than one entry, so sparse regions
    survive into the sample.  Degenerates to :func:`reservoir_sample`
    when the extent is a single point or ``k`` exceeds the population.
    Extent and strata are array arithmetic over ``column.bounds()``, the
    random draws are over row positions, stratum by stratum in sorted
    order, and only the drawn rows are materialised.
    """
    if k < 1:
        raise OptimizerError(f"sample size must be >= 1, got {k}")
    column = populated_column(entries)
    total = len(column)
    if total <= k:
        return list(column.entries())
    extent = extent_of(column)
    if extent.width <= 0 and extent.height <= 0:
        rows = reservoir_sample(range(total), k, seed=seed)
    else:
        min_x, min_y, max_x, max_y = column.bounds()

        def lattice(low, high, origin, span) -> np.ndarray:
            cell = ((low + high) / 2.0 - origin) / max(span, 1e-300) * grid
            return np.clip(cell.astype(np.int64), 0, grid - 1)

        stratum = lattice(min_x, max_x, extent.min_x, extent.width) * grid + lattice(
            min_y, max_y, extent.min_y, extent.height
        )
        rng = random.Random(seed)
        rows = []
        for members in positions_by_value(stratum):
            quota = max(1, round(k * len(members) / total))
            if quota >= len(members):
                rows.extend(members.tolist())
            else:
                rows.extend(rng.sample(members.tolist(), quota))
        # Proportional rounding can overshoot; trim uniformly for determinism.
        if len(rows) > k:
            rows = reservoir_sample(rows, k, seed=seed + 1)
    return [column.entry(row) for row in rows]
