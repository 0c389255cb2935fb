"""The one way a join reaches the cross-query cache.

Each artifact kind is one row of :data:`KINDS`: its key format (the
fingerprinter and the order of its context values), its size and its
build cost.  A call site asks :func:`slot_for` where its artifact lives
and hands :func:`fetch` the function that builds it.  With caching off,
``slot_for`` returns ``None`` before any fingerprint is taken and
``fetch(None, build)`` is ``build()``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.cache.fingerprint import Fingerprint, fingerprint_entries, fingerprint_rows
from repro.cache.manager import CacheManager, estimate_index_bytes
from repro.columnar.column import GeometryColumn

__all__ = ["KINDS", "Slot", "fetch", "resident", "slot_for"]


def _entries(data):
    return data.entries() if isinstance(data, GeometryColumn) else data


def _estimate_bytes(value) -> int:
    from repro.spark.shuffle import estimate_bytes

    return estimate_bytes(value)


def _index_cost(index) -> float:
    return sum(index.build_cost_units().values())


def _layout_bytes(layout) -> int:
    """Both sides' sampled ``(id, geometry)`` records plus 32 bytes a tile box."""
    stats, tiles = layout
    samples = _estimate_bytes(stats.left.sample) + _estimate_bytes(stats.right.sample)
    return samples + 32 * (len(tiles) if tiles is not None else 0)


def _layout_cost(layout) -> float:
    stats, tiles = layout
    return float(stats.left.count + stats.right.count) if tiles is not None else 1.0


class Kind(NamedTuple):
    fingerprint: Callable[..., Fingerprint]
    context: tuple[str, ...]  # the values keyed after the kind name, in order
    size: Callable[[object], int]
    cost: Callable[[object], float]


_INDEX = Kind(
    fingerprint_entries, ("operator", "radius", "engine"), estimate_index_bytes, _index_cost
)

KINDS: dict[str, Kind] = {
    # (column, the WKT_BYTES its parse charged)
    "parsed-column": Kind(fingerprint_rows, (), _estimate_bytes, lambda parsed: float(parsed[1])),
    "broadcast-index": _INDEX,
    "spark-broadcast-index": _INDEX,
    # (JoinStats, SpatialPartitioning), or (JoinStats, None) when a side is empty
    "partition-layout": Kind(
        fingerprint_entries,
        ("expand", "num_tiles", "skew_factor", "engine", "sample_size", "right"),
        _layout_bytes,
        _layout_cost,
    ),
    # (index, WKT bytes, raw build bytes, dropped rows)
    "impala-build-side": Kind(
        fingerprint_rows,
        ("column", "operator", "radius", "engine"),
        lambda bundle: estimate_index_bytes(bundle[0]) + 16,
        lambda bundle: float(bundle[1]) + _index_cost(bundle[0]),
    ),
}

# How a context value enters a key; any other value enters as given.
_CONTEXT: dict[str, Callable] = {
    "operator": lambda operator: operator.value,
    "radius": float,
    "expand": float,
    "skew_factor": float,
    "right": lambda right: fingerprint_entries(_entries(right)),
}


class Slot(NamedTuple):
    """Where one artifact lives: the manager, its kind and its key."""

    cache: CacheManager
    kind: str
    key: Fingerprint


def slot_for(cache: CacheManager | None, kind: str, data, **context) -> Slot | None:
    """The slot of the ``kind`` artifact built from ``data`` under
    ``context``; ``None`` when caching is off or the fingerprinter refuses
    a value (an id type it cannot hash), and the artifact is built uncached."""
    if cache is None:
        return None
    spec = KINDS[kind]
    values = (_CONTEXT.get(name, lambda value: value)(context[name]) for name in spec.context)
    try:
        key = spec.fingerprint(_entries(data), kind, *values)
    except TypeError:
        return None
    return Slot(cache, kind, key)


def resident(slot: Slot | None) -> bool:
    """The planner's and EXPLAIN's peek: counts neither a hit nor a miss."""
    return slot is not None and slot.key in slot.cache


def fetch(slot: Slot | None, build: Callable[[], object]):
    """The cached artifact on a hit; else ``build()``, stored in the slot
    (if any) with its kind's size and build cost.  Call sites bill the
    artifact's work from the value, so a hit bills what a build bills."""
    if slot is None:
        return build()
    cache, kind, key = slot
    value = cache.get(key, kind)
    if value is None:
        value = build()
        spec = KINDS[kind]
        cache.put(key, kind, value, size_bytes=spec.size(value), build_cost=spec.cost(value))
    return value
