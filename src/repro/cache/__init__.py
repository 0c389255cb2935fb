"""Cross-query caching layer (see DESIGN.md section 12).

:func:`get_cache` is the query-artifact cache (indexes, parsed columns,
partitionings, Impala build bundles).  It is **off** unless a query runs
with ``RuntimeConfig.cache_budget_bytes`` set; :func:`cache_for` applies
the runtime's budget and returns ``None`` when caching is disabled.
Joins reach it only through :mod:`repro.cache.artifacts`.  Prepared
geometry handles live in :mod:`repro.geometry.prepared`'s own always-on
LRU, keyed by :func:`fingerprint_geometry`, which emits no events.
"""

from __future__ import annotations

from repro.cache.fingerprint import (
    Fingerprint,
    fingerprint_entries,
    fingerprint_geometry,
    fingerprint_rows,
    fingerprint_value,
)
from repro.cache.manager import (
    CacheEntry,
    CacheManager,
    CacheStats,
    estimate_index_bytes,
)

__all__ = [
    "CacheEntry",
    "CacheManager",
    "CacheStats",
    "Fingerprint",
    "cache_for",
    "estimate_index_bytes",
    "fingerprint_entries",
    "fingerprint_geometry",
    "fingerprint_rows",
    "fingerprint_value",
    "get_cache",
    "set_cache",
]

_CACHE: CacheManager | None = None


def get_cache() -> CacheManager:
    """The process-wide query-artifact cache (created on first use)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = CacheManager(budget_bytes=None, emit_events=True)
    return _CACHE


def set_cache(manager: CacheManager | None) -> CacheManager | None:
    """Replace the process-wide cache (tests); returns the old one."""
    global _CACHE
    old = _CACHE
    _CACHE = manager
    return old


def cache_for(runtime) -> CacheManager | None:
    """The cache to use under ``runtime``, or ``None`` when disabled.

    ``cache_budget_bytes=None`` (the default) and ``0`` both disable
    caching for the query.  A positive budget enables it and (re)applies
    the budget to the shared manager — the budget is process-wide state,
    like the cache itself, so the most recent query's setting wins.
    """
    budget = getattr(runtime, "cache_budget_bytes", None)
    if not budget:
        return None
    cache = get_cache()
    cache.set_budget(int(budget))
    return cache
