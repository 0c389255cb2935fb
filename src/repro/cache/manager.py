"""Memory-budgeted cross-query cache with cost-aware LRU eviction.

One process-wide :class:`CacheManager` holds every reusable artifact the
join paths produce: built broadcast indexes, parsed geometry columns,
skew-aware partitioning layouts and Impala build-side bundles (the
kinds of :data:`repro.cache.artifacts.KINDS`; prepared-geometry handles
live in :mod:`repro.geometry.prepared`'s own LRU).  Entries are keyed by
content fingerprints (:mod:`repro.cache.fingerprint`), sized per kind,
and evicted against a byte budget by *cost-aware LRU*: the victim is the
entry with the lowest ``build_cost / size`` density, oldest-access first
on ties, so a cheap bulky parse column is dropped before an expensive
compact index.

The hard invariant (DESIGN.md section 12): a cache hit changes **nothing**
observable about a query except wall-clock.  All bookkeeping lives in the
manager's own counters and in dedicated ``CacheHit``/``CacheMiss``/
``CacheEvict`` events — never in :data:`repro.obs.metrics.REGISTRY`, query
profiles, or simulated costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.fingerprint import Fingerprint

__all__ = ["CacheEntry", "CacheManager", "CacheStats", "estimate_index_bytes"]


def estimate_index_bytes(index) -> int:
    """Byte estimate for a built spatial index.

    :func:`~repro.spark.shuffle.estimate_bytes` sees an index object as
    opaque (64 bytes), which would let arbitrarily large indexes slip
    under any budget.  Every :class:`~repro.core.probe.BroadcastIndex`
    keeps the column it was built over, whose coordinate / offset / bbox
    buffers are sized exactly (``nbytes`` is the encoded size); tree leaf
    and interior-node overheads are added per entry.  Anything else falls
    back to the generic estimator.
    """
    if not hasattr(index, "_column"):
        from repro.spark.shuffle import estimate_bytes

        return estimate_bytes(index)
    column = index._column
    count = len(column)
    return int(column.nbytes) + 32 * count + 48 * max(1, count // 8)


@dataclass
class CacheEntry:
    """One cached artifact plus the metadata eviction needs."""

    key: Fingerprint
    kind: str
    value: object
    size_bytes: int
    build_cost: float
    last_used: int = 0
    inserted: int = 0

    @property
    def density(self) -> float:
        """Build cost per byte — eviction drops the least dense entry."""
        return self.build_cost / max(1, self.size_bytes)


@dataclass
class CacheStats:
    """The manager's own counters (never mixed into REGISTRY)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0
    rejected: int = 0
    hits_by_kind: dict[str, int] = field(default_factory=dict)
    misses_by_kind: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
            "rejected": self.rejected,
            "hits_by_kind": dict(sorted(self.hits_by_kind.items())),
            "misses_by_kind": dict(sorted(self.misses_by_kind.items())),
        }


class CacheManager:
    """Process-wide cache: typed entries, byte budget, cost-aware LRU.

    ``budget_bytes`` bounds the sum of entry sizes; ``None`` means
    unbounded (used by the always-on prepared-geometry handle cache).
    ``emit_events`` controls whether lookups emit ``CacheHit``/``CacheMiss``
    /``CacheEvict`` events to the installed event log; the prepared-handle
    path keeps it off to avoid per-geometry event spam.
    """

    def __init__(self, budget_bytes: int | None = None, *,
                 emit_events: bool = False) -> None:
        self.budget_bytes = budget_bytes
        self.emit_events = emit_events
        self._entries: dict[Fingerprint, CacheEntry] = {}
        self._clock = 0
        self._seq = 0
        self.stats = CacheStats()

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        # A manager with zero entries is still an *enabled* cache; callers
        # write ``if cache:`` to mean "is caching on", not "is it non-empty".
        return True

    def __contains__(self, key: Fingerprint) -> bool:
        return key in self._entries

    @property
    def total_bytes(self) -> int:
        """Current size of all resident entries."""
        return sum(e.size_bytes for e in self._entries.values())

    def entries(self) -> list[CacheEntry]:
        """Resident entries in insertion order (for tests/tooling)."""
        return sorted(self._entries.values(), key=lambda e: e.inserted)

    def residency(self) -> dict:
        """JSON-safe occupancy summary (the EXPLAIN ``cache=`` annotation).

        Purely introspective — reads entry metadata without touching the
        LRU clock or the hit/miss counters, so asking "what is resident"
        never changes what stays resident.
        """
        by_kind: dict[str, dict[str, int]] = {}
        for entry in self._entries.values():
            bucket = by_kind.setdefault(entry.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.size_bytes
        return {
            "entries": len(self._entries),
            "total_bytes": self.total_bytes,
            "budget_bytes": self.budget_bytes,
            "by_kind": dict(sorted(by_kind.items())),
        }

    # -- events -----------------------------------------------------------

    def _emit(self, event_type: str, **fields) -> None:
        if not self.emit_events:
            return
        from repro.obs.events import get_event_log

        log = get_event_log()
        if log is not None:
            log.emit(event_type, **fields)

    # -- core operations --------------------------------------------------

    def get(self, key: Fingerprint, kind: str):
        """Return the cached value or ``None``; counts a hit or miss."""
        entry = self._entries.get(key)
        if entry is not None and entry.kind == kind:
            self._clock += 1
            entry.last_used = self._clock
            self.stats.hits += 1
            self.stats.hits_by_kind[kind] = self.stats.hits_by_kind.get(kind, 0) + 1
            self._emit("CacheHit", kind=kind, key=key.hex(),
                       size_bytes=entry.size_bytes)
            return entry.value
        self.stats.misses += 1
        self.stats.misses_by_kind[kind] = self.stats.misses_by_kind.get(kind, 0) + 1
        self._emit("CacheMiss", kind=kind, key=key.hex())
        return None

    def put(self, key: Fingerprint, kind: str, value: object, *,
            size_bytes: int, build_cost: float = 1.0) -> bool:
        """Insert an entry, evicting as needed.  Returns False when the
        entry alone exceeds the whole budget (it is not cached)."""
        size_bytes = int(size_bytes)
        if self.budget_bytes is not None and size_bytes > self.budget_bytes:
            self.stats.rejected += 1
            return False
        self._clock += 1
        self._seq += 1
        old = self._entries.pop(key, None)
        self._entries[key] = CacheEntry(
            key=key, kind=kind, value=value, size_bytes=size_bytes,
            build_cost=float(build_cost), last_used=self._clock,
            inserted=old.inserted if old is not None else self._seq,
        )
        self.stats.puts += 1
        self._shrink_to_budget(protect=key)
        return key in self._entries

    def set_budget(self, budget_bytes: int | None) -> None:
        """Apply a new byte budget, evicting down to it at once."""
        self.budget_bytes = budget_bytes
        self._shrink_to_budget()

    def _shrink_to_budget(self, protect: Fingerprint | None = None) -> None:
        if self.budget_bytes is None:
            return
        while self.total_bytes > self.budget_bytes and self._entries:
            victim = min(
                (e for e in self._entries.values()
                 if protect is None or e.key != protect),
                key=lambda e: (e.density, e.last_used, e.inserted),
                default=None,
            )
            if victim is None:  # only the protected entry remains
                break
            self._evict(victim, reason="budget")

    def _evict(self, entry: CacheEntry, reason: str) -> None:
        del self._entries[entry.key]
        self.stats.evictions += 1
        self._emit("CacheEvict", kind=entry.kind, key=entry.key.hex(),
                   size_bytes=entry.size_bytes, reason=reason)

    def invalidate(self, key: Fingerprint) -> bool:
        """Drop one entry explicitly (True when it was resident)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._evict(entry, reason="invalidate")
        return True

    def invalidate_kind(self, kind: str) -> int:
        """Drop every entry of one kind; returns how many were evicted."""
        victims = [e for e in self._entries.values() if e.kind == kind]
        for entry in victims:
            self._evict(entry, reason="invalidate")
        return len(victims)

    def clear(self) -> None:
        """Drop everything and reset counters (cold-start state)."""
        self._entries.clear()
        self._clock = 0
        self._seq = 0
        self.stats = CacheStats()
