"""Client-side caching with leases and invalidation callbacks.

"The SFS read-write protocol, while virtually identical to NFS 3, adds
enhanced attribute and access caching to reduce the number of NFS
GETATTR and ACCESS RPCs sent over the wire.  We changed the NFS protocol
in two ways to extend the lifetime of cache entries.  First, every file
attribute structure returned by the server has a timeout field or lease.
Second, the server can call back to the client to invalidate entries
before the lease expires.  The server does not wait for invalidations to
be acknowledged; consistency does not need to be perfect, just better
than NFS 3 on which SFS is implemented." (paper section 3.3)

We grant one lease duration per connection (negotiated at CONNECT) and
key entries by file handle; an invalidation callback clears every entry
for that handle.  The cache measures its own effectiveness (hits/misses)
for the caching ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..obs.registry import NULL_REGISTRY
from ..sim.clock import Clock


@dataclass
class _Entry:
    value: Any
    expires: float


class LeaseCache:
    """A lease-scoped cache keyed by (handle, extra-key) pairs."""

    def __init__(self, clock: Clock, lease_duration: float,
                 enabled: bool = True, metrics=None,
                 name: str = "cache") -> None:
        self._clock = clock
        self._lease = lease_duration
        self.enabled = enabled
        self._entries: dict[bytes, dict[Any, _Entry]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = registry.counter(f"cache.{name}.hits")
        self._m_misses = registry.counter(f"cache.{name}.misses")
        self._m_invalidations = registry.counter(
            f"cache.{name}.invalidations"
        )

    def get(self, handle: bytes, key: Any = None) -> Any | None:
        if not self.enabled:
            return None
        by_key = self._entries.get(handle)
        if by_key is None:
            self.misses += 1
            self._m_misses.inc()
            return None
        entry = by_key.get(key)
        if entry is None or entry.expires < self._clock.now:
            self.misses += 1
            self._m_misses.inc()
            return None
        self.hits += 1
        self._m_hits.inc()
        return entry.value

    def peek(self, handle: bytes, key: Any = None) -> Any | None:
        """The value last put under (*handle*, *key*), expired or not,
        counting no hit and no miss: for a caller that only needs to
        know what, say, a name last pointed to."""
        entry = self._entries.get(handle, {}).get(key)
        return entry.value if entry is not None else None

    def put(self, handle: bytes, value: Any, key: Any = None) -> None:
        if not self.enabled:
            return
        self._entries.setdefault(handle, {})[key] = _Entry(
            value, self._clock.now + self._lease
        )

    def forget(self, handle: bytes, key: Any = None) -> None:
        """Drop the one entry under (*handle*, *key*), keeping the rest
        of *handle*'s: a name this client's own call removed."""
        self._entries.get(handle, {}).pop(key, None)

    def invalidate(self, handle: bytes) -> None:
        """Drop all entries for *handle* (server callback or local write)."""
        if self._entries.pop(handle, None) is not None:
            self.invalidations += 1
            self._m_invalidations.inc()

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class ClientCaches:
    """The three caches an SFS read-write client keeps per mount."""

    attrs: LeaseCache
    access: LeaseCache
    lookups: LeaseCache

    @classmethod
    def create(cls, clock: Clock, lease_duration: float,
               enabled: bool = True, metrics=None) -> "ClientCaches":
        return cls(
            attrs=LeaseCache(clock, lease_duration, enabled,
                             metrics=metrics, name="attrs"),
            access=LeaseCache(clock, lease_duration, enabled,
                              metrics=metrics, name="access"),
            lookups=LeaseCache(clock, lease_duration, enabled,
                               metrics=metrics, name="lookups"),
        )

    def invalidate(self, handle: bytes) -> None:
        self.attrs.invalidate(handle)
        self.access.invalidate(handle)
        self.lookups.invalidate(handle)

    def stats(self) -> dict[str, int]:
        return {
            "attr_hits": self.attrs.hits,
            "attr_misses": self.attrs.misses,
            "access_hits": self.access.hits,
            "access_misses": self.access.misses,
            "lookup_hits": self.lookups.hits,
            "lookup_misses": self.lookups.misses,
        }
