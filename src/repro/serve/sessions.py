"""Memory-bounded session tracking: LRU capacity + TTL idle eviction.

A long-lived gateway accumulates sessions from clients that vanish
without an ``end`` — every one pins per-session serving state (noise
generator, previous actions, recurrent state) forever. The
:class:`SessionStore` is the bound: it maps session ids to arbitrary
entries in recency order and evicts

- the **least-recently-used** entry whenever an insert would exceed
  ``max_sessions`` (capacity eviction), and
- any entry idle longer than ``ttl_s`` (idle eviction, checked lazily on
  every mutating call and explicitly via :meth:`evict_expired`).

Eviction calls ``on_evict(key, value, reason)`` *outside* the store lock
— the gateway uses it to end the underlying server session, which takes
the server lock; holding both would order locks store→server here and
server→store on the request path. The callback is also where
evictions are counted: the gateway's adds each to its
``gateway_store_evictions_total{reason}`` series, which the soak bench
reads.

The store is a bookkeeping layer only: it never touches what it holds
beyond the callback, so it is reusable for any keyed per-client state.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["SessionStore"]

#: ``on_evict(key, value, reason)`` with reason in {"lru", "ttl"}.
EvictCallback = Callable[[str, Any, str], None]


class _Entry:
    __slots__ = ("value", "last_used")

    def __init__(self, value: Any, now: float) -> None:
        self.value = value
        self.last_used = now


class SessionStore:
    """Thread-safe LRU/TTL map of session id -> entry.

    ``max_sessions=None`` disables capacity eviction, ``ttl_s=None``
    disables idle eviction (both disabled = a plain thread-safe dict
    with recency accounting). ``clock`` is injectable for tests
    (defaults to ``time.monotonic``).
    """

    def __init__(
        self,
        max_sessions: Optional[int] = None,
        ttl_s: Optional[float] = None,
        on_evict: Optional[EvictCallback] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if ttl_s is not None and not ttl_s > 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.max_sessions = max_sessions
        self.ttl_s = ttl_s
        self._on_evict = on_evict
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()

    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry; may evict LRU/expired entries."""
        evicted = []
        with self._lock:
            now = self._clock()
            evicted.extend(self._expire_locked(now))
            entry = self._entries.pop(key, None)
            if entry is None:
                entry = _Entry(value, now)
            else:
                entry.value = value
                entry.last_used = now
            self._entries[key] = entry
            if self.max_sessions is not None:
                while len(self._entries) > self.max_sessions:
                    old_key, old_entry = self._entries.popitem(last=False)
                    evicted.append((old_key, old_entry.value, "lru"))
        self._fire(evicted)

    def get(self, key: str) -> Optional[Any]:
        """Fetch and touch an entry; ``None`` if absent or just expired."""
        evicted = []
        with self._lock:
            now = self._clock()
            evicted.extend(self._expire_locked(now))
            entry = self._entries.get(key)
            if entry is not None:
                entry.last_used = now
                self._entries.move_to_end(key)
        self._fire(evicted)
        return entry.value if entry is not None else None

    def pop(self, key: str) -> Optional[Any]:
        """Remove an entry without firing the eviction callback."""
        with self._lock:
            entry = self._entries.pop(key, None)
        return entry.value if entry is not None else None

    def evict_expired(self) -> int:
        """Evict every TTL-expired entry now; returns how many."""
        with self._lock:
            evicted = self._expire_locked(self._clock())
        self._fire(evicted)
        return len(evicted)

    def clear(self) -> List[Tuple[str, Any]]:
        """Drop everything (no callback); returns the former entries."""
        with self._lock:
            entries = [(key, entry.value) for key, entry in self._entries.items()]
            self._entries.clear()
        return entries

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries.keys())

    # ------------------------------------------------------------------
    def _expire_locked(self, now: float) -> List[Tuple[str, Any, str]]:
        if self.ttl_s is None:
            return []
        expired = []
        # Recency order means the oldest entry is first: stop at the
        # first survivor instead of scanning the whole store.
        while self._entries:
            key, entry = next(iter(self._entries.items()))
            if now - entry.last_used <= self.ttl_s:
                break
            del self._entries[key]
            expired.append((key, entry.value, "ttl"))
        return expired

    def _fire(self, evicted: List[Tuple[str, Any, str]]) -> None:
        if self._on_evict is None:
            return
        for key, value, reason in evicted:
            self._on_evict(key, value, reason)
