"""SessionStore semantics: LRU capacity, TTL idling, eviction callbacks.

The store is pure bookkeeping (the gateway wires ``on_evict`` to real
session teardown), so everything here runs with an injected fake clock —
no sleeps, no wall-time flakiness.
"""

import pytest

from repro.serve import SessionStore


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture()
def clock():
    return FakeClock()


class TestValidation:
    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_sessions"):
            SessionStore(max_sessions=0)

    def test_bad_ttl_rejected(self):
        with pytest.raises(ValueError, match="ttl_s"):
            SessionStore(ttl_s=0.0)
        with pytest.raises(ValueError, match="ttl_s"):
            SessionStore(ttl_s=-1.0)


class TestBasics:
    def test_put_get_pop(self):
        store = SessionStore()
        store.put("a", 1)
        assert store.get("a") == 1
        assert "a" in store
        assert len(store) == 1
        assert store.pop("a") == 1
        assert store.get("a") is None
        assert store.pop("a") is None

    def test_put_refreshes_value(self):
        store = SessionStore()
        store.put("a", 1)
        store.put("a", 2)
        assert store.get("a") == 2
        assert len(store) == 1

    def test_clear_returns_entries_without_callback(self):
        fired = []
        store = SessionStore(on_evict=lambda *args: fired.append(args))
        store.put("a", 1)
        store.put("b", 2)
        assert store.clear() == [("a", 1), ("b", 2)]
        assert len(store) == 0
        assert fired == []


class TestLRU:
    def test_capacity_evicts_least_recently_used(self):
        evicted = []
        store = SessionStore(
            max_sessions=2, on_evict=lambda key, value, why: evicted.append((key, why))
        )
        store.put("a", 1)
        store.put("b", 2)
        store.get("a")  # touch: b is now the LRU entry
        store.put("c", 3)
        assert evicted == [("b", "lru")]
        assert store.keys() == ["a", "c"]

    def test_pop_does_not_count_as_eviction(self):
        evicted = []
        store = SessionStore(max_sessions=2, on_evict=lambda *args: evicted.append(args))
        store.put("a", 1)
        store.pop("a")
        assert len(store) == 0
        store.put("b", 2)
        store.put("c", 3)  # the popped entry freed its slot
        assert evicted == []

    def test_refresh_at_exact_capacity_does_not_evict(self):
        """Re-putting an existing key while the store is full is a
        refresh, not an insert: nothing may be evicted for it."""
        evicted = []
        store = SessionStore(
            max_sessions=2, on_evict=lambda key, value, why: evicted.append((key, why))
        )
        store.put("a", 1)
        store.put("b", 2)  # exactly at capacity
        store.put("a", 10)  # refresh, not insert
        assert evicted == []
        assert len(store) == 2
        # The refresh also touched "a": "b" is now the LRU entry.
        assert store.keys() == ["b", "a"]
        assert store.get("a") == 10

    def test_eviction_cascade_bounded(self):
        """Thousands of inserts through a small store stay at capacity."""
        reasons = []
        store = SessionStore(
            max_sessions=16, on_evict=lambda key, value, why: reasons.append(why)
        )
        for index in range(5000):
            store.put(f"s{index}", index)
        assert len(store) == 16
        assert reasons == ["lru"] * (5000 - 16)
        # survivors are exactly the 16 most recent inserts
        assert store.keys() == [f"s{index}" for index in range(5000 - 16, 5000)]


class TestTTL:
    def test_idle_entries_expire(self, clock):
        evicted = []
        store = SessionStore(
            ttl_s=10.0,
            on_evict=lambda key, value, why: evicted.append((key, why)),
            clock=clock,
        )
        store.put("a", 1)
        clock.advance(11.0)
        assert store.evict_expired() == 1
        assert evicted == [("a", "ttl")]

    def test_touch_resets_the_clock(self, clock):
        store = SessionStore(ttl_s=10.0, clock=clock)
        store.put("a", 1)
        clock.advance(8.0)
        assert store.get("a") == 1  # touch at t=8
        clock.advance(8.0)
        assert store.evict_expired() == 0  # idle 8s < 10s
        clock.advance(11.0)
        assert store.evict_expired() == 1

    def test_expiry_is_lazy_on_access(self, clock):
        """get/put sweep expired entries without an explicit evict call."""
        evicted = []
        store = SessionStore(
            ttl_s=5.0,
            on_evict=lambda key, value, why: evicted.append((key, why)),
            clock=clock,
        )
        store.put("old", 1)
        clock.advance(6.0)
        assert store.get("old") is None
        assert evicted == [("old", "ttl")]
        store.put("older", 2)
        clock.advance(6.0)
        store.put("fresh", 3)
        assert store.keys() == ["fresh"]

    def test_get_of_just_expired_key_is_none_and_fires_ttl_once(self, clock):
        """A get that sweeps the key it asked for returns None and fires
        on_evict(reason="ttl") exactly once — not zero times (the sweep
        is real) and not twice (swept entries are gone, not re-swept)."""
        evicted = []
        store = SessionStore(
            ttl_s=5.0,
            on_evict=lambda key, value, why: evicted.append((key, why)),
            clock=clock,
        )
        store.put("a", 1)
        clock.advance(5.1)
        assert store.get("a") is None
        assert evicted == [("a", "ttl")]
        assert store.get("a") is None  # still gone, no second callback
        assert evicted == [("a", "ttl")]
        assert len(store) == 0

    def test_only_idle_entries_expire(self, clock):
        store = SessionStore(ttl_s=10.0, clock=clock)
        store.put("a", 1)
        clock.advance(6.0)
        store.put("b", 2)
        clock.advance(6.0)  # a idle 12s, b idle 6s
        assert store.evict_expired() == 1
        assert store.keys() == ["b"]


class TestCallbackReentrancy:
    def test_callback_may_reenter_the_store(self):
        """on_evict runs outside the lock: re-entrant calls must not deadlock."""
        store = SessionStore(max_sessions=1, on_evict=lambda key, value, why: store.pop("x"))
        store.put("a", 1)
        store.put("b", 2)  # evicts a -> callback pops (absent) "x"
        assert store.keys() == ["b"]
