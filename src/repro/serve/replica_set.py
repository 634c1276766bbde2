"""Multi-replica serving: several live policy versions behind one front.

A :class:`ReplicaSet` holds named replicas — each its own
:class:`~repro.serve.server.PolicyServer` wrapping one policy version —
and routes sessions across them with a **deterministic seeded traffic
split**: the routing key (normally the set-generated session id) is
hashed with the set's seed into a fraction of [0, 1) and matched against
the replicas' cumulative weights. The same seed, weights and key always
pick the same replica — an A/B experiment is reproducible from its seed,
and adding load never reshuffles existing assignments.

Per-replica lifecycle rides the version-stamped hot-swap protocol the
single server already speaks (:meth:`~repro.serve.server.PolicyServer.
swap_policy`): :meth:`swap`/:meth:`publish` update one replica's weights
in place between its microbatches, and :meth:`retire` removes a replica
— it leaves the routing table first (no new sessions), then its
dispatcher drains in-flight batches (``stop(drain=True)``), then its
remaining sessions are closed. Sessions never migrate: a session's
noise stream, previous actions and recurrent state live on the replica
that opened it, so migrating would break the bit-identity contract.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, List, Optional, Tuple

from ..obs import MetricsRegistry, Tracer
from ..rl.policies import ActorCriticBase
from .server import PolicyServer, ServeConfig, Session, SessionError, snapshot_policy

__all__ = ["ReplicaSet"]


def _route_fraction(seed: int, key: str) -> float:
    """Deterministic hash of (seed, key) into [0, 1)."""
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class ReplicaSet:
    """Named policy replicas with seeded deterministic session routing.

    ``add(name, policy, weight=...)`` registers a replica (its own
    :class:`PolicyServer`); ``open_session`` routes a new session to a
    replica and returns its :class:`~repro.serve.server.Session` handle
    plus the replica's name. Session ids are always set-generated and
    globally unique across replicas (``g000000, g000001, ...``).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        seed: int = 0,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.seed = seed
        # One registry/tracer shared by every replica: each replica's
        # series are children of the same families, keyed by its name,
        # so a single snapshot captures the whole set coherently.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._lock = threading.RLock()
        self._servers: Dict[str, PolicyServer] = {}
        self._weights: Dict[str, float] = {}
        self._order: List[str] = []  # routing order = registration order
        self._session_counter = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        policy: ActorCriticBase,
        weight: float = 1.0,
        config: Optional[ServeConfig] = None,
    ) -> PolicyServer:
        """Register a replica; returns its :class:`PolicyServer`."""
        if not name:
            raise ValueError("replica name must be non-empty")
        if not weight > 0:
            raise ValueError(f"replica weight must be > 0, got {weight}")
        with self._lock:
            if name in self._servers:
                raise ValueError(f"replica {name!r} already registered")
            server = PolicyServer(
                policy,
                config or self.config,
                metrics=self.metrics,
                tracer=self.tracer,
                name=name,
            )
            self._servers[name] = server
            self._weights[name] = float(weight)
            self._order.append(name)
            return server

    def replica(self, name: str) -> PolicyServer:
        with self._lock:
            server = self._servers.get(name)
            if server is None:
                raise KeyError(f"unknown replica {name!r}")
            return server

    def names(self) -> List[str]:
        with self._lock:
            return list(self._order)

    @property
    def num_replicas(self) -> int:
        with self._lock:
            return len(self._order)

    def set_weight(self, name: str, weight: float) -> None:
        """Re-balance the traffic split (affects new sessions only)."""
        if not weight > 0:
            raise ValueError(f"replica weight must be > 0, got {weight}")
        with self._lock:
            if name not in self._servers:
                raise KeyError(f"unknown replica {name!r}")
            self._weights[name] = float(weight)

    # ------------------------------------------------------------------
    # routing + sessions
    # ------------------------------------------------------------------
    def route(self, key: str) -> str:
        """Deterministically pick a replica name for a routing key."""
        with self._lock:
            if not self._order:
                raise SessionError("replica set is empty")
            fraction = _route_fraction(self.seed, key)
            total = sum(self._weights[name] for name in self._order)
            cumulative = 0.0
            for name in self._order:
                cumulative += self._weights[name] / total
                if fraction < cumulative:
                    return name
            return self._order[-1]  # fraction == ~1.0 edge

    def open_session(
        self,
        num_users: int = 1,
        seed: Optional[int] = None,
        deterministic: bool = False,
        key: Optional[str] = None,
    ) -> Tuple[Session, str]:
        """Open a session on the routed replica; returns (handle, replica).

        ``key`` overrides the routing key (default: the session id), so
        a caller can pin all of one user's sessions to one arm of an A/B
        split while ids stay unique.
        """
        with self._lock:
            session_id = f"g{self._session_counter:06d}"
            self._session_counter += 1
            name = self.route(key if key is not None else session_id)
            handle = self._servers[name].session(
                session_id,
                num_users=num_users,
                seed=seed,
                deterministic=deterministic,
            )
            return handle, name

    @property
    def num_sessions(self) -> int:
        """Open sessions summed over the replicas' servers."""
        with self._lock:
            return sum(server.num_sessions for server in self._servers.values())

    # ------------------------------------------------------------------
    # per-replica lifecycle
    # ------------------------------------------------------------------
    def swap(self, name: str, payload: bytes, version: Optional[int] = None) -> int:
        """Hot-swap one replica's weights (full stamped-archive rulebook)."""
        return self.replica(name).swap_policy(payload, version=version)

    def publish(
        self, name: str, policy: ActorCriticBase, version: Optional[int] = None
    ) -> int:
        return self.swap(name, snapshot_policy(policy), version=version)

    def retire(self, name: str, drain: bool = True) -> int:
        """Remove a replica; returns how many sessions its server held.

        Order matters: the replica leaves the routing table first (new
        sessions can no longer land on it), in-flight batches drain
        (``stop(drain=True)`` serves everything queued), then remaining
        sessions close and the server shuts down.
        """
        with self._lock:
            server = self.replica(name)
            self._order.remove(name)
            del self._weights[name]
        server.stop(drain=drain)
        with self._lock:
            del self._servers[name]
        closed = server.num_sessions
        server.close()
        return closed

    # ------------------------------------------------------------------
    # whole-set lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaSet":
        """Start every replica's background dispatcher."""
        with self._lock:
            servers = list(self._servers.values())
        for server in servers:
            server.start()
        return self

    def flush(self) -> int:
        """Synchronous drive: flush every replica; returns requests served."""
        with self._lock:
            servers = list(self._servers.values())
        return sum(server.flush() for server in servers)

    def close(self) -> None:
        with self._lock:
            servers = list(self._servers.values())
            self._servers.clear()
            self._weights.clear()
            self._order.clear()
        for server in servers:
            server.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
