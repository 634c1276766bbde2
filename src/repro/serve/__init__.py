"""Policy inference serving: microbatched sessions, hot-swap replicas.

The production boundary of the stack (see ``docs/serving.md``): a
:class:`PolicyServer` stacks concurrent sessions' ``act`` requests into
single batched policy forwards — bit-identical to serving each session
alone — and swaps in new policy snapshots between batches with zero
downtime. A :class:`ReplicaSet` holds several live policy versions with
a deterministic seeded traffic split, and a :class:`Gateway` puts the
whole thing on a TCP socket (length-prefixed JSON frames, typed
``BUSY``/``TIMEOUT`` failure responses, LRU/TTL session eviction) for
:class:`GatewayClient` connections. ``python -m repro.serve`` runs a
self-contained demo that serves live environment sessions — in-process
or through a real socket (``--gateway``) — and verifies the parity
contract.

Requests go through one surface, the :class:`Session` handle (or its
remote mirror, :class:`RemoteSession`), and counters come from one
source: every layer publishes into one shared
:class:`repro.obs.MetricsRegistry` (per-replica latency histograms,
queue-depth gauges, typed failure counters) and stamps requests with
trace ids. Read it with ``metrics.value(name, *labels)``,
``metrics.snapshot()`` or ``GatewayClient.metrics()``; see
``docs/observability.md`` for the catalog, the wire ``stats`` op's
snapshot, and the ``GatewayConfig.metrics_port`` Prometheus endpoint.
"""

from .client import (
    DeadlineExceeded,
    GatewayBusy,
    GatewayClient,
    GatewayError,
    RemoteSession,
)
from .gateway import Gateway, GatewayConfig
from .protocol import FrameError
from .replica_set import ReplicaSet
from .server import (
    ActionResult,
    PolicyServer,
    ServeConfig,
    Session,
    SessionError,
    Ticket,
    snapshot_policy,
)
from .sessions import SessionStore

__all__ = [
    "ActionResult",
    "DeadlineExceeded",
    "FrameError",
    "Gateway",
    "GatewayBusy",
    "GatewayClient",
    "GatewayConfig",
    "GatewayError",
    "PolicyServer",
    "RemoteSession",
    "ReplicaSet",
    "ServeConfig",
    "Session",
    "SessionError",
    "SessionStore",
    "Ticket",
    "snapshot_policy",
]
