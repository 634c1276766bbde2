"""Networked serving gateway: the TCP front end of the policy servers.

One :class:`Gateway` listens on a socket and speaks the length-prefixed
JSON frame protocol (:mod:`repro.serve.protocol`), exposing a
:class:`~repro.serve.replica_set.ReplicaSet` (or a single
:class:`~repro.serve.server.PolicyServer`, auto-wrapped as a one-replica
set) to remote clients. Each connection is served by its own thread
(``socketserver.ThreadingTCPServer``) running a strict request/response
loop — the client library is :class:`repro.serve.client.GatewayClient`.

Operations (request ``{"op": ...}`` → response ``{"ok": ...}``):

==========  ===========================================================
``open``    open a session (``num_users``/``seed``/``deterministic``/
            ``key``); returns session id, replica name, policy version
``act``     serve one observation for a session; returns actions /
            log_probs / values / version / step, bit-identical to
            in-process serving (the codec ships raw float64 bytes)
``end``     close a session
``stats``   the metrics-registry snapshot (gateway, store, replicas)
``ping``    liveness probe
==========  ===========================================================

Failure semantics are **typed, not exceptional**: the gateway answers
``{"ok": false, "error": CODE, "message": ...}`` and keeps the
connection alive wherever the client can act on the error:

- ``BUSY`` — admission control: more than ``max_pending`` acts in
  flight gateway-wide. The request was never submitted; back off and
  retry. Backpressure is load-shedding at the door, not a queue.
- ``TIMEOUT`` — the per-request deadline (``deadline_ms``, default
  ``default_deadline_ms``) expired before the microbatch was served.
  The deadline clock starts when the request frame arrives off the
  socket — decode, dispatch and admission spend the same budget the
  batch wait does, so a slow decode cannot grant a request extra
  server time. If the request is still unresolved in flight, the
  gateway quarantines the session and ends it as soon as the batch
  resolves (deferred cleanup); if the budget lapsed before the request
  ever reached the server, the session is ended directly. The session
  id is dead to the client either way.
- ``SESSION`` — protocol misuse (unknown id, double submit, shape
  mismatch): the server-side :class:`SessionError` message, verbatim.
- ``BAD_REQUEST`` — unparseable operation, missing fields, or fields
  of the wrong type or range (a non-finite ``num_users``, say, or a
  ``deterministic`` that is not a JSON boolean).

Slow or vanished clients cannot pin resources: reads idle out after
``idle_timeout_s`` and close the connection, and closing a connection
ends every session it opened (waiting out in-flight batches). Sessions
are additionally bounded gateway-wide by the LRU/TTL
:class:`~repro.serve.sessions.SessionStore` (``max_sessions`` /
``session_ttl_s``) so abandoned sessions are evicted, not leaked — the
soak bench (``benchmarks/perf_serve.py --soak``) pins flat RSS over
tens of thousands of session opens.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs import MetricsHTTPExporter
from .protocol import FrameError, recv_frame, send_frame
from .replica_set import ReplicaSet
from .server import PolicyServer, Session, SessionError, Ticket
from .sessions import SessionStore

__all__ = ["Gateway", "GatewayConfig"]


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for :class:`Gateway`.

    ``max_pending`` bounds gateway-wide in-flight ``act`` requests
    (admission control; overflow answers ``BUSY``).
    ``default_deadline_ms`` is the per-request deadline when the client
    sends none; ``idle_timeout_s`` closes connections with no complete
    request for that long. ``max_sessions``/``session_ttl_s`` feed the
    LRU/TTL session store (``None`` disables either bound).
    ``metrics_port`` (``None`` = off, ``0`` = ephemeral) serves the
    gateway's metrics registry as Prometheus text exposition on
    ``http://host:metrics_port/metrics`` while the gateway runs; the
    bound address is ``Gateway.metrics_address``.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is Gateway.address[1]
    max_pending: int = 64
    default_deadline_ms: float = 5000.0
    idle_timeout_s: float = 30.0
    max_sessions: Optional[int] = None
    session_ttl_s: Optional[float] = None
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        _check_int("max_pending", self.max_pending, minimum=1)
        _check_positive("default_deadline_ms", self.default_deadline_ms)
        _check_positive("idle_timeout_s", self.idle_timeout_s)
        if self.max_sessions is not None:
            _check_int("max_sessions", self.max_sessions, minimum=1)
        if self.session_ttl_s is not None:
            _check_positive("session_ttl_s", self.session_ttl_s)
        if self.metrics_port is not None:
            _check_int("metrics_port", self.metrics_port, minimum=0)


def _check_int(name: str, value: Any, minimum: int) -> None:
    """Config validation: an int (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_positive(name: str, value: Any) -> None:
    """Config validation: a finite number (not a bool) above 0."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _is_int(value: Any) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A JSON number (or a numpy scalar one), never a ``bool``."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


def _is_number_tree(value: list) -> bool:
    """Nested lists whose leaves are all JSON numbers (walked without recursion)."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif not _is_number(item):
            return False
    return True


class _Handler(socketserver.BaseRequestHandler):
    """One thread per connection: framed request/response loop."""

    def handle(self) -> None:
        gateway: "Gateway" = self.server.gateway  # type: ignore[attr-defined]
        sock: socket.socket = self.request
        sock.settimeout(gateway.config.idle_timeout_s)
        opened: List[str] = []  # session ids this connection opened
        try:
            while True:
                try:
                    message = recv_frame(sock)
                except socket.timeout:
                    break  # idle client: reclaim the thread + sessions
                except (FrameError, OSError):
                    break
                if message is None:
                    break  # clean EOF
                # Deadline clock zero for this request: the moment its
                # frame finished arriving, before any decode/dispatch.
                arrival = gateway._clock()
                response = gateway._dispatch(message, opened, arrival)
                try:
                    send_frame(sock, response)
                except OSError:
                    break
        finally:
            gateway._connection_closed(opened)


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops SYNs when a client fleet
    # connects at once; the kernel retransmit (~1s) then dominates any
    # latency measurement. One slot per plausible concurrent connect.
    request_queue_size = 128


class Gateway:
    """TCP gateway over a replica set; see the module docstring."""

    def __init__(
        self,
        replicas: Union[ReplicaSet, PolicyServer],
        config: Optional[GatewayConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config or GatewayConfig()
        # Monotonic seconds; injectable so tests can model a slow decode
        # or dispatch between frame arrival and the batch wait.
        self._clock = clock if clock is not None else time.monotonic
        if isinstance(replicas, PolicyServer):
            # Single-server convenience: a one-replica set around it.
            # The wrapper adopts the server's registry/tracer so the
            # server's existing series (keyed by its name) and the
            # gateway's land in one snapshot.
            wrapper = ReplicaSet(
                config=replicas.config,
                metrics=replicas.metrics,
                tracer=replicas.tracer,
            )
            wrapper._servers[replicas.name] = replicas
            wrapper._weights[replicas.name] = 1.0
            wrapper._order.append(replicas.name)
            replicas = wrapper
        self.replicas = replicas
        self.metrics = replicas.metrics
        self.tracer = replicas.tracer
        self._lock = threading.Lock()
        self._pending = 0  # gateway-wide in-flight act requests
        self._sessions = SessionStore(
            max_sessions=self.config.max_sessions,
            ttl_s=self.config.session_ttl_s,
            on_evict=self._evicted,
        )
        # Sessions whose request outlived its deadline: (ticket, handle).
        # They are ended once the batch resolves (_reap) — ending earlier
        # is impossible (the server refuses to end a pending session) and
        # dropping them would leak their serving state.
        self._quarantine: List[Tuple[Ticket, Session, str]] = []
        m = self.metrics
        self._m_requests = m.counter(
            "gateway_requests_total", "accepted gateway operations", ("op",)
        )
        self._m_failures = m.counter(
            "gateway_failures_total", "typed gateway failures", ("code",)
        )
        self._m_latency = m.histogram(
            "gateway_request_seconds",
            "frame-arrival to reply-ready latency of served acts",
            ("replica",),
        )
        m.gauge(
            "gateway_pending_requests", "acts in flight gateway-wide"
        ).set_function(lambda: float(self._pending))
        m.gauge(
            "gateway_quarantined_sessions", "timed-out sessions awaiting cleanup"
        ).set_function(lambda: float(len(self._quarantine)))
        self._m_cleaned = m.counter(
            "gateway_connections_cleaned_total",
            "sessions closed by disconnect cleanup",
        )
        m.gauge(
            "gateway_store_sessions", "sessions in the LRU/TTL store"
        ).set_function(lambda: float(len(self._sessions)))
        self._m_evictions = m.counter(
            "gateway_store_evictions_total", "store evictions by reason", ("reason",)
        )
        self._metrics_http: Optional[MetricsHTTPExporter] = None
        self._tcp = _Server(
            (self.config.host, self.config.port), _Handler, bind_and_activate=True
        )
        self._tcp.gateway = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port is concrete even when 0 was asked."""
        return self._tcp.server_address[:2]

    @property
    def metrics_address(self) -> Optional[Tuple[str, int]]:
        """Bound (host, port) of the Prometheus endpoint, if serving."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.address

    def start(self) -> "Gateway":
        """Serve connections in a background thread; replicas dispatch too."""
        if self._thread is None:
            self.replicas.start()
            if self.config.metrics_port is not None and self._metrics_http is None:
                self._metrics_http = MetricsHTTPExporter(
                    self.metrics,
                    host=self.config.host,
                    port=self.config.metrics_port,
                ).start()
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="serve-gateway",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._metrics_http is not None:
            self._metrics_http.close()
            self._metrics_http = None
        if self._thread is not None:
            # shutdown() waits for serve_forever to return, so only a
            # started gateway may call it.
            self._tcp.shutdown()
            self._thread.join()
            self._thread = None
        self._tcp.server_close()
        # Serve what is still queued first: a quarantined session's
        # batch then resolves now instead of the reaper waiting on it.
        try:
            self.replicas.flush()
        except Exception:
            pass  # the failed batch's tickets carry the error
        self._reap(wait=True)
        for session_id, handle in self._sessions.clear():
            self._end_quietly(session_id, handle)
        self.replicas.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request dispatch (called from connection threads)
    # ------------------------------------------------------------------
    def _dispatch(
        self, message: Any, opened: List[str], arrival: Optional[float] = None
    ) -> Dict[str, Any]:
        self._reap()
        if not isinstance(message, dict) or "op" not in message:
            return self._bad_request("message must be an object with an 'op'")
        op = message.get("op")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "stats":
                return {"ok": True, "metrics": self.metrics.snapshot()}
            if op == "open":
                return self._op_open(message, opened)
            if op == "act":
                return self._op_act(message, arrival)
            if op == "end":
                return self._op_end(message, opened)
            return self._bad_request(f"unknown op {op!r}")
        except SessionError as error:
            self._m_failures.labels("SESSION").inc()
            return {"ok": False, "error": "SESSION", "message": str(error)}
        except (TypeError, ValueError, OverflowError) as error:
            # OverflowError: JSON admits integers too large for float().
            return self._bad_request(str(error))

    def _op_open(self, message: Dict[str, Any], opened: List[str]) -> Dict[str, Any]:
        # Fields are taken as sent, never coerced: bool("false") is True
        # and int(2.7) is 2. A null seed or key means absent, as in the
        # Python API.
        num_users = message.get("num_users", 1)
        seed = message.get("seed")
        deterministic = message.get("deterministic", False)
        key = message.get("key")
        if not _is_int(num_users) or num_users < 1:
            return self._bad_request(
                f"num_users must be an integer >= 1, got {num_users!r}"
            )
        if seed is not None and not _is_int(seed):
            return self._bad_request(f"seed must be an integer, got {seed!r}")
        if not isinstance(deterministic, bool):
            return self._bad_request(
                f"deterministic must be a boolean, got {deterministic!r}"
            )
        if key is not None and not isinstance(key, str):
            return self._bad_request(f"key must be a string, got {key!r}")
        handle, replica = self.replicas.open_session(
            num_users=num_users, seed=seed, deterministic=deterministic, key=key
        )
        self._sessions.put(handle.id, handle)
        opened.append(handle.id)
        self._m_requests.labels("open").inc()
        return {
            "ok": True,
            "session": handle.id,
            "replica": replica,
            "version": handle.version,
            "num_users": num_users,
        }

    def _op_act(
        self, message: Dict[str, Any], arrival: Optional[float] = None
    ) -> Dict[str, Any]:
        session_id = message.get("session")
        if not isinstance(session_id, str):
            return self._bad_request("act needs a 'session' id")
        # Taken as sent and checked before admission: a float or integer
        # ndarray, or nested lists of JSON numbers. Strings and bools
        # would convert (float("1e1") is 10.0, float(True) is 1.0), so
        # they answer BAD_REQUEST, as does anything ragged. The session
        # checks the shape and finiteness at submit (SESSION); either way
        # the act is never counted.
        obs = message.get("obs")
        if isinstance(obs, np.ndarray):
            if obs.dtype.kind not in "fiu":
                return self._bad_request(f"obs must be a numeric array, got dtype {obs.dtype}")
        elif not (isinstance(obs, list) and _is_number_tree(obs)):
            return self._bad_request("act needs an 'obs' array of numbers")
        obs = np.asarray(obs, dtype=np.float64)
        # Taken as sent, like the open op's fields: float("50") is 50.0
        # and float(True) is 1.0. Absent means the configured default.
        deadline_ms = message.get("deadline_ms", self.config.default_deadline_ms)
        if not _is_number(deadline_ms):
            return self._bad_request(
                f"deadline_ms must be a number, got {deadline_ms!r}"
            )
        deadline_ms = float(deadline_ms)  # an int too large overflows: BAD_REQUEST
        if not np.isfinite(deadline_ms) or deadline_ms <= 0:
            return self._bad_request(f"deadline_ms must be > 0, got {deadline_ms}")
        # The trace id rides the wire: a client-sent id is kept, anything
        # else gets a fresh one. It is carried into the microbatch queue
        # (the server stamps queue-wait/compute spans under it) and
        # returned in every act reply — success or typed failure.
        trace = message.get("trace")
        if not isinstance(trace, str) or not trace:
            trace = self.tracer.new_trace_id()
        started = arrival if arrival is not None else self._clock()
        handle = self._sessions.get(session_id)
        if handle is None:
            self._m_failures.labels("SESSION").inc()
            return {
                "ok": False,
                "error": "SESSION",
                "message": f"unknown session {session_id!r}",
                "trace": trace,
            }
        # Admission control: shed load before touching the server.
        with self._lock:
            if self._pending >= self.config.max_pending:
                pending = self._pending
            else:
                pending = None
                self._pending += 1
        if pending is not None:
            self._m_failures.labels("BUSY").inc()
            return {
                "ok": False,
                "error": "BUSY",
                "message": (
                    f"{pending} requests in flight "
                    f"(max_pending={self.config.max_pending}); retry later"
                ),
                "trace": trace,
            }
        try:
            # The deadline clock started at frame arrival: whatever
            # decode, dispatch and admission already spent comes out of
            # the same budget the batch wait gets.
            remaining_s = deadline_ms / 1000.0
            if arrival is not None:
                remaining_s -= self._clock() - arrival
            if remaining_s <= 0.0:
                # Lapsed before the request ever reached the server:
                # nothing is in flight, so end the session directly
                # instead of quarantining it behind a ticket.
                self._sessions.pop(session_id)
                self._end_quietly(session_id, handle)
                self._m_failures.labels("TIMEOUT").inc()
                return {
                    "ok": False,
                    "error": "TIMEOUT",
                    "message": (
                        f"deadline of {deadline_ms:g} ms expired before "
                        f"dispatch; session {session_id!r} is closed"
                    ),
                    "trace": trace,
                }
            ticket = handle.submit(obs, trace=trace)
            self._m_requests.labels("act").inc()
            if not handle.server.running:
                handle.server.flush()
            try:
                result = ticket.result(timeout=remaining_s)
            except TimeoutError:
                self._quarantine_session(ticket, handle, session_id)
                self._m_failures.labels("TIMEOUT").inc()
                return {
                    "ok": False,
                    "error": "TIMEOUT",
                    "message": (
                        f"deadline of {deadline_ms:g} ms expired; "
                        f"session {session_id!r} is closed"
                    ),
                    "trace": trace,
                }
        finally:
            with self._lock:
                self._pending -= 1
        elapsed_s = max(self._clock() - started, 0.0)
        replica = handle.server.name
        self._m_latency.labels(replica).observe(elapsed_s)
        self.tracer.record(
            "gateway.act",
            trace,
            started,
            elapsed_s,
            session=session_id,
            replica=replica,
        )
        return {
            "ok": True,
            "session": session_id,
            "actions": result.actions,
            "log_probs": result.log_probs,
            "values": result.values,
            "version": result.version,
            "step": result.step,
            "trace": trace,
        }

    def _op_end(self, message: Dict[str, Any], opened: List[str]) -> Dict[str, Any]:
        session_id = message.get("session")
        if not isinstance(session_id, str):
            return self._bad_request("end needs a 'session' id")
        handle = self._sessions.pop(session_id)
        if handle is None:
            self._m_failures.labels("SESSION").inc()
            return {
                "ok": False,
                "error": "SESSION",
                "message": f"unknown session {session_id!r}",
            }
        handle.end()
        if session_id in opened:
            opened.remove(session_id)
        self._m_requests.labels("end").inc()
        return {"ok": True, "session": session_id}

    def _bad_request(self, message: str) -> Dict[str, Any]:
        self._m_failures.labels("BAD_REQUEST").inc()
        return {"ok": False, "error": "BAD_REQUEST", "message": message}

    # ------------------------------------------------------------------
    # cleanup paths
    # ------------------------------------------------------------------
    def _quarantine_session(
        self, ticket: Ticket, handle: Session, session_id: str
    ) -> None:
        """A timed-out session: unusable now, ended when its batch lands."""
        self._sessions.pop(session_id)
        with self._lock:
            self._quarantine.append((ticket, handle, session_id))

    def _reap(self, wait: bool = False) -> None:
        """End quarantined sessions whose in-flight batch has resolved."""
        with self._lock:
            quarantined, self._quarantine = self._quarantine, []
        survivors = []
        for ticket, handle, session_id in quarantined:
            if wait:
                try:
                    ticket.result(timeout=5.0)
                except Exception:
                    pass
            if ticket.done():
                self._end_quietly(session_id, handle)
            else:
                survivors.append((ticket, handle, session_id))
        if survivors:
            with self._lock:
                self._quarantine.extend(survivors)

    def _evicted(self, session_id: str, handle: Session, reason: str) -> None:
        """SessionStore eviction: close the underlying server session."""
        self._m_evictions.labels(reason).inc()
        self._end_quietly(session_id, handle)

    def _connection_closed(self, opened: List[str]) -> None:
        """End every session this connection opened (disconnect cleanup)."""
        cleaned = 0
        for session_id in opened:
            handle = self._sessions.pop(session_id)
            if handle is not None:
                self._end_quietly(session_id, handle)
                cleaned += 1
        if cleaned:
            self._m_cleaned.inc(cleaned)

    def _end_quietly(self, session_id: str, handle: Session) -> None:
        try:
            if handle.alive:
                # A pending request means a batch is still in flight;
                # give it a moment to land, then end.
                for _ in range(50):
                    try:
                        handle.end()
                        break
                    except SessionError as error:
                        if "unserved" not in str(error):
                            break
                        handle.server.flush()
                        time.sleep(0.002)
        except Exception:
            pass
