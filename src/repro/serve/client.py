"""Client library for the serving gateway: handles, not strings.

:class:`GatewayClient` owns one TCP connection to a
:class:`~repro.serve.gateway.Gateway` and exposes the same handle-first
surface as in-process serving: ``client.open_session(...)`` returns a
:class:`RemoteSession` whose ``act``/``end``/``version`` mirror
:class:`repro.serve.server.Session`. ``act`` returns a real
:class:`~repro.serve.server.ActionResult`; the wire codec ships raw
float64 bytes, so remote results are bit-identical to in-process ones.

The gateway's typed failure responses surface as typed exceptions:

- ``BUSY`` → :class:`GatewayBusy` (request shed at admission; retry),
- ``TIMEOUT`` → :class:`DeadlineExceeded` (the session is gone — open a
  new one),
- ``SESSION`` → :class:`repro.serve.server.SessionError` (protocol
  misuse, same message as in-process),
- ``BAD_REQUEST`` and transport faults → :class:`GatewayError`.

A transport fault (socket timeout or error mid-frame) **poisons the
connection**: the client closes itself, and every later call raises
``GatewayError("client is closed")``. The alternative — reusing the
socket — would desynchronise the strict request/response stream: the
timed-out reply is still in flight, so the next request would read the
previous request's answer. Reconnect with a fresh client instead.

A client is **not** thread-safe: it runs a strict request/response loop
on one socket. Concurrency comes from many clients (each gateway
connection gets its own server thread), which is what the many-client
parity test drives.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .protocol import recv_frame, send_frame
from .server import ActionResult, SessionError

__all__ = [
    "DeadlineExceeded",
    "GatewayBusy",
    "GatewayClient",
    "GatewayError",
    "RemoteSession",
]


class GatewayError(RuntimeError):
    """Transport fault or gateway-rejected request (``BAD_REQUEST``)."""


class GatewayBusy(GatewayError):
    """Admission control shed the request (``BUSY``): back off and retry."""


class DeadlineExceeded(GatewayError):
    """The per-request deadline expired (``TIMEOUT``); the session is dead."""


class RemoteSession:
    """Handle for one gateway-hosted session (mirrors ``serve.Session``)."""

    __slots__ = (
        "_client", "id", "replica", "num_users", "_version", "_step",
        "_ended", "last_trace",
    )

    def __init__(
        self, client: "GatewayClient", session_id: str, replica: str,
        num_users: int, version: int,
    ) -> None:
        self._client = client
        self.id = session_id
        self.replica = replica
        self.num_users = num_users
        self._version = version
        self._step = 0
        self._ended = False
        #: Trace id of the most recent ``act`` exchange (set from the
        #: reply, so a gateway-minted id is visible too); look spans up
        #: with it on the gateway's tracer or in its span dumps.
        self.last_trace: Optional[str] = None

    @property
    def version(self) -> int:
        """Policy version that last served this session."""
        return self._version

    @property
    def steps(self) -> int:
        return self._step

    def act(
        self,
        obs: np.ndarray,
        deadline_ms: Optional[float] = None,
        trace: Optional[str] = None,
    ) -> ActionResult:
        """Serve one observation; bit-identical to in-process serving.

        ``trace`` pins the request's trace id (default: the gateway
        mints one); either way the id used comes back in ``last_trace``.
        """
        if self._ended:
            raise SessionError(f"session {self.id!r} already ended")
        message: Dict[str, Any] = {
            "op": "act",
            "session": self.id,
            "obs": np.asarray(obs, dtype=np.float64),
        }
        if deadline_ms is not None:
            message["deadline_ms"] = float(deadline_ms)
        if trace is not None:
            message["trace"] = str(trace)
        try:
            reply = self._client._roundtrip(
                message,
                deadline_s=None if deadline_ms is None else float(deadline_ms) / 1000.0,
            )
        except DeadlineExceeded:
            self._ended = True  # the gateway quarantined the session
            raise
        self.last_trace = reply.get("trace")
        result = ActionResult(
            actions=reply["actions"],
            log_probs=reply["log_probs"],
            values=reply["values"],
            version=int(reply["version"]),
            step=int(reply["step"]),
        )
        self._version = result.version
        self._step = result.step
        return result

    def end(self) -> None:
        if self._ended:
            return
        self._client._roundtrip({"op": "end", "session": self.id})
        self._ended = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteSession(id={self.id!r}, replica={self.replica!r}, "
            f"steps={self._step}, ended={self._ended})"
        )


class GatewayClient:
    """One connection to a gateway; open sessions, act, read metrics."""

    #: Slack added on top of a per-request deadline when it is used to
    #: raise the socket timeout: the gateway needs time to encode and
    #: flush its (typed) TIMEOUT reply after the deadline itself lapses.
    DEADLINE_MARGIN_S = 2.0

    def __init__(
        self, address: Tuple[str, int], timeout_s: float = 30.0
    ) -> None:
        self._timeout_s = timeout_s
        self._sock = socket.create_connection(address, timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False

    # ------------------------------------------------------------------
    def open_session(
        self,
        num_users: int = 1,
        seed: Optional[int] = None,
        deterministic: bool = False,
        key: Optional[str] = None,
    ) -> RemoteSession:
        """Open a routed session; returns its :class:`RemoteSession`."""
        message: Dict[str, Any] = {
            "op": "open",
            "num_users": num_users,
            "deterministic": deterministic,
        }
        if seed is not None:
            message["seed"] = seed
        if key is not None:
            message["key"] = key
        reply = self._roundtrip(message)
        return RemoteSession(
            self,
            session_id=reply["session"],
            replica=reply["replica"],
            num_users=num_users,
            version=int(reply["version"]),
        )

    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"})["ok"])

    def metrics(self) -> Dict[str, Any]:
        """Full metrics-registry snapshot from the gateway's ``stats`` op.

        One point-in-time capture of every family (gateway, store,
        per-replica serve metrics incl. latency histograms) in the
        registry's snapshot format; see ``docs/observability.md`` for
        the catalog.
        """
        return self._roundtrip({"op": "stats"})["metrics"]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _roundtrip(
        self, message: Dict[str, Any], deadline_s: Optional[float] = None
    ) -> Dict[str, Any]:
        if self._closed:
            raise GatewayError("client is closed")
        restore: Optional[float] = None
        try:
            if deadline_s is not None:
                # A per-request deadline larger than the socket timeout
                # must not be cut short by it: the gateway would answer
                # with a typed TIMEOUT, but the socket would give up
                # first and surface a generic transport failure (tearing
                # down a healthy connection with it). Raise the timeout
                # for this exchange only.
                current = self._sock.gettimeout()
                needed = deadline_s + self.DEADLINE_MARGIN_S
                if current is not None and needed > current:
                    restore = current
                    self._sock.settimeout(needed)
            send_frame(self._sock, message)
            reply = recv_frame(self._sock)
        except (OSError, ValueError) as error:
            # The exchange died mid-frame: the stream may still carry a
            # late or partial reply, so any further request would read
            # the *previous* request's answer (off-by-one desync).
            # Poison the connection — the caller must reconnect.
            self.close()
            raise GatewayError(f"transport failure: {error}") from error
        finally:
            if restore is not None and not self._closed:
                try:
                    self._sock.settimeout(restore)
                except OSError:  # pragma: no cover - socket already dead
                    pass
        if reply is None:
            raise GatewayError("gateway closed the connection")
        if reply.get("ok"):
            return reply
        code = reply.get("error")
        detail = reply.get("message", "")
        if code == "BUSY":
            raise GatewayBusy(detail)
        if code == "TIMEOUT":
            raise DeadlineExceeded(detail)
        if code == "SESSION":
            raise SessionError(detail)
        raise GatewayError(f"{code}: {detail}")
