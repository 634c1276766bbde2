"""Regression tests for the serve-client deadline/desync bugfixes.

Three bugs, each with the test that failed before its fix:

- **connection poisoning** — a transport fault mid-exchange used to
  leave the client reusable, so the next request read the *previous*
  request's late reply (off-by-one desync). The client now closes
  itself on any ``OSError``/``ValueError`` during a roundtrip.
- **socket timeout vs. per-request deadline** — a ``deadline_ms``
  larger than the client's fixed socket timeout used to surface as a
  generic transport failure (the socket gave up before the gateway's
  typed ``TIMEOUT`` reply could arrive). The client now raises the
  socket timeout to ``deadline_s + DEADLINE_MARGIN_S`` for that
  exchange only.
- **deadline clock zero** — the gateway used to start the deadline
  clock at ``ticket.result(...)``, granting decode/dispatch/admission
  free time on top of ``deadline_ms``. The clock now starts when the
  request frame arrives off the socket, and only the *remaining*
  budget reaches the batch wait.
"""

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceeded,
    Gateway,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    PolicyServer,
    ServeConfig,
)

from .helpers import STATE_DIM, make_policy
from .test_gateway import make_gateway, wait_until


# ----------------------------------------------------------------------
# bug 1: transport faults must poison the connection
# ----------------------------------------------------------------------
class TestConnectionPoisoning:
    def test_mid_frame_timeout_poisons_the_client(self):
        """A socket timeout mid-reply closes the client; every later call
        raises instead of reading the stale reply off the wire."""
        # Wide-open batching with an idle session open parks the act
        # server-side; the client's own 0.2 s socket timeout fires first,
        # mid-exchange.
        gateway, server = make_gateway(
            serve_overrides={"max_wait_ms": 60_000.0, "max_batch_size": 64}
        )
        with gateway:
            server.session(num_users=1)  # idle: holds the window open
            client = GatewayClient(gateway.address, timeout_s=0.2)
            session = client.open_session(num_users=1)
            with pytest.raises(GatewayError, match="transport failure"):
                session.act(np.zeros((1, STATE_DIM)))
            # Poisoned: reuse must raise, not desynchronise the stream.
            with pytest.raises(GatewayError, match="client is closed"):
                client.ping()
            with pytest.raises(GatewayError, match="client is closed"):
                session.act(np.zeros((1, STATE_DIM)))
            client.close()  # idempotent


# ----------------------------------------------------------------------
# bug 3: deadline_ms larger than the socket timeout stays typed
# ----------------------------------------------------------------------
class TestDeadlineOverSocketTimeout:
    def test_large_deadline_yields_typed_timeout_not_transport_failure(self):
        """deadline_ms > timeout_s * 1000: the socket timeout is raised
        for the exchange, so the gateway's typed TIMEOUT reply arrives
        and the connection survives."""
        gateway, server = make_gateway(
            serve_overrides={"max_wait_ms": 60_000.0, "max_batch_size": 64}
        )
        with gateway:
            idle = server.session(num_users=1)  # holds the window open
            client = GatewayClient(gateway.address, timeout_s=0.2)
            session = client.open_session(num_users=1)
            with pytest.raises(DeadlineExceeded, match="deadline"):
                session.act(np.zeros((1, STATE_DIM)), deadline_ms=1000)
            # The typed reply came through: the connection is healthy and
            # the per-exchange timeout raise was restored afterwards.
            assert client.ping() is True
            assert client._sock.gettimeout() == pytest.approx(0.2)
            assert gateway.metrics.value("gateway_failures_total", "TIMEOUT") == 1
            server.flush()
            idle.end()
            # Any request drives the reaper that ends the quarantined session.
            assert wait_until(lambda: client.ping() and server.num_sessions == 0)
            client.close()


# ----------------------------------------------------------------------
# bug 2: the deadline clock starts at frame arrival
# ----------------------------------------------------------------------
class SteppingClock:
    """Monotonic fake that jumps ``step`` seconds on every read: the gap
    between the arrival stamp and the act handler's read models a decode
    and dispatch slower than any plausible deadline."""

    def __init__(self, step: float):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestDeadlineClockStartsAtArrival:
    def test_slow_decode_spends_the_deadline_budget(self):
        """With 10 s elapsing between frame arrival and dispatch, a 5 s
        deadline must expire *before* the request reaches the server —
        pre-fix, the wait got the full 5 s regardless and the act
        succeeded."""
        server = PolicyServer(
            make_policy("mlp"),
            ServeConfig(max_batch_size=8, max_wait_ms=1.0, seed=0),
        )
        gateway = Gateway(server, GatewayConfig(), clock=SteppingClock(10.0))
        gateway.start()
        with gateway:
            client = GatewayClient(gateway.address)
            session = client.open_session(num_users=1)
            with pytest.raises(DeadlineExceeded, match="before dispatch"):
                session.act(np.zeros((1, STATE_DIM)), deadline_ms=5000)
            assert gateway.metrics.value("gateway_failures_total", "TIMEOUT") == 1
            # The request never reached the server: nothing to
            # quarantine, the session was ended directly.
            assert gateway.metrics.value("gateway_quarantined_sessions") == 0
            assert wait_until(lambda: server.num_sessions == 0)
            client.close()

    def test_wait_receives_only_the_remaining_budget(self):
        """Time already spent since arrival comes out of the budget the
        batch wait gets: 2 s gone from a 5 s deadline leaves a 3 s wait."""

        class FakeTicket:
            def __init__(self):
                self.timeout = None

            def result(self, timeout=None):
                self.timeout = timeout
                raise TimeoutError

            def done(self):
                return True

        class FakeServer:
            running = True

        class FakeHandle:
            def __init__(self):
                self.ticket = FakeTicket()
                self.server = FakeServer()
                self.alive = False

            def submit(self, obs, trace=None):
                return self.ticket

        now = [100.0]
        server = PolicyServer(
            make_policy("mlp"),
            ServeConfig(max_batch_size=8, max_wait_ms=1.0, seed=0),
        )
        gateway = Gateway(server, GatewayConfig(), clock=lambda: now[0])
        gateway.start()
        with gateway:
            handle = FakeHandle()
            gateway._sessions.put("s", handle)
            reply = gateway._op_act(
                {"session": "s", "obs": np.zeros((1, STATE_DIM)),
                 "deadline_ms": 5000.0},
                arrival=now[0] - 2.0,
            )
            assert reply["ok"] is False and reply["error"] == "TIMEOUT"
            assert handle.ticket.timeout == pytest.approx(3.0)
