"""Gateway wire protocol + failure semantics + many-client parity.

Three layers:

- **framing** — ``recv_frame``, the decoder the gateway and the client
  read with, over a socket stand-in: fragmentation-proof decoding,
  bit-exact ndarray transport (including NaN payloads), oversized-frame
  rejection;
- **protocol** — one live loopback gateway per test: typed ``TIMEOUT``
  on deadline expiry (with deferred session cleanup), ``BUSY`` under
  admission overflow, disconnect/idle cleanup, LRU/TTL session bounds,
  ``BAD_REQUEST`` resilience, prompt ``close()``, and a fuzz of
  arbitrary messages that must all get a typed reply;
- **parity** — the contract the transport must not break: actions served
  through TCP by many concurrent clients are bit-identical to direct
  in-process ``PolicyServer`` serving.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    DeadlineExceeded,
    FrameError,
    Gateway,
    GatewayBusy,
    GatewayClient,
    GatewayConfig,
    PolicyServer,
    ReplicaSet,
    ServeConfig,
    SessionError,
)
from repro.serve.protocol import pack_frame, recv_frame, unpack_frame

from .helpers import STATE_DIM, make_obs_streams, make_policy, serve_value, solo_serve


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def make_gateway(kind="mlp", serve_overrides=None, **gateway_overrides):
    server = PolicyServer(
        make_policy(kind),
        ServeConfig(**{"max_batch_size": 8, "max_wait_ms": 1.0, "seed": 0,
                       **(serve_overrides or {})}),
    )
    gateway = Gateway(server, GatewayConfig(**gateway_overrides))
    gateway.start()
    return gateway, server


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class ChunkedSocket:
    """Socket stand-in: ``recv`` hands out ``data`` at most ``chunk``
    bytes at a time, then reads EOF."""

    def __init__(self, data, chunk=65536):
        self._data = data
        self._chunk = chunk

    def recv(self, count):
        piece = self._data[: min(count, self._chunk)]
        self._data = self._data[len(piece):]
        return piece


def frame_of(body):
    return struct.pack(">I", len(body)) + body


class TestFraming:
    def test_roundtrip_preserves_structure(self):
        message = {"op": "act", "nested": [1, 2.5, None, "x", {"y": True}]}
        sock = ChunkedSocket(pack_frame(message))
        assert recv_frame(sock) == message
        assert recv_frame(sock) is None  # clean EOF at the frame boundary

    def test_ndarray_transport_is_bit_exact(self):
        array = np.array([[0.1 + 0.2, -0.0, np.nan, np.inf, 1e-308]])
        decoded = recv_frame(ChunkedSocket(pack_frame({"obs": array})))
        out = decoded["obs"]
        assert out.dtype == array.dtype
        assert out.tobytes() == array.tobytes()  # bitwise, NaN included
        out[0, 0] = 7.0  # decoded arrays are writable copies

    def test_one_byte_at_a_time_fragmentation(self):
        frame = pack_frame({"op": "ping", "obs": np.arange(6.0).reshape(2, 3)})
        sock = ChunkedSocket(frame, chunk=1)
        message = recv_frame(sock)
        assert np.array_equal(message["obs"], np.arange(6.0).reshape(2, 3))
        assert recv_frame(sock) is None

    def test_many_frames_in_one_chunk_and_a_tail(self):
        frames = pack_frame({"i": 0}) + pack_frame({"i": 1}) + pack_frame({"i": 2})
        sock = ChunkedSocket(frames[:-3], chunk=len(frames))  # last frame cut off
        assert [recv_frame(sock)["i"] for _ in range(2)] == [0, 1]
        with pytest.raises(FrameError, match="closed mid-frame"):
            recv_frame(sock)

    def test_oversized_length_prefix_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            recv_frame(ChunkedSocket((2**31).to_bytes(4, "big") + b"x"))

    def test_bad_ndarray_tag_rejected(self):
        from repro.serve.protocol import decode_payload

        with pytest.raises(FrameError, match="ndarray"):
            decode_payload({"__ndarray__": [2], "dtype": "not-a-dtype", "b64": "AA=="})
        with pytest.raises(FrameError, match="ndarray"):
            decode_payload({"__ndarray__": [4], "dtype": "<f8", "b64": "AA=="})
        body = b'{"obs": {"__ndarray__": [4], "dtype": "<f8", "b64": "AA=="}}'
        with pytest.raises(FrameError, match="ndarray"):
            recv_frame(ChunkedSocket(frame_of(body)))

    def test_deeply_nested_frame_rejected(self):
        # ~1.8 KB of nested arrays used to exhaust the decoder's stack
        # with a RecursionError instead of a typed FrameError.
        body = b"[" * 900 + b"]" * 900
        with pytest.raises(FrameError, match="nests too deeply"):
            unpack_frame(body)
        with pytest.raises(FrameError, match="nests too deeply"):
            recv_frame(ChunkedSocket(frame_of(body)))


# ----------------------------------------------------------------------
# protocol semantics over a live socket
# ----------------------------------------------------------------------
class TestProtocol:
    def test_open_act_end_happy_path(self):
        gateway, server = make_gateway()
        with gateway, GatewayClient(gateway.address) as client:
            assert client.ping()
            session = client.open_session(num_users=2, seed=5)
            assert session.replica == "default"
            result = session.act(np.zeros((2, STATE_DIM)))
            assert result.actions.shape == (2, 1)
            assert result.step == 1
            assert session.steps == 1
            session.end()
            assert server.num_sessions == 0

    def test_stats_op_answers_with_the_registry_snapshot(self):
        gateway, _ = make_gateway()
        with gateway, GatewayClient(gateway.address) as client:
            client.open_session(num_users=1).act(np.zeros((1, STATE_DIM)))
            reply = client._roundtrip({"op": "stats"})
            assert set(reply) == {"ok", "metrics"}
            assert set(reply["metrics"]) == set(gateway.metrics.snapshot())
            assert reply["metrics"]["serve_requests_total"]["series"] == [
                {"labels": {"replica": "default"}, "value": 1.0}
            ]

    def test_act_on_unknown_session_is_typed_session_error(self):
        gateway, _ = make_gateway()
        with gateway, GatewayClient(gateway.address) as client:
            session = client.open_session()
            session.end()
            session._ended = False  # force the dead id onto the wire
            with pytest.raises(SessionError, match="unknown session"):
                session.act(np.zeros((1, STATE_DIM)))

    def test_shape_mismatch_reports_server_message(self):
        gateway, _ = make_gateway()
        with gateway, GatewayClient(gateway.address) as client:
            session = client.open_session(num_users=1)
            with pytest.raises(SessionError, match="shape"):
                session.act(np.zeros((3, STATE_DIM)))
            # the connection survives a typed error
            assert client.ping()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_non_finite_observation_is_typed_session_error(self, bad):
        gateway, server = make_gateway("sim2rec")
        stream = make_obs_streams([3], steps=3)[0]
        with gateway, GatewayClient(gateway.address) as client:
            session = client.open_session(num_users=3, seed=11)
            twin = client.open_session(num_users=3, seed=11)
            session.act(stream[0])
            twin.act(stream[0])
            poisoned = stream[1].copy()
            poisoned[2, 1] = bad
            with pytest.raises(SessionError, match="finite"):
                session.act(poisoned)
            assert client.ping()
            assert serve_value(server, "serve_queue_depth") == 0
            for obs in stream[1:]:
                got, want = session.act(obs), twin.act(obs)
                assert np.array_equal(got.actions, want.actions)
                assert np.array_equal(got.log_probs, want.log_probs)
                assert np.array_equal(got.values, want.values)
            assert session.steps == 3
            session.end()
            twin.end()
            assert gateway.metrics.value("gateway_failures_total", "SESSION") == 1
            # Six acts were served; the refused one was never counted.
            assert gateway.metrics.value("gateway_requests_total", "act") == 6

    def test_bad_requests_keep_the_connection_alive(self):
        gateway, _ = make_gateway()
        with gateway:
            with socket.create_connection(gateway.address, timeout=5.0) as sock:

                def roundtrip(message):
                    sock.sendall(pack_frame(message))
                    reply = recv_frame(sock)
                    assert reply is not None, "gateway closed the connection"
                    return reply

                for bad in (
                    {"op": "warp"},
                    {"no_op": 1},
                    {"op": "act"},
                    {"op": "act", "session": "s", "obs": None},
                    {"op": "end"},
                    "just a string",
                ):
                    reply = roundtrip(bad)
                    assert reply["ok"] is False
                    assert reply["error"] in ("BAD_REQUEST", "SESSION")
                assert roundtrip({"op": "ping"})["ok"] is True

    def test_non_finite_numbers_are_bad_requests(self):
        # JSON admits Infinity and 1e400; int() of either used to raise
        # OverflowError, which killed the connection's handler thread.
        gateway, server = make_gateway()
        with gateway:
            with socket.create_connection(gateway.address, timeout=5.0) as sock:

                def roundtrip(body):
                    sock.sendall(frame_of(body))
                    reply = recv_frame(sock)
                    assert reply is not None, "gateway closed the connection"
                    return reply

                for body in (
                    b'{"op": "open", "num_users": Infinity}',
                    b'{"op": "open", "num_users": -Infinity}',
                    b'{"op": "open", "seed": 1e400}',
                    b'{"op": "act", "session": "s", "obs": [[0, 0]], '
                    b'"deadline_ms": 1' + b"0" * 400 + b"}",
                ):
                    reply = roundtrip(body)
                    assert reply["ok"] is False
                    assert reply["error"] == "BAD_REQUEST", reply
                assert roundtrip(b'{"op": "ping"}')["ok"] is True
            assert server.num_sessions == 0
            assert gateway.metrics.value("gateway_failures_total", "BAD_REQUEST") == 4

    def test_deadline_expiry_returns_typed_timeout(self):
        # A wide-open batching window (huge max_wait, huge batch) with an
        # idle session open parks the request: its 50 ms deadline must
        # expire, typed.
        gateway, server = make_gateway(
            serve_overrides={"max_wait_ms": 60_000.0, "max_batch_size": 64}
        )
        with gateway, GatewayClient(gateway.address) as client:
            idle = server.session(num_users=1)
            session = client.open_session(num_users=1)
            begin = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="deadline"):
                session.act(np.zeros((1, STATE_DIM)), deadline_ms=50)
            assert time.monotonic() - begin < 5.0
            assert gateway.metrics.value("gateway_failures_total", "TIMEOUT") == 1
            # The session is quarantined: dead to the client, ended
            # server-side once its in-flight batch resolves (the reaper
            # runs on any later request).
            server.flush()
            idle.end()
            assert wait_until(lambda: client.ping() and server.num_sessions == 0)

    def test_busy_under_admission_overflow(self):
        gateway, server = make_gateway(
            serve_overrides={"max_wait_ms": 60_000.0, "max_batch_size": 64},
            max_pending=1,
        )
        with gateway:
            server.session(num_users=1)  # idle: holds the occupant's window open
            blocked_error = []

            def occupant():
                with GatewayClient(gateway.address) as client:
                    session = client.open_session(num_users=1)
                    try:
                        session.act(np.zeros((1, STATE_DIM)), deadline_ms=2000)
                    except DeadlineExceeded as error:
                        blocked_error.append(error)

            thread = threading.Thread(target=occupant)
            thread.start()
            try:
                assert wait_until(
                    lambda: gateway.metrics.value("gateway_pending_requests") == 1
                )
                with GatewayClient(gateway.address) as client:
                    session = client.open_session(num_users=1)
                    with pytest.raises(GatewayBusy, match="retry"):
                        session.act(np.zeros((1, STATE_DIM)))
                assert gateway.metrics.value("gateway_failures_total", "BUSY") == 1
            finally:
                # Serve the occupant's window now instead of letting its
                # 2 s deadline run out: the idle session holds it open.
                server.flush()
                thread.join()

    def test_disconnect_mid_session_cleans_up(self):
        gateway, server = make_gateway()
        with gateway:
            client = GatewayClient(gateway.address)
            session = client.open_session(num_users=1)
            session.act(np.zeros((1, STATE_DIM)))
            assert server.num_sessions == 1
            client.close()  # vanish without an `end`
            assert wait_until(lambda: server.num_sessions == 0)
            assert gateway.metrics.value("gateway_connections_cleaned_total") >= 1

    def test_disconnect_with_request_in_flight_cleans_up(self):
        """Closing the socket while a batch is pending must not leak."""
        gateway, server = make_gateway(
            serve_overrides={"max_wait_ms": 200.0, "max_batch_size": 64}
        )
        with gateway:
            client = GatewayClient(gateway.address)
            session = client.open_session(num_users=1)
            worker = threading.Thread(
                target=lambda: self._swallow(
                    lambda: session.act(np.zeros((1, STATE_DIM)), deadline_ms=50)
                )
            )
            worker.start()
            worker.join()
            client.close()
            # A request from another connection runs the reaper.
            with GatewayClient(gateway.address) as probe:
                assert wait_until(lambda: probe.ping() and server.num_sessions == 0)

    @staticmethod
    def _swallow(fn):
        try:
            fn()
        except Exception:
            pass

    def test_lru_session_cap_is_enforced(self):
        gateway, server = make_gateway(max_sessions=4)
        with gateway, GatewayClient(gateway.address) as client:
            for _ in range(10):
                client.open_session(num_users=1)
            assert gateway.metrics.value("gateway_store_sessions") <= 4
            assert gateway.metrics.value("gateway_store_evictions_total", "lru") >= 6
            assert wait_until(lambda: server.num_sessions <= 4)

    def test_ttl_evicts_idle_sessions(self):
        gateway, server = make_gateway(session_ttl_s=0.1)
        with gateway, GatewayClient(gateway.address) as client:
            idle = client.open_session(num_users=1)
            time.sleep(0.25)
            client.open_session(num_users=1)  # mutation sweeps expired entries
            assert gateway.metrics.value("gateway_store_evictions_total", "ttl") >= 1
            with pytest.raises(SessionError, match="unknown session"):
                idle._ended = False
                idle.act(np.zeros((1, STATE_DIM)))

    def test_idle_connection_is_closed(self):
        gateway, _ = make_gateway(idle_timeout_s=0.15)
        with gateway:
            client = GatewayClient(gateway.address)
            assert client.ping()
            time.sleep(0.4)
            with pytest.raises(Exception):
                client.ping()
            client.close()

    def test_config_validation(self):
        for knobs in (
            {"max_pending": 0},
            {"max_pending": 1.5},
            {"default_deadline_ms": 0.0},
            {"default_deadline_ms": float("nan")},
            {"idle_timeout_s": -1.0},
            {"max_sessions": 0},
            {"session_ttl_s": 0.0},
            {"default_deadline_ms": True},
            {"default_deadline_ms": "5000"},
            {"idle_timeout_s": True},
            {"max_sessions": True},
            {"max_sessions": 2.5},
            {"session_ttl_s": True},
        ):
            with pytest.raises(ValueError):
                GatewayConfig(**knobs)


class TestClose:
    def test_close_without_start_returns(self):
        # socketserver.shutdown() waits for a serve_forever loop, so a
        # gateway that never started used to hang in close() forever.
        gateway = Gateway(PolicyServer(make_policy("mlp"), ServeConfig(seed=0)))
        closer = threading.Thread(target=gateway.close, daemon=True)
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive(), "close() hung on a gateway never started"
        assert gateway._tcp.socket.fileno() == -1  # the port is released

    def test_close_does_not_wait_out_quarantined_batches(self):
        # Two timed-out sessions whose batch is parked behind a wide
        # window (an idle session keeps it open). close() used to wait
        # 5 s on each quarantined ticket before draining the replicas.
        gateway, server = make_gateway(
            serve_overrides={"max_wait_ms": 60_000.0, "max_batch_size": 64}
        )
        server.session(num_users=1)  # idle: holds the window open
        with GatewayClient(gateway.address) as client:
            for _ in range(2):
                session = client.open_session(num_users=1)
                with pytest.raises(DeadlineExceeded):
                    session.act(np.zeros((1, STATE_DIM)), deadline_ms=50)
        assert gateway.metrics.value("gateway_quarantined_sessions") == 2
        begin = time.monotonic()
        gateway.close()
        assert time.monotonic() - begin < 1.0
        assert gateway.metrics.value("gateway_quarantined_sessions") == 0


class TestOpenValidation:
    """The wire ``open`` op takes its fields as sent: one of the wrong
    type is a ``BAD_REQUEST`` and opens nothing (``bool("false")`` is
    true, and ``int(2.7)`` is 2)."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"deterministic": "false"},
            {"deterministic": 1},
            {"num_users": 2.7},
            {"num_users": "2"},
            {"num_users": True},
            {"seed": 3.9},
            {"seed": True},
            {"key": {"user": 1}},
        ],
        ids=[
            "deterministic-string",
            "deterministic-int",
            "num_users-float",
            "num_users-string",
            "num_users-bool",
            "seed-float",
            "seed-bool",
            "key-object",
        ],
    )
    def test_malformed_field_opens_nothing(self, fields):
        server = PolicyServer(make_policy("mlp"), ServeConfig(seed=0))
        with Gateway(server) as gateway:
            opened = []
            reply = gateway._dispatch({"op": "open", **fields}, opened, gateway._clock())
            assert reply["ok"] is False
            assert reply["error"] == "BAD_REQUEST", reply
            assert opened == []
            assert server.num_sessions == 0


class TestActValidation:
    """The wire ``act`` op takes ``deadline_ms`` as sent, like ``open``'s
    fields: only a JSON number (not a bool) that is finite and > 0 is a
    deadline (``float("50")`` is 50 and ``float(True)`` a 1 ms one)."""

    @pytest.mark.parametrize(
        "deadline_ms", ["50", "1e3", True], ids=["string", "exponent-string", "bool"]
    )
    def test_malformed_deadline_queues_nothing(self, deadline_ms):
        server = PolicyServer(make_policy("mlp"), ServeConfig(seed=0))
        with Gateway(server) as gateway:
            opened = []
            reply = gateway._dispatch(
                {"op": "open", "num_users": 2, "seed": 1}, opened, gateway._clock()
            )
            session = reply["session"]
            obs = np.zeros((2, STATE_DIM)).tolist()
            reply = gateway._dispatch(
                {"op": "act", "session": session, "obs": obs, "deadline_ms": deadline_ms},
                opened,
                gateway._clock(),
            )
            assert reply["ok"] is False
            assert reply["error"] == "BAD_REQUEST", reply
            assert gateway.metrics.value("gateway_requests_total", "act") == 0
            reply = gateway._dispatch(
                {"op": "act", "session": session, "obs": obs}, opened, gateway._clock()
            )
            assert reply["ok"] is True, reply
            assert reply["step"] == 1

    @pytest.mark.parametrize(
        "obs,error",
        [
            ("abc", "BAD_REQUEST"),
            ({"x": 1.0}, "BAD_REQUEST"),
            ([[0.0, 0.0], [0.0]], "BAD_REQUEST"),
            ([[1.0]], "SESSION"),
            ([["1", "2"], ["0.5", "1e1"]], "BAD_REQUEST"),
            ([[True, False], [1, 0]], "BAD_REQUEST"),
            (np.array([[True, False], [False, True]]), "BAD_REQUEST"),
            (np.array([["1", "2"], ["3", "4"]]), "BAD_REQUEST"),
            (None, "BAD_REQUEST"),
            (1.0, "BAD_REQUEST"),
            ([[0.0, None], [0.0, 0.0]], "BAD_REQUEST"),
            (np.zeros((2, 2), dtype=object), "BAD_REQUEST"),
            (np.zeros((2, 2), dtype=np.complex128), "BAD_REQUEST"),
            ([], "SESSION"),
        ],
        ids=[
            "string",
            "object",
            "ragged",
            "wrong-shape",
            "numeric-strings",
            "bools",
            "bool-array",
            "string-array",
            "missing",
            "scalar",
            "null-leaf",
            "object-array",
            "complex-array",
            "empty-list",
        ],
    )
    def test_malformed_obs_counts_nothing(self, obs, error):
        """An obs that is not a numeric array or nested lists of JSON
        numbers is refused before admission, with no coercion of strings
        or bools; one the session refuses (wrong shape) is typed SESSION.
        Neither counts as an accepted act, and the session goes on."""
        server = PolicyServer(make_policy("mlp"), ServeConfig(seed=0))
        with Gateway(server) as gateway:
            opened = []
            reply = gateway._dispatch(
                {"op": "open", "num_users": 2, "seed": 1}, opened, gateway._clock()
            )
            session = reply["session"]
            reply = gateway._dispatch(
                {"op": "act", "session": session, "obs": obs}, opened, gateway._clock()
            )
            assert reply["ok"] is False
            assert reply["error"] == error, reply
            assert gateway.metrics.value("gateway_requests_total", "act") == 0
            reply = gateway._dispatch(
                {"op": "act", "session": session, "obs": np.zeros((2, STATE_DIM)).tolist()},
                opened,
                gateway._clock(),
            )
            assert reply["ok"] is True, reply
            assert reply["step"] == 1
            assert gateway.metrics.value("gateway_requests_total", "act") == 1

    @pytest.mark.parametrize(
        "form",
        [
            lambda obs: obs.astype(np.float32),
            lambda obs: obs.astype(np.int64),
            lambda obs: obs.astype(np.uint8),
            lambda obs: obs.astype(np.int64).tolist(),
            lambda obs: obs.tolist(),
            lambda obs: [[int(row[0]), *row[1:]] for row in obs.tolist()],
        ],
        ids=["float32-array", "int64-array", "uint8-array", "int-lists", "float-lists", "mixed-lists"],
    )
    def test_numeric_obs_forms_are_served_as_float64(self, form):
        """Every accepted form is served exactly as its float64 array is."""
        obs = np.array([[1.0, 2.0, 0.0, 3.0], [4.0, 0.0, 5.0, 1.0]])[:, :STATE_DIM]
        replies = []
        for sent in (obs, form(obs)):
            server = PolicyServer(make_policy("mlp"), ServeConfig(seed=0))
            with Gateway(server) as gateway:
                opened = []
                reply = gateway._dispatch(
                    {"op": "open", "num_users": 2, "seed": 1}, opened, gateway._clock()
                )
                reply = gateway._dispatch(
                    {"op": "act", "session": reply["session"], "obs": sent},
                    opened,
                    gateway._clock(),
                )
                assert reply["ok"] is True, reply
                assert gateway.metrics.value("gateway_requests_total", "act") == 1
                replies.append(reply)
        for key in ("actions", "log_probs", "values"):
            np.testing.assert_array_equal(replies[1][key], replies[0][key])


class TestEndOp:
    def test_unknown_session_is_typed_session_error(self):
        server = PolicyServer(make_policy("mlp"), ServeConfig(seed=0))
        with Gateway(server) as gateway:
            reply = gateway._dispatch({"op": "end", "session": "s999"}, [], gateway._clock())
            assert reply["ok"] is False
            assert reply["error"] == "SESSION", reply
            assert gateway.metrics.value("gateway_failures_total", "SESSION") == 1
            assert gateway.metrics.value("gateway_requests_total", "end") == 0

    @pytest.mark.parametrize(
        "fields", [{}, {"session": 3}, {"session": ["s000000"]}], ids=["missing", "number", "list"]
    )
    def test_a_non_string_session_id_ends_nothing(self, fields):
        server = PolicyServer(make_policy("mlp"), ServeConfig(seed=0))
        with Gateway(server) as gateway:
            opened = []
            gateway._dispatch({"op": "open", "num_users": 1}, opened, gateway._clock())
            reply = gateway._dispatch({"op": "end", **fields}, opened, gateway._clock())
            assert reply["error"] == "BAD_REQUEST", reply
            assert server.num_sessions == 1 and len(opened) == 1

    def test_end_forgets_the_session_for_this_connection(self):
        server = PolicyServer(make_policy("mlp"), ServeConfig(seed=0))
        with Gateway(server) as gateway:
            opened = []
            session = gateway._dispatch({"op": "open", "num_users": 1}, opened, gateway._clock())[
                "session"
            ]
            reply = gateway._dispatch({"op": "end", "session": session}, opened, gateway._clock())
            assert reply == {"ok": True, "session": session}
            assert opened == [] and server.num_sessions == 0
            again = gateway._dispatch({"op": "end", "session": session}, opened, gateway._clock())
            assert again["error"] == "SESSION"


class TestMetricsEndpointConfig:
    @pytest.mark.parametrize("port", [-1, 1.5, True, "9090"], ids=repr)
    def test_bad_metrics_port_rejected(self, port):
        with pytest.raises(ValueError, match="metrics_port"):
            GatewayConfig(metrics_port=port)

    def test_no_metrics_port_serves_no_endpoint(self):
        gateway, _ = make_gateway()
        with gateway:
            assert gateway.metrics_address is None

    def test_ephemeral_metrics_port_is_bound_on_start(self):
        gateway, _ = make_gateway(metrics_port=0)
        with gateway:
            host, port = gateway.metrics_address
            assert port > 0
            gateway.start()  # a second start keeps the same endpoint
            assert gateway.metrics_address == (host, port)
        assert gateway.metrics_address is None


# ----------------------------------------------------------------------
# fuzz: arbitrary messages always get a typed reply
# ----------------------------------------------------------------------
TYPED_ERRORS = {"BAD_REQUEST", "SESSION", "BUSY", "TIMEOUT"}

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _messages(session_ids):
    """Wire messages: op-shaped dicts whose fields take arbitrary JSON
    values (a live session id and a well-formed ``obs`` half the time,
    so acts get served too), dicts with an arbitrary ``op``, and any JSON
    value at all."""
    session = st.sampled_from(session_ids) | _json_values
    obs = (
        st.lists(
            st.lists(st.floats(), min_size=STATE_DIM, max_size=STATE_DIM),
            min_size=1,
            max_size=1,
        )
        | _json_values
    )
    optional = {
        name: _json_values
        for name in ("num_users", "seed", "deterministic", "key", "deadline_ms", "trace")
    }
    ops = st.sampled_from(["open", "act", "end", "ping", "stats", "warp"])
    return st.one_of(
        st.fixed_dictionaries(
            {"op": ops, "session": session, "obs": obs}, optional=optional
        ),
        st.fixed_dictionaries(
            {"op": _json_values}, optional={"session": session, "obs": obs, **optional}
        ),
        _json_values,
    )


class TestDispatchFuzz:
    SESSION_IDS = ["fuzz-a", "fuzz-b"]

    def test_any_message_gets_a_typed_reply(self):
        # An unstarted gateway: _dispatch flushes the replica itself, so
        # served acts run synchronously on this thread.
        with Gateway(PolicyServer(make_policy("mlp"), ServeConfig(seed=0))) as gateway:

            def reopen_ended_sessions():
                for session_id in self.SESSION_IDS:
                    if gateway._sessions.get(session_id) is None:
                        handle = gateway.replicas.replica("default").session(session_id)
                        gateway._sessions.put(session_id, handle)

            @settings(max_examples=100, deadline=None)
            @given(message=_messages(self.SESSION_IDS))
            def check(message):
                reopen_ended_sessions()
                reply = gateway._dispatch(message, [], gateway._clock())
                assert isinstance(reply, dict)
                assert isinstance(reply.get("ok"), bool), reply
                if not reply["ok"]:
                    assert reply.get("error") in TYPED_ERRORS, reply

            check()


# ----------------------------------------------------------------------
# parity: TCP serving must not perturb a single bit
# ----------------------------------------------------------------------
class TestGatewayParity:
    @pytest.mark.parametrize("kind", ["mlp", "lstm", "sim2rec"])
    def test_threaded_many_client_parity(self, kind):
        """N concurrent TCP clients == N solo in-process sessions, bitwise."""
        num_sessions, steps = 6, 5
        user_counts = [1 + (i % 3) for i in range(num_sessions)]
        obs_streams = make_obs_streams(user_counts, steps, seed=23)
        session_seeds = [500 + i for i in range(num_sessions)]

        gateway, _ = make_gateway(kind=kind)
        served = [None] * num_sessions
        errors = []

        def run(index):
            try:
                with GatewayClient(gateway.address) as client:
                    session = client.open_session(
                        num_users=user_counts[index], seed=session_seeds[index]
                    )
                    served[index] = [
                        session.act(obs) for obs in obs_streams[index]
                    ]
                    session.end()
            except Exception as error:
                errors.append((index, error))

        with gateway:
            threads = [
                threading.Thread(target=run, args=(index,))
                for index in range(num_sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors

        for index in range(num_sessions):
            reference = solo_serve(
                kind, user_counts[index], session_seeds[index], obs_streams[index]
            )
            for step, (result, expected) in enumerate(zip(served[index], reference)):
                actions, log_probs, values = expected
                assert np.array_equal(result.actions, actions), (index, step)
                assert np.array_equal(result.log_probs, log_probs), (index, step)
                assert np.array_equal(result.values, values), (index, step)

    def test_two_replica_ab_split_serves_both_arms(self):
        """A/B routing: sessions land per the seeded split, both arms serve."""
        replica_set = ReplicaSet(config=ServeConfig(max_wait_ms=1.0, seed=0), seed=11)
        replica_set.add("control", make_policy("mlp"), weight=0.5)
        treatment = make_policy("mlp")
        for param in treatment.parameters():
            param.data = param.data + 0.05
        replica_set.add("treatment", treatment, weight=0.5)

        with Gateway(replica_set) as gateway:
            gateway.start()
            arms = {}
            with GatewayClient(gateway.address) as client:
                for index in range(16):
                    session = client.open_session(num_users=1, key=f"user{index}")
                    result = session.act(np.zeros((1, STATE_DIM)))
                    arms.setdefault(session.replica, []).append(result.actions)
                    session.end()
            assert set(arms) == {"control", "treatment"}
            # the two arms really serve different weights
            assert not np.array_equal(arms["control"][0], arms["treatment"][0])
