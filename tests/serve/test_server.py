"""PolicyServer protocol semantics: lifecycle, errors, hot-swap contract.

Parity is proven in ``test_parity.py``; this file pins the *protocol*:
session lifecycle rules (unknown ids, double submits, shape checks,
pending-request fences), window accounting and the dispatcher's window
close rules, the synchronous ``act``
convenience, and the full hot-swap rulebook (apply / skip-if-byte-equal /
stale stamp / torn archive / structure mismatch), plus server shutdown.
"""

import threading

import numpy as np
import pytest

from repro.nn.serialization import StateChecksumError
from repro.rl import StaleReplicaError
from repro.serve import (
    PolicyServer,
    ServeConfig,
    SessionError,
    Ticket,
    snapshot_policy,
)

from .helpers import (
    STATE_DIM,
    assert_result_matches,
    make_obs_streams,
    make_policy,
    serve_value,
    solo_serve,
    window_counts,
)


def make_server(kind="mlp", **overrides):
    defaults = dict(max_batch_size=8, max_wait_ms=2.0, seed=0)
    defaults.update(overrides)
    return PolicyServer(make_policy(kind), ServeConfig(**defaults))


class TestConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServeConfig(max_wait_ms=-1.0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"max_batch_size": 1.5},
            {"max_batch_size": True},
            {"max_batch_size": "8"},
            {"max_wait_ms": float("nan")},
            {"max_wait_ms": float("inf")},
            {"max_wait_ms": "2.0"},
            {"max_wait_ms": None},
            {"seed": 1.5},
            {"seed": True},
            {"seed": "0"},
        ],
    )
    def test_rejects_wrong_types_and_non_finite(self, knobs):
        with pytest.raises(ValueError):
            ServeConfig(**knobs)

    def test_numpy_integers_accepted(self):
        config = ServeConfig(
            max_batch_size=np.int64(4), max_wait_ms=np.float64(1.0), seed=np.int32(7)
        )
        assert config.max_batch_size == 4

    def test_error_messages_name_the_knob(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ServeConfig(max_batch_size=-3)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServeConfig(max_wait_ms=float("nan"))
        with pytest.raises(ValueError, match="seed"):
            ServeConfig(seed="bad")


class TestSessionLifecycle:
    def test_auto_ids_are_unique(self):
        server = make_server()
        ids = {server.session().id for _ in range(5)}
        assert len(ids) == 5
        assert server.num_sessions == 5

    def test_duplicate_explicit_id_rejected(self):
        server = make_server()
        server.session(session_id="alice")
        with pytest.raises(SessionError, match="already exists"):
            server.session(session_id="alice")

    def test_num_users_must_be_positive(self):
        with pytest.raises(ValueError):
            make_server().session(num_users=0)

    def test_unknown_session_rejected(self):
        server = make_server()
        with pytest.raises(SessionError, match="unknown session"):
            server.get_session("ghost")
        ended = server.session(num_users=1)
        ended.end()
        with pytest.raises(SessionError, match="unknown session"):
            ended.submit(np.zeros((1, STATE_DIM)))
        with pytest.raises(SessionError, match="unknown session"):
            ended.end()

    def test_double_submit_rejected(self):
        server = make_server()
        session = server.session(num_users=1)
        session.submit(np.zeros((1, STATE_DIM)))
        with pytest.raises(SessionError, match="in flight"):
            session.submit(np.zeros((1, STATE_DIM)))

    def test_observation_shape_checked(self):
        server = make_server()
        session = server.session(num_users=2)
        with pytest.raises(SessionError, match="shape"):
            session.submit(np.zeros((3, STATE_DIM)))
        with pytest.raises(SessionError, match="shape"):
            session.submit(np.zeros((2, STATE_DIM + 1)))

    def test_one_dim_obs_accepted_for_single_user(self):
        server = make_server()
        session = server.session(num_users=1)
        result = session.act(np.zeros(STATE_DIM), timeout=5.0)
        assert result.actions.shape == (1, 1)
        assert result.step == 1

    def test_end_with_pending_request_rejected(self):
        server = make_server()
        session = server.session(num_users=1)
        session.submit(np.zeros((1, STATE_DIM)))
        with pytest.raises(SessionError, match="unserved"):
            session.end()
        server.flush()
        session.end()
        assert server.num_sessions == 0

    def test_reused_id_after_end_is_fresh(self):
        """Ending a session frees its id; a new session starts from scratch."""
        obs = make_obs_streams([1], 2, seed=3)[0]
        server = make_server(kind="lstm")
        session = server.session(session_id="s", num_users=1, seed=5)
        first = session.act(obs[0], timeout=5.0)
        session.end()
        again = server.session(session_id="s", num_users=1, seed=5).act(
            obs[0], timeout=5.0
        )
        assert again.step == 1
        assert np.array_equal(first.actions, again.actions)


class TestSessionHandle:
    """The `Session` handle surface."""

    def test_session_returns_live_handle(self):
        server = make_server()
        handle = server.session(num_users=2, seed=3)
        assert handle.alive
        assert handle.num_users == 2
        assert handle.steps == 0
        assert handle.version == server.version

    def test_get_session_attaches_to_same_state(self):
        server = make_server()
        handle = server.session(session_id="alice", num_users=1, seed=0)
        other = server.get_session("alice")
        handle.act(np.zeros(STATE_DIM), timeout=5.0)
        assert other.steps == 1
        other.end()
        assert not handle.alive

    def test_get_session_unknown_id_rejected(self):
        with pytest.raises(SessionError, match="unknown session"):
            make_server().get_session("ghost")

    def test_handle_after_end_rejected(self):
        server = make_server()
        handle = server.session(num_users=1)
        handle.end()
        assert not handle.alive
        with pytest.raises(SessionError, match="unknown session"):
            handle.submit(np.zeros((1, STATE_DIM)))
        with pytest.raises(SessionError, match="unknown session"):
            handle.end()

    def test_stale_handle_does_not_touch_reused_id(self):
        """A handle outlived by its session must not act on the id's successor."""
        server = make_server()
        old = server.session(session_id="s", num_users=1)
        old.end()
        fresh = server.session(session_id="s", num_users=1)
        with pytest.raises(SessionError, match="unknown session"):
            old.submit(np.zeros((1, STATE_DIM)))
        assert fresh.alive

    def test_version_tracks_swaps(self):
        server = make_server()
        handle = server.session(num_users=1, seed=0)
        handle.act(np.zeros(STATE_DIM), timeout=5.0)
        assert handle.version == 1
        swapped = make_policy("mlp")
        for param in swapped.parameters():
            param.data = param.data + 0.25  # different bytes -> the swap applies
        server.publish(swapped)
        assert server.version == 2
        assert handle.version == 1  # not served since the swap
        handle.act(np.zeros(STATE_DIM), timeout=5.0)
        assert handle.version == 2

    def test_end_with_pending_request_rejected_via_handle(self):
        server = make_server()
        handle = server.session(num_users=1)
        handle.submit(np.zeros((1, STATE_DIM)))
        with pytest.raises(SessionError, match="unserved"):
            handle.end()
        server.flush()
        handle.end()


class TestNonFiniteObservations:
    """One NaN in one user's row would make the whole group's SADAE
    context NaN, and the session's extractor state with it for good, so
    the one submit funnel refuses it before anything is queued."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("kind", ["lstm", "sim2rec"])
    def test_rejected_and_the_session_is_untouched(self, kind, bad):
        server = make_server(kind)
        stream = make_obs_streams([3], steps=3)[0]
        session = server.session(num_users=3, seed=11)
        twin = server.session(num_users=3, seed=11)
        session.act(stream[0])
        twin.act(stream[0])
        poisoned = stream[1].copy()
        poisoned[1, 0] = bad
        with pytest.raises(SessionError, match="finite"):
            session.submit(poisoned)
        assert serve_value(server, "serve_queue_depth") == 0
        assert serve_value(server, "serve_requests_total") == 2
        for obs in stream[1:]:
            got, want = session.act(obs), twin.act(obs)
            assert_result_matches(got, (want.actions, want.log_probs, want.values))
            assert np.isfinite(got.actions).all()
        assert session.steps == twin.steps == 3
        session.end()


class TestMixedWindowFailure:
    """A window holding stochastic and deterministic requests is served
    as two ``policy.act`` calls; one raising must not orphan the other."""

    @pytest.mark.parametrize("failing", [False, True], ids=["stochastic", "deterministic"])
    def test_every_class_is_served_or_failed(self, failing, monkeypatch):
        kind = "lstm"
        policy = make_policy(kind)
        server = PolicyServer(policy, ServeConfig(max_batch_size=8, seed=0))
        streams = {False: make_obs_streams([2], 3, seed=1)[0], True: make_obs_streams([3], 3, seed=2)[0]}
        sessions = {
            False: server.session(num_users=2, seed=4),
            True: server.session(num_users=3, deterministic=True),
        }
        # Solo references. The failed request drew no noise and moved no
        # state, so the failing session replays its stream from step 1.
        references = {
            flag: solo_serve(
                kind,
                sessions[flag].num_users,
                4,
                streams[flag][1:] if flag is failing else streams[flag],
                deterministic=flag,
            )
            for flag in (False, True)
        }
        original = policy.act

        def act(states, prev_actions, rng, deterministic=False):
            if deterministic is failing:
                raise RuntimeError("boom")
            return original(states, prev_actions, rng, deterministic=deterministic)

        monkeypatch.setattr(policy, "act", act)
        tickets = {flag: sessions[flag].submit(streams[flag][0]) for flag in (False, True)}
        with pytest.raises(RuntimeError, match="boom"):
            server.flush()
        with pytest.raises(RuntimeError, match="boom"):
            tickets[failing].result(timeout=0.5)
        assert_result_matches(
            tickets[not failing].result(timeout=0.5), references[not failing][0]
        )
        assert serve_value(server, "serve_queue_depth") == 0
        monkeypatch.undo()
        for step in (1, 2):
            for flag, session in sessions.items():
                expected = references[flag][step - 1 if flag is failing else step]
                assert_result_matches(session.act(streams[flag][step]), expected)
        for session in sessions.values():
            session.end()


class TestTicket:
    def test_every_waiter_wakes_with_the_result(self):
        ticket = Ticket()
        seen = []
        waiters = [
            threading.Thread(target=lambda: seen.append(ticket.result(timeout=5.0)))
            for _ in range(4)
        ]
        for waiter in waiters:
            waiter.start()
        assert not ticket.done()
        ticket._resolve("served")
        for waiter in waiters:
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
        assert ticket.done()
        assert seen == ["served"] * 4
        assert ticket.result(timeout=0) == "served"

    @pytest.mark.parametrize("timeout", [0.0, -1.0, 0.01])
    def test_unresolved_ticket_times_out(self, timeout):
        ticket = Ticket()
        with pytest.raises(TimeoutError):
            ticket.result(timeout=timeout)
        assert not ticket.done()

    def test_failure_reaches_every_caller(self):
        ticket = Ticket()
        ticket._fail(ValueError("nope"))
        assert ticket.done()
        for _ in range(2):
            with pytest.raises(ValueError, match="nope"):
                ticket.result()


class TestWindows:
    def test_flush_reports_served_count_and_chunks(self):
        server = make_server(max_batch_size=2)
        sessions = [server.session(num_users=1) for _ in range(5)]
        tickets = [session.submit(np.zeros((1, STATE_DIM))) for session in sessions]
        assert server.flush() == 5
        assert all(ticket.done() for ticket in tickets)
        assert serve_value(server, "serve_batches_total") == 3  # 2 + 2 + 1
        assert serve_value(server, "serve_requests_total") == 5
        assert serve_value(server, "serve_queue_depth") == 0

    def test_flush_on_empty_queue_is_noop(self):
        server = make_server()
        assert server.flush() == 0
        assert serve_value(server, "serve_batches_total") == 0

    def test_max_batch_rows_tracks_user_axis(self):
        server = make_server()
        sessions = [server.session(num_users=users) for users in (3, 2)]
        for session in sessions:
            session.submit(np.zeros((session.num_users, STATE_DIM)))
        server.flush()
        assert serve_value(server, "serve_batch_rows_max") == 5

    def test_ticket_timeout(self):
        server = make_server()
        ticket = server.session(num_users=1).submit(np.zeros((1, STATE_DIM)))
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)
        server.flush()
        assert ticket.result(timeout=1.0).step == 1


class TestWindowCloseRules:
    """Which rule closes a background window, read off
    ``serve_windows_total`` rather than inferred from timing."""

    WIDE = 60_000.0  # a max_wait_ms no test may wait out

    @staticmethod
    def started(**overrides):
        return PolicyServer(make_policy("mlp"), ServeConfig(**overrides)).start()

    def test_window_closes_once_every_session_is_pending(self):
        server = self.started(max_wait_ms=self.WIDE)
        try:
            first = server.session(num_users=1)
            second = server.session(num_users=2)
            tickets = [
                first.submit(np.zeros((1, STATE_DIM))),
                second.submit(np.zeros((2, STATE_DIM))),
            ]
            assert [t.result(timeout=10).step for t in tickets] == [1, 1]
            assert window_counts(server) == {
                "full": 0, "all_pending": 1, "max_wait": 0, "flush": 0
            }
            assert serve_value(server, "serve_batch_rows_max") == 3  # one shared window
        finally:
            server.close()

    def test_window_waits_for_an_idle_session(self):
        server = self.started(max_wait_ms=self.WIDE)
        try:
            sessions = [server.session(num_users=1) for _ in range(3)]
            ticket = sessions[0].submit(np.zeros((1, STATE_DIM)))
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.2)
            assert server.flush() == 1
            assert ticket.result(timeout=1.0).step == 1
            assert window_counts(server) == {
                "full": 0, "all_pending": 0, "max_wait": 0, "flush": 1
            }
        finally:
            server.close()

    def test_ending_the_idle_session_closes_the_window(self):
        server = self.started(max_wait_ms=self.WIDE)
        try:
            busy, idle = server.session(num_users=1), server.session(num_users=1)
            ticket = busy.submit(np.zeros((1, STATE_DIM)))
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.1)  # the dispatcher is waiting on idle
            idle.end()
            assert ticket.result(timeout=10).step == 1
            assert window_counts(server)["all_pending"] == 1
        finally:
            server.close()

    def test_full_and_max_wait_still_close_windows(self):
        server = self.started(max_batch_size=2, max_wait_ms=self.WIDE)
        try:
            sessions = [server.session(num_users=1) for _ in range(3)]
            tickets = [s.submit(np.zeros((1, STATE_DIM))) for s in sessions[:2]]
            assert [t.result(timeout=10).step for t in tickets] == [1, 1]
            assert window_counts(server)["full"] == 1
        finally:
            server.close()
        server = self.started(max_wait_ms=1.0)
        try:
            busy, _idle = server.session(num_users=1), server.session(num_users=1)
            assert busy.submit(np.zeros((1, STATE_DIM))).result(timeout=10).step == 1
            assert window_counts(server)["max_wait"] == 1
        finally:
            server.close()


class TestHotSwapProtocol:
    def test_apply_bumps_version_and_stamps_responses(self):
        server = make_server(kind="lstm")
        donor = make_policy("lstm")
        for param in donor.parameters():
            param.data = param.data + 0.02
        assert server.version == 1
        assert server.swap_policy(snapshot_policy(donor)) == 2
        assert server.version == 2
        session = server.session(num_users=1)
        assert session.act(np.zeros(STATE_DIM), timeout=5.0).version == 2
        assert serve_value(server, "serve_swaps_total", "applied") == 1

    def test_byte_equal_archive_skipped(self):
        server = make_server(kind="lstm")
        payload = snapshot_policy(make_policy("lstm"))  # same bytes as serving
        assert server.swap_policy(payload) == 1
        assert serve_value(server, "serve_swaps_total", "skipped") == 1
        assert serve_value(server, "serve_swaps_total", "applied") == 0

    def test_explicit_version_stamps(self):
        server = make_server(kind="lstm")
        donor = make_policy("lstm")
        for param in donor.parameters():
            param.data = param.data + 0.02
        assert server.swap_policy(snapshot_policy(donor), version=7) == 7
        with pytest.raises(StaleReplicaError):
            server.swap_policy(snapshot_policy(make_policy("lstm")), version=7)
        with pytest.raises(StaleReplicaError):
            server.swap_policy(snapshot_policy(make_policy("lstm")), version=3)

    def test_torn_archive_rejected_weights_untouched(self):
        server = make_server(kind="lstm")
        donor = make_policy("lstm")
        for param in donor.parameters():
            param.data = param.data + 0.02
        payload = bytearray(snapshot_policy(donor))
        payload[len(payload) // 2] ^= 0xFF
        with pytest.raises(StateChecksumError):
            server.swap_policy(bytes(payload))
        assert server.version == 1
        # the serving weights still answer like the original policy
        obs = make_obs_streams([1], 1, seed=9)[0][0]
        got = server.session(num_users=1, seed=4, deterministic=True).act(
            obs, timeout=5.0
        )
        reference = PolicyServer(make_policy("lstm"), ServeConfig())
        expected = reference.session(num_users=1, seed=4, deterministic=True).act(
            obs, timeout=5.0
        )
        assert np.array_equal(got.actions, expected.actions)

    def test_structure_mismatch_rejected(self):
        server = make_server(kind="lstm")
        with pytest.raises(ValueError, match="structure"):
            server.swap_policy(snapshot_policy(make_policy("mlp")))
        assert server.version == 1

    def test_publish_convenience(self):
        server = make_server(kind="gru")
        donor = make_policy("gru")
        for param in donor.parameters():
            param.data = param.data + 0.01
        assert server.publish(donor) == 2
        assert server.publish(donor) == 2  # byte-equal now: skipped


class TestShutdown:
    def test_close_fails_pending_tickets(self):
        server = make_server()
        ticket = server.session(num_users=1).submit(np.zeros((1, STATE_DIM)))
        server.close()
        with pytest.raises(SessionError, match="closed"):
            ticket.result(timeout=1.0)
        with pytest.raises(SessionError, match="closed"):
            server.session()
        with pytest.raises(SessionError, match="closed"):
            server.swap_policy(snapshot_policy(make_policy("mlp")))

    def test_context_manager_closes(self):
        with make_server() as server:
            server.session(num_users=1).act(np.zeros(STATE_DIM), timeout=5.0)
        with pytest.raises(SessionError):
            server.session()

    def test_close_is_idempotent(self):
        server = make_server()
        server.close()
        server.close()
