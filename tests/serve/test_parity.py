"""Serving parity: microbatched sessions bit-reproduce solo serving.

The serving counterpart of ``tests/rl/test_rollout_parity.py``: every
action the :class:`repro.serve.PolicyServer` returns from a stacked
microbatch must be **bitwise identical** to what the same session would
have received served alone (one ``policy.act`` per request), across

- every policy family (MLP / LSTM / Sim2Rec),
- ragged session sizes sharing one window,
- arbitrary arrival interleavings (staggered joins, early ends,
  per-step participation patterns, arrival-order permutations),
- window chunking (``max_batch_size`` smaller than the offered load),
- mixed deterministic/stochastic sessions in one window,

plus the two headline regressions: recurrent/Sim2Rec **session-state
isolation** (identical observations, different histories -> each
session still reproduces its own solo stream) and **hot-swap
mid-stream** (weights swapped at step k serve exactly like a solo
policy whose weights were swapped at step k).
"""

import numpy as np
import pytest

from repro.serve import PolicyServer, ServeConfig, snapshot_policy

from .helpers import (
    ACTION_DIM,
    POLICY_KINDS,
    RECURRENT_KINDS,
    assert_result_matches,
    make_obs_streams,
    make_policy,
    solo_serve,
)


def serve_interleaved(kind, user_counts, obs_streams, session_seeds,
                      schedule, max_batch_size=32, deterministic=False):
    """Drive the server with an explicit per-step participation schedule.

    ``schedule[t]`` lists the session indices submitting at step ``t`` (in
    that arrival order); each session consumes its own obs stream in
    order. Returns per-session lists of ActionResults.
    """
    server = PolicyServer(
        make_policy(kind), ServeConfig(max_batch_size=max_batch_size)
    )
    sessions = [
        server.session(num_users=n, seed=session_seeds[i], deterministic=deterministic)
        for i, n in enumerate(user_counts)
    ]
    cursors = [0] * len(user_counts)
    results = [[] for _ in user_counts]
    for participants in schedule:
        tickets = []
        for index in participants:
            obs = obs_streams[index][cursors[index]]
            cursors[index] += 1
            tickets.append((index, sessions[index].submit(obs)))
        server.flush()
        for index, ticket in tickets:
            results[index].append(ticket.result(timeout=5.0))
    server.close()
    return results


@pytest.mark.parametrize("kind", POLICY_KINDS)
class TestMicrobatchParity:
    def test_full_interleave_matches_solo(self, kind):
        """All sessions in every window, ragged sizes, one flush per step."""
        user_counts = [1, 3, 2, 4]
        steps = 6
        obs_streams = make_obs_streams(user_counts, steps)
        seeds = [100 + i for i in range(len(user_counts))]
        schedule = [list(range(len(user_counts)))] * steps
        served = serve_interleaved(kind, user_counts, obs_streams, seeds, schedule)
        for i, n in enumerate(user_counts):
            solo = solo_serve(kind, n, seeds[i], obs_streams[i])
            for t, (result, expected) in enumerate(zip(served[i], solo)):
                assert_result_matches(result, expected, f"{kind}/session{i}/step{t}")

    def test_staggered_joins_and_early_ends(self, kind):
        """Sessions joining and leaving mid-stream keep their solo streams."""
        user_counts = [2, 1, 3]
        obs_streams = make_obs_streams(user_counts, 6, seed=11)
        seeds = [200, 201, 202]
        # session 0 runs steps 0-5, session 1 joins at 2 and ends at 4,
        # session 2 joins at 1 and ends at 3.
        schedule = [
            [0],
            [0, 2],
            [1, 0, 2],
            [2, 1, 0],
            [0, 1],
            [0],
        ]
        lengths = [6, 3, 3]
        served = serve_interleaved(kind, user_counts, obs_streams, seeds, schedule)
        for i, n in enumerate(user_counts):
            assert len(served[i]) == lengths[i]
            solo = solo_serve(kind, n, seeds[i], obs_streams[i][: lengths[i]])
            for t, (result, expected) in enumerate(zip(served[i], solo)):
                assert_result_matches(result, expected, f"{kind}/session{i}/step{t}")

    def test_window_chunking_matches_solo(self, kind):
        """max_batch_size=2 splits each flush into ragged windows."""
        user_counts = [2, 1, 2, 1, 3]
        steps = 4
        obs_streams = make_obs_streams(user_counts, steps, seed=13)
        seeds = [300 + i for i in range(len(user_counts))]
        schedule = [list(range(len(user_counts)))] * steps
        served = serve_interleaved(
            kind, user_counts, obs_streams, seeds, schedule, max_batch_size=2
        )
        for i, n in enumerate(user_counts):
            solo = solo_serve(kind, n, seeds[i], obs_streams[i])
            for t, (result, expected) in enumerate(zip(served[i], solo)):
                assert_result_matches(result, expected, f"{kind}/session{i}/step{t}")

    def test_arrival_order_is_irrelevant(self, kind):
        """Any within-window arrival permutation serves identical streams."""
        user_counts = [2, 3, 1]
        steps = 4
        obs_streams = make_obs_streams(user_counts, steps, seed=17)
        seeds = [400, 401, 402]
        orders = [[0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]]
        served = serve_interleaved(
            kind, user_counts, obs_streams, seeds, orders[:steps]
        )
        for i, n in enumerate(user_counts):
            solo = solo_serve(kind, n, seeds[i], obs_streams[i])
            for t, (result, expected) in enumerate(zip(served[i], solo)):
                assert_result_matches(result, expected, f"{kind}/session{i}/step{t}")


def test_mixed_determinism_window():
    """Deterministic and stochastic sessions share a window bit-exactly."""
    user_counts = [2, 2, 1]
    flags = [False, True, False]
    steps = 5
    obs_streams = make_obs_streams(user_counts, steps, seed=23)
    seeds = [500, 501, 502]
    server = PolicyServer(make_policy("lstm"), ServeConfig(max_batch_size=16))
    sessions = [
        server.session(num_users=n, seed=seeds[i], deterministic=flags[i])
        for i, n in enumerate(user_counts)
    ]
    served = [[] for _ in user_counts]
    for t in range(steps):
        tickets = [
            session.submit(obs_streams[i][t]) for i, session in enumerate(sessions)
        ]
        server.flush()
        for i, ticket in enumerate(tickets):
            served[i].append(ticket.result(timeout=5.0))
    server.close()
    for i, n in enumerate(user_counts):
        solo = solo_serve("lstm", n, seeds[i], obs_streams[i], deterministic=flags[i])
        for t, (result, expected) in enumerate(zip(served[i], solo)):
            assert_result_matches(result, expected, f"mixed/session{i}/step{t}")


@pytest.mark.parametrize("kind", RECURRENT_KINDS)
class TestSessionStateIsolation:
    """Satellite regression: interleaved histories never bleed across sessions."""

    def test_identical_observations_different_histories(self, kind):
        """Two sessions fed the *same* observations from step 2 on, after
        different warm-up histories, must produce *different* actions — each
        bit-equal to its own solo stream (shared hidden state would collapse
        them onto one stream)."""
        steps = 6
        shared = make_obs_streams([2], steps, seed=29)[0]
        warmup_a = make_obs_streams([2], 2, seed=31)[0]
        warmup_b = make_obs_streams([2], 2, seed=37)[0]
        stream_a = warmup_a + shared[2:]
        stream_b = warmup_b + shared[2:]
        seeds = [600, 600]  # identical noise streams: only history differs
        served = serve_interleaved(
            kind, [2, 2], [stream_a, stream_b], seeds, [[0, 1]] * steps
        )
        solo_a = solo_serve(kind, 2, seeds[0], stream_a)
        solo_b = solo_serve(kind, 2, seeds[1], stream_b)
        for t in range(steps):
            assert_result_matches(served[0][t], solo_a[t], f"{kind}/A/step{t}")
            assert_result_matches(served[1][t], solo_b[t], f"{kind}/B/step{t}")
        # Histories diverge -> post-warm-up actions must differ even though
        # observations and noise streams are identical.
        diverged = any(
            not np.array_equal(served[0][t].actions, served[1][t].actions)
            for t in range(2, steps)
        )
        assert diverged, f"{kind}: different histories produced identical actions"

    def test_interleaving_pattern_does_not_leak_state(self, kind):
        """A session's stream is invariant to who else shares its windows."""
        user_counts = [2, 3]
        steps = 5
        obs_streams = make_obs_streams(user_counts, steps, seed=41)
        seeds = [700, 701]
        together = serve_interleaved(
            kind, user_counts, obs_streams, seeds, [[0, 1]] * steps
        )
        alone = serve_interleaved(
            kind, [user_counts[0]], [obs_streams[0]], [seeds[0]], [[0]] * steps
        )
        for t in range(steps):
            assert_result_matches(
                together[0][t],
                (alone[0][t].actions, alone[0][t].log_probs, alone[0][t].values),
                f"{kind}/step{t}",
            )


@pytest.mark.parametrize("kind", ["mlp", "lstm", "sim2rec"])
class TestHotSwapMidStream:
    def test_swap_at_step_k_matches_solo_swap(self, kind):
        """Serving across a swap == solo serving across the same swap."""
        num_users, steps, k = 2, 6, 3
        obs_streams = make_obs_streams([num_users, 1], steps, seed=43)
        seeds = [800, 801]
        donor = make_policy(kind)
        for param in donor.parameters():
            param.data = param.data + 0.03
        payload = snapshot_policy(donor)

        server = PolicyServer(make_policy(kind), ServeConfig(max_batch_size=8))
        sessions = [
            server.session(num_users=n, seed=seeds[i])
            for i, n in enumerate([num_users, 1])
        ]
        served = [[] for _ in sessions]
        versions = []
        for t in range(steps):
            if t == k:
                assert server.swap_policy(payload) == 2
            tickets = [
                session.submit(obs_streams[i][t]) for i, session in enumerate(sessions)
            ]
            server.flush()
            for i, ticket in enumerate(tickets):
                served[i].append(ticket.result(timeout=5.0))
            versions.append(served[0][t].version)
        server.close()
        assert versions == [1] * k + [2] * (steps - k)

        # Solo reference: one policy instance per session, weights swapped
        # before its k-th act, recurrent state carried straight across the
        # swap (a swap must replace weights only, never session state).
        for i, n in enumerate([num_users, 1]):
            policy = make_policy(kind)
            rng = np.random.default_rng(seeds[i])
            policy.start_rollout(n)
            prev = np.zeros((n, ACTION_DIM))
            for t in range(steps):
                if t == k:
                    state = policy.recurrent_state()
                    policy.load_replica_state(donor.replica_state())
                    policy.set_recurrent_state(state)
                actions, log_probs, values = policy.act(
                    obs_streams[i][t], prev, rng
                )
                prev = actions
                assert_result_matches(
                    served[i][t], (actions, log_probs, values), f"{kind}/s{i}/t{t}"
                )

    def test_swap_actually_changes_actions(self, kind):
        """The swapped weights are really served (guards a no-op load)."""
        obs = make_obs_streams([2], 1, seed=47)[0][0]
        server = PolicyServer(make_policy(kind), ServeConfig())
        before = server.session(num_users=2, seed=900, deterministic=True).act(
            obs, timeout=5.0
        )
        donor = make_policy(kind)
        for param in donor.parameters():
            param.data = param.data + 0.05
        server.swap_policy(snapshot_policy(donor))
        after = server.session(num_users=2, seed=900, deterministic=True).act(
            obs, timeout=5.0
        )
        server.close()
        assert not np.array_equal(before.actions, after.actions)
        assert before.version == 1 and after.version == 2
