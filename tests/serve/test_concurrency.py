"""Concurrency: threaded clients, background dispatcher, swap atomicity.

The parity suites drive the server single-threaded with explicit
``flush()`` calls, making batch composition deterministic. Here the
composition is left to the scheduler: real client threads race into the
background dispatcher's windows, and hot swaps race the batches. The
contracts under test:

- per-session bit-identity to solo serving holds for **every** batch
  composition the scheduler produces (the parity argument is composition
  -independent, so thread timing cannot matter), including the lock-step
  windows that close as soon as every session has a request queued;
- under a mid-stream swap, every response carries the version that
  produced it, versions are monotone per session, and each session's
  stream equals a solo replay that switches weights at the step where
  that session first observed the new version;
- swap atomicity: a swap that arrives while a batch is **in flight**
  waits for it — the in-flight batch completes on the old weights and
  stamps the old version.
"""

import threading

import numpy as np
import pytest

from repro.rl import MLPActorCritic
from repro.serve import PolicyServer, ServeConfig, snapshot_policy

from .helpers import (
    ACTION_DIM,
    STATE_DIM,
    assert_result_matches,
    make_obs_streams,
    make_policy,
    solo_serve,
    window_counts,
)


def drive_session(session, obs_stream, out, errors):
    """Client thread body: one blocking ``act`` per step of the stream."""
    try:
        for obs in obs_stream:
            out.append(session.act(obs, timeout=30.0))
    except BaseException as error:  # surfaced by the main thread
        errors.append(error)


def run_threaded(kind, user_counts, obs_streams, session_seeds, server=None,
                 swap_after=None, swap_payload=None):
    """Drive one client thread per session against the background dispatcher.

    If ``swap_after`` is set, the main thread swaps ``swap_payload`` in as
    soon as any session has received that many responses (so the swap
    genuinely races the serving threads). Returns per-session results.
    """
    if server is None:
        server = PolicyServer(
            make_policy(kind),
            ServeConfig(max_batch_size=len(user_counts), max_wait_ms=0.5),
        )
    sessions = [
        server.session(num_users=n, seed=session_seeds[i])
        for i, n in enumerate(user_counts)
    ]
    server.start()
    results = [[] for _ in user_counts]
    errors = []
    threads = [
        threading.Thread(
            target=drive_session, args=(session, obs_streams[i], results[i], errors)
        )
        for i, session in enumerate(sessions)
    ]
    for thread in threads:
        thread.start()
    if swap_after is not None:
        while all(len(r) < swap_after for r in results) and any(
            t.is_alive() for t in threads
        ):
            pass  # spin until some session reaches the swap point
        server.swap_policy(swap_payload)
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "client thread hung"
    server.stop()
    server.close()
    assert not errors, f"client threads raised: {errors!r}"
    return results


def test_threaded_clients_match_solo():
    """Scheduler-chosen batch compositions still serve solo streams."""
    user_counts = [1, 3, 2, 1, 2]
    steps = 8
    obs_streams = make_obs_streams(user_counts, steps, seed=53)
    seeds = [1000 + i for i in range(len(user_counts))]
    served = run_threaded("lstm", user_counts, obs_streams, seeds)
    for i, n in enumerate(user_counts):
        assert len(served[i]) == steps
        solo = solo_serve("lstm", n, seeds[i], obs_streams[i])
        for t, (result, expected) in enumerate(zip(served[i], solo)):
            assert_result_matches(result, expected, f"session{i}/step{t}")


def test_threaded_sim2rec_group_context_isolated():
    """υ-context stays per-session under scheduler-chosen windows."""
    user_counts = [2, 3]
    steps = 5
    obs_streams = make_obs_streams(user_counts, steps, seed=59)
    seeds = [2000, 2001]
    served = run_threaded("sim2rec", user_counts, obs_streams, seeds)
    for i, n in enumerate(user_counts):
        solo = solo_serve("sim2rec", n, seeds[i], obs_streams[i])
        for t, (result, expected) in enumerate(zip(served[i], solo)):
            assert_result_matches(result, expected, f"session{i}/step{t}")


@pytest.mark.parametrize("kind", ["lstm", "sim2rec"])
def test_all_pending_windows_match_solo(kind):
    """With the default max_batch_size and a window no step may wait out,
    each window closes once every session has its request queued: the
    sessions advance in lock-step, one window per step, still solo."""
    user_counts = [1, 3, 2]
    steps = 6
    obs_streams = make_obs_streams(user_counts, steps, seed=71)
    seeds = [5000 + i for i in range(len(user_counts))]
    server = PolicyServer(make_policy(kind), ServeConfig(max_wait_ms=60_000.0))
    served = run_threaded(kind, user_counts, obs_streams, seeds, server=server)
    assert window_counts(server) == {
        "full": 0, "all_pending": steps, "max_wait": 0, "flush": 0
    }
    for i, n in enumerate(user_counts):
        assert len(served[i]) == steps
        solo = solo_serve(kind, n, seeds[i], obs_streams[i])
        for t, (result, expected) in enumerate(zip(served[i], solo)):
            assert_result_matches(result, expected, f"session{i}/step{t}")


def test_hot_swap_under_concurrency():
    """A swap racing live client threads is atomic and version-stamped."""
    kind = "lstm"
    user_counts = [2, 1, 3]
    steps = 10
    obs_streams = make_obs_streams(user_counts, steps, seed=61)
    seeds = [3000 + i for i in range(len(user_counts))]
    donor = make_policy(kind)
    for param in donor.parameters():
        param.data = param.data + 0.04
    served = run_threaded(
        kind, user_counts, obs_streams, seeds,
        swap_after=3, swap_payload=snapshot_policy(donor),
    )
    for i, n in enumerate(user_counts):
        versions = [result.version for result in served[i]]
        assert set(versions) <= {1, 2}, f"session{i}: unknown version in {versions}"
        assert versions == sorted(versions), f"session{i}: versions not monotone"
        # Replay solo, switching weights exactly where this session first
        # saw version 2 (recurrent state carried across the swap).
        switch = versions.index(2) if 2 in versions else steps
        policy = make_policy(kind)
        rng = np.random.default_rng(seeds[i])
        policy.start_rollout(n)
        prev = np.zeros((n, ACTION_DIM))
        for t in range(steps):
            if t == switch:
                state = policy.recurrent_state()
                policy.load_replica_state(donor.replica_state())
                policy.set_recurrent_state(state)
            actions, log_probs, values = policy.act(obs_streams[i][t], prev, rng)
            prev = actions
            assert_result_matches(
                served[i][t], (actions, log_probs, values), f"session{i}/step{t}"
            )


class GatedMLP(MLPActorCritic):
    """MLP whose forward blocks until released — freezes a batch in flight."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def act(self, states, prev_actions, rng, deterministic=False):
        self.entered.set()
        assert self.release.wait(timeout=30.0), "gate never released"
        return super().act(states, prev_actions, rng, deterministic=deterministic)


def test_inflight_batch_completes_on_old_version():
    """A swap arriving mid-batch waits; the batch lands on the old weights."""
    policy = GatedMLP(
        STATE_DIM, ACTION_DIM, np.random.default_rng(1), hidden_sizes=(16,)
    )
    server = PolicyServer(policy, ServeConfig(max_batch_size=4))
    session = server.session(num_users=2, seed=4000)
    obs = make_obs_streams([2], 2, seed=67)[0]

    ticket = session.submit(obs[0])
    flusher = threading.Thread(target=server.flush)
    flusher.start()
    assert policy.entered.wait(timeout=30.0), "batch never reached the policy"

    # The batch now holds the lock inside policy.act. A swap must block
    # until it completes rather than mutating weights under it.
    donor = MLPActorCritic(
        STATE_DIM, ACTION_DIM, np.random.default_rng(1), hidden_sizes=(16,)
    )
    for param in donor.parameters():
        param.data = param.data + 0.05
    payload = snapshot_policy(donor)
    swapped = threading.Event()

    def do_swap():
        server.swap_policy(payload)
        swapped.set()

    swapper = threading.Thread(target=do_swap)
    swapper.start()
    assert not swapped.wait(timeout=0.2), "swap landed while a batch was in flight"

    policy.release.set()
    flusher.join(timeout=30.0)
    swapper.join(timeout=30.0)
    assert swapped.is_set(), "swap never completed after the batch finished"

    # The frozen batch was served by the old weights and says so.
    first = ticket.result(timeout=5.0)
    assert first.version == 1
    # The very next request is served by the swapped weights.
    second = session.act(obs[1], timeout=30.0)
    assert second.version == 2 and server.version == 2
    server.close()
