"""Property-based fuzz tests for microbatch assembly (hypothesis).

Fuzzed serving schedules — random session counts, ragged ``num_users``,
random per-step participation/arrival orders, mid-stream session ends,
random ``max_batch_size`` window chunking and per-session deterministic
flags — must always serve every session **bit-identically** to solo
serving (one ``policy.act`` per request on a fresh policy). This is the
serving analogue of ``tests/rl/test_rollout_properties.py``'s
RNG-stream-isolation property and runs derandomized for reproducible CI.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.serve import PolicyServer, ServeConfig  # noqa: E402

from .helpers import (  # noqa: E402
    STATE_DIM,
    assert_result_matches,
    make_policy,
    solo_serve,
)

COMMON = dict(deadline=None, derandomize=True, print_blob=True)


@st.composite
def serving_plans(draw, max_sessions=4, max_steps=5):
    """A full fuzzed serving scenario.

    Returns ``(user_counts, lengths, schedule, flags, max_batch_size)``:
    ragged session sizes, a per-session request count (mid-stream ends —
    a session simply stops submitting), a per-step participation order
    realising those counts, per-session deterministic flags, and a
    window size that may be far smaller than the offered load.
    """
    num_sessions = draw(st.integers(1, max_sessions))
    user_counts = [draw(st.integers(1, 4)) for _ in range(num_sessions)]
    lengths = [draw(st.integers(1, max_steps)) for _ in range(num_sessions)]
    flags = [draw(st.booleans()) for _ in range(num_sessions)]
    max_batch_size = draw(st.integers(1, 8))
    # Build the schedule step by step: any session with requests left may
    # participate, in a drawn arrival order; at least one must (else the
    # step is dropped), so the schedule realises every session's length.
    remaining = list(lengths)
    schedule = []
    while any(remaining):
        alive = [i for i, left in enumerate(remaining) if left > 0]
        participants = [i for i in alive if draw(st.booleans())] or [
            alive[draw(st.integers(0, len(alive) - 1))]
        ]
        order = draw(st.permutations(participants))
        for index in order:
            remaining[index] -= 1
        schedule.append(list(order))
    return user_counts, lengths, schedule, flags, max_batch_size


def run_plan(kind, plan, seed):
    """Serve a fuzzed plan and assert per-step bit-identity vs solo."""
    user_counts, lengths, schedule, flags, max_batch_size = plan
    rng = np.random.default_rng(seed)
    obs_streams = [
        [rng.random((users, STATE_DIM)) for _ in range(length)]
        for users, length in zip(user_counts, lengths)
    ]
    session_seeds = [seed * 1000 + i for i in range(len(user_counts))]
    server = PolicyServer(
        make_policy(kind), ServeConfig(max_batch_size=max_batch_size)
    )
    sessions = [
        server.session(num_users=users, seed=session_seeds[i], deterministic=flags[i])
        for i, users in enumerate(user_counts)
    ]
    cursors = [0] * len(user_counts)
    served = [[] for _ in user_counts]
    for participants in schedule:
        tickets = []
        for index in participants:
            obs = obs_streams[index][cursors[index]]
            cursors[index] += 1
            tickets.append((index, sessions[index].submit(obs)))
        server.flush()
        for index, ticket in tickets:
            served[index].append(ticket.result(timeout=5.0))
        # Mid-stream end: a session whose stream is exhausted leaves the
        # server entirely; later windows must not miss its rows.
        for index in participants:
            if cursors[index] == lengths[index]:
                sessions[index].end()
    server.close()
    for i, users in enumerate(user_counts):
        assert len(served[i]) == lengths[i]
        solo = solo_serve(
            kind, users, session_seeds[i], obs_streams[i], deterministic=flags[i]
        )
        for t, (result, expected) in enumerate(zip(served[i], solo)):
            assert_result_matches(result, expected, f"{kind}/session{i}/step{t}")


@settings(max_examples=25, **COMMON)
@given(plan=serving_plans(), seed=st.integers(0, 2**16))
def test_fuzzed_schedules_mlp(plan, seed):
    run_plan("mlp", plan, seed)


@settings(max_examples=25, **COMMON)
@given(plan=serving_plans(), seed=st.integers(0, 2**16))
def test_fuzzed_schedules_lstm(plan, seed):
    run_plan("lstm", plan, seed)


@settings(max_examples=8, **COMMON)
@given(plan=serving_plans(max_sessions=3, max_steps=4), seed=st.integers(0, 2**16))
def test_fuzzed_schedules_sim2rec(plan, seed):
    run_plan("sim2rec", plan, seed)
