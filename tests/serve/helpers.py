"""Shared factories for the serving parity/concurrency suite.

The reference semantics for every test here is **solo serving**: a fresh
policy serving one session alone, one ``policy.act`` per request, with
that session's own noise stream. ``solo_serve`` computes that stream;
the suites assert the microbatched :class:`repro.serve.PolicyServer`
reproduces it bit-for-bit under every batching/interleaving the server
can produce.

Parity tests drive the server open-loop (pre-generated observation
streams): the policy only ever sees (observations, previous actions,
its recurrent state), so closed-loop equivalence follows and is smoked
separately by ``examples/serve_quickstart.py`` / ``python -m repro.serve``
against live environments.
"""

import numpy as np

from repro.core import build_sim2rec_policy, dpr_small_config
from repro.rl import MLPActorCritic, RecurrentActorCritic

STATE_DIM = 2
ACTION_DIM = 1

#: Every policy family the serving layer must batch bit-identically.
POLICY_KINDS = ("mlp", "lstm", "sim2rec")
RECURRENT_KINDS = ("lstm", "sim2rec")


def make_policy(kind: str):
    """Fresh policy with deterministic weights (same kind -> same bytes)."""
    if kind == "mlp":
        return MLPActorCritic(
            STATE_DIM, ACTION_DIM, np.random.default_rng(1), hidden_sizes=(16,)
        )
    if kind == "lstm":
        return RecurrentActorCritic(
            STATE_DIM, ACTION_DIM, np.random.default_rng(0),
            lstm_hidden=8, head_hidden=(16,),
        )
    if kind == "sim2rec":
        return build_sim2rec_policy(STATE_DIM, ACTION_DIM, dpr_small_config(seed=0))
    raise ValueError(kind)


def make_obs_streams(user_counts, steps, seed=7):
    """One open-loop observation stream per session: [steps][num_users, d]."""
    rng = np.random.default_rng(seed)
    return [
        [rng.random((num_users, STATE_DIM)) for _ in range(steps)]
        for num_users in user_counts
    ]


def solo_serve(kind, num_users, session_seed, obs_stream, deterministic=False,
               policy=None):
    """Serve one session alone: the bit-identity reference.

    Returns ``[(actions, log_probs, values), ...]`` per step. Pass a
    prebuilt ``policy`` to thread one instance through several calls
    (hot-swap references mutate weights between steps).
    """
    if policy is None:
        policy = make_policy(kind)
    rng = np.random.default_rng(session_seed)
    policy.start_rollout(num_users)
    prev = np.zeros((num_users, ACTION_DIM))
    out = []
    for obs in obs_stream:
        actions, log_probs, values = policy.act(
            obs, prev, rng, deterministic=deterministic
        )
        prev = actions
        out.append((actions, log_probs, values))
    return out


def assert_result_matches(result, expected, label=""):
    """Bitwise comparison of one served ActionResult to a solo step."""
    actions, log_probs, values = expected
    assert np.array_equal(result.actions, actions), f"{label}: actions diverge"
    assert np.array_equal(result.log_probs, log_probs), f"{label}: log_probs diverge"
    assert np.array_equal(result.values, values), f"{label}: values diverge"


def serve_value(server, name, *labels):
    """Current value of one of ``server``'s registry series (every serve
    series is labelled with the server's replica name first)."""
    return server.metrics.value(name, server.name, *labels)


def window_counts(server):
    """Windows ``server`` has closed so far, keyed by the rule that closed
    them (its ``serve_windows_total`` series)."""
    family = server.metrics.snapshot()["serve_windows_total"]
    return {
        series["labels"]["reason"]: int(series["value"])
        for series in family["series"]
        if series["labels"]["replica"] == server.name
    }
