"""Serving quickstart: microbatched sessions, a hot swap, and parity.

Opens several concurrent user sessions against one
:class:`repro.serve.PolicyServer`, drives them through live LTS
environments with microbatched inference, hot-swaps a "freshly trained"
policy mid-stream, and finally replays one session solo to show the
serving layer's contract: every microbatched action stream is
bit-identical to serving that session alone.

Run:  python examples/serve_quickstart.py
"""

import numpy as np

try:
    import repro.core  # noqa: F401  (probe a submodule so foreign 'repro' dists don't shadow the checkout)
except ImportError:  # running from a checkout: fall back to the src/ layout
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.envs import LTSConfig, LTSEnv
from repro.rl import RecurrentActorCritic
from repro.serve import PolicyServer, ServeConfig, snapshot_policy

SESSIONS = 6
USERS = 4
STEPS = 16
SWAP_AT = 8


def make_policy(shift=0.0):
    policy = RecurrentActorCritic(
        2, 1, np.random.default_rng(0), lstm_hidden=16, head_hidden=(32,)
    )
    if shift:
        for param in policy.parameters():
            param.data = param.data + shift
    return policy


def make_envs():
    return [
        LTSEnv(LTSConfig(num_users=USERS, horizon=STEPS, omega_g=2.0 * i, seed=i))
        for i in range(SESSIONS)
    ]


def main():
    # 1. One server, one session per live environment. Session state
    #    (noise stream, previous actions, LSTM hidden state) lives
    #    server-side; clients only ship observations.
    server = PolicyServer(make_policy(), ServeConfig(max_batch_size=SESSIONS))
    envs = make_envs()
    handles = [
        server.session(num_users=USERS, seed=100 + i)
        for i in range(SESSIONS)
    ]
    observations = [env.reset() for env in envs]
    streams = [[] for _ in envs]
    rewards = np.zeros(SESSIONS)

    for t in range(STEPS):
        if t == SWAP_AT:
            # 2. Zero-downtime hot swap: a new "trained" policy is
            #    published mid-stream. In-flight batches finish on the
            #    old weights; session state carries straight across.
            version = server.swap_policy(snapshot_policy(make_policy(shift=0.02)))
            print(f"step {t}: hot-swapped serving weights -> version {version}")
        tickets = [
            handle.submit(obs) for handle, obs in zip(handles, observations)
        ]
        server.flush()  # close the microbatch window: one stacked act
        for i, ticket in enumerate(tickets):
            result = ticket.result(timeout=10.0)
            streams[i].append(result.actions)
            observations[i], reward, _, _ = envs[i].step(result.actions)
            rewards[i] += reward.mean()
    server.close()
    # Every serving counter is a series in the server's metrics registry,
    # labelled with the replica name.
    requests = int(server.metrics.value("serve_requests_total", server.name))
    batches = int(server.metrics.value("serve_batches_total", server.name))
    max_rows = int(server.metrics.value("serve_batch_rows_max", server.name))
    print(
        f"served {requests} requests in {batches} microbatches "
        f"(max window {max_rows} rows), "
        f"mean return {rewards.mean():.2f}"
    )

    # 3. The contract: replay session 0 solo (a dedicated policy, one
    #    act per request, same swap point) — the streams must be
    #    bit-identical to what microbatched serving produced.
    policy = make_policy()
    rng = np.random.default_rng(100)
    policy.start_rollout(USERS)
    prev = np.zeros((USERS, 1))
    env = make_envs()[0]
    obs = env.reset()
    parity = True
    for t in range(STEPS):
        if t == SWAP_AT:
            state = policy.recurrent_state()
            policy.load_replica_state(make_policy(shift=0.02).replica_state())
            policy.set_recurrent_state(state)
        actions, _, _ = policy.act(obs, prev, rng)
        prev = actions
        parity &= np.array_equal(actions, streams[0][t])
        obs, _, _, _ = env.step(actions)
    print(f"microbatched == solo serving (bitwise, across the swap): {parity}")
    if not parity:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
