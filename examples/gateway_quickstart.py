"""Gateway quickstart: TCP serving, two replicas, an A/B split, a swap.

Starts a :class:`repro.serve.Gateway` on a loopback socket in front of a
two-replica :class:`repro.serve.ReplicaSet` (a "control" and a
"candidate" policy), routes a population of users through it with
deterministic key-hashed A/B assignment, drives live LTS environments
over the wire, hot-swaps the candidate replica mid-stream, and reports
per-arm returns. Everything crosses a real socket — the wire codec
ships raw float64 bytes, so remote serving is bit-identical to
in-process serving (the parity suite in ``tests/serve/`` proves it).

Run:  python examples/gateway_quickstart.py
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
from repro.serve import (
    Gateway,
    GatewayClient,
    GatewayConfig,
    ReplicaSet,
    ServeConfig,
)

USERS = 64  # population routed through the A/B split
GROUP = 4   # users per session
STEPS = 12
SWAP_AT = 6


def make_policy(shift=0.0):
    policy = RecurrentActorCritic(
        2, 1, np.random.default_rng(0), lstm_hidden=16, head_hidden=(32,)
    )
    if shift:
        for param in policy.parameters():
            param.data = param.data + shift
    return policy


def main():
    # 1. Two replicas behind one gateway: the control policy takes ~75%
    #    of traffic, the candidate ~25%. Routing hashes (seed, key), so
    #    the split is reproducible — rerun this script and every user
    #    lands on the same arm.
    replicas = ReplicaSet(config=ServeConfig(max_batch_size=16), seed=7)
    replicas.add("control", make_policy(), weight=3.0)
    replicas.add("candidate", make_policy(shift=0.05), weight=1.0)

    with Gateway(replicas, GatewayConfig(max_pending=64)) as gateway:
        gateway.start()
        host, port = gateway.address
        print(f"gateway listening on {host}:{port}")

        # 2. Open one remote session per user group; the routing key is
        #    the group id. Sessions stay pinned to their arm for life.
        client = GatewayClient(gateway.address)
        sessions, envs, observations = [], [], []
        for group in range(USERS // GROUP):
            session = client.open_session(
                num_users=GROUP, seed=500 + group, key=f"group-{group}"
            )
            sessions.append(session)
            envs.append(
                LTSEnv(LTSConfig(num_users=GROUP, horizon=STEPS, seed=group))
            )
            observations.append(envs[-1].reset())
        arms = {s.replica for s in sessions}
        assert arms == {"control", "candidate"}, arms
        counts = {
            arm: sum(s.replica == arm for s in sessions) for arm in sorted(arms)
        }
        print(f"A/B assignment over {len(sessions)} sessions: {counts}")

        # 3. Drive every session over the wire; swap the candidate's
        #    weights mid-stream. Only candidate-arm sessions see the new
        #    version — the control arm is untouched.
        returns = {arm: 0.0 for arm in arms}
        for t in range(STEPS):
            if t == SWAP_AT:
                version = replicas.publish("candidate", make_policy(shift=0.1))
                print(f"step {t}: candidate hot-swapped -> version {version}")
            for i, (session, env) in enumerate(zip(sessions, envs)):
                result = session.act(observations[i], deadline_ms=10_000)
                observations[i], reward, _, _ = env.step(result.actions)
                returns[session.replica] += float(reward.mean())
        versions = {
            arm: max(s.version for s in sessions if s.replica == arm)
            for arm in sorted(arms)
        }
        assert versions["candidate"] == 2 and versions["control"] == 1, versions

        for session in sessions:
            session.end()
        # The wire `stats` op returns the gateway's metrics snapshot;
        # accepted operations are counted per op.
        snapshot = client.metrics()
        client.close()
        requests = sum(
            series["value"] for series in snapshot["gateway_requests_total"]["series"]
        )
        print(
            f"served {int(requests)} requests over TCP, "
            f"final versions {versions}"
        )
        for arm in sorted(returns):
            per_session = returns[arm] / counts[arm]
            print(f"  {arm:9s} mean return/session {per_session:8.2f}")


if __name__ == "__main__":
    main()
