"""Self-contained serving demo: ``python -m repro.serve``.

Spins up a :class:`~repro.serve.PolicyServer`, opens one session per
simulated environment (an LTS task per session, or a DPR city each for
the Sim2Rec policy), drives every session through live microbatched
serving for a full episode, then **replays each session solo** — a fresh
policy acting for that session alone — and checks the served action
streams are bit-identical. With ``--gateway`` the same episode runs over
a real TCP socket: one :class:`~repro.serve.GatewayClient` thread per
session against a loopback :class:`~repro.serve.Gateway`, and the same
bit-identity must hold. Prints a JSON summary.

Examples::

    python -m repro.serve --policy lstm --sessions 8 --steps 20
    python -m repro.serve --policy sim2rec --sessions 4 --users 5
    python -m repro.serve --policy lstm --background --max-wait-ms 1
    python -m repro.serve --policy lstm --gateway
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import numpy as np

from ..core import build_sim2rec_policy, dpr_small_config
from ..envs import DPRConfig, DPRWorld, LTSConfig, LTSEnv
from ..obs import REQUIRED_GATEWAY_SERIES, parse_prometheus_text
from ..rl import MLPActorCritic, RecurrentActorCritic
from .client import GatewayClient
from .gateway import Gateway, GatewayConfig
from .server import PolicyServer, ServeConfig


def make_policy(kind: str, state_dim: int, action_dim: int):
    if kind == "mlp":
        return MLPActorCritic(
            state_dim, action_dim, np.random.default_rng(1), hidden_sizes=(32,)
        )
    if kind == "lstm":
        return RecurrentActorCritic(
            state_dim, action_dim, np.random.default_rng(0),
            lstm_hidden=16, head_hidden=(32,),
        )
    if kind == "sim2rec":
        return build_sim2rec_policy(state_dim, action_dim, dpr_small_config(seed=0))
    raise ValueError(f"unknown policy kind {kind!r}")


def make_envs(kind: str, sessions: int, users: int, steps: int, seed: int):
    """One member env per session; returns (envs, state_dim, action_dim)."""
    if kind == "sim2rec":
        world = DPRWorld(
            DPRConfig(
                num_cities=sessions, drivers_per_city=users, horizon=steps, seed=seed
            )
        )
        envs = world.make_all_city_envs()
        return envs, 13, 2
    envs = [
        LTSEnv(
            LTSConfig(
                num_users=users, horizon=steps, omega_g=2.0 * i, seed=seed + i
            )
        )
        for i in range(sessions)
    ]
    return envs, 2, 1


def serve_episode(server, envs, session_seeds, steps, deterministic):
    """Drive every env one episode through the server; returns action streams."""
    handles = [
        server.session(num_users=env.num_users, seed=session_seeds[i],
                       deterministic=deterministic)
        for i, env in enumerate(envs)
    ]
    observations = [env.reset() for env in envs]
    streams = [[] for _ in envs]
    latencies = []
    for _ in range(steps):
        begin = time.perf_counter()
        tickets = [
            handle.submit(obs) for handle, obs in zip(handles, observations)
        ]
        if not server.running:
            server.flush()
        results = [ticket.result(timeout=30.0) for ticket in tickets]
        latencies.append((time.perf_counter() - begin) / len(envs))
        for i, (env, result) in enumerate(zip(envs, results)):
            streams[i].append(result.actions)
            observations[i], _, _, _ = env.step(result.actions)
    for handle in handles:
        handle.end()
    return streams, latencies


def serve_episode_gateway(address, envs, session_seeds, steps, deterministic):
    """The same episode through a real socket: one client thread per session."""
    streams = [[] for _ in envs]
    latencies = [[] for _ in envs]
    errors = []

    def run(i, env):
        try:
            with GatewayClient(address) as client:
                session = client.open_session(
                    num_users=env.num_users, seed=session_seeds[i],
                    deterministic=deterministic,
                )
                obs = env.reset()
                for _ in range(steps):
                    begin = time.perf_counter()
                    result = session.act(obs)
                    latencies[i].append(time.perf_counter() - begin)
                    streams[i].append(result.actions)
                    obs, _, _, _ = env.step(result.actions)
                session.end()
        except Exception as error:  # surface in the main thread
            errors.append((i, error))

    threads = [
        threading.Thread(target=run, args=(i, env)) for i, env in enumerate(envs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"gateway session failed: {errors[0]}")
    return streams, [value for per in latencies for value in per]


def replay_solo(kind, state_dim, action_dim, env, session_seed, steps, deterministic):
    """The reference: the same session served alone, one act per request."""
    policy = make_policy(kind, state_dim, action_dim)
    rng = np.random.default_rng(session_seed)
    policy.start_rollout(env.num_users)
    prev = np.zeros((env.num_users, policy.action_dim))
    obs = env.reset()
    stream = []
    for _ in range(steps):
        actions, _, _ = policy.act(obs, prev, rng, deterministic=deterministic)
        prev = actions
        stream.append(actions)
        obs, _, _, _ = env.step(actions)
    return stream


def scrape_metrics(address) -> dict:
    """Scrape and parse a live ``/metrics`` endpoint (CI smoke check).

    Returns ``{"series": <count>, "missing": [names...]}`` where a
    required family counts as present when its own sample name — or its
    histogram ``_count`` companion — appears in the parsed exposition.
    """
    import urllib.request

    host, port = address
    with urllib.request.urlopen(
        f"http://{host}:{port}/metrics", timeout=10.0
    ) as response:
        text = response.read().decode("utf-8")
    parsed = parse_prometheus_text(text)
    missing = [
        name
        for name in REQUIRED_GATEWAY_SERIES
        if name not in parsed and f"{name}_count" not in parsed
    ]
    return {"series": len(parsed), "missing": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--policy", choices=("mlp", "lstm", "sim2rec"), default="lstm"
    )
    parser.add_argument("--sessions", type=int, default=6)
    parser.add_argument("--users", type=int, default=3, help="users per session")
    parser.add_argument("--steps", type=int, default=12)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--deterministic", action="store_true", help="serve distribution modes"
    )
    parser.add_argument(
        "--background",
        action="store_true",
        help="serve through the background dispatcher thread",
    )
    parser.add_argument(
        "--gateway",
        action="store_true",
        help="serve over a loopback TCP gateway (one client thread per session)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="with --gateway: expose Prometheus /metrics on this port "
        "(0 = ephemeral), scrape it after the episode, and fail if any "
        "required series is missing",
    )
    args = parser.parse_args(argv)
    if args.metrics_port is not None and not args.gateway:
        parser.error("--metrics-port requires --gateway")

    envs, state_dim, action_dim = make_envs(
        args.policy, args.sessions, args.users, args.steps, args.seed
    )
    session_seeds = [1000 + args.seed + i for i in range(len(envs))]
    server = PolicyServer(
        make_policy(args.policy, state_dim, action_dim),
        ServeConfig(max_batch_size=args.max_batch, max_wait_ms=args.max_wait_ms,
                    seed=args.seed),
    )
    metrics_check = None
    if args.gateway:
        with Gateway(
            server, GatewayConfig(metrics_port=args.metrics_port)
        ) as gateway:
            gateway.start()
            served, latencies = serve_episode_gateway(
                gateway.address, envs, session_seeds, args.steps,
                args.deterministic,
            )
            if args.metrics_port is not None:
                metrics_check = scrape_metrics(gateway.metrics_address)
    else:
        if args.background:
            server.start()
        served, latencies = serve_episode(
            server, envs, session_seeds, args.steps, args.deterministic
        )
        if args.background:
            server.stop()
        server.close()

    # Parity: replay each session solo on fresh envs (same seeds).
    reference_envs, _, _ = make_envs(
        args.policy, args.sessions, args.users, args.steps, args.seed
    )
    parity = True
    for i, env in enumerate(reference_envs):
        solo = replay_solo(
            args.policy, state_dim, action_dim, env, session_seeds[i],
            args.steps, args.deterministic,
        )
        parity &= all(
            np.array_equal(a, b) for a, b in zip(served[i], solo)
        )

    def count(name):
        return int(server.metrics.value(name, server.name))

    latencies_ms = np.array(latencies) * 1000.0
    summary = {
        "policy": args.policy,
        "sessions": len(envs),
        "users_per_session": args.users,
        "steps": args.steps,
        "background": args.background,
        "gateway": args.gateway,
        "requests": count("serve_requests_total"),
        "batches": count("serve_batches_total"),
        "max_batch_rows": count("serve_batch_rows_max"),
        "mean_request_ms": round(float(latencies_ms.mean()), 4),
        "parity_vs_solo": parity,
    }
    if metrics_check is not None:
        summary["metrics_series"] = metrics_check["series"]
        summary["metrics_missing"] = metrics_check["missing"]
        summary["metrics_ok"] = not metrics_check["missing"]
    print(json.dumps(summary, indent=2))
    if not parity:
        print("FAIL: microbatched serving diverged from solo serving", file=sys.stderr)
        return 1
    if metrics_check is not None and metrics_check["missing"]:
        print(
            "FAIL: required metrics series missing from /metrics: "
            + ", ".join(metrics_check["missing"]),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
