"""Serving-layer microbenchmark: microbatched vs unbatched inference.

Times the :class:`repro.serve.PolicyServer` serving N concurrent
sessions against the unbatched baseline (one dedicated policy replica
per session, one ``policy.act`` per request — what serving looks like
without a microbatching layer), swept over concurrency levels. Before
any clock starts, the served action streams are verified **bit-identical**
to the unbatched ones (the same per-session streams the parity suite in
``tests/serve/`` proves), so the speedup is never bought with drift.

Reported per concurrency level:

- ``speedup`` — unbatched wall time / microbatched wall time for the
  same request load (the stacked forward amortises per-call overhead
  across the window, so this grows with the session count);
- ``p50_ms`` / ``p99_ms`` — per-request latency percentiles under
  microbatched serving (submit → result);
- ``throughput_rps`` — served requests per second.

Two more sections ride along:

- ``gateway`` (always) — the same serving load pushed through a real
  loopback TCP :class:`repro.serve.Gateway`, one client thread per
  session. Before timing, the socket-served action streams are checked
  bit-identical to solo serving (the wire codec ships raw float64
  bytes), then throughput and p50/p99 request latencies are recorded;
- ``soak`` (``--soak``) — a session-churn endurance run: tens of
  thousands of sessions opened against a gateway whose LRU session
  store is capped, most of them abandoned without an ``end``. The store
  must evict (counters recorded) and RSS — read from
  ``/proc/self/status`` — must stay flat after the warm-up plateau.
  The run itself fails on zero evictions or an RSS ceiling breach, and
  the committed floors gate both numbers in CI.

Results go to ``BENCH_serve.json``; CI regenerates the smoke artifact on
every build and ``check_bench_regression.py`` gates the committed floors
in ``.github/bench_baselines.json``.

Not a pytest module — run directly::

    python benchmarks/perf_serve.py [--smoke] [--soak] [--repeats N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

try:
    import repro.core  # noqa: F401  (probe a submodule so foreign 'repro' dists don't shadow the checkout)
except ImportError:  # running from a checkout: fall back to the src/ layout
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import quantile_from_buckets
from repro.rl import RecurrentActorCritic
from repro.serve import (
    Gateway,
    GatewayClient,
    GatewayConfig,
    PolicyServer,
    ServeConfig,
)

#: BLAS thread-pool variables recorded in the payload (``None`` = unset).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

STATE_DIM = 8
ACTION_DIM = 2


def make_policy() -> RecurrentActorCritic:
    return RecurrentActorCritic(
        STATE_DIM,
        ACTION_DIM,
        np.random.default_rng(0),
        lstm_hidden=32,
        head_hidden=(64,),
    )


def make_streams(sessions: int, users: int, steps: int, seed: int):
    rng = np.random.default_rng(seed)
    return [
        [rng.random((users, STATE_DIM)) for _ in range(steps)]
        for _ in range(sessions)
    ]


def session_seeds(sessions: int):
    return [9000 + i for i in range(sessions)]


def run_unbatched(streams, users: int):
    """One dedicated replica per session, one act per request.

    Returns (per-session action streams, wall seconds). Policies are
    prebuilt so the timed loop is pure serving work.
    """
    policies = [make_policy() for _ in streams]
    rngs = [np.random.default_rng(seed) for seed in session_seeds(len(streams))]
    start = time.perf_counter()
    served = []
    for policy, rng, stream in zip(policies, rngs, streams):
        policy.start_rollout(users)
        prev = np.zeros((users, ACTION_DIM))
        actions_out = []
        for obs in stream:
            actions, _, _ = policy.act(obs, prev, rng)
            prev = actions
            actions_out.append(actions)
        served.append(actions_out)
    return served, time.perf_counter() - start


def run_microbatched(streams, users: int, max_batch: int):
    """All sessions through one PolicyServer, one flush per step.

    Returns (per-session action streams, wall seconds, per-request
    latencies). The synchronous driver makes batch composition
    deterministic, so this measures the microbatch kernel, not thread
    scheduling jitter.
    """
    server = PolicyServer(make_policy(), ServeConfig(max_batch_size=max_batch))
    handles = [
        server.session(num_users=users, seed=seed)
        for seed in session_seeds(len(streams))
    ]
    steps = len(streams[0])
    served = [[] for _ in streams]
    latencies = []
    start = time.perf_counter()
    for t in range(steps):
        submitted = time.perf_counter()
        tickets = [
            handle.submit(streams[i][t]) for i, handle in enumerate(handles)
        ]
        server.flush()
        done = time.perf_counter()
        latencies.extend([done - submitted] * len(tickets))
        for i, ticket in enumerate(tickets):
            served[i].append(ticket.result(timeout=30.0).actions)
    elapsed = time.perf_counter() - start
    server.close()
    return served, elapsed, latencies


def bench_level(sessions: int, users: int, steps: int, repeats: int) -> dict:
    streams = make_streams(sessions, users, steps, seed=17)

    # Pre-timing parity gate: microbatched == unbatched, bit for bit.
    reference, _ = run_unbatched(streams, users)
    batched, _, _ = run_microbatched(streams, users, max_batch=sessions)
    equivalent = all(
        np.array_equal(a, b)
        for ref, got in zip(reference, batched)
        for a, b in zip(ref, got)
    )

    unbatched_times, batched_times, best_latencies = [], [], None
    for _ in range(repeats):
        _, elapsed = run_unbatched(streams, users)
        unbatched_times.append(elapsed)
        _, elapsed, latencies = run_microbatched(streams, users, max_batch=sessions)
        if not batched_times or elapsed < min(batched_times):
            best_latencies = latencies
        batched_times.append(elapsed)

    unbatched = min(unbatched_times)
    microbatched = min(batched_times)
    latencies_ms = np.array(best_latencies) * 1000.0
    requests = sessions * steps
    record = {
        "name": f"sessions_{sessions}",
        "sessions": sessions,
        "users_per_session": users,
        "steps": steps,
        "requests": requests,
        "unbatched_s": round(unbatched, 6),
        "microbatched_s": round(microbatched, 6),
        "speedup": round(unbatched / microbatched, 3),
        "p50_ms": round(float(np.percentile(latencies_ms, 50)), 4),
        "p99_ms": round(float(np.percentile(latencies_ms, 99)), 4),
        "throughput_rps": round(requests / microbatched, 1),
        "equivalent": equivalent,
    }
    print(
        f"[sessions_{sessions}] {sessions} sessions x {users} users, T={steps}: "
        f"unbatched={unbatched:.3f}s microbatched={microbatched:.3f}s "
        f"-> {record['speedup']:.2f}x, p50={record['p50_ms']:.2f}ms "
        f"p99={record['p99_ms']:.2f}ms, {record['throughput_rps']:.0f} req/s"
        + ("" if equivalent else "  [PARITY FAILED]")
    )
    return record


def rss_mb():
    """Resident set size in MiB from /proc/self/status; None off-Linux."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _histogram_quantiles_ms(snapshot: dict, name: str) -> tuple:
    """(p50_ms, p99_ms) across all series of one latency histogram."""
    series = snapshot[name]["series"]
    if not series:
        return None, None
    edges = series[0]["buckets"]
    counts = [
        sum(s["counts"][i] for s in series) for i in range(len(series[0]["counts"]))
    ]
    total = sum(s["count"] for s in series)
    p50 = quantile_from_buckets(edges, counts, total, 0.50)
    p99 = quantile_from_buckets(edges, counts, total, 0.99)
    return round(p50 * 1000.0, 4), round(p99 * 1000.0, 4)


def bench_gateway(sessions: int, users: int, steps: int) -> dict:
    """The serving load over a real socket: parity first, then the clocks."""
    streams = make_streams(sessions, users, steps, seed=29)
    reference, _ = run_unbatched(streams, users)

    server = PolicyServer(
        make_policy(), ServeConfig(max_batch_size=sessions, max_wait_ms=1.0)
    )
    served = [None] * sessions
    latencies = [[] for _ in range(sessions)]
    errors = []

    def drive(index):
        try:
            with GatewayClient(gateway.address) as client:
                session = client.open_session(
                    num_users=users, seed=session_seeds(sessions)[index]
                )
                actions_out = []
                for obs in streams[index]:
                    begin = time.perf_counter()
                    result = session.act(obs, deadline_ms=30_000)
                    latencies[index].append(time.perf_counter() - begin)
                    actions_out.append(result.actions)
                session.end()
                served[index] = actions_out
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append((index, error))

    with Gateway(server, GatewayConfig(max_pending=4 * sessions)) as gateway:
        gateway.start()
        start = time.perf_counter()
        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        snapshot = gateway.metrics.snapshot()
    if errors:
        raise RuntimeError(f"gateway bench session failed: {errors[0]}")

    equivalent = all(
        np.array_equal(a, b)
        for ref, got in zip(reference, served)
        for a, b in zip(ref, got)
    )
    latencies_ms = np.array([v for per in latencies for v in per]) * 1000.0
    requests = sessions * steps
    # The server-side split the registry gives for free: how much of the
    # request latency was spent waiting for a batch window vs computing
    # the stacked forward, plus the queue's high-water mark.
    wait_p50, wait_p99 = _histogram_quantiles_ms(
        snapshot, "serve_request_queue_wait_seconds"
    )
    compute_p50, compute_p99 = _histogram_quantiles_ms(
        snapshot, "serve_request_compute_seconds"
    )
    max_queue_depth = max(
        (s["value"] for s in snapshot["serve_queue_depth_peak"]["series"]),
        default=0.0,
    )
    record = {
        "name": "gateway",
        "sessions": sessions,
        "users_per_session": users,
        "steps": steps,
        "requests": requests,
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(requests / elapsed, 1),
        "p50_ms": round(float(np.percentile(latencies_ms, 50)), 4),
        "p99_ms": round(float(np.percentile(latencies_ms, 99)), 4),
        "queue_wait_p50_ms": wait_p50,
        "queue_wait_p99_ms": wait_p99,
        "compute_p50_ms": compute_p50,
        "compute_p99_ms": compute_p99,
        "max_queue_depth": int(max_queue_depth),
        "equivalent": equivalent,
    }
    print(
        f"[gateway] {sessions} TCP clients x {steps} steps: "
        f"{record['throughput_rps']:.0f} req/s, p50={record['p50_ms']:.2f}ms "
        f"p99={record['p99_ms']:.2f}ms, queue-wait p99={wait_p99}ms "
        f"compute p99={compute_p99}ms, max depth={record['max_queue_depth']}"
        + ("" if equivalent else "  [PARITY FAILED]")
    )
    return record


def bench_soak(total_sessions: int, cap: int, acts_per_session: int) -> dict:
    """Session churn through a capped store: evictions up, RSS flat.

    Opens ``total_sessions`` sessions against a gateway whose LRU store
    holds at most ``cap``; two thirds are abandoned (no ``end``) so the
    eviction layer has to reclaim them. RSS is sampled after a warm-up
    that fills the store to its cap — growth past that plateau is what a
    leak would look like.
    """
    # A tight batch window: the soak has one sequential client, so every
    # act would otherwise idle out the full microbatch wait.
    server = PolicyServer(
        make_policy(), ServeConfig(max_batch_size=64, max_wait_ms=0.5)
    )
    obs = np.zeros((1, STATE_DIM))
    warmup = min(cap * 2, total_sessions // 4)
    with Gateway(
        server, GatewayConfig(max_sessions=cap, max_pending=256)
    ) as gateway:
        gateway.start()
        with GatewayClient(gateway.address, timeout_s=60.0) as client:
            start = time.perf_counter()
            rss_plateau = None
            for index in range(total_sessions):
                session = client.open_session(num_users=1)
                for _ in range(acts_per_session):
                    session.act(obs, deadline_ms=30_000)
                if index % 3 == 0:
                    session.end()  # the other two thirds are abandoned
                if index == warmup:
                    rss_plateau = rss_mb()
            elapsed = time.perf_counter() - start
            metrics = gateway.metrics
            live = int(metrics.value("gateway_store_sessions"))
            evicted_lru = int(metrics.value("gateway_store_evictions_total", "lru"))
            evicted_ttl = int(metrics.value("gateway_store_evictions_total", "ttl"))
    rss_final = rss_mb()
    tracked = rss_plateau is not None and rss_final is not None
    growth = round(rss_final - rss_plateau, 2) if tracked else None
    record = {
        "name": "soak",
        "sessions_opened": total_sessions,
        "acts_per_session": acts_per_session,
        "session_cap": cap,
        "live_sessions_end": live,
        "evicted_lru": evicted_lru,
        "evicted_ttl": evicted_ttl,
        "evictions": evicted_lru + evicted_ttl,
        "elapsed_s": round(elapsed, 3),
        "sessions_per_s": round(total_sessions / elapsed, 1),
        "rss_plateau_mb": round(rss_plateau, 2) if tracked else None,
        "rss_end_mb": round(rss_final, 2) if tracked else None,
        "rss_growth_mb": growth,
        "rss_tracked": tracked,
    }
    print(
        f"[soak] {total_sessions} sessions through a {cap}-entry store: "
        f"{record['evictions']} evictions, live={live}, "
        + (
            f"RSS {record['rss_plateau_mb']:.1f} -> {record['rss_end_mb']:.1f} MiB "
            f"(growth {growth:+.1f})"
            if tracked
            else "RSS untracked on this platform"
        )
    )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-sized run")
    parser.add_argument(
        "--soak", action="store_true",
        help="run the session-churn soak (RSS + eviction accounting)",
    )
    parser.add_argument(
        "--soak-rss-ceiling-mb", type=float, default=128.0,
        help="hard failure if post-plateau RSS grows past this",
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serve.json",
    )
    args = parser.parse_args()
    repeats = max(args.repeats, 1)

    if args.smoke:
        levels = ((2, 2, 6), (4, 2, 6), (8, 2, 6))
        repeats = min(repeats, 3)
    else:
        levels = ((4, 3, 12), (8, 3, 12), (16, 3, 12), (32, 3, 12))

    records = [
        bench_level(sessions, users, steps, repeats)
        for sessions, users, steps in levels
    ]
    gateway_sessions, gateway_users, gateway_steps = levels[-1]
    gateway_record = bench_gateway(gateway_sessions, gateway_users, gateway_steps)

    payload = {
        "benchmark": "perf_serve",
        "mode": "smoke" if args.smoke else "full",
        "repeats": repeats,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "scenarios": records,
        "gateway": gateway_record,
        "headline_speedup": max(r["speedup"] for r in records),
    }

    failures = []
    if args.soak:
        if args.smoke:
            soak_record = bench_soak(total_sessions=3000, cap=256, acts_per_session=2)
        else:
            soak_record = bench_soak(total_sessions=20000, cap=512, acts_per_session=2)
        payload["soak"] = soak_record
        if soak_record["evictions"] == 0:
            failures.append("soak produced zero evictions (store cap never engaged)")
        if (
            soak_record["rss_tracked"]
            and soak_record["rss_growth_mb"] > args.soak_rss_ceiling_mb
        ):
            failures.append(
                f"soak RSS grew {soak_record['rss_growth_mb']:.1f} MiB past the "
                f"plateau (ceiling {args.soak_rss_ceiling_mb:g} MiB)"
            )

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output} (headline speedup {payload['headline_speedup']:.2f}x)")
    if not all(r["equivalent"] for r in records):
        failures.append("microbatched serving diverged from the unbatched reference")
    if not gateway_record["equivalent"]:
        failures.append("gateway serving diverged from the solo reference")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
