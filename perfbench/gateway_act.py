"""``gateway_act``: closed-loop sessions against a gateway in its own process.

Two client connections (threads of this process) each drive a 10-user
slate environment through the gateway: every observation is sent as an
``act`` request, and the served actions step the environment to the
next observation, so each client waits for its reply before it can ask
again (a closed loop of two). A session lasts a fixed number of requests
(ten 30-step episodes); clients open sessions back to back until the
measuring window closes. Latencies are client-measured round trips of
``act``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .common import OUT, ROOT, Result, child_env, median, tail_ms, write_spans
from .gateway_server import build_policy, slate_spec
from .tracer import SpanRecorder


@dataclass(frozen=True)
class GatewaySize:
    clients: int = 2
    num_users: int = 10
    session_requests: int = 300
    setups: int = 3
    # Episodes rotate over this many slate envs (client c takes every
    # clients-th one, so no env is shared); the first return_sessions
    # sessions of each client feed mean_return.
    envs: int = 80
    return_sessions: int = 4


def session_seed(seed: int, client: int, session: int) -> int:
    return seed * 100_000 + client * 10_000 + session


@dataclass
class ClientLog:
    """What one client saw. Only the first and last sessions keep their
    observations and served actions (for the replay gate)."""

    latencies: List[float] = field(default_factory=list)
    finished: List[float] = field(default_factory=list)
    sessions: int = 0
    attempted: int = 0
    failed: int = 0
    episode_returns: List[float] = field(default_factory=list)
    kept: Dict[int, dict] = field(default_factory=dict)
    error: Optional[str] = None


class GatewayProcess:
    """The gateway child: started, waited for, and stopped by closing stdin."""

    def __init__(self, seed: int, size: GatewaySize, spans: Optional[str] = None):
        command = [sys.executable, "-m", "perfbench.gateway_server", "--seed", str(seed),
                   "--users", str(size.num_users)]
        if spans:
            command += ["--spans", spans]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "READY":
            self.close()
            raise RuntimeError(f"gateway process failed to start: {line!r}")
        self.address = (line[1], int(line[2]))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _first_act(address, size: GatewaySize) -> None:
    from repro.serve import GatewayClient

    with GatewayClient(address) as client:
        session = client.open_session(num_users=size.num_users, seed=0)
        obs = np.zeros((size.num_users, _state_dim(size)))
        session.act(obs)
        session.end()


def _state_dim(size: GatewaySize) -> int:
    from repro.scenarios import make_scenario

    return make_scenario(slate_spec(0, size.num_users)).state_dim


def _start(seed: int, size: GatewaySize):
    """Start the gateway ``size.setups`` times; keep the last one running.

    Returns it and the median time from process start to the first
    served ``act``.
    """
    times = []
    for attempt in range(size.setups):
        started = time.perf_counter()
        process = GatewayProcess(seed, size)
        try:
            _first_act(process.address, size)
        except BaseException:
            process.close()
            raise
        times.append(time.perf_counter() - started)
        if attempt < size.setups - 1:
            process.close()
    return process, median(times)


def _client(address, seed: int, index: int, size: GatewaySize, envs: list,
            stop: threading.Event, max_sessions: Optional[int], log: ClientLog) -> None:
    from repro.serve import DeadlineExceeded, GatewayBusy, GatewayClient, GatewayError

    episodes = 0

    def next_env():
        env = envs[(episodes * size.clients + index) % len(envs)]
        return env, env.reset()

    try:
        with GatewayClient(address) as client:
            while (
                log.sessions < size.return_sessions or not stop.is_set()
            ) and (max_sessions is None or log.sessions < max_sessions):
                number = log.sessions
                s_seed = session_seed(seed, index, number)
                log.attempted += 1
                session = client.open_session(num_users=size.num_users, seed=s_seed)
                record = {"seed": s_seed, "obs": [], "actions": []}
                env, obs = next_env()
                episode = np.zeros(size.num_users)
                served = 0
                in_episode = False
                while served < size.session_requests:
                    log.attempted += 1
                    begin = time.perf_counter()
                    try:
                        reply = session.act(obs)
                    except GatewayBusy:
                        log.failed += 1
                        continue
                    except DeadlineExceeded:
                        log.failed += 1
                        break
                    end = time.perf_counter()
                    log.latencies.append(end - begin)
                    log.finished.append(end)
                    record["obs"].append(obs)
                    record["actions"].append(reply.actions)
                    served += 1
                    obs, rewards, dones, _ = env.step(reply.actions)
                    episode += rewards
                    in_episode = True
                    if dones.all():
                        if number < size.return_sessions:
                            log.episode_returns.append(float(episode.mean()))
                        episode[:] = 0.0
                        episodes += 1
                        in_episode = False
                        if served < size.session_requests:
                            env, obs = next_env()
                # The next session starts a fresh episode on the next env.
                episodes += in_episode
                log.attempted += 1
                session.end()
                log.sessions += 1
                if number > 1:
                    log.kept.pop(number - 1, None)  # keep the first and the latest
                log.kept[number] = record
    except GatewayError as error:
        log.failed += 1
        log.error = repr(error)


def _drive(address, seed: int, size: GatewaySize, seconds: Optional[float],
           sessions: Optional[List[int]] = None):
    """Run the clients for ``seconds`` (or fixed per-client session counts)."""
    from repro.scenarios import make_scenario

    if size.envs % size.clients:
        raise ValueError("envs must be a multiple of clients (no env is shared)")
    envs = make_scenario(slate_spec(seed, size.num_users, size.envs)).make_train_envs()
    stop = threading.Event()
    logs = [ClientLog() for _ in range(size.clients)]
    threads = [
        threading.Thread(
            target=_client,
            args=(address, seed, i, size, envs, stop,
                  None if sessions is None else sessions[i], logs[i]),
            name=f"gateway-client-{i}",
        )
        for i in range(size.clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if seconds is not None:
        stop.wait(seconds)
        stop.set()
    for thread in threads:
        thread.join()
    return logs, time.perf_counter() - started


def _account(result: Result, logs: List[ClientLog]) -> None:
    for log in logs:
        result.attempted += log.attempted
        result.failed += log.failed
        result.gate(log.error is None, f"client transport failure: {log.error}")


def _replay_gate(result: Result, seed: int, size: GatewaySize, logs: List[ClientLog]) -> None:
    """Served actions must equal a solo in-process replay of each kept session."""
    policy = build_policy(seed, size.num_users)
    for index, log in enumerate(logs):
        for number, record in log.kept.items():
            rng = np.random.default_rng(record["seed"])
            policy.start_rollout(size.num_users)
            prev = np.zeros((size.num_users, policy.action_dim))
            same = True
            for obs, served in zip(record["obs"], record["actions"]):
                actions, _, _ = policy.act(obs, prev, rng, deterministic=False)
                same = same and np.array_equal(actions, served)
                prev = actions
            result.gate(same, f"client {index} session {number}: served actions "
                        "differ from a solo in-process replay")


def _throughput(logs: List[ClientLog], users: int) -> float:
    """User-steps served per second: each closed-loop client completes one
    request per median cycle (round trip plus its own environment step)."""
    return sum(users / median(np.diff(log.finished)) for log in logs)


def run(seed: int, seconds: float, trace: bool, size: GatewaySize = GatewaySize()) -> Result:
    result = Result("gateway_act", seed, trace)
    process, setup_s = _start(seed, size)
    try:
        if trace:
            return _run_traced(result, process, seed, seconds, size)
        logs, _ = _drive(process.address, seed, size, seconds)
    finally:
        process.close()
    _account(result, logs)
    if not result.correct:
        return result
    _replay_gate(result, seed, size, logs)
    latencies = [value for log in logs for value in log.latencies]
    returns = [value for log in logs for value in log.episode_returns]
    result.notes["requests"] = len(latencies)
    result.notes["tail_ms"] = tail_ms(latencies)
    result.notes["sessions"] = [log.sessions for log in logs]
    result.metrics.update(
        setup_s=setup_s,
        op_p50_ms=median(latencies) * 1000.0,
        user_steps_per_s=_throughput(logs, size.num_users),
        mean_return=float(np.mean(returns)),
    )
    return result


def _registry_sums(address) -> Dict[str, float]:
    from repro.serve import GatewayClient

    with GatewayClient(address) as client:
        snapshot = client.metrics()

    def total(name: str, key: str, **labels) -> float:
        family = snapshot.get(name, {"series": []})
        return float(sum(
            series.get(key, 0.0) for series in family["series"]
            if all(series["labels"].get(k) == v for k, v in labels.items())
        ))

    return {
        "queue_wait_s": total("serve_request_queue_wait_seconds", "sum"),
        "compute_s": total("serve_request_compute_seconds", "sum"),
        "rows": total("serve_batch_rows", "sum"),
        "batches": total("serve_batch_rows", "count"),
        "busy": total("gateway_failures_total", "value", code="BUSY"),
        "timeouts": total("gateway_failures_total", "value", code="TIMEOUT"),
    }


def _run_traced(result: Result, process: GatewayProcess, seed: int, seconds: float,
                size: GatewaySize) -> Result:
    """An untraced pass for half the window, then the same sessions traced."""
    from repro.serve import GatewayClient, protocol

    plain, plain_wall = _drive(process.address, seed, size, seconds / 2)
    process.close()
    sessions = [log.sessions for log in plain]
    spans_path = OUT / f"gateway-spans-{seed}.json"
    OUT.mkdir(exist_ok=True)
    traced_process = GatewayProcess(seed, size, spans=str(spans_path))
    recorder = SpanRecorder()
    targets = [
        (protocol, "pack_frame", "client.encode"),
        (protocol, "unpack_frame", "client.decode"),
        (GatewayClient, "_roundtrip", "client.roundtrip"),
    ]
    try:
        before = _registry_sums(traced_process.address)
        with recorder.instrument(targets):
            traced, traced_wall = _drive(
                traced_process.address, seed, size, None, sessions=sessions
            )
        after = _registry_sums(traced_process.address)
    finally:
        traced_process.close()
    server = json.loads(spans_path.read_text())
    spans_path.unlink()  # merged into this run's dump below
    _account(result, plain + traced)
    _replay_gate(result, seed, size, traced)
    client = recorder.summary()
    server_table = server["table"]

    def total(table, name):
        return float(table.get(name, {}).get("total_s", 0.0))

    layers = {
        "client.encode_s": total(client, "client.encode"),
        "client.decode_s": total(client, "client.decode"),
        "gateway.decode_s": total(server_table, "gateway.decode"),
        "gateway.request_s": total(server_table, "gateway.request"),
        "gateway.write_s": total(server_table, "gateway.write")
        - total(server_table, "gateway.encode"),
        "gateway.encode_s": total(server_table, "gateway.encode"),
    }
    roundtrip = total(client, "client.roundtrip")
    delta = {key: after[key] - before[key] for key in after}
    result.metrics.update(layers)
    result.metrics.update(
        {
            "client.roundtrip_s": roundtrip,
            "sessions.get_s": total(server_table, "sessions.get"),
            "serve.submit_s": total(server_table, "serve.submit"),
            "serve.queue_wait_s": delta["queue_wait_s"],
            "serve.compute_s": delta["compute_s"],
            "serve.batch_rows_mean": delta["rows"] / max(delta["batches"], 1.0),
            "gateway.unattributed_s": roundtrip - sum(layers.values()),
            "gateway.busy": delta["busy"],
            "gateway.timeouts": delta["timeouts"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.ops": sum(len(log.latencies) for log in traced),
        }
    )
    result.spans_file = write_spans(
        f"gateway_act-{seed}",
        {"wall_s": roundtrip, "root": "client.roundtrip", "table": client,
         "server_table": server_table, "spans": recorder.spans(),
         "server_spans": server["spans"]},
    )
    return result
