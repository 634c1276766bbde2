"""Multi-process evaluation actors over a sharded env set.

:class:`ShardedVecEnvPool` shards the member envs of a pool across N
worker processes and runs evaluation sweeps inside them. The parent
broadcasts a policy replica to every worker
(:meth:`ShardedVecEnvPool.sync_policy`, version-stamped, delta-free
``state_dict`` sync through :mod:`repro.nn.serialization`); then
:meth:`ShardedVecEnvPool.evaluate_policy` has each worker run the
replica evaluation kernel of :mod:`repro.rl.evaluate` over its own shard
with its own replica and reply with per-env returns.

The parent never steps envs or collects training rollouts through this
pool: per-step stepping and collection are the in-process
:class:`~repro.rl.vec.VecEnvPool`'s job.

Process model
-------------
- **Sharding**: member envs are partitioned into contiguous shards,
  balanced by user count (ragged env sizes supported). Each worker
  process owns one shard wrapped in its own in-process
  :class:`~repro.rl.vec.VecEnvPool` — native block-diagonal steppers,
  per-env done masking and step budgets all behave exactly as in the
  single-process pool.
- **Startup**: the member envs (their full state, including internal RNG
  generators) are shipped to the workers as pickled construction specs —
  via fork inheritance or the spawn pickling path. The parent keeps only
  metadata (user counts, dims, group ids). ``load_envs`` ships a fresh
  env set of the same layout to the running workers.
- **Pipes**: every job is one command and one reply per worker.
- **Param mailbox**: ``sync_policy`` ships the policy object once
  (structure + weights) and thereafter only the serialized
  ``replica_state`` archive (full parameters every time — delta-free, so
  a worker can never be a partial update behind). A sync whose state is
  byte-identical to the last successful broadcast is skipped outright —
  no pipe traffic, same version stamp — so repeated ``sync_policy``
  calls only pay when parameters actually changed. Every real broadcast
  bumps a version stamp; every evaluate command carries the stamp it
  expects, and a worker whose replica is stale answers with a distinct
  reply that raises :class:`StaleReplicaError` in the parent instead of
  silently acting with old weights.

Determinism contract
--------------------
Sharding is semantics-preserving **by construction**, for any shard
layout and worker count:

- each member env steps with its own internal RNG, and that RNG's state
  travels with the env into the worker — the same draws happen in the
  same order as in-process;
- policy sampling noise is drawn through
  :class:`~repro.rl.vec.BlockRNG`, whose per-env streams are pinned to
  env identity (slice order), not to shard placement: each worker draws
  from exactly the generators of its own envs (shipped with the command,
  advanced states returned), so every env consumes the same stream;
- group context is scoped per block via ``set_rollout_groups`` on the
  shard-local stacked batch: blocks of one size share a stacked
  posterior pass whose rows equal each block's solo context, and a
  block's rows never mix with another env's;
- replica forwards equal parent forwards row for row: the nn engine's
  row-stable matmul contract makes a forward over a shard's rows
  bit-identical to the same rows of the full stacked forward, and the
  replica's weights are byte-equal to the parent's (npz round-trip).

Hence ``evaluate(policy, ShardedVecEnvPool(envs, W))`` is bit-identical
to ``evaluate(policy, envs)`` in its per-env returns and its owner-RNG
end states, for every W. Enforced by ``tests/rl/test_eval_parity.py``.

Failure handling and supervision
--------------------------------
Workers ignore SIGINT (the parent coordinates shutdown; the parent also
masks SIGINT around each ``Process.start()`` so a Ctrl-C cannot land in
the bootstrap window before the worker installs its own handler).
Crashes are detected by liveness-checked pipe polls; hangs by per-op
deadlines. Without a :class:`FaultPolicy` (the default) the fail-fast
contract holds: a dead worker raises :class:`WorkerCrashed`, a stale
replica :class:`StaleReplicaError`, an env exception
:class:`WorkerStepError` — each closes the pool before propagating — and
an oversized ``replica_state`` raises ``ValueError`` before anything is
sent (the pool stays usable). Shutdown runs on ``close()``, on garbage
collection and on interpreter exit, and escalates ``join`` →
``terminate()`` → ``kill()``, so even a worker that ignores SIGTERM
dies.

With a :class:`FaultPolicy`, the pool becomes **self-healing** with an
exactly-once, bit-identical recovery guarantee:

- Every IPC wait carries a per-op deadline; a worker that exceeds it is
  SIGKILLed and treated as crashed (:class:`WorkerTimeout`).
- A crashed / hung / stale worker is **respawned** (bounded retries with
  exponential backoff) from the parent's snapshot of its shard's envs
  plus the current policy-replica archive, and the interrupted command
  is re-issued. Every command that changes worker env state refreshes
  the snapshot when it succeeds — evaluate replies carry the shard's
  advanced envs back, and ``load`` replaces them with the envs the
  parent just sent — so the snapshot is always the worker's exact state
  before the interrupted command. Side effects are applied in the
  parent only after *all* workers answered (RNG owner states, snapshot
  refreshes), so a failed operation leaves no partial state and its
  re-execution produces bit-identical results — enforced by
  ``tests/rl/test_chaos.py`` under injected faults
  (:mod:`repro.rl.chaos`).
- When a worker's restart budget is exhausted the pool **degrades
  gracefully** to an in-process :class:`~repro.rl.vec.VecEnvPool`
  rebuilt from the same snapshots (a ``RuntimeWarning`` is emitted,
  ``pool.degraded`` flips True): the interrupted operation and all
  subsequent ones run in-process with the archived policy replica —
  still bit-identical, just no longer parallel.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import signal
import threading
import time
import traceback
import warnings
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import MultiUserEnv
from ..nn.serialization import state_from_bytes, state_to_bytes
from ..obs import MetricsRegistry
from .chaos import ChaosSchedule, apply_fault
from .policies import ActorCriticBase
from .vec import RNGLike, BlockRNG, VecEnvPool, split_rng, validate_pool_members
from .evaluate import _check_episodes, _replica_eval


class WorkerCrashed(RuntimeError):
    """A pool worker process died instead of answering a command."""


class WorkerTimeout(WorkerCrashed):
    """A pool worker exceeded its per-op deadline and was SIGKILLed.

    Only raised under a :class:`FaultPolicy` with a finite deadline for
    the operation; subclasses :class:`WorkerCrashed` because from the
    parent's point of view a hung-and-killed worker *is* a crashed one
    (same recovery path, same fail-fast close-and-raise path).
    """


class WorkerStepError(RuntimeError):
    """A pool worker raised while executing a command (env bug etc.).

    Carries the worker-side traceback. The pool is closed before this
    propagates: after an env exception the worker's sub-pool state is
    unreliable, so the pool refuses further use. Never recovered even
    under a :class:`FaultPolicy` — the re-executed deterministic job
    would raise identically, so respawning would loop for nothing.
    """


class StaleReplicaError(RuntimeError):
    """A worker's policy replica version differs from the one requested.

    Raised by :meth:`ShardedVecEnvPool.evaluate_policy` when a worker
    reports a replica version stamp other than the one the parent's last
    :meth:`~ShardedVecEnvPool.sync_policy` established — acting with
    silently-stale weights would report returns of the wrong policy.
    Without a :class:`FaultPolicy` the pool is closed before this
    propagates; with one, the worker is respawned and re-shipped the
    current replica.
    """


#: Errors the fault policy can recover by respawning the worker.
_RECOVERABLE_ERRORS = (WorkerCrashed, StaleReplicaError)

#: Shutdown graces of :func:`_cleanup`, in seconds: how long all workers
#: get to exit after the ``close`` command, then how long each gets to
#: honour SIGTERM before it is SIGKILLed.
_CLOSE_GRACE_S = 2.0
_TERMINATE_GRACE_S = 1.0


@dataclass(frozen=True)
class FaultPolicy:
    """Supervision knobs for :class:`ShardedVecEnvPool`.

    ``max_restarts`` bounds respawns *per worker* over the pool's
    lifetime; each retry sleeps ``backoff * 2**(attempt-1)`` seconds
    (capped at ``max_backoff``). The per-op deadlines bound every IPC
    wait — ``broadcast_deadline`` the replica and load exchanges,
    ``collect_deadline`` the worker-side evaluation sweeps — and
    ``None`` disables hang detection for that class (liveness
    polling still catches outright deaths). A deadline must be > 0:
    a worker answering later than the deadline is SIGKILLed, so a zero
    or negative one would kill every worker on its first reply.
    ``graceful_join`` is the SIGTERM grace a reaped worker gets before
    SIGKILL escalation.
    """

    max_restarts: int = 2
    backoff: float = 0.05
    max_backoff: float = 2.0
    broadcast_deadline: Optional[float] = 60.0
    collect_deadline: Optional[float] = 300.0
    graceful_join: float = 1.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff delays must be >= 0")
        for name in ("broadcast_deadline", "collect_deadline"):
            deadline = getattr(self, name)
            if deadline is not None and not deadline > 0:
                raise ValueError(f"{name} must be None or > 0, got {deadline!r}")
        if not self.graceful_join >= 0:
            raise ValueError(f"graceful_join must be >= 0, got {self.graceful_join!r}")

    def deadline_for(self, op: str) -> Optional[float]:
        """The IPC deadline (seconds) governing one protocol operation.

        ``collect_deadline`` governs ``evaluate``, the only long-running
        job; every other operation gets ``broadcast_deadline``.
        """
        if op == "evaluate":
            return self.collect_deadline
        return self.broadcast_deadline

    def backoff_for(self, attempt: int) -> float:
        """Exponential backoff before the ``attempt``-th respawn (1-based)."""
        return min(self.backoff * (2.0 ** max(attempt - 1, 0)), self.max_backoff)


class _Degraded(Exception):
    """Internal control flow: the pool just degraded to in-process mode.

    Raised by ``_degrade`` after the in-process replacement pool is
    built; public operations catch it and re-execute the interrupted
    operation through the inner pool. Never escapes the pool.
    """

    def __init__(self, cause: BaseException):
        super().__init__(str(cause))
        self.cause = cause


def sharding_available(start_method: Optional[str] = None) -> bool:
    """Whether this platform can run :class:`ShardedVecEnvPool`."""
    methods = mp.get_all_start_methods()
    if start_method is not None:
        return start_method in methods
    return "fork" in methods or "spawn" in methods


def _default_start_method() -> str:
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def partition_contiguous(user_counts: Sequence[int], num_workers: int) -> List[slice]:
    """Contiguous env-index shards, balanced by cumulative user count.

    Every worker gets at least one env; the boundary after worker w sits
    where the cumulative user count first reaches the w+1-th W-quantile,
    so ragged env sizes spread evenly instead of by env count.
    """
    n = len(user_counts)
    num_workers = max(1, min(num_workers, n))
    cum = np.cumsum(np.asarray(user_counts, dtype=np.float64))
    total = float(cum[-1])
    bounds = [0]
    for w in range(num_workers - 1):
        cut = int(np.searchsorted(cum, total * (w + 1) / num_workers, side="left")) + 1
        lo = bounds[-1] + 1                      # at least one env per shard
        hi = n - (num_workers - 1 - w)           # leave one env per later shard
        bounds.append(min(max(cut, lo), hi))
    bounds.append(n)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _worker_main(
    conn,
    envs: List[MultiUserEnv],
    chaos: Optional[ChaosSchedule] = None,
) -> None:
    """Worker loop: serve replica/evaluate/load/close.

    The shard is wrapped in an in-process :class:`VecEnvPool`, so done
    masking, step budgets and native batch steppers behave exactly as in
    the single-process pool. The ``replica`` command is the param
    mailbox (policy structure once, then version-stamped state archives;
    a respawned worker gets structure *and* state in one command), and
    ``evaluate`` runs the replica evaluation kernel over the shard.
    SIGINT is ignored — on Ctrl-C the parent coordinates shutdown and
    reaps the workers. ``chaos`` is the deterministic fault-injection
    schedule (tests only; see :mod:`repro.rl.chaos`).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if chaos is not None and chaos.ignore_sigterm:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    replica: Optional[ActorCriticBase] = None
    replica_version = 0
    try:
        pool = VecEnvPool(envs)
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break
            kind = command[0]
            suppress_reply = False
            corrupt_stamp = False
            if chaos is not None:
                spec = chaos.match(kind, "receive")
                if spec is not None:
                    effect = apply_fault(spec)
                    if effect == "drop_reply":
                        suppress_reply = True
                    elif effect == "corrupt_stamp":
                        corrupt_stamp = True
            try:
                reply: Optional[tuple] = None
                stop = False
                if kind == "replica":
                    payload = command[1]
                    if payload["policy"] is not None:
                        replica = payload["policy"]
                        if payload.get("state") is not None:
                            # respawn re-ship: frozen structure + current
                            # weights in one command
                            _load_replica_bytes(replica, payload["state"])
                    elif replica is None:
                        raise RuntimeError(
                            "received a state-only policy broadcast before any "
                            "policy structure"
                        )
                    else:
                        _load_replica_bytes(replica, payload["state"])
                    replica_version = payload["version"]
                    reply = ("ok", replica_version)
                elif kind == "evaluate":
                    payload = command[1]
                    if replica is None or payload["version"] != replica_version:
                        reply = ("stale", replica_version, payload["version"])
                    else:
                        rngs = payload["rngs"]
                        totals = _replica_eval(
                            pool,
                            replica,
                            rngs,
                            episodes=payload["episodes"],
                            gamma=payload["gamma"],
                            deterministic=payload["deterministic"],
                            max_steps=payload["max_steps"],
                        )
                        env_blob = (
                            pickle.dumps(pool.envs)
                            if payload.get("return_envs")
                            else None
                        )
                        reply = (
                            "ok",
                            totals,
                            [rng.bit_generator.state for rng in rngs],
                            env_blob,
                        )
                elif kind == "load":
                    pool = VecEnvPool(command[1])
                    reply = ("ok",)
                elif kind == "close":
                    reply = ("ok",)
                    stop = True
                else:  # pragma: no cover - protocol bug
                    reply = ("error", f"unknown command {kind!r}")
                if chaos is not None:
                    spec = chaos.match(kind, "reply")
                    if spec is not None:
                        effect = apply_fault(spec)
                        if effect == "drop_reply":
                            suppress_reply = True
                        elif effect == "corrupt_stamp":
                            corrupt_stamp = True
                if not suppress_reply:
                    conn.send(reply)
                if corrupt_stamp:
                    # The acknowledged broadcast was applied, but the local
                    # stamp is now wrong: the next job answers stale.
                    replica_version += 7919
                if stop:
                    break
            except Exception:
                try:
                    conn.send(("error", traceback.format_exc()))
                except (OSError, BrokenPipeError):  # parent already gone
                    break
    finally:
        conn.close()


def _replica_state(policy: ActorCriticBase) -> Dict[str, np.ndarray]:
    """A policy's full replica state (params + extra buffers), flat."""
    if hasattr(policy, "replica_state"):
        return policy.replica_state()
    # plain Module: parameters only
    return {f"param.{key}": value for key, value in policy.state_dict().items()}


def _load_replica_bytes(replica: ActorCriticBase, payload: bytes) -> None:
    """Load a serialized replica-state archive into a worker's replica."""
    state = state_from_bytes(payload)
    if hasattr(replica, "load_replica_state"):
        replica.load_replica_state(state)
    else:
        replica.load_state_dict(
            {k[len("param."):]: v for k, v in state.items() if k.startswith("param.")}
        )


def _cleanup(procs, conns) -> None:
    """Idempotent teardown shared by close(), GC and interpreter exit.

    The finalizer holds the pool's *mutable* process and pipe lists, so
    respawned workers are reaped too. Shutdown escalates: a polite
    ``close`` command and a join grace first, then ``terminate()``
    (SIGTERM), then ``kill()`` (SIGKILL) — a worker that ignores SIGTERM
    (wedged signal handler, buggy env C extension) still dies.
    """
    for conn in conns:
        try:
            conn.send(("close",))
        except (OSError, BrokenPipeError, ValueError):
            pass
    deadline = time.monotonic() + _CLOSE_GRACE_S
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=_TERMINATE_GRACE_S)
    for proc in procs:
        if proc.is_alive():  # ignored SIGTERM: escalate to SIGKILL
            proc.kill()
            proc.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass


class ShardedVecEnvPool:
    """Member envs sharded across worker processes that evaluate with replicas.

    The pool runs jobs, not steps: :meth:`sync_policy` broadcasts the
    policy replica, then :meth:`evaluate_policy` runs a whole evaluation
    sweep inside the workers (see the module docstring), and
    ``evaluate(policy, pool)`` does both. ``load_envs`` reuses the
    worker processes for a fresh env set of identical layout (amortising
    process startup across evaluations).

    ``num_workers`` is clamped to the number of envs; 0/1 workers still
    run a (single) subprocess — use :class:`~repro.rl.vec.VecEnvPool`
    for the in-process path. ``max_steps`` is the default per-episode
    step budget of every job. ``max_param_bytes`` bounds the serialized
    policy state a single :meth:`sync_policy` broadcast may ship (a
    guard against accidentally pushing a giant model through the pipes
    every evaluation). ``fault_policy`` turns on worker supervision:
    deadline enforcement, automatic respawn with bit-identical state
    recovery, and graceful degradation to an in-process pool when the
    restart budget runs out (module docstring, *Failure handling*).
    ``chaos`` injects deterministic faults into the workers — tests
    only. The pool is a context manager; ``close()``
    is idempotent and also runs on GC and interpreter exit.
    """

    def __init__(
        self,
        envs: Sequence[MultiUserEnv],
        num_workers: int = 2,
        max_steps: Optional[int] = None,
        start_method: Optional[str] = None,
        max_param_bytes: int = 256 * 1024 * 1024,
        fault_policy: Optional[FaultPolicy] = None,
        chaos: Optional[ChaosSchedule] = None,
    ):
        self.slices = validate_pool_members(envs)
        method = start_method or _default_start_method()
        if not sharding_available(method):
            raise RuntimeError(f"start method {method!r} unavailable on this platform")

        self._user_counts = [env.num_users for env in envs]
        self.num_users = int(self.slices[-1].stop)
        self.group_id = [env.group_id for env in envs]
        self.max_steps = max_steps
        self._dims = (envs[0].observation_dim, envs[0].action_dim)

        self._shards = partition_contiguous(self._user_counts, num_workers)
        self.max_param_bytes = int(max_param_bytes)
        self._replica_version = 0
        self._replica_signature: Optional[tuple] = None
        self._replica_cache: Optional[Dict[str, np.ndarray]] = None
        self._replica_broadcasts = 0

        # Supervision / recovery state. Snapshots hold the authoritative
        # pickled env state per shard, refreshed by every command that
        # changes it, so respawning from them re-derives a worker's state
        # before its interrupted command. Replica struct/payload re-ship
        # the policy to respawned workers.
        self._fault = fault_policy
        self._chaos = chaos
        self._restarts = [0] * len(self._shards)
        self._metrics: Optional[MetricsRegistry] = None
        self._snapshots: Optional[List[bytes]] = None
        self._replica_struct: Optional[bytes] = None
        self._replica_payload: Optional[bytes] = None
        self._inner: Optional[VecEnvPool] = None
        self._degraded_replica: Optional[ActorCriticBase] = None
        if fault_policy is not None:
            self._snapshots = [
                pickle.dumps(list(envs[shard])) for shard in self._shards
            ]

        # The pool makes no shared memory, so nothing here needs the
        # multiprocessing resource tracker. It still starts before any
        # worker, as the spawn and forkserver methods already do, because
        # perfbench/test_perfbench.py::test_no_process_outlives_a_rollout_run
        # checks that a rollout run started it. Once that test checks for
        # surviving child processes instead, this call can go.
        resource_tracker.ensure_running()
        self._ctx = mp.get_context(method)
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        try:
            for index, shard in enumerate(self._shards):
                self._spawn_worker(index, list(envs[shard]), fresh=True)
        except Exception:
            # A failed spawn (e.g. unpicklable envs under the spawn start
            # method) must not leak the workers already up.
            _cleanup(self._procs, self._conns)
            raise

        self._closed = False
        self._finalizer = weakref.finalize(self, _cleanup, self._procs, self._conns)

    # ------------------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return len(self.slices)

    @property
    def num_workers(self) -> int:
        return len(self._procs)

    @property
    def shards(self) -> List[slice]:
        """Env-index shard of each worker (copy)."""
        return list(self._shards)

    @property
    def degraded(self) -> bool:
        """True once the restart budget ran out and the pool went in-process."""
        return self._inner is not None

    @property
    def restart_counts(self) -> List[int]:
        """Per-worker respawn counts (copy; index = original worker slot)."""
        return list(self._restarts)

    def set_metrics(self, registry: MetricsRegistry) -> None:
        """Attach a metrics registry (purely additive; idempotent).

        Registers the supervision series: the per-shard
        :class:`~repro.rl.workers.FaultPolicy` respawn counter and the
        degradation gauge. Observation points only read existing state —
        attaching a registry can never perturb the bit-parity contracts.
        """
        self._metrics = registry
        self._m_respawns = registry.counter(
            "rollout_worker_respawns_total",
            "supervised worker respawns (crash/hang recovery)",
            ("shard",),
        )
        self._m_degraded = registry.gauge(
            "rollout_pool_degraded",
            "1 once the restart budget ran out and the pool went in-process",
        )
        self._m_degraded.set(1.0 if self._inner is not None else 0.0)

    # ------------------------------------------------------------------
    # process management: spawn / reap / supervised exchange
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int, envs: List[MultiUserEnv], fresh: bool) -> None:
        """Start worker ``index`` over ``envs`` (append on first spawn).

        SIGINT is masked in the parent (main thread only) around
        ``Process.start()`` so a Ctrl-C cannot land in the forked child
        before ``_worker_main`` installs its own SIG_IGN — without this
        a Ctrl-C during pool construction races N KeyboardInterrupts
        against the teardown. Respawns get the chaos schedule again
        only when it is marked ``persistent``.
        """
        worker_chaos: Optional[ChaosSchedule] = None
        if self._chaos is not None and (fresh or self._chaos.persistent):
            worker_chaos = self._chaos.for_worker(index)
        parent_conn, child_conn = self._ctx.Pipe()
        previous_handler = None
        in_main_thread = threading.current_thread() is threading.main_thread()
        if in_main_thread:
            previous_handler = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, envs, worker_chaos),
                daemon=True,
            )
            proc.start()
        finally:
            if in_main_thread:
                signal.signal(signal.SIGINT, previous_handler)
        child_conn.close()
        if index == len(self._procs):
            self._procs.append(proc)
            self._conns.append(parent_conn)
        else:
            self._procs[index] = proc
            self._conns[index] = parent_conn

    def _reap_worker(self, index: int) -> None:
        """Force worker ``index`` down: SIGTERM, grace, then SIGKILL."""
        proc = self._procs[index]
        try:
            self._conns[index].close()
        except OSError:
            pass
        grace = self._fault.graceful_join if self._fault is not None else 1.0
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=grace)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    def _deadline_for(self, op: str) -> Optional[float]:
        if self._fault is None:
            return None
        return self._fault.deadline_for(op)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")

    def _recv(self, worker: int, deadline: Optional[float] = None, op: str = "command"):
        """Liveness- and deadline-checked receive.

        A dead worker raises :class:`WorkerCrashed` instead of hanging;
        a worker that blows through ``deadline`` seconds is SIGKILLed
        and raises :class:`WorkerTimeout` (a hung worker cannot be
        trusted to honour SIGTERM). Also surfaces
        :class:`WorkerStepError` (worker-side traceback) and
        :class:`StaleReplicaError` replies.
        """
        conn, proc = self._conns[worker], self._procs[worker]
        limit = None if deadline is None else time.monotonic() + deadline
        try:
            while not conn.poll(0.05):
                if not proc.is_alive():
                    raise WorkerCrashed(
                        f"rollout worker {worker} (pid {proc.pid}) died with "
                        f"exit code {proc.exitcode} before answering; the pool "
                        "has been closed"
                    )
                if limit is not None and time.monotonic() > limit:
                    proc.kill()
                    proc.join(timeout=5.0)
                    raise WorkerTimeout(
                        f"rollout worker {worker} (pid {proc.pid}) exceeded "
                        f"the {deadline:.3g}s {op} deadline and was SIGKILLed"
                    )
            message = conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerCrashed(
                f"rollout worker {worker} (pid {proc.pid}) closed its pipe "
                f"mid-command ({error!r}); the pool has been closed"
            ) from None
        if message[0] == "error":
            raise WorkerStepError(
                f"rollout worker {worker} raised:\n{message[1]}"
            )
        if message[0] == "stale":
            raise StaleReplicaError(
                f"rollout worker {worker} holds policy replica version "
                f"{message[1]} but the parent requested {message[2]}; "
                "sync_policy() and the job must not be interleaved with "
                "another broadcast — the pool has been closed"
            )
        return message

    def _exchange(self, commands: Sequence[Any], op: str) -> List[Any]:
        """One supervised command round: one command and one reply per worker.

        Without a fault policy a failed send or receive closes the pool
        and raises (fail-fast contract); with one, the failed worker is
        respawned and re-issued its command, and budget exhaustion
        raises :class:`_Degraded` after the in-process fallback is
        built.
        """
        self._check_open()
        failed: Dict[int, BaseException] = {}
        for worker, (conn, command) in enumerate(zip(self._conns, commands)):
            try:
                conn.send(command)
            except (OSError, BrokenPipeError) as error:
                proc = self._procs[worker]
                crash = WorkerCrashed(
                    f"rollout worker {worker} (pid {proc.pid}) rejected a "
                    f"command ({error!r}); the pool has been closed"
                )
                if self._fault is None:
                    self.close()
                    raise crash from None
                failed[worker] = crash
        replies: List[Any] = [None] * len(commands)
        deadline = self._deadline_for(op)
        for worker in range(len(commands)):
            if worker in failed:
                replies[worker] = self._recover(worker, commands[worker], op, failed.pop(worker))
            else:
                try:
                    replies[worker] = self._recv(worker, deadline=deadline, op=op)
                except _RECOVERABLE_ERRORS as error:
                    if self._fault is None:
                        self.close()
                        raise
                    replies[worker] = self._recover(worker, commands[worker], op, error)
                except WorkerStepError:
                    self.close()
                    raise
        return replies

    def _recover(self, worker: int, command: Any, op: str, error: BaseException):
        """Respawn a failed worker from its snapshot, re-issue its command.

        Bounded by ``FaultPolicy.max_restarts`` (per worker) with
        exponential backoff between attempts; exhaustion degrades the
        whole pool to in-process execution (raises :class:`_Degraded`).
        Returns the re-issued command's reply.
        """
        assert self._fault is not None
        while True:
            self._restarts[worker] += 1
            attempt = self._restarts[worker]
            if attempt > self._fault.max_restarts:
                self._degrade(error)
            delay = self._fault.backoff_for(attempt)
            if delay > 0:
                time.sleep(delay)
            try:
                self._respawn(worker)
                self._conns[worker].send(command)
                return self._recv(worker, deadline=self._deadline_for(op), op=op)
            except _RECOVERABLE_ERRORS as retry_error:
                error = retry_error
            except (OSError, BrokenPipeError) as retry_error:
                error = WorkerCrashed(
                    f"rollout worker {worker} rejected the re-issued command "
                    f"({retry_error!r})"
                )
            except WorkerStepError:
                self.close()
                raise

    def _respawn(self, worker: int) -> None:
        """Rebuild worker ``worker`` bit-identically from parent state.

        Reaps the old process, spawns a fresh one over its shard's env
        snapshot — the state before the interrupted command — and
        re-ships the current policy replica (structure + state in one
        command).
        """
        assert self._snapshots is not None
        if self._metrics is not None:
            self._m_respawns.labels(str(worker)).inc()
        self._reap_worker(worker)
        self._spawn_worker(worker, pickle.loads(self._snapshots[worker]), fresh=False)
        if self._replica_version > 0 and self._replica_struct is not None:
            self._conns[worker].send(
                (
                    "replica",
                    {
                        "policy": pickle.loads(self._replica_struct),
                        "state": self._replica_payload,
                        "version": self._replica_version,
                    },
                )
            )
            self._recv(worker, deadline=self._deadline_for("replica"), op="replica")

    def _degrade(self, error: BaseException) -> None:
        """Swap every worker for one in-process pool; raise :class:`_Degraded`.

        All shards are rebuilt from their snapshots in the parent (no
        cooperation from possibly-dead workers needed), the worker
        processes are torn down, and subsequent operations run through
        the inner :class:`VecEnvPool` — same bits, no parallelism.
        """
        assert self._snapshots is not None
        member_envs = [env for blob in self._snapshots for env in pickle.loads(blob)]
        for worker in range(len(self._procs)):
            self._reap_worker(worker)
        # Empty the lists in place so the GC finalizer (which holds them)
        # becomes a no-op.
        self._procs.clear()
        self._conns.clear()
        self._inner = VecEnvPool(member_envs, max_steps=self.max_steps)
        self._degraded_replica = None
        if self._metrics is not None:
            self._m_degraded.set(1.0)
        warnings.warn(
            f"rollout worker restart budget exhausted "
            f"(max_restarts={self._fault.max_restarts} per worker): degrading "
            f"to in-process evaluation for the rest of this pool's life. "
            f"Last failure: {error}",
            RuntimeWarning,
            stacklevel=4,
        )
        raise _Degraded(error)

    def _materialize_replica(self) -> ActorCriticBase:
        """The archived policy replica, rebuilt for in-process jobs."""
        if self._degraded_replica is None:
            if self._replica_struct is None:
                raise RuntimeError(
                    "no policy replica archived: sync_policy() has not run"
                )
            replica = pickle.loads(self._replica_struct)
            if self._replica_payload is not None:
                _load_replica_bytes(replica, self._replica_payload)
            self._degraded_replica = replica
        return self._degraded_replica

    # ------------------------------------------------------------------
    # policy replicas
    # ------------------------------------------------------------------
    @property
    def replica_version(self) -> int:
        """Version stamp of the last successful :meth:`sync_policy` (0 = none)."""
        return self._replica_version

    @property
    def replica_broadcasts(self) -> int:
        """How many :meth:`sync_policy` calls actually sent anything.

        An unchanged policy (same structure, byte-equal state arrays) is
        skipped entirely — the workers already hold these exact weights
        under the current version stamp — so loops that call
        ``evaluate(policy, pool)`` after every update pay for the
        archive only when parameters actually moved.
        """
        return self._replica_broadcasts

    def sync_policy(self, policy: ActorCriticBase) -> int:
        """Broadcast ``policy`` to every worker; returns the version stamp.

        The first broadcast (or any broadcast after the replica *shape*
        changed) ships the pickled policy object; subsequent broadcasts
        ship only the serialized ``replica_state`` archive — the full
        parameter set every time, so a replica can never be a partial
        delta behind the parent. A broadcast whose state arrays are
        byte-identical to the last successful one is **skipped
        entirely** (no pipe traffic, same version stamp returned): the
        workers' replicas are already exact, so re-sending would be pure
        overhead (see :attr:`replica_broadcasts`). Raises ``ValueError``
        before anything is sent when the archive exceeds
        ``max_param_bytes`` (the pool stays open and usable), and the
        usual pool errors (:class:`WorkerCrashed` /
        :class:`WorkerStepError`) when a worker dies or rejects the
        broadcast mid-way (without a fault policy the pool is closed
        first — no hang; with one the worker is recovered or the pool
        degrades in-process). A policy that cannot be pickled raises from
        the first send, before any worker received anything, and leaves
        the pool usable.
        """
        self._check_open()
        state = _replica_state(policy)
        signature = tuple(sorted((key, value.shape) for key, value in state.items()))
        if (
            self._replica_version > 0
            and signature == self._replica_signature
            and self._replica_cache is not None
            and all(
                np.array_equal(value, self._replica_cache[key])
                for key, value in state.items()
            )
        ):
            return self._replica_version  # unchanged: nothing to re-send
        payload = state_to_bytes(state)
        if len(payload) > self.max_param_bytes:
            raise ValueError(
                f"policy replica state is {len(payload)} bytes, over this "
                f"pool's max_param_bytes={self.max_param_bytes}; raise the "
                "limit if broadcasting a model this large every iteration is "
                "intentional"
            )
        version = self._replica_version + 1
        ships_structure = signature != self._replica_signature
        if self._inner is None:
            if ships_structure:  # structure changed (or first sync)
                command = ("replica", {"policy": policy, "state": None, "version": version})
            else:
                command = ("replica", {"policy": None, "state": payload, "version": version})
            try:
                self._exchange([command] * self.num_workers, op="replica")
            except _Degraded:
                pass  # fall through: archive the replica for in-process use
        if self._fault is not None or self._inner is not None:
            # Archive what a respawned worker (or the degraded in-process
            # path) needs: the structure once, the current weights always.
            if ships_structure or self._replica_struct is None:
                self._replica_struct = pickle.dumps(policy)
            self._replica_payload = payload
            self._degraded_replica = None
        self._replica_version = version
        self._replica_signature = signature
        self._replica_cache = {
            key: np.array(value, copy=True) for key, value in state.items()
        }
        self._replica_broadcasts += 1
        return version

    def _check_replica(self, op: str) -> None:
        if self._replica_version == 0:
            raise RuntimeError(
                f"{op} needs a policy replica: call sync_policy() first"
            )

    def _as_env_rngs(
        self, rng: RNGLike
    ) -> Tuple[List[np.random.Generator], Optional[List[np.random.Generator]]]:
        """Per-env generators plus the caller-owned objects to sync back.

        Mirrors :func:`repro.rl.vec._as_block_rng`: a single generator is
        split into per-env child streams (the children are transient, so
        nothing is synced back — exactly the vectorized-path semantics);
        an explicit sequence or a :class:`~repro.rl.vec.BlockRNG` hands
        over caller-owned generators whose advanced states are copied
        back after the job, preserving multi-episode stream continuity.
        """
        if isinstance(rng, BlockRNG):
            rngs = list(rng.rngs)
            owners: Optional[List[np.random.Generator]] = rngs
        elif isinstance(rng, np.random.Generator):
            rngs = split_rng(rng, self.num_envs)
            owners = None
        else:
            rngs = list(rng)
            owners = rngs
        if len(rngs) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} generators, got {len(rngs)}")
        return rngs, owners

    def _commit(
        self,
        owners: Optional[List[np.random.Generator]],
        rng_states: List[Any],
        env_blobs: List[Optional[bytes]],
    ) -> None:
        """Apply a job's side effects once every worker has answered.

        Caller-owned generators take their advanced states and, under a
        fault policy, the shards' returned envs become the new recovery
        snapshots — a failed job must leave no partial state behind.
        """
        if owners is not None:
            for owner, state in zip(owners, rng_states):
                owner.bit_generator.state = state
        if self._fault is not None:
            self._snapshots = list(env_blobs)

    # ------------------------------------------------------------------
    # replica-side evaluation
    # ------------------------------------------------------------------
    def evaluate_policy(
        self,
        rng: RNGLike,
        episodes: int = 1,
        gamma: float = 1.0,
        deterministic: bool = True,
        max_steps: Optional[int] = None,
    ) -> np.ndarray:
        """Replica-side evaluation sweep: every worker evaluates its shard.

        Each worker runs the replica evaluation kernel of
        :mod:`repro.rl.evaluate` over its shard-local sub-pool with its
        **policy replica** (requires a prior :meth:`sync_policy`; a stale
        replica raises :class:`StaleReplicaError`) and its slice of the
        per-env noise streams, then replies with per-env mean
        (discounted) returns and advanced RNG states. Because the kernel
        draws each env's action noise from that env's own stream and
        computes context per env block, the totals are bit-identical to
        evaluating the same envs in one in-process pool — for any worker
        count. ``rng`` is a single generator (transient per-env
        children) or a sequence / :class:`~repro.rl.vec.BlockRNG` of
        caller-owned streams, synced back only after every worker
        answered. ``episodes`` below 1 raises ``ValueError`` before any
        command is sent, so the pool stays usable. Under a
        :class:`FaultPolicy` crashed workers are respawned and re-issued
        the sweep with pristine inputs, and the recovery snapshots are
        refreshed on success (the sweep advances worker-side env RNGs,
        so the old snapshots no longer describe the shard).
        """
        _check_episodes(episodes)
        self._check_open()
        self._check_replica("evaluate_policy()")
        if max_steps is None:
            max_steps = self.max_steps
        rngs, owners = self._as_env_rngs(rng)
        job = {
            "episodes": episodes,
            "gamma": gamma,
            "deterministic": deterministic,
            "max_steps": max_steps,
        }
        if self._inner is None:
            commands = [
                (
                    "evaluate",
                    dict(
                        job,
                        version=self._replica_version,
                        rngs=rngs[shard],
                        return_envs=self._fault is not None,
                    ),
                )
                for shard in self._shards
            ]
            try:
                replies = self._exchange(commands, op="evaluate")
            except _Degraded:
                pass
            else:
                self._commit(
                    owners,
                    [state for reply in replies for state in reply[2]],
                    [reply[3] for reply in replies],
                )
                return np.concatenate([reply[1] for reply in replies])
        return _replica_eval(self._inner, self._materialize_replica(), rngs, **job)

    # ------------------------------------------------------------------
    def load_envs(self, envs: Sequence[MultiUserEnv]) -> None:
        """Replace the member envs, reusing the worker processes.

        The new envs must match the current layout exactly (same per-env
        user counts and dims) so the shard boundaries stay valid; each
        worker rebuilds its in-process sub-pool from the pickled
        replacements.
        """
        envs = list(envs)
        if [env.num_users for env in envs] != self._user_counts:
            raise ValueError(
                "load_envs needs the same per-env user counts as the current "
                f"pool ({self._user_counts})"
            )
        if (envs[0].observation_dim, envs[0].action_dim) != self._dims:
            raise ValueError("load_envs needs matching observation/action dims")
        if len({id(env) for env in envs}) != len(envs):
            raise ValueError("load_envs members must be distinct objects")
        self._check_open()
        if self._inner is None:
            try:
                self._exchange(
                    [("load", list(envs[shard])) for shard in self._shards], op="load"
                )
            except _Degraded:
                pass  # fall through to the in-process replacement below
        if self._inner is not None:
            self._inner = VecEnvPool(envs, max_steps=self.max_steps)
        elif self._fault is not None:
            self._snapshots = [pickle.dumps(list(envs[shard])) for shard in self._shards]
        self.group_id = [env.group_id for env in envs]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup(self._procs, self._conns)
        self._inner = None
        self._degraded_replica = None

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardedVecEnvPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
