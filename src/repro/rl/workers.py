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

Failure handling
----------------
The pool fails fast and never retries. Workers ignore SIGINT (the
parent coordinates shutdown; the parent also masks SIGINT around each
``Process.start()`` so a Ctrl-C cannot land in the bootstrap window
before the worker installs its own handler). Every receive polls the
worker's liveness, so a dead worker raises :class:`WorkerCrashed`
instead of hanging; a stale replica raises :class:`StaleReplicaError`
and an env exception :class:`WorkerStepError`. Each closes the pool
before it propagates. Every command of a round is pickled before any
is sent, so a command that cannot be pickled raises with nothing sent,
and an oversized ``replica_state`` raises ``ValueError`` before
anything is sent; both leave the pool usable. An evaluation is a pure
function of the replica, the env states and the per-env streams, and a
failed sweep leaves the caller's streams untouched, so a caller that
loses a worker can rerun the evaluation on a new pool. Shutdown runs
on ``close()``, on garbage collection and on interpreter exit, and
escalates ``join`` → ``terminate()`` → ``kill()``, so even a worker
that ignores SIGTERM dies.
"""

from __future__ import annotations

import multiprocessing as mp
import signal
import threading
import time
import traceback
import weakref
from multiprocessing import resource_tracker
from multiprocessing.reduction import ForkingPickler
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..envs.base import MultiUserEnv
from ..nn.serialization import state_from_bytes, state_to_bytes
from .policies import ActorCriticBase
from .vec import RNGLike, BlockRNG, VecEnvPool, split_rng, validate_pool_members
from .evaluate import _check_episodes, _replica_eval


class WorkerCrashed(RuntimeError):
    """A pool worker process died instead of answering a command."""


class WorkerStepError(RuntimeError):
    """A pool worker raised while executing a command (env bug etc.).

    Carries the worker-side traceback. The pool is closed before this
    propagates: after an env exception the worker's sub-pool state is
    unreliable, so the pool refuses further use.
    """


class StaleReplicaError(RuntimeError):
    """A worker's policy replica version differs from the one requested.

    Raised by :meth:`ShardedVecEnvPool.evaluate_policy` when a worker
    reports a replica version stamp other than the one the parent's last
    :meth:`~ShardedVecEnvPool.sync_policy` established — acting with
    silently-stale weights would report returns of the wrong policy.
    The pool is closed before this propagates.
    """


#: Shutdown graces of :func:`_cleanup`, in seconds: how long all workers
#: get to exit after the ``close`` command, then how long each gets to
#: honour SIGTERM before it is SIGKILLed.
_CLOSE_GRACE_S = 2.0
_TERMINATE_GRACE_S = 1.0


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


def _worker_main(conn, envs: List[MultiUserEnv]) -> None:
    """Worker loop: serve replica/evaluate/load/close.

    The shard is wrapped in an in-process :class:`VecEnvPool`, so done
    masking, step budgets and native batch steppers behave exactly as in
    the single-process pool. The ``replica`` command is the param
    mailbox (policy structure once, then version-stamped state
    archives), and ``evaluate`` runs the replica evaluation kernel over
    the shard. SIGINT is ignored — on Ctrl-C the parent coordinates
    shutdown and reaps the workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
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
            try:
                stop = False
                if kind == "replica":
                    payload = command[1]
                    if payload["policy"] is not None:
                        replica = payload["policy"]
                    elif replica is None:
                        raise RuntimeError(
                            "received a state-only policy broadcast before any "
                            "policy structure"
                        )
                    else:
                        _load_replica_bytes(replica, payload["state"])
                    replica_version = payload["version"]
                    reply: tuple = ("ok", replica_version)
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
                        reply = ("ok", totals, [rng.bit_generator.state for rng in rngs])
                elif kind == "load":
                    pool = VecEnvPool(command[1])
                    reply = ("ok",)
                elif kind == "close":
                    reply = ("ok",)
                    stop = True
                else:  # pragma: no cover - protocol bug
                    reply = ("error", f"unknown command {kind!r}")
                conn.send(reply)
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

    Shutdown escalates: a polite ``close`` command and a join grace
    first, then ``terminate()`` (SIGTERM), then ``kill()`` (SIGKILL) — a
    worker that ignores SIGTERM (wedged signal handler, buggy env C
    extension, stopped process) still dies.
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
    every evaluation). Any worker failure closes the pool and raises
    (module docstring, *Failure handling*). The pool is a context
    manager; ``close()`` is idempotent and also runs on GC and
    interpreter exit.
    """

    def __init__(
        self,
        envs: Sequence[MultiUserEnv],
        num_workers: int = 2,
        max_steps: Optional[int] = None,
        start_method: Optional[str] = None,
        max_param_bytes: int = 256 * 1024 * 1024,
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
            for shard in self._shards:
                self._spawn_worker(list(envs[shard]))
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
        """Always ``False``: the pool never falls back to in-process work.

        Kept read-only for ``perfbench/rollout_eval.py``, which counts a
        degraded call as a failed one; it goes at the next change to the
        benchmark.
        """
        return False

    @property
    def restart_counts(self) -> List[int]:
        """Always ``[0] * num_workers``: the pool never respawns a worker.

        Kept read-only for ``perfbench/rollout_eval.py``, which reports
        their sum as ``workers.respawns``; it goes at the next change to
        the benchmark.
        """
        return [0] * self.num_workers

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def _spawn_worker(self, envs: List[MultiUserEnv]) -> None:
        """Start one more worker over ``envs``.

        SIGINT is masked in the parent (main thread only) around
        ``Process.start()`` so a Ctrl-C cannot land in the forked child
        before ``_worker_main`` installs its own SIG_IGN — without this
        a Ctrl-C during pool construction races N KeyboardInterrupts
        against the teardown.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        previous_handler = None
        in_main_thread = threading.current_thread() is threading.main_thread()
        if in_main_thread:
            previous_handler = signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn, envs), daemon=True
            )
            proc.start()
        finally:
            if in_main_thread:
                signal.signal(signal.SIGINT, previous_handler)
        child_conn.close()
        self._procs.append(proc)
        self._conns.append(parent_conn)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")

    def _recv(self, worker: int):
        """Liveness-checked receive.

        A dead worker raises :class:`WorkerCrashed` instead of hanging.
        Also surfaces :class:`WorkerStepError` (worker-side traceback)
        and :class:`StaleReplicaError` replies.
        """
        conn, proc = self._conns[worker], self._procs[worker]
        try:
            while not conn.poll(0.05):
                if not proc.is_alive():
                    raise WorkerCrashed(
                        f"rollout worker {worker} (pid {proc.pid}) died with "
                        f"exit code {proc.exitcode} before answering; the pool "
                        "has been closed"
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

    def _exchange(self, commands: Sequence[Any]) -> List[Any]:
        """One command round: one command and one reply per worker.

        Every command is pickled before any is sent, so one that cannot
        be pickled raises with no worker having received anything and
        leaves the pool usable; sending worker by worker instead would
        leave the earlier workers with a command whose reply the next
        round would read as its own. A failed send or receive closes the
        pool and raises (fail-fast contract).
        """
        self._check_open()
        # A broadcast repeats one command object: pickle it once.
        unique = {id(command): command for command in commands}
        payloads = {key: ForkingPickler.dumps(command) for key, command in unique.items()}
        for worker, (conn, command) in enumerate(zip(self._conns, commands)):
            try:
                conn.send_bytes(payloads[id(command)])
            except OSError as error:
                proc = self._procs[worker]
                self.close()
                raise WorkerCrashed(
                    f"rollout worker {worker} (pid {proc.pid}) rejected a "
                    f"command ({error!r}); the pool has been closed"
                ) from None
        try:
            return [self._recv(worker) for worker in range(len(commands))]
        except (WorkerCrashed, StaleReplicaError, WorkerStepError):
            self.close()
            raise

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
        broadcast mid-way (the pool is closed first — no hang). A
        policy that cannot be pickled raises before any worker received
        anything, and leaves the pool usable.
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
        if signature != self._replica_signature:  # structure changed (or first sync)
            command = ("replica", {"policy": policy, "state": None, "version": version})
        else:
            command = ("replica", {"policy": None, "state": payload, "version": version})
        self._exchange([command] * self.num_workers)
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
        answered, so a failed sweep leaves them untouched. ``episodes``
        below 1 raises ``ValueError`` before any command is sent, so the
        pool stays usable.
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
            "version": self._replica_version,
        }
        replies = self._exchange(
            [("evaluate", dict(job, rngs=rngs[shard])) for shard in self._shards]
        )
        if owners is not None:
            states = [state for reply in replies for state in reply[2]]
            for owner, state in zip(owners, states):
                owner.bit_generator.state = state
        return np.concatenate([reply[1] for reply in replies])

    # ------------------------------------------------------------------
    def load_envs(self, envs: Sequence[MultiUserEnv]) -> None:
        """Replace the member envs, reusing the worker processes.

        The new envs must match the current layout exactly (same per-env
        user counts and dims) so the shard boundaries stay valid; each
        worker rebuilds its in-process sub-pool from the pickled
        replacements. Envs that cannot be pickled raise before any
        worker received its shard, so every worker keeps its old envs.
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
        self._exchange([("load", list(envs[shard])) for shard in self._shards])
        self.group_id = [env.group_id for env in envs]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup(self._procs, self._conns)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardedVecEnvPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
