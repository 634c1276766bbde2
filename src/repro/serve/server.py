"""Microbatched policy inference serving with hot-swappable replicas.

A :class:`PolicyServer` holds one serving **policy replica** and many
concurrent user **sessions**. Each session is the serving analogue of one
member env of a rollout pool: it owns a block of ``num_users`` rows, its
own noise stream, its own previous-action vector and — for recurrent
policies — its own extractor state, all kept server-side so clients only
ever ship observations and receive actions.

``act`` requests from different sessions are **microbatched**: pending
requests are stacked on the user axis (arrival order) and answered by a
single batched ``policy.act`` — the same stacked-forward kernel the
rollout engine uses (:mod:`repro.rl.vec`), so one forward pass serves the
whole window instead of one pass per session. The batch is assembled with
exactly the ingredients that make vectorized rollouts bit-reproduce
sequential ones:

- **row-stable matmuls** — every nn-engine forward computes row ``i`` of a
  stacked batch exactly as it would compute that row alone;
- **per-session noise streams** — a :class:`~repro.rl.vec.BlockRNG` over
  the batch's session blocks draws each session's action noise from that
  session's own generator, whoever shares the batch;
- **per-session context groups** — ``policy.set_rollout_groups`` scopes
  group-level context (the Sim2Rec SADAE υ-embedding) to each session's
  block, so υ never mixes users across sessions;
- **per-session recurrent state** — before the batch, each state part
  is gathered once, stacking every session's saved extractor rows in
  window order, and handed to the policy uncopied
  (``exchange_recurrent_state``); after it, each session takes back one
  slice copy of its rows, so an interleaved session's hidden state
  evolves exactly as it would serving alone.

Together these make microbatched serving **bit-identical** to serving
every session by itself, one ``policy.act`` per request — the contract
``tests/serve/`` proves across policy families, arrival interleavings
and fuzzed batch layouts.

Hot swap: :meth:`PolicyServer.swap_policy` accepts a version-stamped
``state_to_bytes`` archive of :meth:`~repro.rl.policies.ActorCriticBase.
replica_state` (the same protocol :meth:`repro.rl.workers.
ShardedVecEnvPool.sync_policy` broadcasts to rollout workers). A torn
archive fails its CRC (:class:`~repro.nn.serialization.StateChecksumError`)
before anything is applied; a stale version raises
:class:`~repro.rl.workers.StaleReplicaError`; a byte-equal archive is
skipped without a version bump. The swap takes the batch lock, so it can
only land *between* microbatches — a session never sees a half-applied
snapshot, and every response carries the version that produced it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.serialization import state_from_bytes, state_to_bytes
from ..obs import BATCH_ROWS_BUCKETS, MetricsRegistry, Tracer
from ..rl.policies import ActorCriticBase
from ..rl.vec import BlockRNG
from ..rl.workers import StaleReplicaError

__all__ = [
    "ActionResult",
    "PolicyServer",
    "ServeConfig",
    "Session",
    "SessionError",
    "Ticket",
    "snapshot_policy",
]


#: Why a microbatch window closed — the ``reason`` label of
#: ``serve_windows_total``: it held ``max_batch_size`` requests, it held
#: one request from every open session, its oldest request waited out
#: ``max_wait_ms``, or :meth:`PolicyServer.flush` drained it.
_WINDOW_REASONS = ("full", "all_pending", "max_wait", "flush")


class SessionError(RuntimeError):
    """Invalid session-protocol use (unknown id, double submit, ...)."""


def snapshot_policy(policy: ActorCriticBase) -> bytes:
    """Serialize a policy into a hot-swappable replica archive.

    The archive is ``state_to_bytes(policy.replica_state())`` — parameters
    plus extra buffers (e.g. the Sim2Rec SADAE normaliser), CRC-protected —
    exactly what :meth:`PolicyServer.swap_policy` consumes and what the
    rollout workers' replica broadcast ships.
    """
    return state_to_bytes(policy.replica_state())


@dataclass(frozen=True)
class ServeConfig:
    """Microbatching knobs for :class:`PolicyServer`.

    ``max_batch_size`` caps how many pending requests one batched
    ``policy.act`` may serve (the user-axis row count is the sum of their
    sessions' ``num_users``). ``max_wait_ms`` bounds how long the
    background dispatcher holds an incomplete window open for stragglers
    (a window holding one request from every open session cannot grow,
    so it closes at once); the synchronous :meth:`PolicyServer.flush`
    path ignores it (it drains whatever is pending). ``seed`` feeds the
    server's session seed sequence — sessions created without an explicit
    seed/generator get deterministic spawned child streams.
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.max_batch_size, bool) or not isinstance(
            self.max_batch_size, (int, np.integer)
        ):
            raise ValueError(
                f"max_batch_size must be an int, got {self.max_batch_size!r}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if isinstance(self.max_wait_ms, bool) or not isinstance(
            self.max_wait_ms, (int, float, np.integer, np.floating)
        ):
            raise ValueError(f"max_wait_ms must be a number, got {self.max_wait_ms!r}")
        if not np.isfinite(self.max_wait_ms) or self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be finite and >= 0, got {self.max_wait_ms}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an int, got {self.seed!r}")


@dataclass
class ActionResult:
    """One served action batch for one session.

    ``actions`` / ``log_probs`` / ``values`` are the session's own rows of
    the microbatched ``policy.act`` (shapes ``[num_users, action_dim]`` /
    ``[num_users]`` / ``[num_users]``), ``version`` the policy version
    that produced them, ``step`` the session's 1-based act count.
    """

    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    version: int
    step: int


class Ticket:
    """Handle for one submitted request; resolved by the next batch.

    The signal is a lock held from creation until the batch resolves the
    ticket: waiters block on acquiring it, with ``threading.Event``'s
    semantics at a fraction of its per-request cost (an Event builds a
    Condition and notifies under it).
    """

    __slots__ = ("_served", "_done", "_result", "_error")

    def __init__(self) -> None:
        self._served = threading.Lock()
        self._served.acquire()
        self._done = False
        self._result: Optional[ActionResult] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._done

    def result(self, timeout: Optional[float] = None) -> ActionResult:
        """Block until the request is served; raises what the batch raised."""
        if not self._done:
            wait = -1 if timeout is None else max(timeout, 0.0)
            if not self._served.acquire(True, wait):
                raise TimeoutError("request not served within timeout")
            self._served.release()  # let every other waiter through too
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _resolve(self, result: ActionResult) -> None:
        self._result = result
        self._done = True
        self._served.release()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True
        self._served.release()


class _Session:
    __slots__ = (
        "id",
        "num_users",
        "rng",
        "deterministic",
        "prev_actions",
        "recurrent_state",
        "steps",
        "pending",
        "version",
    )

    def __init__(
        self,
        session_id: str,
        num_users: int,
        rng: np.random.Generator,
        deterministic: bool,
        version: int,
    ) -> None:
        self.id = session_id
        self.num_users = num_users
        self.rng = rng
        self.deterministic = deterministic
        self.prev_actions: Optional[np.ndarray] = None  # zeros until first act
        self.recurrent_state: Optional[Any] = None  # fresh = initial state
        self.steps = 0
        self.pending = False
        self.version = version  # policy version that last served this session


class Session:
    """Handle for one open serving session — the request surface.

    Obtained from :meth:`PolicyServer.session` (create) or
    :meth:`PolicyServer.get_session` (attach to an existing id). The
    handle owns no state of its own: every call goes straight to the
    server, so any number of handles to the same id behave identically,
    and a handle whose session was ended (by anyone) raises
    :class:`SessionError` on use.
    """

    __slots__ = ("_server", "_state")

    def __init__(self, server: "PolicyServer", state: _Session) -> None:
        self._server = server
        self._state = state

    @property
    def id(self) -> str:
        return self._state.id

    @property
    def num_users(self) -> int:
        return self._state.num_users

    @property
    def steps(self) -> int:
        """1-based count of served acts (0 before the first)."""
        return self._state.steps

    @property
    def version(self) -> int:
        """Policy version that last served this session.

        Before the first act: the serving version when the session was
        opened. Updated by every served batch, so a hot swap between two
        acts is visible as a version step on the handle.
        """
        return self._state.version

    @property
    def server(self) -> "PolicyServer":
        """The :class:`PolicyServer` this session lives on."""
        return self._server

    @property
    def alive(self) -> bool:
        """Whether the session is still registered with the server."""
        return self._server._is_registered(self._state)

    def submit(self, obs: np.ndarray, trace: Optional[str] = None) -> Ticket:
        """Queue one ``act`` request; returns a :class:`Ticket`.

        ``obs`` is the session's stacked observation block
        ``[num_users, state_dim]`` (a 1-D vector is accepted for
        single-user sessions). One request per session may be in flight —
        a session's next observation depends on its previous action, so a
        second submit before the first is served can only be a protocol
        bug. A non-finite observation is refused before it is queued: one
        NaN would turn the whole group's SADAE context, and every later
        step's extractor state, into NaN.

        ``trace`` attaches a trace id: the batch that serves this request
        records its queue-wait and compute spans under that id on the
        server's :class:`~repro.obs.Tracer`.
        """
        return self._server._submit(self._state, obs, trace=trace)

    def act(
        self,
        obs: np.ndarray,
        timeout: Optional[float] = None,
        trace: Optional[str] = None,
    ) -> ActionResult:
        """Submit and wait for the served result (single-call convenience).

        Without the background dispatcher the request is flushed
        immediately (a one-request batch); with it, the call blocks until
        the dispatcher's window closes.
        """
        ticket = self.submit(obs, trace=trace)
        if not self._server._running:
            self._server.flush()
        return ticket.result(timeout)

    def end(self) -> None:
        """Close the session; pending requests must be served first."""
        self._server._end(self._state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(id={self._state.id!r}, num_users={self._state.num_users}, "
            f"steps={self._state.steps}, alive={self.alive})"
        )


class _Request:
    __slots__ = ("session", "obs", "ticket", "arrived", "trace")

    def __init__(
        self,
        session: _Session,
        obs: np.ndarray,
        arrived: float,
        trace: Optional[str] = None,
    ) -> None:
        self.session = session
        self.obs = obs
        self.ticket = Ticket()
        self.arrived = arrived
        self.trace = trace


def _fail(requests: Sequence[_Request], error: BaseException) -> None:
    """Resolve ``requests`` with ``error``, freeing their sessions."""
    for request in requests:
        request.session.pending = False
        request.ticket._fail(error)


def _stack_states(policy: ActorCriticBase, sessions: Sequence[_Session]):
    """The window's extractor state: one stack per state part, or None.

    Rows follow the window's session order; a session that has not
    acted yet contributes the policy's initial rows. Feed-forward
    policies keep no state.
    """
    states = [
        session.recurrent_state
        if session.recurrent_state is not None
        else policy.initial_recurrent_state(session.num_users)
        for session in sessions
    ]
    if states[0] is None:
        return None
    if isinstance(states[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*states))
    return np.concatenate(states)


class PolicyServer:
    """Concurrent-session policy inference with microbatching and hot swap.

    Two drive modes share one request queue:

    - **synchronous** — :meth:`Session.submit` then :meth:`flush` (or
      the :meth:`Session.act` convenience): the caller decides when the
      window closes, which makes batch composition fully deterministic
      (tests, benches, single-threaded drivers);
    - **background** — :meth:`start` runs a dispatcher thread that closes
      the window when ``max_batch_size`` requests are pending, when every
      open session has a request pending, or when the oldest has waited
      ``max_wait_ms``; clients block on :meth:`Ticket.result`.

    The server owns ``policy`` as its serving replica: hot swaps load new
    weights into it in place. See the module docstring for the
    bit-identity and swap-atomicity contracts.
    """

    def __init__(
        self,
        policy: ActorCriticBase,
        config: Optional[ServeConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        name: str = "default",
    ) -> None:
        self.config = config or ServeConfig()
        self.name = str(name)
        self._policy = policy
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._sessions: Dict[str, _Session] = {}
        self._queue: Deque[_Request] = deque()
        self._seed_seq = np.random.SeedSequence(self.config.seed)
        self._session_counter = 0
        self._version = 1
        state = policy.replica_state()
        self._signature = self._signature_of(state)
        self._cache = {key: np.array(value) for key, value in state.items()}
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._closed = False
        # Every server is instrumented (creating its own registry when
        # none is shared in): the serve parity suites therefore run with
        # metrics live, which is the standing proof that instrumentation
        # is bit-neutral. A ReplicaSet passes one shared registry so all
        # replicas' series land in one snapshot, keyed by this name.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._register_metrics()

    def _register_metrics(self) -> None:
        m, replica = self.metrics, self.name
        self._m_requests = m.counter(
            "serve_requests_total", "act requests accepted into the queue", ("replica",)
        ).labels(replica)
        self._m_batches = m.counter(
            "serve_batches_total", "microbatched policy.act calls", ("replica",)
        ).labels(replica)
        self._m_batch_rows = m.histogram(
            "serve_batch_rows",
            "user-axis rows per microbatch window",
            ("replica",),
            buckets=BATCH_ROWS_BUCKETS,
        ).labels(replica)
        self._m_batch_rows_max = m.gauge(
            "serve_batch_rows_max", "largest microbatch served (rows)", ("replica",)
        ).labels(replica)
        self._m_queue_wait = m.histogram(
            "serve_request_queue_wait_seconds",
            "submit-to-batch-start wait per request",
            ("replica",),
        ).labels(replica)
        windows = m.counter(
            "serve_windows_total",
            "microbatch windows closed, by the rule that closed them",
            ("replica", "reason"),
        )
        self._m_windows = {
            reason: windows.labels(replica, reason) for reason in _WINDOW_REASONS
        }
        self._m_compute = m.histogram(
            "serve_request_compute_seconds",
            "batched policy.act compute time per request's window",
            ("replica",),
        ).labels(replica)
        self._m_queue_depth = m.gauge(
            "serve_queue_depth", "requests currently queued", ("replica",)
        ).labels(replica)
        self._m_queue_depth.set_function(lambda: float(len(self._queue)))
        self._m_queue_peak = m.gauge(
            "serve_queue_depth_peak", "high-water mark of the request queue", ("replica",)
        ).labels(replica)
        self._m_sessions = m.gauge(
            "serve_sessions", "open sessions", ("replica",)
        ).labels(replica)
        self._m_sessions.set_function(lambda: float(len(self._sessions)))
        swaps = m.counter(
            "serve_swaps_total", "hot-swap attempts by outcome", ("replica", "outcome")
        )
        self._m_swaps_applied = swaps.labels(replica, "applied")
        self._m_swaps_skipped = swaps.labels(replica, "skipped")
        self._m_version = m.gauge(
            "serve_policy_version", "serving policy version", ("replica",)
        ).labels(replica)
        self._m_version.set(self._version)

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def session(
        self,
        session_id: Optional[str] = None,
        num_users: int = 1,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = False,
    ) -> Session:
        """Open a session; returns its :class:`Session` handle.

        ``num_users`` is the session's row count (a "session" may be a
        whole user group, Sim2Rec-style). Noise stream precedence:
        explicit ``rng`` > ``seed`` (``default_rng(seed)``) > a child
        spawned from the server's seed sequence. ``deterministic``
        sessions are served with distribution modes and draw no noise.
        """
        if num_users < 1:
            raise ValueError("num_users must be >= 1")
        with self._lock:
            self._check_serving()
            if session_id is None:
                session_id = f"s{self._session_counter:06d}"
                self._session_counter += 1
            if session_id in self._sessions:
                raise SessionError(f"session {session_id!r} already exists")
            if rng is None:
                if seed is not None:
                    rng = np.random.default_rng(seed)
                else:
                    rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
            state = _Session(session_id, num_users, rng, deterministic, self._version)
            self._sessions[session_id] = state
            return Session(self, state)

    def get_session(self, session_id: str) -> Session:
        """Attach a :class:`Session` handle to an already-open session."""
        with self._lock:
            state = self._sessions.get(session_id)
            if state is None:
                raise SessionError(f"unknown session {session_id!r}")
            return Session(self, state)

    def _is_registered(self, state: _Session) -> bool:
        with self._lock:
            return self._sessions.get(state.id) is state

    def _end(self, state: _Session) -> None:
        with self._cond:
            if self._sessions.get(state.id) is not state:
                raise SessionError(f"unknown session {state.id!r}")
            if state.pending:
                raise SessionError(
                    f"session {state.id!r} has an unserved request; "
                    "flush (or await the ticket) before ending it"
                )
            del self._sessions[state.id]
            # A window held open for this (idle) session may now hold a
            # request from every session that is left.
            self._cond.notify_all()

    @property
    def num_sessions(self) -> int:
        with self._lock:
            return len(self._sessions)

    @property
    def running(self) -> bool:
        """Whether the background dispatcher thread is active."""
        return self._running

    @property
    def version(self) -> int:
        """The serving policy version (bumped by each applied swap)."""
        with self._lock:
            return self._version

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _submit(
        self, session: _Session, obs: np.ndarray, trace: Optional[str] = None
    ) -> Ticket:
        """The submit funnel behind :meth:`Session.submit`."""
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim == 1:
            obs = obs.reshape(1, -1)
        if not np.isfinite(obs).all():
            raise SessionError(
                f"session {session.id!r} observations must be finite (got NaN or inf)"
            )
        with self._cond:
            self._check_serving()
            if self._sessions.get(session.id) is not session:
                raise SessionError(f"unknown session {session.id!r}")
            if session.pending:
                raise SessionError(
                    f"session {session.id!r} already has a request in flight"
                )
            if obs.shape != (session.num_users, self._policy.state_dim):
                raise SessionError(
                    f"session {session.id!r} expects observations of shape "
                    f"{(session.num_users, self._policy.state_dim)}, got {obs.shape}"
                )
            request = _Request(session, obs, time.monotonic(), trace=trace)
            session.pending = True
            self._queue.append(request)
            self._m_requests.inc()
            self._m_queue_peak.set_max(len(self._queue))
            self._cond.notify_all()
            return request.ticket

    def flush(self) -> int:
        """Serve every queued request now (in ≤ ``max_batch_size`` windows).

        Returns the number of requests served. Safe to call with the
        background dispatcher running (both drain under the batch lock).
        """
        served = 0
        with self._lock:
            while self._queue:
                served += self._serve_window("flush")
        return served

    def _serve_window(self, reason: str) -> int:
        """Close one window of ≤ ``max_batch_size`` queued requests and
        serve it, lock held; returns its request count."""
        batch = [
            self._queue.popleft()
            for _ in range(min(len(self._queue), self.config.max_batch_size))
        ]
        self._m_windows[reason].inc()
        self._process_batch(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # microbatch kernel
    # ------------------------------------------------------------------
    def _process_batch(self, batch: Sequence[_Request]) -> None:
        """One batched ``policy.act`` per determinism class, lock held.

        Every class is served or failed even when an earlier one raises
        (its tickets carry the error); the first error is re-raised.
        """
        # ``deterministic`` is a batch-wide flag on policy.act, so a mixed
        # window is served as (up to) two stacked calls. Per-session
        # bit-identity is indifferent to the split: each session's rows,
        # noise stream and context block are its own either way.
        first_error: Optional[BaseException] = None
        for flag in (False, True):
            sub = [r for r in batch if r.session.deterministic is flag]
            if not sub:
                continue
            if first_error is not None and not isinstance(first_error, Exception):
                _fail(sub, first_error)  # an interrupt: stop serving
                continue
            try:
                self._serve_stacked(sub, deterministic=flag)
            except BaseException as error:  # re-raised below
                first_error = first_error or error
        if first_error is not None:
            raise first_error

    def _serve_stacked(self, batch: Sequence[_Request], deterministic: bool) -> None:
        sessions = [request.session for request in batch]
        slices: List[slice] = []
        start = 0
        for session in sessions:
            slices.append(slice(start, start + session.num_users))
            start += session.num_users
        total = start
        policy = self._policy
        batch_start = time.monotonic()
        try:
            obs = np.concatenate([request.obs for request in batch], axis=0)
            prev = np.concatenate(
                [
                    session.prev_actions
                    if session.prev_actions is not None
                    else np.zeros((session.num_users, policy.action_dim))
                    for session in sessions
                ],
                axis=0,
            )
            policy.exchange_recurrent_state(_stack_states(policy, sessions))
            policy.set_rollout_groups(slices)
            block_rng = BlockRNG([session.rng for session in sessions], slices)
            actions, log_probs, values = policy.act(
                obs, prev, block_rng, deterministic=deterministic
            )
            new_state = policy.exchange_recurrent_state(None)
        except BaseException as error:
            _fail(batch, error)
            raise
        finally:
            policy.set_rollout_groups(None)
        compute_s = time.monotonic() - batch_start
        self._m_batches.inc()
        self._m_batch_rows.observe(total)
        self._m_batch_rows_max.set_max(total)
        self._m_compute.observe(compute_s)
        for request in batch:
            # Queue wait is per-request (submit to batch start); compute
            # is shared by the whole window — every rider pays the same
            # forward pass.
            queue_wait_s = max(batch_start - request.arrived, 0.0)
            self._m_queue_wait.observe(queue_wait_s)
            if request.trace is not None:
                self.tracer.record(
                    "serve.queue_wait",
                    request.trace,
                    request.arrived,
                    queue_wait_s,
                    replica=self.name,
                    session=request.session.id,
                )
                self.tracer.record(
                    "serve.compute",
                    request.trace,
                    batch_start,
                    compute_s,
                    replica=self.name,
                    session=request.session.id,
                    batch_rows=total,
                )
        for request, session, block in zip(batch, sessions, slices):
            if isinstance(new_state, tuple):
                session.recurrent_state = tuple(part[block].copy() for part in new_state)
            elif new_state is not None:
                session.recurrent_state = new_state[block].copy()
            session.prev_actions = np.array(actions[block])
            session.steps += 1
            session.pending = False
            session.version = self._version
            request.ticket._resolve(
                ActionResult(
                    actions=np.array(actions[block]),
                    log_probs=np.array(log_probs[block]),
                    values=np.array(values[block]),
                    version=self._version,
                    step=session.steps,
                )
            )

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap_policy(self, payload: bytes, version: Optional[int] = None) -> int:
        """Atomically swap the serving weights; returns the serving version.

        ``payload`` is a :func:`snapshot_policy` archive. Decode happens
        before the lock is taken — a torn archive raises
        :class:`~repro.nn.serialization.StateChecksumError` with the old
        weights untouched. With an explicit ``version`` stamp, anything
        not newer than the serving version raises
        :class:`~repro.rl.workers.StaleReplicaError` (a late republish of
        old weights must never roll the server back); without one the
        serving version self-increments. A byte-equal archive is skipped
        (no load, no version bump — the rollout pool's skip-if-byte-equal
        rule). The swap holds the batch lock, so it lands between
        microbatches: in-flight batches complete on the old version.
        """
        state = state_from_bytes(payload)
        with self._lock:
            self._check_serving()
            if version is not None and version <= self._version:
                raise StaleReplicaError(
                    f"swap archive stamped version {version} is not newer than "
                    f"serving version {self._version}"
                )
            signature = self._signature_of(state)
            if signature != self._signature:
                raise ValueError(
                    "swap archive structure does not match the serving policy "
                    "(different parameter names or shapes); hot swap cannot "
                    "change the model architecture"
                )
            if all(np.array_equal(value, self._cache[key]) for key, value in state.items()):
                self._m_swaps_skipped.inc()
                return self._version
            self._policy.load_replica_state(state)
            self._version = version if version is not None else self._version + 1
            self._cache = {key: np.array(value) for key, value in state.items()}
            self._m_swaps_applied.inc()
            self._m_version.set(self._version)
            return self._version

    def publish(self, policy: ActorCriticBase, version: Optional[int] = None) -> int:
        """Snapshot ``policy`` and swap it in (trainer-side convenience)."""
        return self.swap_policy(snapshot_policy(policy), version=version)

    @staticmethod
    def _signature_of(state: Dict[str, np.ndarray]) -> Tuple:
        return tuple(sorted((key, np.asarray(value).shape) for key, value in state.items()))

    # ------------------------------------------------------------------
    # background dispatcher
    # ------------------------------------------------------------------
    def start(self) -> "PolicyServer":
        """Run the microbatch dispatcher in a background thread."""
        with self._lock:
            self._check_serving()
            if self._thread is not None:
                return self
            self._running = True
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="policy-serve-dispatch", daemon=True
            )
            self._thread.start()
        return self

    def _dispatch_loop(self) -> None:
        max_wait = self.config.max_wait_ms / 1000.0
        with self._cond:
            while self._running:
                if not self._queue:
                    self._cond.wait(timeout=0.05)
                    continue
                waited = time.monotonic() - self._queue[0].arrived
                if len(self._queue) >= self.config.max_batch_size:
                    reason = "full"
                elif len(self._queue) >= len(self._sessions):
                    # One request in flight per session: with every open
                    # session queued, no straggler can join this window.
                    reason = "all_pending"
                elif waited >= max_wait:
                    reason = "max_wait"
                else:
                    self._cond.wait(timeout=max(max_wait - waited, 0.0005))
                    continue
                try:
                    self._serve_window(reason)
                except Exception:
                    # Tickets already carry the error; keep serving.
                    pass

    def stop(self, drain: bool = True) -> None:
        """Stop the dispatcher; by default serve whatever is still queued."""
        with self._cond:
            self._running = False
            self._cond.notify_all()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()
        if drain:
            self.flush()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop serving; unserved tickets fail with :class:`SessionError`."""
        self.stop(drain=False)
        with self._lock:
            if self._closed:
                return
            self._closed = True
            _fail(list(self._queue), SessionError("server closed"))
            self._queue.clear()
            self._sessions.clear()

    def _check_serving(self) -> None:
        if self._closed:
            raise SessionError("server is closed")

    def __enter__(self) -> "PolicyServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
