"""Deterministic fault injection for the sharded evaluation pool.

The supervision layer in :mod:`repro.rl.workers` promises that worker
crashes, hangs and stale replicas recover **bit-identically** to an
uninterrupted run. That promise is only testable if faults can be
produced on demand, at exact protocol points, reproducibly. This module
is that harness:

- :class:`FaultSpec` — one scheduled fault: *which worker*, *which
  protocol operation* (``replica`` / ``evaluate`` / ``load`` /
  ``close``, or ``"*"`` for any), the *n-th
  occurrence* of that operation inside the worker process, the fault
  *kind* and the *phase* (on command receipt or just before the reply —
  the latter crashes a worker that already advanced its envs, the
  harder recovery case).
- :class:`ChaosSchedule` — a picklable bundle of specs shipped to the
  workers at spawn time. Each worker keeps its own per-operation
  counters, so schedules are deterministic regardless of parent timing.
  ``persistent=True`` re-arms the schedule in respawned workers (used
  to exhaust the restart budget and force graceful degradation);
  the default one-shot schedule leaves respawned workers fault-free.
  ``ignore_sigterm=True`` makes workers ignore SIGTERM, exercising the
  supervisor's SIGKILL escalation path.

Fault kinds:

``"kill"``
    ``os._exit`` — an instant, unannounced process death (the moral
    equivalent of the OOM killer or a segfault).
``"hang"``
    Sleep far longer than any per-op deadline; the parent's
    :class:`~repro.rl.workers.FaultPolicy` deadline detects the hang and
    SIGKILLs the worker.
``"drop_reply"``
    Execute the command but never answer — a lost IPC reply. Same
    parent-side signature as a hang.
``"corrupt_stamp"``
    Execute a ``replica`` broadcast normally but corrupt the worker's
    local version stamp, so the next ``evaluate`` answers stale.

:func:`truncate_file` and :func:`flip_byte` corrupt on-disk checkpoints
for the checkpoint-robustness tests (CRC32 validation in
:mod:`repro.nn.serialization` must reject both).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Protocol operations a fault can target (``"*"`` matches any).
FAULT_OPS: Tuple[str, ...] = ("replica", "evaluate", "load", "close", "*")

#: Supported fault kinds.
FAULT_KINDS: Tuple[str, ...] = ("kill", "hang", "drop_reply", "corrupt_stamp")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault inside one worker process.

    ``at`` counts occurrences of ``op`` *within the worker process*
    (0 = the first matching command it sees). ``phase`` is ``"receive"``
    (fault before the command executes) or ``"reply"`` (execute first,
    fault before answering — the worker's envs have already advanced,
    so recovery must discard that progress and re-run from the
    snapshot).
    """

    kind: str
    worker: int = 0
    op: str = "*"
    at: int = 0
    phase: str = "receive"
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind {self.kind!r} not in {FAULT_KINDS}")
        if self.op not in FAULT_OPS:
            raise ValueError(f"fault op {self.op!r} not in {FAULT_OPS}")
        if self.phase not in ("receive", "reply"):
            raise ValueError(f"fault phase {self.phase!r} must be receive|reply")
        if self.kind == "corrupt_stamp" and self.op not in ("replica", "*"):
            raise ValueError("corrupt_stamp faults target 'replica' operations")


@dataclass
class ChaosSchedule:
    """A picklable fault schedule shipped to every worker at spawn.

    The parent filters the schedule per worker (:meth:`for_worker`);
    each worker process counts its own command occurrences, fires each
    matching spec exactly once, and executes everything else normally.
    """

    specs: List[FaultSpec] = field(default_factory=list)
    #: Re-arm the schedule in respawned workers. The default (False)
    #: injects each fault once per *original* worker, so a respawn
    #: proves recovery; True keeps faulting every respawn, so the
    #: restart budget exhausts and the pool degrades in-process.
    persistent: bool = False
    #: Workers ignore SIGTERM — shutdown must escalate to SIGKILL.
    ignore_sigterm: bool = False

    def __post_init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._fired: List[bool] = [False] * len(self.specs)

    def __getstate__(self):
        return {
            "specs": list(self.specs),
            "persistent": self.persistent,
            "ignore_sigterm": self.ignore_sigterm,
        }

    def __setstate__(self, state):
        self.specs = state["specs"]
        self.persistent = state["persistent"]
        self.ignore_sigterm = state["ignore_sigterm"]
        self._counts = {}
        self._fired = [False] * len(self.specs)

    def for_worker(self, worker: int) -> Optional["ChaosSchedule"]:
        """The sub-schedule a given worker should run (None = fault-free)."""
        specs = [spec for spec in self.specs if spec.worker == worker]
        if not specs and not self.ignore_sigterm:
            return None
        return ChaosSchedule(
            specs=specs,
            persistent=self.persistent,
            ignore_sigterm=self.ignore_sigterm,
        )

    def match(self, op: str, phase: str) -> Optional[FaultSpec]:
        """The spec (if any) firing for this occurrence of ``op``.

        Counters advance once per command (on the ``receive`` phase);
        each spec fires at most once per process lifetime.
        """
        if phase == "receive":
            self._counts[op] = self._counts.get(op, 0) + 1
        count = self._counts.get(op, 0) - 1
        for index, spec in enumerate(self.specs):
            if self._fired[index] or spec.phase != phase:
                continue
            if spec.op != "*" and spec.op != op:
                continue
            if spec.at != count:
                continue
            self._fired[index] = True
            return spec
        return None


def apply_fault(spec: FaultSpec) -> str:
    """Execute a fault's process-level effect inside the worker.

    Returns the action the worker loop must take for the non-terminal
    kinds: ``"continue"`` (keep executing normally — ``hang`` ends up
    SIGKILLed by the parent before this matters) or the kind itself for
    effects the protocol loop applies (``drop_reply``,
    ``corrupt_stamp``). ``kill`` never returns.
    """
    if spec.kind == "kill":
        os._exit(13)
    if spec.kind == "hang":
        time.sleep(spec.hang_seconds)
        return "continue"
    return spec.kind


# ----------------------------------------------------------------------
# On-disk corruption helpers for checkpoint-robustness tests.
# ----------------------------------------------------------------------
def truncate_file(path, keep_fraction: float = 0.5) -> int:
    """Truncate a file to a fraction of its size (a torn write). Returns
    the new size."""
    size = os.path.getsize(path)
    new_size = max(1, int(size * keep_fraction))
    with open(path, "rb+") as handle:
        handle.truncate(new_size)
    return new_size


def flip_byte(path, offset: int = -64) -> None:
    """Flip every bit of one byte of a file (silent media corruption).

    A negative ``offset`` indexes from the end of the file — npz data
    payloads live towards the end, so the default corrupts array bytes
    rather than the zip directory.
    """
    size = os.path.getsize(path)
    position = offset % size
    with open(path, "rb+") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


__all__ = [
    "FAULT_KINDS",
    "FAULT_OPS",
    "ChaosSchedule",
    "FaultSpec",
    "apply_fault",
    "flip_byte",
    "truncate_file",
]
