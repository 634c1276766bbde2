"""In-memory span recording around the public calls of each layer.

A :class:`SpanRecorder` keeps one span list and one open-span stack per
thread. :meth:`SpanRecorder.instrument` swaps a function or method on
its owner (a class or module) for a wrapper that records
``(name, start, end, parent)`` around every call, and restores the
original on exit, so the program under test is never edited: the
benchmark decides from outside which calls form a layer boundary.

Spans in one thread nest strictly, so a span's *self time* is its
duration minus the durations of its direct children, and the self times
of every span under a root add up to that root's duration exactly.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

# One target: (owner, attribute, span name[, skip predicate over the call's args]).
Target = Tuple[Any, ...]


class _ThreadSpans:
    __slots__ = ("spans", "stack", "suppressed")

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.stack: List[int] = []
        self.suppressed = 0


class SpanRecorder:
    """Thread-safe span store; spans stay in memory until the run dumps them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadSpans] = []

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadSpans()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (nested under the open one)."""
        state = self._state()
        if state.suppressed:
            yield
            return
        index = len(state.spans)
        record = [name, 0.0, 0.0, state.stack[-1] if state.stack else -1]
        state.spans.append(record)
        state.stack.append(index)
        record[1] = self.clock()
        try:
            yield
        finally:
            record[2] = self.clock()
            state.stack.pop()

    def wrap(
        self,
        function: Callable,
        name: str,
        skip: Optional[Callable[..., bool]] = None,
    ) -> Callable:
        """``function`` with a span around each call.

        A call made while a span of the same name is open (a layer
        calling itself, e.g. a batched method falling back to its
        per-item sibling) is not recorded again, so per-layer totals
        never double count. ``skip(*args, **kwargs)`` returning true runs
        the call, and everything under it, unrecorded.
        """
        recorder = self

        def traced(*args, **kwargs):
            state = recorder._state()
            if state.suppressed or (
                state.stack and state.spans[state.stack[-1]][0] == name
            ):
                return function(*args, **kwargs)
            if skip is not None and skip(*args, **kwargs):
                state.suppressed += 1
                try:
                    return function(*args, **kwargs)
                finally:
                    state.suppressed -= 1
            with recorder.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    @contextmanager
    def instrument(self, targets: Iterable[Target]) -> Iterator["SpanRecorder"]:
        """Wrap every target for the duration of the block, then restore."""
        restore: List[Tuple[Any, str, Any, bool]] = []
        try:
            for target in targets:
                owner, attribute, name = target[:3]
                skip = target[3] if len(target) > 3 else None
                own = attribute in vars(owner)
                original = getattr(owner, attribute)
                restore.append((owner, attribute, original, own))
                setattr(owner, attribute, self.wrap(original, name, skip))
            yield self
        finally:
            for owner, attribute, original, own in reversed(restore):
                if own:
                    setattr(owner, attribute, original)
                else:
                    delattr(owner, attribute)

    # ------------------------------------------------------------------
    def spans(self) -> List[Dict[str, Any]]:
        """Every closed span as a dict; ``parent`` indexes the same thread's list."""
        with self._lock:
            threads = list(self._threads)
        dump = []
        for thread_index, state in enumerate(threads):
            for index, (name, start, end, parent) in enumerate(list(state.spans)):
                dump.append(
                    {
                        "thread": thread_index,
                        "id": index,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                    }
                )
        return dump

    def summary(self, root: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        return summarize(self.spans(), root)


def summarize(
    spans: List[Dict[str, Any]], root: Optional[str] = None
) -> Dict[str, Dict[str, float]]:
    """Fold a span dump into per-name call counts, totals and self times.

    With ``root``, only spans named ``root`` and their descendants count.
    """
    if root is not None:
        # A parent is always recorded before its children.
        inside: Dict[Tuple[int, int], bool] = {}
        kept = []
        for span in spans:
            key = (span["thread"], span["id"])
            inside[key] = span["name"] == root or (
                span["parent"] >= 0 and inside[(span["thread"], span["parent"])]
            )
            if inside[key]:
                kept.append(span)
        spans = kept
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] >= 0:
            child_time[(span["thread"], span["parent"])] += span["end"] - span["start"]
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[(span["thread"], span["id"])]
    return table
