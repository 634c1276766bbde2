"""Thread-safe metrics registry: labeled counters, gauges, histograms.

Stdlib-only instrumentation substrate for the serving gateway, the
sharded evaluation pool, and the trainer. Design constraints, in order:

- **Zero impact on determinism.** Nothing in here touches RNG state or
  feeds back into computation; recording a sample is arithmetic on
  plain Python numbers guarded by a lock. The bit-parity grid must be
  unchanged whether or not a registry is attached (proven by
  ``tests/obs/test_train_metrics.py``).
- **Hot-path increments don't contend across metrics.** Each metric
  family owns its own ``threading.Lock``; the registry-level lock is
  taken only to create families and to walk them for a snapshot. Bound
  children (``family.labels(...)``) are cached so the hot path is one
  dict-free lock/add/release.
- **Deterministic snapshots.** Histogram bucket edges are fixed at
  registration (never rebalanced), and ``snapshot()`` emits families
  and series in sorted order so two snapshots of identical state are
  identical JSON.

The snapshot format is a plain nested dict (JSON-safe scalars only) —
the gateway ships it over the wire ``stats`` op verbatim, the
Prometheus exporter renders it to text exposition, and the JSONL sink
appends it per training iteration (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_S",
    "BATCH_ROWS_BUCKETS",
    "PHASE_SECONDS_BUCKETS",
    "quantile_from_buckets",
]


class MetricError(ValueError):
    """Raised on metric misuse: type/label mismatches, bad bucket edges."""


# Sub-millisecond through 10s: covers microbatch queue waits (typically
# <10ms) and end-to-end gateway latencies under deadline pressure.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# Powers of two up to the largest supported microbatch.
BATCH_ROWS_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

# Training phases run longer than serve requests: stretch to minutes.
PHASE_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def _validate_labels(
    label_names: Tuple[str, ...], label_values: Tuple[str, ...]
) -> Tuple[str, ...]:
    if len(label_values) != len(label_names):
        raise MetricError(
            f"expected {len(label_names)} label value(s) for {label_names!r}, "
            f"got {len(label_values)}"
        )
    return tuple(str(v) for v in label_values)


class _Family:
    """Base class: one named metric with N label-keyed series.

    A single lock guards every series in the family — coarse enough to
    make ``snapshot()`` of the family internally consistent, fine
    enough that unrelated metrics never contend with each other.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]):
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(str(n) for n in label_names)
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, ...], object] = {}

    def _new_child(self, key: Tuple[str, ...]):
        raise NotImplementedError

    def labels(self, *label_values):
        """Return the bound child for these label values (get-or-create)."""
        key = _validate_labels(self.label_names, label_values)
        with self._lock:
            child = self._series.get(key)
            if child is None:
                child = self._new_child(key)
                self._series[key] = child
            return child

    def _snapshot_series(self) -> List[dict]:
        raise NotImplementedError

    def snapshot(self) -> dict:
        with self._lock:
            series = self._snapshot_series()
        series.sort(key=lambda s: tuple(s["labels"].get(n, "") for n in self.label_names))
        return {
            "type": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": series,
        }


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up; use a gauge to decrement")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Family):
    """Monotonically increasing count (requests served, failures, ...)."""

    kind = "counter"

    def _new_child(self, key):
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        """Shorthand for unlabeled counters."""
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        return self.labels().value

    def _snapshot_series(self):
        return [
            {"labels": dict(zip(self.label_names, key)), "value": child._value}
            for key, child in self._series.items()
        ]


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """Keep the running maximum (high-water marks like queue peaks)."""
        value = float(value)
        with self._lock:
            if value > self._value:
                self._value = value

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample ``fn()`` at snapshot time instead of a stored value.

        ``fn`` must not call back into the same registry (it runs under
        the family lock) — keep it to an O(1) read like ``len(queue)``.
        """
        with self._lock:
            self._fn = fn

    def _read(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return math.nan
        return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._read()


class Gauge(_Family):
    """Point-in-time value that can go up or down (queue depth, lag)."""

    kind = "gauge"

    def _new_child(self, key):
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self.labels().set_function(fn)

    @property
    def value(self) -> float:
        return self.labels().value

    def _snapshot_series(self):
        return [
            {"labels": dict(zip(self.label_names, key)), "value": child._read()}
            for key, child in self._series.items()
        ]


class _HistogramChild:
    __slots__ = ("_lock", "_edges", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, edges: Tuple[float, ...]):
        self._lock = lock
        self._edges = edges
        # One bucket per finite edge plus the +Inf overflow bucket.
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # Prometheus ``le`` semantics: a sample equal to an edge counts
        # in that edge's bucket; anything above the last finite edge
        # lands in +Inf.
        index = bisect_left(self._edges, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        with self._lock:
            counts = list(self._counts)
            total = self._count
        return quantile_from_buckets(self._edges, counts, total, q)


class Histogram(_Family):
    """Fixed-bucket distribution (latencies, batch occupancy)."""

    kind = "histogram"

    def __init__(self, name, help, label_names, buckets=DEFAULT_LATENCY_BUCKETS_S):
        super().__init__(name, help, label_names)
        edges = tuple(float(e) for e in buckets)
        if not edges:
            raise MetricError(f"histogram {name!r} needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise MetricError(
                f"histogram {name!r} bucket edges must be strictly increasing: {edges!r}"
            )
        if not all(math.isfinite(e) for e in edges):
            raise MetricError(
                f"histogram {name!r} bucket edges must be finite "
                "(the +Inf overflow bucket is implicit)"
            )
        self.buckets = edges

    def _new_child(self, key):
        return _HistogramChild(self._lock, self.buckets)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def _snapshot_series(self):
        return [
            {
                "labels": dict(zip(self.label_names, key)),
                "buckets": list(self.buckets),
                "counts": list(child._counts),
                "sum": child._sum,
                "count": child._count,
            }
            for key, child in self._series.items()
        ]


def quantile_from_buckets(
    edges: Sequence[float], counts: Sequence[int], total: int, q: float
) -> float:
    """Estimate quantile ``q`` from per-bucket (non-cumulative) counts.

    Linear interpolation inside the containing bucket (lower edge of the
    first bucket is 0, matching latency semantics); a quantile landing
    in the +Inf overflow bucket reports the last finite edge, same as
    Prometheus' ``histogram_quantile``. Returns NaN for empty data.
    """
    if total <= 0:
        return math.nan
    if not 0.0 <= q <= 1.0:
        raise MetricError(f"quantile must be in [0, 1], got {q}")
    rank = q * total
    cumulative = 0.0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            if index >= len(edges):
                return float(edges[-1])
            lower = float(edges[index - 1]) if index > 0 else 0.0
            upper = float(edges[index])
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * fraction
        cumulative += bucket_count
    return float(edges[-1])


class MetricsRegistry:
    """Get-or-create home for metric families; one coherent snapshot.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing family (so replicas sharing a
    registry bind their own label children of one family), but asking
    with a conflicting type, label set, or bucket edges raises —
    silently forking a metric's shape is how dashboards lie.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _get_or_create(self, cls, name, help, label_names, **kwargs) -> _Family:
        label_names = tuple(str(n) for n in label_names)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, label_names, **kwargs)
                self._families[name] = family
                return family
        if not isinstance(family, cls):
            raise MetricError(
                f"metric {name!r} already registered as {family.kind}, "
                f"not {cls.kind}"
            )
        if family.label_names != label_names:
            raise MetricError(
                f"metric {name!r} already registered with labels "
                f"{family.label_names!r}, not {label_names!r}"
            )
        buckets = kwargs.get("buckets")
        if buckets is not None and tuple(float(e) for e in buckets) != family.buckets:
            raise MetricError(
                f"histogram {name!r} already registered with buckets "
                f"{family.buckets!r}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> Dict[str, dict]:
        """Walk every family (each under its own lock) into a JSON-safe dict.

        Families are snapshotted one at a time — each family's series
        are internally consistent (counts always sum to ``count``), and
        the whole walk happens inside the registry lock so no family is
        added or dropped mid-snapshot.
        """
        with self._lock:
            families = sorted(self._families.items())
        return {name: family.snapshot() for name, family in families}

    def value(self, name: str, *label_values, default: float = 0.0) -> float:
        """Read one series' current value (0 for a never-touched series).

        How in-process code and tests read a single counter or gauge
        (``value("serve_requests_total", "default")``); counters/gauges
        only.
        """
        family = self.get(name)
        if family is None:
            return default
        key = _validate_labels(family.label_names, label_values)
        with family._lock:
            child = family._series.get(key)
            if child is None:
                return default
        if isinstance(child, _GaugeChild):
            return child.value
        return child.value if isinstance(child, _CounterChild) else default
