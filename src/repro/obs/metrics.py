"""Process-wide metrics registry: counters, gauges and histograms.

One registry is the sink for everything the federation measures — transport
traffic, fault injections, round progress, training throughput, benchmark
timings — so every artifact (``metrics.json``, ``BENCH_*.json``) shares one
schema and the run-report CLI can render any of them.

Design goals, in order:

1. **Cheap when disabled.**  A disabled registry hands out shared null
   instruments whose methods are empty; instrumented hot paths (one bus
   delivery, one training step) pay a dict lookup and a no-op call.
2. **Tagged instruments.**  ``registry.counter("transport.faults",
   kind="drop")`` keeps one time series per tag combination, NVFlare/
   Prometheus style.
3. **Fixed-bucket histograms.**  Percentiles are estimated from bucket
   counts by linear interpolation — O(buckets) memory regardless of how
   many observations a run makes, and two histograms merge exactly.

Thread safety: instrument creation and every update take the registry's
lock; the federated simulator updates from the server thread and every
client thread concurrently.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "DEFAULT_BUCKETS", "EXACT_SAMPLE_LIMIT", "get_registry", "set_registry",
    "counter", "gauge", "histogram",
]

# Log-spaced seconds buckets covering ~100 microseconds to ~2 minutes: wide
# enough for per-op kernels and whole federated rounds alike.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def _tag_key(tags: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


class Counter:
    """Monotonically-increasing count (messages, bytes, faults...)."""

    __slots__ = ("name", "tags", "_value", "_lock")

    def __init__(self, name: str, tags: dict[str, str], lock: threading.Lock) -> None:
        self.name = name
        self.tags = tags
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"name": self.name, "tags": dict(self.tags), "value": self._value}


class Gauge:
    """Last-written value (throughput, queue depth, model size...).

    A level moved with :meth:`add` (bytes resident, items queued) also keeps
    its high-water mark, exported as ``peak``.
    """

    __slots__ = ("name", "tags", "_value", "_peak", "_lock")

    def __init__(self, name: str, tags: dict[str, str], lock: threading.Lock) -> None:
        self.name = name
        self.tags = tags
        self._value = 0.0
        self._peak: float | None = None  # tracked once add() is used
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta
            self._peak = max(self._peak or 0.0, self._value)

    @property
    def value(self) -> float:
        return self._value

    @property
    def peak(self) -> float:
        """Highest level :meth:`add` reached (the current value if never used)."""
        return self._value if self._peak is None else self._peak

    def to_dict(self) -> dict:
        entry = {"name": self.name, "tags": dict(self.tags), "value": self._value}
        if self._peak is not None:
            entry["peak"] = self._peak
        return entry


# Up to this many observations a histogram also keeps the raw samples, so
# small-sample percentiles are exact (p50 of one observation IS that
# observation) instead of bucket-bound estimates.  Beyond it the reservoir
# is dropped and percentiles fall back to bucket interpolation.
EXACT_SAMPLE_LIMIT = 64


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in an implicit overflow bucket.  Up to
    :data:`EXACT_SAMPLE_LIMIT` observations the raw values are retained and
    percentiles are exact; past that, ``percentile`` assumes a uniform
    spread inside each bucket (the standard Prometheus estimate), clamped
    by the exact observed min/max.
    """

    __slots__ = ("name", "tags", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_samples", "_lock")

    def __init__(self, name: str, tags: dict[str, str], lock: threading.Lock,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.tags = tags
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # + overflow
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: list[float] | None = []
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if self._samples is not None:
                if self._count <= EXACT_SAMPLE_LIMIT:
                    self._samples.append(value)
                else:
                    self._samples = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (``p`` in [0, 100]).

        Exact (linear interpolation between order statistics, numpy's
        default method) while the raw-sample reservoir is alive; a bucket
        estimate afterwards.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self._count == 0:
            return 0.0
        if self._samples is not None and len(self._samples) == self._count:
            ordered = sorted(self._samples)
            rank = (p / 100.0) * (len(ordered) - 1)
            low = int(rank)
            high = min(low + 1, len(ordered) - 1)
            return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
        rank = (p / 100.0) * self._count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.buckets[i - 1] if i > 0 else min(self._min, self.buckets[0])
                hi = self.buckets[i] if i < len(self.buckets) else self._max
                lo = max(lo, self._min)
                hi = min(hi, self._max) if hi >= lo else lo
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self._max

    def to_dict(self) -> dict:
        return {
            "name": self.name, "tags": dict(self.tags),
            "count": self._count, "sum": self._sum,
            "min": self.min, "max": self.max, "mean": self.mean,
            "p50": self.percentile(50), "p90": self.percentile(90),
            "p99": self.percentile(99),
            "buckets": list(self.buckets), "bucket_counts": list(self._counts),
        }


class _NullInstrument:
    """Shared do-nothing stand-in handed out by a disabled registry."""

    __slots__ = ()
    name = ""
    tags: dict[str, str] = {}
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    add = set

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {}


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named, tagged instruments behind one lock.

    A registry is either *enabled* (real instruments) or *disabled* (every
    accessor returns the shared null instrument).  The process-wide default
    registry starts disabled; a telemetry session installs an enabled one
    for the duration of a run.  Components that must always count — the
    message bus keeps its delivery totals regardless of telemetry — own a
    private always-enabled registry instead.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        # Reentrant: Gauge.add is called from buffer finalizers, which the
        # cycle collector may run on a thread that is inside this lock.
        self._lock = threading.RLock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **tags: object) -> Counter:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = (name, _tag_key(tags))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(
                    key, Counter(name, {k: str(v) for k, v in tags.items()}, self._lock))
        return instrument

    def gauge(self, name: str, **tags: object) -> Gauge:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = (name, _tag_key(tags))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(
                    key, Gauge(name, {k: str(v) for k, v in tags.items()}, self._lock))
        return instrument

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **tags: object) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = (name, _tag_key(tags))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    key, Histogram(name, {k: str(v) for k, v in tags.items()},
                                   self._lock, buckets or DEFAULT_BUCKETS))
        return instrument

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's totals into this one.

        Counters add, gauges take the other's value, histograms add bucket
        by bucket (exact — both sides share the fixed bucket layout).  The
        other registry is read under its lock, so it may be live.
        """
        if not self.enabled or not other.enabled:
            return
        with other._lock:
            for key, src in other._counters.items():
                self.counter(src.name, **src.tags).inc(src.value)
            for key, src in other._gauges.items():
                self.merge_dict({"gauges": [src.to_dict()]})
            for key, src in other._histograms.items():
                dst = self.histogram(src.name, buckets=src.buckets, **src.tags)
                if dst.buckets != src.buckets:
                    raise ValueError(
                        f"cannot merge histogram {src.name!r}: bucket layouts differ")
                with dst._lock:
                    for i, c in enumerate(src._counts):
                        dst._counts[i] += c
                    dst._count += src._count
                    dst._sum += src._sum
                    dst._min = min(dst._min, src._min)
                    dst._max = max(dst._max, src._max)
                    # keep exact percentiles when both reservoirs fit
                    if dst._samples is not None and src._samples is not None \
                            and len(dst._samples) + len(src._samples) \
                            <= EXACT_SAMPLE_LIMIT:
                        dst._samples = dst._samples + list(src._samples)
                    else:
                        dst._samples = None

    def merge_dict(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dict` snapshot into this registry.

        The cross-process counterpart of :meth:`merge`: a forked client
        worker cannot hand its parent a live registry, so it ships the JSON
        snapshot over the bus (the ``__telemetry__`` message) and the parent
        reconstructs.  Counters add, gauges take the snapshot's value,
        histograms add bucket by bucket — count/sum/min/max survive exactly;
        only the small-sample reservoir is lost, so merged percentiles fall
        back to bucket interpolation.
        """
        if not self.enabled:
            return
        for entry in snapshot.get("counters", []):
            self.counter(entry["name"], **entry.get("tags", {})).inc(entry["value"])
        for entry in snapshot.get("gauges", []):
            dst = self.gauge(entry["name"], **entry.get("tags", {}))
            dst.set(entry["value"])
            if "peak" in entry:
                dst._peak = max(dst._peak or 0.0, entry["peak"])
        for entry in snapshot.get("histograms", []):
            if not entry.get("count"):
                continue
            buckets = tuple(entry["buckets"])
            dst = self.histogram(entry["name"], buckets=buckets,
                                 **entry.get("tags", {}))
            if dst.buckets != buckets:
                raise ValueError(f"cannot merge histogram {entry['name']!r}: "
                                 "bucket layouts differ")
            with dst._lock:
                for i, c in enumerate(entry["bucket_counts"]):
                    dst._counts[i] += int(c)
                dst._count += int(entry["count"])
                dst._sum += float(entry["sum"])
                dst._min = min(dst._min, float(entry["min"]))
                dst._max = max(dst._max, float(entry["max"]))
                dst._samples = None  # snapshots carry no reservoir

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe snapshot: the ``metrics.json`` schema."""
        with self._lock:
            counters = [c.to_dict() for c in self._counters.values()]
            gauges = [g.to_dict() for g in self._gauges.values()]
        histograms = [h.to_dict() for h in self._histograms.values()]
        return {"schema": "repro.obs.metrics/v1",
                "counters": sorted(counters, key=lambda c: (c["name"], sorted(c["tags"].items()))),
                "gauges": sorted(gauges, key=lambda g: (g["name"], sorted(g["tags"].items()))),
                "histograms": sorted(histograms, key=lambda h: (h["name"], sorted(h["tags"].items())))}

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path


# ---------------------------------------------------------------------------
# process-wide default registry
# ---------------------------------------------------------------------------
_global_registry = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide registry (disabled until a telemetry session starts)."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide default; returns the old one."""
    global _global_registry
    old = _global_registry
    _global_registry = registry
    return old


def counter(name: str, **tags: object) -> Counter:
    """Shorthand for ``get_registry().counter(...)``."""
    return _global_registry.counter(name, **tags)


def gauge(name: str, **tags: object) -> Gauge:
    """Shorthand for ``get_registry().gauge(...)``."""
    return _global_registry.gauge(name, **tags)


def histogram(name: str, buckets: tuple[float, ...] | None = None,
              **tags: object) -> Histogram:
    """Shorthand for ``get_registry().histogram(...)``."""
    return _global_registry.histogram(name, buckets=buckets, **tags)
