"""Unified metrics primitives for the serving stack.

The paper's evaluation is built around per-stage counters (Table 2's
runtime breakdown); the reproduction's serving layer accumulated ~25
ad-hoc counter dicts across :class:`~repro.cluster.ClusterStats` and the
per-worker stats.  This module is the single store those views now share:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — a settable point-in-time value;
* :class:`Histogram` — **fixed log-bucket** distribution: ``observe`` is
  O(1), ``percentile`` is O(buckets), memory is bounded by the bucket
  count, and p50/p95/p99 are accurate to one bucket's relative width
  (``growth - 1``, 25% by default).  This is what lets a stats scrape
  read latency percentiles without snapshotting and sorting a deque
  under the stats lock.
* :class:`MetricsRegistry` — name+labels → metric store with Prometheus
  text exposition.

Metric mutation methods take a tiny per-metric lock, so standalone use is
thread-safe; the serving stats additionally serialize related updates
under their own coarser locks exactly as before.  The naming scheme
(``cluster_*``, ``cluster_worker_*{worker=...}``) is documented — and
drift-checked by ``tests/test_telemetry.py`` — in
``docs/observability.md``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

#: Default log-bucket layout for latency histograms: 10 µs lowest bound,
#: 25% per-bucket growth, 72 buckets → top bound ≈ 95 s.  Everything the
#: serving stack measures (µs-scale telemetry ops to multi-second chaos
#: recoveries) lands inside with ≤ 25% relative quantile error.
DEFAULT_LOWEST = 1e-5
DEFAULT_GROWTH = 1.25
DEFAULT_BUCKETS = 72


def _label_suffix(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Metric:
    """Common identity of every registered metric (name + labels + help)."""

    kind = "metric"

    def __init__(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise ReproError(
                f"metric name {name!r} must be non-empty [a-zA-Z0-9_]"
            )
        self.name = name
        self.help = help
        self.labels: Tuple[Tuple[str, str], ...] = tuple(
            sorted((str(k), str(v)) for k, v in (labels or {}).items())
        )
        self._lock = threading.Lock()

    @property
    def key(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        return (self.name, self.labels)

    @property
    def full_name(self) -> str:
        """``name{label="value",...}`` — the snapshot/exposition key."""
        return self.name + _label_suffix(self.labels)


class Counter(Metric):
    """A monotonically increasing event counter (:meth:`inc` rejects
    negative amounts)."""

    kind = "counter"

    def __init__(self, name, help="", labels=None) -> None:
        super().__init__(name, help, labels)
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ReproError("Counter.inc amount must be non-negative")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        with self._lock:
            return self._value


class Gauge(Metric):
    """A point-in-time value: set/inc/dec."""

    kind = "gauge"

    def __init__(self, name, help="", labels=None) -> None:
        super().__init__(name, help, labels)
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value) -> None:
        """Raise the gauge to ``value`` if larger (high-watermark gauges)."""
        with self._lock:
            if value > self._value:
                self._value = value

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount=1) -> None:
        self.inc(-amount)

    @property
    def value(self):
        with self._lock:
            return self._value


class Histogram(Metric):
    """Fixed log-bucket distribution with O(buckets) percentile reads.

    Bucket ``i`` (0-based) covers ``[lowest * growth**(i-1), lowest *
    growth**i)`` with bucket 0 the underflow ``[0, lowest)`` and the last
    bucket open-ended.  ``observe`` computes the bucket index with one
    ``log`` — O(1), no allocation — and ``percentile`` walks the
    cumulative counts once, interpolating linearly inside the winning
    bucket, so a scrape costs O(buckets) regardless of how many samples
    were observed.  Memory is exactly ``num_buckets`` ints.
    """

    kind = "histogram"

    def __init__(
        self,
        name,
        help="",
        labels=None,
        lowest: float = DEFAULT_LOWEST,
        growth: float = DEFAULT_GROWTH,
        num_buckets: int = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        if lowest <= 0.0:
            raise ReproError("histogram lowest bound must be positive")
        if growth <= 1.0:
            raise ReproError("histogram growth must be > 1")
        if num_buckets < 2:
            raise ReproError("histogram needs at least 2 buckets")
        self.lowest = float(lowest)
        self.growth = float(growth)
        self.num_buckets = int(num_buckets)
        self._log_growth = math.log(self.growth)
        # bucket upper bounds; the final bucket is open-ended (+inf)
        self.bounds: List[float] = [
            self.lowest * self.growth**index for index in range(num_buckets - 1)
        ]
        self._counts = [0] * num_buckets
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        if value < self.lowest:
            index = 0
        else:
            index = 1 + int(math.log(value / self.lowest) / self._log_growth)
            if index >= self.num_buckets:
                index = self.num_buckets - 1
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100); 0.0 with no observations.

        The returned value is the linear interpolation of the target rank
        inside its bucket, so the worst-case relative error is one
        bucket's width (``growth - 1``).
        """
        if not 0.0 <= q <= 100.0:
            raise ReproError("percentile q must be in [0, 100]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            rank = (q / 100.0) * total
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count > 0:
                    lower = 0.0 if index == 0 else self.bounds[index - 1]
                    upper = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else self.bounds[-1] * self.growth
                    )
                    fraction = (rank - (cumulative - bucket_count)) / bucket_count
                    return lower + fraction * (upper - lower)
            return self.bounds[-1] * self.growth  # unreachable with count > 0


#: Idle gap (seconds) beyond which an activity window stops accruing time
#: between events.  Larger than any healthy inter-frame gap at serving
#: rates, smaller than any deliberate pause between replays.
DEFAULT_ACTIVITY_GAP_S = 0.5


class ActivityWindow:
    """Accumulated *active* serving time, ignoring idle gaps.

    A span from first submit to last completion would cover a server's
    whole lifetime, so two replays separated by a minute of idle would
    report a deflated throughput.  This window instead accrues
    ``min(now - last_event, gap_s)`` on every submit/complete event: time
    between back-to-back frames counts fully, while any pause longer than
    ``gap_s`` contributes at most ``gap_s``.  ``active_throughput =
    completed / active_s`` then describes the server *while it was
    serving*.  Callers serialize :meth:`touch` under their stats lock; the
    clock is injectable for tests.
    """

    def __init__(self, gap_s: float = DEFAULT_ACTIVITY_GAP_S, clock=None) -> None:
        if gap_s <= 0.0:
            raise ReproError("activity gap must be positive")
        import time as _time

        self.gap_s = float(gap_s)
        self._clock = clock if clock is not None else _time.perf_counter
        self._active_s = 0.0
        self._last_event_s: Optional[float] = None

    def touch(self) -> None:
        """Record one serving event (a submit or a completion)."""
        now = self._clock()
        if self._last_event_s is not None:
            self._active_s += min(max(0.0, now - self._last_event_s), self.gap_s)
        self._last_event_s = now

    @property
    def active_s(self) -> float:
        return self._active_s


class MetricsRegistry:
    """Name+labels → metric store with Prometheus text exposition.

    ``counter`` / ``gauge`` / ``histogram`` are **get-or-create**: asking
    for an existing (name, labels) pair returns the existing instance, so
    independent views (server stats, per-worker stats, cache gauges) can
    share one registry without coordination.  Re-registering a name as a
    different metric kind raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name, help, labels, **kwargs) -> Metric:
        key = (name, tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items())))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help=help, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, help: str = "", labels=None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels=None,
        lowest: float = DEFAULT_LOWEST,
        growth: float = DEFAULT_GROWTH,
        num_buckets: int = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            help,
            labels,
            lowest=lowest,
            growth=growth,
            num_buckets=num_buckets,
        )

    # -- introspection / exposition ----------------------------------------
    def metrics(self) -> List[Metric]:
        with self._lock:
            return list(self._metrics.values())

    def metric_names(self) -> List[str]:
        """Sorted, de-duplicated base names (labels folded together)."""
        with self._lock:
            return sorted({metric.name for metric in self._metrics.values()})

    def prometheus_text(self) -> str:
        """Prometheus text exposition format (one scrape body).

        Histograms export Prometheus-native cumulative ``_bucket`` series
        with ``le`` labels plus ``_sum``/``_count``, so the log-bucket
        layout is directly consumable by a real scraper.
        """
        lines: List[str] = []
        seen_headers = set()
        for metric in sorted(self.metrics(), key=lambda m: m.key):
            if metric.name not in seen_headers:
                seen_headers.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                counts = metric.bucket_counts()
                label_items = list(metric.labels)
                for index, bucket_count in enumerate(counts):
                    cumulative += bucket_count
                    upper = (
                        metric.bounds[index]
                        if index < len(metric.bounds)
                        else float("inf")
                    )
                    le = "+Inf" if math.isinf(upper) else repr(upper)
                    labels = _label_suffix(tuple(label_items + [("le", le)]))
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                suffix = _label_suffix(metric.labels)
                lines.append(f"{metric.name}_sum{suffix} {metric.sum}")
                lines.append(f"{metric.name}_count{suffix} {metric.count}")
            else:
                value = metric.value
                if isinstance(value, bool):
                    value = int(value)
                lines.append(f"{metric.full_name} {value}")
        return "\n".join(lines) + "\n"
