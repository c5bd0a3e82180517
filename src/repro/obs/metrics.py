"""Metrics registry: phase histograms, counters, pool-health gauges.

Deliberately tiny — the registry is a process-local aggregation point
the pool and benchmarks write into and ``repro stats`` prints.  Every
instrument keeps exact values (observation counts here are frames ×
workers, not web-scale), so percentiles are true percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

__all__ = [
    "busy_spread",
    "Stopwatch",
    "Histogram",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "metrics_from_timelines",
]


def busy_spread(values) -> float:
    """Load-imbalance scalar ``(max - min) / mean`` over per-worker times.

    The paper's load-balance evaluation reads this off per-worker busy
    times: 0 means perfectly even, 1 means the spread equals the mean.
    Returns 0.0 for empty or all-zero input.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return 0.0
    mean = float(v.mean())
    if mean <= 0.0:
        return 0.0
    return float((v.max() - v.min()) / mean)


class Stopwatch:
    """Context-manager wall-clock timer (the one ``perf_counter`` idiom).

    >>> with Stopwatch() as sw:
    ...     work()
    >>> sw.seconds
    """

    __slots__ = ("_t0", "seconds")

    def __init__(self) -> None:
        self._t0 = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = perf_counter() - self._t0


@dataclass
class Histogram:
    """Exact-value histogram of non-negative observations (seconds)."""

    values: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.values else 0.0

    @property
    def max(self) -> float:
        return float(max(self.values)) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Exact percentile (``q`` in [0, 100])."""
        if not self.values:
            return 0.0
        return float(np.percentile(np.asarray(self.values), q))

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "max": self.max,
        }


@dataclass
class Counter:
    """Monotonic accumulator."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-written value plus its high-water mark."""

    value: float = 0.0
    max: float = 0.0
    _written: bool = field(default=False, repr=False)

    def set(self, value: float) -> None:
        self.value = float(value)
        self.max = value if not self._written else max(self.max, value)
        self._written = True


class MetricsRegistry:
    """Named histograms/counters/gauges, created on first touch."""

    def __init__(self) -> None:
        self.histograms: dict[str, Histogram] = {}
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}

    def histogram(self, name: str) -> Histogram:
        return self.histograms.setdefault(name, Histogram())

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self.gauges.setdefault(name, Gauge())

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s instruments into this registry.

        Histograms concatenate and counters add.  Two registries share
        no clock to order a gauge's "last" write by, so a merged gauge
        keeps the larger value and the larger high-water mark.
        """
        for name, h in other.histograms.items():
            self.histogram(name).values.extend(h.values)
        for name, c in other.counters.items():
            self.counter(name).inc(c.value)
        for name, g in other.gauges.items():
            mine = self.gauges.get(name)
            if mine is None:
                self.gauges[name] = replace(g)
            else:
                mine.value = max(mine.value, g.value)
                mine.max = max(mine.max, g.max)

    def snapshot(self) -> dict:
        """Plain-dict dump (JSON-serializable) of every instrument."""
        return {
            "histograms": {k: h.summary() for k, h in self.histograms.items()},
            "counters": {k: c.value for k, c in self.counters.items()},
            "gauges": {k: {"value": g.value, "max": g.max}
                       for k, g in self.gauges.items()},
        }

    def format_table(self) -> str:
        """Human-readable dump: one row per instrument (raw units —
        ``phase/*`` and ``frame/*`` histograms are seconds)."""
        lines = []
        if self.histograms:
            lines.append(f"{'histogram':28s} {'count':>7s} {'total':>12s} "
                         f"{'mean':>12s} {'p90':>12s} {'max':>12s}")
            for name in sorted(self.histograms):
                s = self.histograms[name].summary()
                lines.append(
                    f"{name:28s} {s['count']:7d} {s['total']:12.6g} "
                    f"{s['mean']:12.6g} {s['p90']:12.6g} {s['max']:12.6g}"
                )
        for name in sorted(self.counters):
            lines.append(f"{name:28s} {self.counters[name].value:14g}")
        for name in sorted(self.gauges):
            g = self.gauges[name]
            lines.append(f"{name:28s} last {g.value:10g}  max {g.max:10g}")
        return "\n".join(lines)


def metrics_from_timelines(timelines, registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Fold frame timelines into phase histograms and counter totals.

    Each span contributes its duration to ``phase/<name>``; each counter
    sample adds to the counter of the same name.  Used by the pool after
    every completed frame and by ``repro stats`` over a whole run.
    """
    reg = registry if registry is not None else MetricsRegistry()
    for tl in timelines:
        for s in tl.spans:
            reg.histogram(f"phase/{s.phase}").observe(s.t1 - s.t0)
        for c in tl.counters:
            reg.counter(c.name).inc(c.value)
        busy = tl.busy_by_pid()
        if busy:
            reg.histogram("frame/busy_spread").observe(busy_spread(list(busy.values())))
    return reg
