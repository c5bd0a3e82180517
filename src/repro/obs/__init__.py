"""Frame-timeline tracing and metrics for the *real* renderers.

The paper's contribution was driven by a hierarchy of performance tools
— Pixie basic-block profiling, synchronization timers, and a detailed
memory-system simulator.  :mod:`repro.memsim` reproduces the simulated
end of that hierarchy; this package is the *native* end for the code
that actually runs on the host:

* :class:`SpanRecorder` — a preallocated per-worker ring buffer of phase
  **spans** (slice-decode, composite, warp, queue wait, barrier) and **counters** (rows composited, kernel calls,
  slice-cache hits/misses and the microseconds spent decoding the
  misses, solo frames).
  Backed by shared memory in the multiprocessing pool so recording adds
  no queue traffic on the hot path; a disabled recorder (``None``)
  costs nothing.
* :class:`FrameTimeline` + :func:`export_chrome_trace` — the parent
  assembles per-frame timelines and exports Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``, one track per worker).
* :class:`MetricsRegistry` — phase histograms and pool-health gauges
  (queue depth at submit, buffer occupancy, profile invalidations,
  partition-boundary drift).
* :func:`busy_spread` — the load-imbalance scalar ``(max - min) / mean``
  used throughout the paper's evaluation.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Stopwatch,
    busy_spread,
    metrics_from_timelines,
)
from .recorder import (
    COUNTERS,
    DEFAULT_RING_CAPACITY,
    PHASES,
    CounterSample,
    RingReader,
    Span,
    SpanRecorder,
    ring_bytes,
)
from .timeline import (
    FrameTimeline,
    assemble_timelines,
    chrome_trace_events,
    export_chrome_trace,
    load_chrome_trace,
    summarize_trace,
    validate_chrome_trace,
)

__all__ = [
    "COUNTERS",
    "DEFAULT_RING_CAPACITY",
    "PHASES",
    "Counter",
    "CounterSample",
    "FrameTimeline",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RingReader",
    "Span",
    "SpanRecorder",
    "Stopwatch",
    "assemble_timelines",
    "busy_spread",
    "chrome_trace_events",
    "export_chrome_trace",
    "load_chrome_trace",
    "metrics_from_timelines",
    "ring_bytes",
    "summarize_trace",
    "validate_chrome_trace",
]
