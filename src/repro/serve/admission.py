"""Admission control: a bounded in-flight window with typed rejection.

The serve layer's backpressure is deliberately the simplest thing that
is honest: a counter of admitted-but-unfinished render jobs, bounded by
``max_inflight``.  A request that would push past the bound is rejected
*immediately* with :class:`ServerBusy` — the 429 of this protocol —
instead of queueing without bound and timing out under load.  Cache
hits and coalesced followers never consume a slot: they add no pool
work, so rejecting them would only shed load the server isn't carrying.
"""

from __future__ import annotations

import threading

from ..obs.metrics import MetricsRegistry
from ..parallel.poolcore import MPPoolError

__all__ = ["ServerBusy", "AdmissionController"]


class ServerBusy(MPPoolError):
    """The server's in-flight window is full — retry later.

    Extends :class:`~repro.parallel.poolcore.MPPoolError` so service
    clients handle one typed hierarchy for every way a render can fail,
    whether the pool or the front end rejected it.
    """


class AdmissionController:
    """Bounded window of in-flight render jobs.

    Thread-safe, though the server both acquires and releases on its
    event-loop thread (a release in ``RenderServer._resolve``'s
    ``finally``, once the render's result is back on the loop): any
    embedder or test may admit from plain threads.

    Counters land in the shared registry: ``serve/admitted``,
    ``serve/rejected`` and the ``serve/inflight`` gauge (whose ``max``
    is the observed high-water mark).
    """

    def __init__(self, max_inflight: int,
                 metrics: MetricsRegistry | None = None) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = int(max_inflight)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._inflight = 0
        self._lock = threading.Lock()

    @property
    def inflight(self) -> int:
        return self._inflight

    def acquire(self) -> None:
        """Claim one in-flight slot or raise :class:`ServerBusy`."""
        with self._lock:
            if self._inflight >= self.max_inflight:
                self.metrics.counter("serve/rejected").inc()
                raise ServerBusy(
                    f"server at capacity ({self._inflight}/"
                    f"{self.max_inflight} renders in flight)"
                )
            self._inflight += 1
            self.metrics.counter("serve/admitted").inc()
            self.metrics.gauge("serve/inflight").set(self._inflight)

    def release(self) -> None:
        """Return a slot claimed by :meth:`acquire`."""
        with self._lock:
            if self._inflight <= 0:
                raise RuntimeError("release() without a matching acquire()")
            self._inflight -= 1
            self.metrics.gauge("serve/inflight").set(self._inflight)
