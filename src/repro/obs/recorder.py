"""Preallocated ring-buffer span/counter recording.

The recorder is the hot-path end of the observability layer: each
render worker owns one fixed-size ring of ``float64`` records inside a
shared-memory segment (or a plain numpy array for in-process use) and
appends phase spans and counter samples with two array stores — no
locks, no allocation, no queue traffic.  The parent drains each ring
*after* the worker's done message for a frame, so the queue's
happens-before edge makes every record of that frame visible.

Record layout (4 ``float64`` per record)::

    (frame, code, a, b)

where ``code < _COUNTER_BASE`` is a phase id and ``(a, b)`` are the
span's start/end seconds (relative to the recorder's epoch), and
``code >= _COUNTER_BASE`` is a counter id with the value in ``a``.

A ring that wraps overwrites its oldest records; :class:`RingReader`
reports how many were dropped so truncation is never silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

__all__ = [
    "PHASES",
    "COUNTERS",
    "DEFAULT_RING_CAPACITY",
    "Span",
    "CounterSample",
    "SpanRecorder",
    "RingReader",
    "ring_bytes",
    "ring_views",
]

#: Phase names a span can carry, in display order.  ``wait`` is the
#: worker's job-queue wait, ``decode`` the RLE slice decodes, ``profile``
#: the per-scanline cost collapse on profiled frames, ``steal`` a
#: thief's victim scan + claim-cursor lock (the paper's steal
#: synchronization cost, section 4.4; nested inside ``composite``),
#: ``barrier`` the inter-phase synchronization wait (the paper's "sync
#: time"), ``recover`` the MP pool supervisor's worker-respawn +
#: frame-retry window after a fault (recorded on the supervisor's own
#: track), ``dispatch`` the parent-side frame-submission work (plan +
#: queue put, recorded on the supervisor track), ``doorbell`` a
#: worker's wait for the parent to release its next image buffer in
#: batched/pipelined mode, ``merge`` one sort-last merge-tree pass of
#: the shard service (recorded on the service's own final track).  New
#: phases are appended last so existing phase ids stay stable.
PHASES = ("wait", "decode", "composite", "profile", "steal", "barrier", "warp",
          "recover", "dispatch", "doorbell", "merge", "encode")

#: Counter names.  ``steals``/``steal_rows`` count successful chunk
#: steals and the scanlines they moved — recorded by the MP pool's
#: chunked claim/steal loop (and mirrored by the event-driven scheduler
#: models).  ``decode_us`` is the time spent filling slice-cache misses
#: during the frame (it lies inside the ``composite`` span, where the
#: kernels pull slices); like the hit/miss tallies it is a delta of the
#: encoding's cache, which the thread pool's workers share.
#: ``kernel_calls`` is how many times the worker entered the block
#: kernel for the frame, one per claimed chunk: one own claim plus one
#: per steal when the worker's own band is under two grains of
#: ``poolcore.DEFAULT_STEAL_CHUNK`` rows (every benchmark workload), at
#: most ``floor(log2(own_rows / grain)) + 1`` own claims otherwise.
#: New counters are appended last so existing counter ids stay stable.
COUNTERS = ("rows", "cache_hits", "cache_misses", "steals", "steal_rows",
            "decode_us", "kernel_calls")

#: Records per worker ring.  A pool frame writes ~8 records per worker,
#: so the default absorbs hundreds of frames between drains.
DEFAULT_RING_CAPACITY = 4096

_RECORD_FLOATS = 4
_COUNTER_BASE = 100
_PHASE_ID = {name: i for i, name in enumerate(PHASES)}
_COUNTER_ID = {name: _COUNTER_BASE + i for i, name in enumerate(COUNTERS)}


@dataclass(frozen=True)
class Span:
    """One recorded phase interval of one worker."""

    pid: int
    frame: int
    phase: str
    t0: float  # seconds since the recorder's epoch
    t1: float


@dataclass(frozen=True)
class CounterSample:
    """One recorded counter increment of one worker."""

    pid: int
    frame: int
    name: str
    value: float


def ring_bytes(capacity: int = DEFAULT_RING_CAPACITY) -> int:
    """Bytes one worker's ring occupies (cursor word + records)."""
    return (1 + capacity * _RECORD_FLOATS) * 8


def ring_views(
    buf, pid: int, capacity: int = DEFAULT_RING_CAPACITY
) -> tuple[np.ndarray, np.ndarray]:
    """(cursor, records) views of worker ``pid``'s ring inside ``buf``.

    ``buf`` is any buffer-protocol object (a ``SharedMemory.buf`` or a
    ``bytearray``) holding ``n_procs`` consecutive rings.  Both the
    recording process and the draining process build their views through
    this, so the layout lives in exactly one place.
    """
    off = pid * ring_bytes(capacity)
    cursor = np.ndarray((1,), np.float64, buffer=buf, offset=off)
    records = np.ndarray(
        (capacity, _RECORD_FLOATS), np.float64, buffer=buf, offset=off + 8
    )
    return cursor, records


class SpanRecorder:
    """Appends spans/counters to one ring.  ``None`` is the disabled form.

    Callers guard every use with ``if rec is not None`` — there is no
    null-object indirection on the hot path, and a disabled run performs
    zero observability work (asserted by the bit-identity test).
    """

    __slots__ = ("cursor", "records", "capacity", "epoch")

    def __init__(self, cursor: np.ndarray, records: np.ndarray, epoch: float = 0.0) -> None:
        self.cursor = cursor
        self.records = records
        self.capacity = len(records)
        self.epoch = epoch

    @classmethod
    def in_memory(
        cls, capacity: int = DEFAULT_RING_CAPACITY, epoch: float | None = None
    ) -> "SpanRecorder":
        """A private (non-shared) ring for in-process renderers."""
        buf = bytearray(ring_bytes(capacity))
        cursor, records = ring_views(buf, 0, capacity)
        return cls(cursor, records, perf_counter() if epoch is None else epoch)

    @classmethod
    def over(
        cls, buf, pid: int, capacity: int = DEFAULT_RING_CAPACITY, epoch: float = 0.0
    ) -> "SpanRecorder":
        """Recorder over worker ``pid``'s ring in a shared buffer."""
        cursor, records = ring_views(buf, pid, capacity)
        return cls(cursor, records, epoch)

    def now(self) -> float:
        """Seconds since this recorder's epoch (the span timebase)."""
        return perf_counter() - self.epoch

    def _put(self, frame: int, code: int, a: float, b: float) -> None:
        n = int(self.cursor[0])
        self.records[n % self.capacity] = (frame, code, a, b)
        self.cursor[0] = n + 1

    def span(self, frame: int, phase: str, t0: float, t1: float) -> None:
        """Record one phase interval (epoch-relative seconds)."""
        self._put(frame, _PHASE_ID[phase], t0, t1)

    def count(self, frame: int, name: str, value: float) -> None:
        """Record one counter increment (zero increments are skipped)."""
        if value:
            self._put(frame, _COUNTER_ID[name], float(value), 0.0)

    def written(self) -> int:
        """Total records ever appended (monotonic, not ring-clamped)."""
        return int(self.cursor[0])


class RingReader:
    """Incremental drain of one worker's ring from the parent side."""

    __slots__ = ("cursor", "records", "capacity", "pid", "_read", "dropped")

    def __init__(self, cursor: np.ndarray, records: np.ndarray, pid: int) -> None:
        self.cursor = cursor
        self.records = records
        self.capacity = len(records)
        self.pid = pid
        self._read = 0
        self.dropped = 0  # records overwritten before they were drained

    @classmethod
    def over(
        cls, buf, pid: int, capacity: int = DEFAULT_RING_CAPACITY
    ) -> "RingReader":
        cursor, records = ring_views(buf, pid, capacity)
        return cls(cursor, records, pid)

    def drain(self) -> list[Span | CounterSample]:
        """Decode every record appended since the previous drain."""
        end = int(self.cursor[0])
        start = max(self._read, end - self.capacity)
        self.dropped += start - self._read
        out: list[Span | CounterSample] = []
        for i in range(start, end):
            frame, code, a, b = self.records[i % self.capacity]
            frame, code = int(frame), int(code)
            if code >= _COUNTER_BASE:
                out.append(
                    CounterSample(self.pid, frame, COUNTERS[code - _COUNTER_BASE], a)
                )
            else:
                out.append(Span(self.pid, frame, PHASES[code], a, b))
        self._read = end
        return out
