"""Content-addressed whole-frame LRU cache.

This lifts the :class:`~repro.volume.rle.SliceCache` idea one level: the
slice cache memoizes decoded RLE planes (pure functions of the
immutable encoding), this cache memoizes *finished frames* (pure
functions of the canonical request identity — dataset, scale,
classification, view).  An animation client orbiting a volume
and a dashboard of viewers staring at the same angle both collapse to
one render per distinct view.

Entries are keyed by :func:`repro.serve.protocol.request_key` (sha256
of the canonical identity JSON) and hold read-only ``float32`` planes,
so a hit can be handed to any number of concurrent responses without
copying.  Hit/miss counters flow into the shared
:class:`~repro.obs.metrics.MetricsRegistry` (``serve/cache_hits``,
``serve/cache_misses``) next to the pool's own counters.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..obs.metrics import MetricsRegistry

__all__ = ["CachedFrame", "FrameCache", "DEFAULT_FRAME_CACHE_CAPACITY"]

#: Default bound on cached finished frames.  At the proxy scales the
#: service renders, a frame is two small float32 planes (tens of KB), so
#: this holds a whole short animation per classification without
#: approaching the decoded-slice caches in footprint.
DEFAULT_FRAME_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class CachedFrame:
    """One finished frame: final-image planes plus a payload digest.

    ``sha256`` fingerprints the exact plane bytes — responses built from
    a cache hit, a coalesced in-flight render and a fresh render of the
    same identity all carry the same digest, which is how clients (and
    the tests) check bit-identity without shipping reference images.
    """

    color: np.ndarray
    alpha: np.ndarray
    sha256: str

    @classmethod
    def from_planes(cls, color: np.ndarray, alpha: np.ndarray) -> "CachedFrame":
        color = np.ascontiguousarray(color, dtype=np.float32)
        alpha = np.ascontiguousarray(alpha, dtype=np.float32)
        color.setflags(write=False)
        alpha.setflags(write=False)
        # The C-contiguous planes are their own bytes: hash them in place.
        digest = hashlib.sha256()
        digest.update(color)
        digest.update(alpha)
        return cls(color=color, alpha=alpha, sha256=digest.hexdigest())

    @property
    def nbytes(self) -> int:
        return int(self.color.nbytes + self.alpha.nbytes)


class FrameCache:
    """Bounded LRU of :class:`CachedFrame` keyed by content address.

    Counter updates and the recency list share one lock — the lesson of
    the slice-cache counter races under the threading backend applied
    from the start, rather than retrofitted.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_FRAME_CACHE_CAPACITY,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("frame cache capacity must be >= 1")
        self.capacity = int(capacity)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.hits = 0
        self.misses = 0
        self._frames: OrderedDict[str, CachedFrame] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(f.nbytes for f in self._frames.values())

    def get(self, key: str) -> CachedFrame | None:
        with self._lock:
            frame = self._frames.get(key)
            if frame is None:
                self.misses += 1
                self.metrics.counter("serve/cache_misses").inc()
                return None
            self._frames.move_to_end(key)
            self.hits += 1
            self.metrics.counter("serve/cache_hits").inc()
            return frame

    def put(self, key: str, frame: CachedFrame) -> None:
        with self._lock:
            self._frames[key] = frame
            self._frames.move_to_end(key)
            while len(self._frames) > self.capacity:
                self._frames.popitem(last=False)
            self.metrics.gauge("serve/cache_frames").set(len(self._frames))

    def clear(self) -> None:
        """Drop every cached frame (hit/miss statistics are kept)."""
        with self._lock:
            self._frames.clear()
            self.metrics.gauge("serve/cache_frames").set(0)
