"""Run-length encoding of classified volumes (VolPack-style).

The shear-warp algorithm's serial speed comes from streaming over a
run-length-encoded volume in storage order.  As in Lacroute's renderer,
the volume is encoded **three times**, once per principal axis, so that
whatever the viewing direction, compositing traverses voxel scanlines
contiguously.

Encoding layout for one principal axis (permuted shape ``(nk, nj, ni)``,
``i`` fastest):

* ``run_lengths`` — one flat ``int32`` array of alternating run lengths
  per scanline, always starting with a (possibly zero-length)
  *transparent* run and alternating transparent/non-transparent;
* ``voxel_opacity`` / ``voxel_color`` — the non-transparent voxels'
  classified records, concatenated in traversal order;
* per-scanline index tables (``(nk, nj)``) giving each scanline's slice
  of both arrays.

These tables are exactly what the memory-system tracer needs to know
which bytes a compositing task touches, without re-walking the runs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..transforms.factorization import PERMUTATIONS
from .volume import ClassifiedVolume

__all__ = [
    "RLEVolume",
    "SliceCache",
    "encode",
    "encode_all_axes",
    "BYTES_PER_VOXEL",
    "BYTES_PER_RUN",
    "DEFAULT_SLICE_CACHE_CAPACITY",
]

#: Bytes per encoded non-transparent voxel record (opacity + luminance,
#: two 4-byte words) — used by the address tracer.
BYTES_PER_VOXEL = 8
#: Bytes per run-length table entry.
BYTES_PER_RUN = 4

#: Default bound on cached decoded slices.  An :class:`RLEVolume` sizes
#: its own cache to ``max(this, nk)``: the front-to-back sweep is cyclic,
#: so an LRU even one slice short of ``nk`` evicts every plane just
#: before its next use and hits 0 % of the time.
DEFAULT_SLICE_CACHE_CAPACITY = 128


class SliceCache:
    """Bounded LRU of decoded slice planes for one :class:`RLEVolume`.

    Decoding a slice is one vectorized pass over its runs
    (:meth:`RLEVolume.decode_slice_padded`) — a few NumPy calls, but
    still several times a cache lookup — and the decoded planes are pure
    functions of the (immutable) encoding.  Every consumer of one
    principal axis (the fast whole-frame path, the block kernel, each
    multiprocessing worker) re-reads the same ``nk`` planes every frame
    of an animation, so a small LRU turns all but the first frame's
    decodes into lookups.  ``decode_s`` accumulates the seconds spent
    filling misses; the pools report its per-frame delta as the
    ``decode_us`` counter.

    An entry is what :meth:`RLEVolume.slice_entry` builds on a miss: the
    two *padded* planes (one transparent border row and column on each
    side, the form the vectorized kernel samples; the unpadded view is
    sliced out on demand) and the slice's bilinear footprint mask, which
    tells the kernel where a sample can be non-zero at all.  All three
    live and die together — one eviction, one ``clear``, one
    ``decode_s`` — and are read-only so a stray consumer cannot corrupt
    the shared state.

    Clears come from one place:
    :meth:`~repro.render.serial.ShearWarpRenderer.rle_for` keeps an LRU
    of the ``(timestep, axis)`` encodings whose caches may hold planes
    and clears this cache when its encoding falls out (a static renderer
    keeps only its active axis, a movie up to four timesteps).  A clear
    drops the planes and keeps ``hits`` / ``misses`` / ``decode_s``.

    Thread-safety: the threading backend's workers share one cache per
    encoding.  Entry lookups and recency updates were always safe under
    the GIL, but the ``hits``/``misses`` tallies are read-modify-write
    and lost updates under contention — they feed the ``cache_hits`` /
    ``cache_misses`` frame counters, so every operation now runs under
    one lock (the decode a miss triggers dwarfs the lock cost).
    """

    __slots__ = ("capacity", "hits", "misses", "decode_s", "_planes", "_lock")

    def __init__(self, capacity: int = DEFAULT_SLICE_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("slice cache capacity must be >= 1")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.decode_s = 0.0
        self._planes: OrderedDict[int, tuple[np.ndarray, ...]] = OrderedDict()
        self._lock = threading.Lock()

    def __reduce__(self):
        # Locks don't pickle and cached planes are pure derived state:
        # an unpickled encoding starts with an empty cache of the same
        # capacity (mirrors the lazy rebuild in RLEVolume.slice_cache).
        return (SliceCache, (self.capacity,))

    def __len__(self) -> int:
        return len(self._planes)

    def reset_lock(self) -> None:
        """Replace the lock with a fresh one — in a forked child, where
        a parent thread that held it at the fork no longer exists to
        release it."""
        self._lock = threading.Lock()

    def get(self, k: int) -> tuple[np.ndarray, ...] | None:
        with self._lock:
            entry = self._planes.get(k)
            if entry is None:
                self.misses += 1
                return None
            self._planes.move_to_end(k)
            self.hits += 1
            return entry

    def put(
        self, k: int, planes: tuple[np.ndarray, ...], fill_s: float = 0.0
    ) -> None:
        """Insert slice ``k``'s entry; ``fill_s`` is what building it cost."""
        with self._lock:
            self.decode_s += fill_s
            self._planes[k] = planes
            self._planes.move_to_end(k)
            while len(self._planes) > self.capacity:
                self._planes.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached plane (hit/miss statistics are kept)."""
        with self._lock:
            self._planes.clear()


@dataclass(frozen=True)
class RLEVolume:
    """Run-length encoding of a classified volume for one principal axis."""

    axis: int
    shape_ijk: tuple[int, int, int]
    run_lengths: np.ndarray  # int32, flat
    run_start: np.ndarray  # int64 (nk, nj): first run index of scanline
    run_count: np.ndarray  # int32 (nk, nj): number of alternating runs
    voxel_opacity: np.ndarray  # float32, flat, traversal order
    voxel_color: np.ndarray  # float32, flat
    vox_start: np.ndarray  # int64 (nk, nj)
    vox_count: np.ndarray  # int32 (nk, nj)

    def __post_init__(self) -> None:
        # Per-encoding decoded-slice LRU (a non-field attribute so frozen
        # dataclass semantics — equality, repr, hashing — are unaffected).
        object.__setattr__(self, "_slice_cache", self._new_slice_cache())

    def _new_slice_cache(self) -> SliceCache:
        return SliceCache(max(DEFAULT_SLICE_CACHE_CAPACITY, self.nk))

    @property
    def slice_cache(self) -> SliceCache:
        """This encoding's decoded-slice LRU (created lazily after unpickling)."""
        cache = self.__dict__.get("_slice_cache")
        if cache is None:
            cache = self._new_slice_cache()
            object.__setattr__(self, "_slice_cache", cache)
        return cache

    def clear_slice_cache(self) -> None:
        """Drop the decoded slices (the renderer does when it lets this encoding go)."""
        self.slice_cache.clear()

    # -- basic geometry ----------------------------------------------------

    @property
    def ni(self) -> int:
        return self.shape_ijk[0]

    @property
    def nj(self) -> int:
        return self.shape_ijk[1]

    @property
    def nk(self) -> int:
        return self.shape_ijk[2]

    @property
    def nonempty_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ks, j_first, j_last)``: the slices ``ks`` holding any
        non-transparent voxel, and in each its first and last non-empty
        scanline ``j`` — what the non-empty band of every view is cut
        from, computed once per encoding (two threads racing here
        compute the same arrays)."""
        rows = self.__dict__.get("_nonempty_rows")
        if rows is None:
            nonempty = self.vox_count > 0  # (nk, nj)
            ks = np.flatnonzero(nonempty.any(axis=1))
            hit = nonempty[ks]
            j_first = hit.argmax(axis=1)
            j_last = self.nj - 1 - hit[:, ::-1].argmax(axis=1)
            rows = (ks, j_first, j_last)
            object.__setattr__(self, "_nonempty_rows", rows)
        return rows

    # -- decoding ------------------------------------------------------------

    def scanline_runs(self, k: int, j: int) -> np.ndarray:
        """Alternating run lengths of scanline ``(k, j)`` (starts transparent)."""
        s = self.run_start[k, j]
        return self.run_lengths[s : s + self.run_count[k, j]]

    def nontransparent_runs(self, k: int, j: int) -> list[tuple[int, int]]:
        """Non-transparent runs of scanline ``(k, j)`` as ``(start, length)``."""
        runs = self.scanline_runs(k, j)
        out = []
        pos = 0
        for idx, length in enumerate(runs):
            if idx % 2 == 1 and length > 0:
                out.append((pos, int(length)))
            pos += int(length)
        return out

    def decode_scanline(self, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(opacity, color)`` rows of length ``ni`` for scanline (k, j)."""
        opac = np.zeros(self.ni, dtype=np.float32)
        col = np.zeros(self.ni, dtype=np.float32)
        v = self.vox_start[k, j]
        pos = 0
        for idx, length in enumerate(self.scanline_runs(k, j)):
            length = int(length)
            if idx % 2 == 1 and length > 0:
                opac[pos : pos + length] = self.voxel_opacity[v : v + length]
                col[pos : pos + length] = self.voxel_color[v : v + length]
                v += length
            pos += length
        return opac, col

    def decode_slice(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(opacity, color)`` planes of shape ``(nj, ni)`` for slice k.

        Served from the decoded-slice LRU; the returned planes are
        read-only views shared with other callers — copy before mutating.
        """
        opac, col = self.decode_slice_padded(k)
        return opac[1:-1, 1:-1], col[1:-1, 1:-1]

    def decode_slice_padded(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense planes of slice ``k`` with one transparent pad row/column
        on each side — shape ``(nj + 2, ni + 2)``, the form the vectorized
        compositing kernel samples (out-of-volume reads land on the pad).

        The first two arrays of :meth:`slice_entry`: same LRU, same
        read-only planes.
        """
        return self.slice_entry(k)[:2]

    def slice_entry(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slice ``k``'s cache entry: ``(opacity, color, foot)``.

        ``opacity`` / ``color`` are the padded planes of
        :meth:`decode_slice_padded`.  ``foot`` is the slice's *bilinear
        footprint mask*, bool of shape ``(nj + 1, ni + 1)``:
        ``foot[a, b]`` is set when any of the four padded voxels
        ``[a:a+2, b:b+2]`` a bilinear sample reads is non-transparent —
        view-independent, and a superset of where a sample's opacity can
        be positive (the weights may still be zero).  The block kernel
        resamples only under it.

        Results come from a bounded per-encoding LRU
        (:attr:`slice_cache`), one lookup per call, and are read-only.

        A miss decodes the whole slice at once.  Its ``nj`` scanlines'
        runs are one contiguous range of ``run_lengths``; a run is
        non-transparent when its index *within its scanline* is odd
        (every scanline has an odd run count, so a plain alternating
        mask over the concatenation would flip at each scanline);
        repeating that parity by the run lengths gives the slice's voxel
        mask, and boolean assignment fills it row-major — the traversal
        order the voxel records are stored in.  The footprint mask is
        that voxel mask, padded, OR-ed over each 2x2 neighbourhood.
        """
        k = int(k)
        cache = self.slice_cache
        cached = cache.get(k)
        if cached is not None:
            return cached
        t0 = time.perf_counter()
        nj, ni = self.nj, self.ni
        counts = self.run_count[k]
        r0 = self.run_start[k, 0]
        n_runs = int(counts.sum())
        in_line = np.arange(r0, r0 + n_runs) - np.repeat(self.run_start[k], counts)
        mask = np.repeat(
            (in_line & 1).astype(bool), self.run_lengths[r0 : r0 + n_runs]
        ).reshape(nj, ni)
        v0 = self.vox_start[k, 0]
        v1 = v0 + int(self.vox_count[k].sum())
        opac = np.zeros((nj + 2, ni + 2), dtype=np.float32)
        col = np.zeros((nj + 2, ni + 2), dtype=np.float32)
        opac[1:-1, 1:-1][mask] = self.voxel_opacity[v0:v1]
        col[1:-1, 1:-1][mask] = self.voxel_color[v0:v1]
        padded = np.zeros((nj + 2, ni + 2), dtype=bool)
        padded[1:-1, 1:-1] = mask
        across = padded[:, :-1] | padded[:, 1:]
        entry = (opac, col, across[:-1] | across[1:])
        for plane in entry:
            plane.setflags(write=False)
        cache.put(k, entry, time.perf_counter() - t0)
        return entry

    # -- size accounting ----------------------------------------------------

    @property
    def encoded_bytes(self) -> int:
        """Approximate memory footprint of the encoding."""
        return (
            self.run_lengths.size * BYTES_PER_RUN
            + self.voxel_opacity.size * BYTES_PER_VOXEL
            + self.run_start.size * 12  # per-scanline index tables
        )

    @property
    def dense_bytes(self) -> int:
        """Footprint of the equivalent dense classified volume."""
        return int(np.prod(self.shape_ijk)) * BYTES_PER_VOXEL

    @property
    def compression_ratio(self) -> float:
        """dense_bytes / encoded_bytes (paper: large for medical data)."""
        return self.dense_bytes / max(1, self.encoded_bytes)


def encode(vol: ClassifiedVolume, axis: int) -> RLEVolume:
    """Run-length encode ``vol`` for principal ``axis`` (0=x, 1=y, 2=z)."""
    if axis not in PERMUTATIONS:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    perm = PERMUTATIONS[axis]
    # Permuted views, indexed [k][j][i].
    order = (perm[2], perm[1], perm[0])
    opac = np.ascontiguousarray(vol.opacity.transpose(order))
    col = np.ascontiguousarray(vol.color.transpose(order))
    nk, nj, ni = opac.shape

    rows = opac.reshape(nk * nj, ni)
    mask = rows > 0.0

    # Vectorized run detection across all scanlines at once.
    padded = np.zeros((nk * nj, ni + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    d = np.diff(padded, axis=1)
    # Row-major, so within each row: start, end (exclusive), start, ...
    brow, bcol = np.nonzero(d)
    # n non-transparent runs -> 2n + 1 alternating runs (the first and
    # last transparent, possibly empty); a blank row is one run of ni.
    run_count = (np.bincount(brow, minlength=nk * nj) + 1).astype(np.int32)
    run_start = np.zeros(nk * nj, dtype=np.int64)
    np.cumsum(run_count[:-1], out=run_start[1:])
    # One entry per run: the position it ends at.  Row r's boundaries
    # follow r earlier rows' closing ``ni`` entries.
    ends = np.full(int(run_count.sum()), ni, dtype=np.int32)
    ends[np.arange(brow.size) + brow] = bcol
    flat_runs = np.diff(ends, prepend=np.int32(0))
    flat_runs[run_start] = ends[run_start]  # a row's first run starts at 0
    vox_count = mask.sum(axis=1).astype(np.int32)
    vox_start = np.zeros(nk * nj, dtype=np.int64)
    np.cumsum(vox_count[:-1], out=vox_start[1:])

    return RLEVolume(
        axis=axis,
        shape_ijk=(ni, nj, nk),
        run_lengths=flat_runs,
        run_start=run_start.reshape(nk, nj),
        run_count=run_count.reshape(nk, nj),
        voxel_opacity=rows[mask].astype(np.float32),
        voxel_color=col.reshape(nk * nj, ni)[mask].astype(np.float32),
        vox_start=vox_start.reshape(nk, nj),
        vox_count=vox_count.reshape(nk, nj),
    )


def encode_all_axes(vol: ClassifiedVolume) -> dict[int, RLEVolume]:
    """Encode for all three principal axes (as VolPack precomputes)."""
    return {axis: encode(vol, axis) for axis in (0, 1, 2)}
