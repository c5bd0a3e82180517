"""Partitioning strategies for the compositing and warp phases.

This module contains both partitioners the paper compares:

* the **old** scheme (Lacroute/Singh): intermediate-image scanlines in
  fixed-size chunks, assigned round-robin (interleaved) across
  processors for the compositing phase; fixed-size square tiles of the
  *final* image, assigned round-robin, for the warp phase;
* the **new** scheme (the paper's contribution): one *contiguous* block
  of intermediate-image scanlines per processor, sized from the
  cumulative per-scanline cost profile of a previous frame by a
  parallel-prefix + binary-search construction (section 4.3), and reused
  identically in the warp phase with the boundary-scanline-pair
  ownership rule of section 4.5.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "interleaved_chunks",
    "round_robin_tiles",
    "contiguous_partition",
    "nested_contiguous_partition",
    "uniform_contiguous_partition",
    "line_ownership",
    "partition_sizes",
]


def interleaved_chunks(
    v_lo: int, v_hi: int, chunk: int, n_procs: int
) -> list[list[tuple[int, int]]]:
    """Old scheme: chunks of ``chunk`` scanlines, dealt round-robin.

    Returns, per processor, the list of ``(start, stop)`` scanline
    chunks initially assigned to it.
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if n_procs < 1:
        raise ValueError("need at least one processor")
    out: list[list[tuple[int, int]]] = [[] for _ in range(n_procs)]
    for idx, start in enumerate(range(v_lo, v_hi, chunk)):
        out[idx % n_procs].append((start, min(start + chunk, v_hi)))
    return out


def round_robin_tiles(
    final_shape: tuple[int, int], tile: int, n_procs: int
) -> list[list[tuple[int, int, int, int]]]:
    """Old scheme's warp partition: square tiles dealt round-robin.

    Returns, per processor, a list of ``(y0, y1, x0, x1)`` tiles.
    """
    if tile < 1:
        raise ValueError("tile must be >= 1")
    ny, nx = final_shape
    out: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n_procs)]
    idx = 0
    for y0 in range(0, ny, tile):
        for x0 in range(0, nx, tile):
            out[idx % n_procs].append((y0, min(y0 + tile, ny), x0, min(x0 + tile, nx)))
            idx += 1
    return out


#: Relative tolerance under which :func:`contiguous_partition` calls two
#: candidate boundaries a tie: far above float64 rounding of a cumulative
#: sum, far below the cost of one scanline in any profile it is given.
TIE_RTOL = 1e-9


def contiguous_partition(profile: np.ndarray, n_procs: int, v_lo: int = 0) -> np.ndarray:
    """New scheme: profile-balanced contiguous partition boundaries.

    Implements section 4.3: build the cumulative cost curve with a
    (parallel-prefix) scan, split the total area into ``n_procs`` equal
    parts, and binary-search each split point into the cumulative
    array.  ``profile[i]`` is the measured cost of scanline ``v_lo + i``.

    Returns ``boundaries`` of length ``n_procs + 1``: processor ``p``
    owns scanlines ``[boundaries[p], boundaries[p+1])`` (absolute
    scanline indices).  Boundaries are strictly increasing whenever
    enough scanlines exist, so no processor is starved.

    ``profile`` may be any real dtype — integer op counts or
    float32/float64 calibrated seconds; costs are accumulated in
    float64, so fractional costs are honored exactly (no silent int
    truncation) and the same split falls out whether a cost arrives as
    ``3`` or ``3.0``.  NaN costs are rejected: one NaN poisons the
    whole cumulative curve and would silently degenerate the split.
    """
    profile = np.asarray(profile, dtype=np.float64)
    if np.isnan(profile).any():
        raise ValueError("cost profile contains NaN")
    if n_procs < 1:
        raise ValueError("need at least one processor")
    n = len(profile)
    if n == 0:
        return np.full(n_procs + 1, v_lo, dtype=np.int64)
    cum = np.cumsum(profile)
    total = cum[-1]
    if total <= 0:
        # Degenerate: no measured work; fall back to equal-count split.
        return uniform_contiguous_partition(v_lo, v_lo + n, n_procs)
    targets = total * np.arange(1, n_procs) / n_procs
    # The boundary scanline is the one whose cumulative cost is closest
    # to the target value (paper: "closest to the boundary values"); a
    # tie goes left.  Equal costs that are not exact in binary (measured
    # seconds) sum with a few ulps of rounding, which must not decide a
    # tie: distances within TIE_RTOL of the total count as equal.
    right = np.searchsorted(cum, targets)
    left = np.maximum(right - 1, 0)
    right = np.minimum(right, n - 1)
    pick = np.where(
        np.abs(cum[left] - targets)
        <= np.abs(cum[right] - targets) + TIE_RTOL * total,
        left, right,
    )
    bounds = np.empty(n_procs + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[1:-1] = pick + 1
    bounds[-1] = n
    # Enforce monotonicity when profiles are very skewed: push each
    # boundary past its predecessor from the left...
    for p in range(1, n_procs):
        bounds[p] = max(bounds[p], bounds[p - 1] + 1) if bounds[p - 1] < n else n
        bounds[p] = min(bounds[p], n)
    # ...then clamp from the right so boundary p leaves at least one
    # scanline for each of the n_procs - p partitions after it.  With
    # all the mass at the end of the profile the left-to-right pass
    # alone yields e.g. sizes [9 1 0 0], starving the trailing
    # processors; after this pass every partition is non-empty whenever
    # n >= n_procs.
    if n >= n_procs:
        for p in range(n_procs - 1, 0, -1):
            bounds[p] = min(bounds[p], n - (n_procs - p))
    return bounds + v_lo


def nested_contiguous_partition(
    profile: np.ndarray, n_outer: int, n_inner: int, v_lo: int = 0
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Two-level split: shards first, then scanlines within each shard.

    The shard service runs the section 4.3 construction one level up:
    the same cost profile first splits the band into ``n_outer``
    contiguous shards, then each shard's slice of the profile splits
    into ``n_inner`` per-worker blocks.  Returns ``(outer, inner)``
    where ``outer`` has length ``n_outer + 1`` and ``inner[s]`` has
    length ``n_inner + 1`` with ``inner[s][0] == outer[s]`` and
    ``inner[s][-1] == outer[s + 1]`` — together a cover of
    ``[v_lo, v_lo + len(profile))`` in which every scanline lands in
    exactly one (shard, block) cell.
    """
    profile = np.asarray(profile, dtype=np.float64)
    outer = contiguous_partition(profile, n_outer, v_lo=v_lo)
    inner = [
        contiguous_partition(
            profile[outer[s] - v_lo:outer[s + 1] - v_lo],
            n_inner,
            v_lo=int(outer[s]),
        )
        for s in range(n_outer)
    ]
    return outer, inner


def uniform_contiguous_partition(v_lo: int, v_hi: int, n_procs: int) -> np.ndarray:
    """Equal-count contiguous split (used before any profile exists)."""
    if n_procs < 1:
        raise ValueError("need at least one processor")
    return np.linspace(v_lo, v_hi, n_procs + 1).round().astype(np.int64)


def partition_sizes(boundaries: np.ndarray) -> np.ndarray:
    """Scanlines per processor for a boundary array."""
    return np.diff(np.asarray(boundaries, dtype=np.int64))


def line_ownership(boundaries: np.ndarray, n_v: int) -> np.ndarray:
    """Warp-phase ownership of intermediate scanlines (section 4.5).

    Returns ``owner[v0]`` — the processor that writes final pixels whose
    bilinear samples use intermediate scanlines ``(v0, v0 + 1)``.  By
    default the owner of ``v0`` is the partition containing it, but the
    pair straddling each internal boundary is assigned wholly to the
    neighbor with *fewer* scanlines, eliminating final-image
    write-sharing without synchronization.

    Scanlines outside all partitions (the empty image top/bottom) map to
    the nearest partition so no final pixel is orphaned.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    n_procs = len(boundaries) - 1
    owner = np.empty(n_v, dtype=np.int64)
    sizes = partition_sizes(boundaries)
    for p in range(n_procs):
        lo = max(0, int(boundaries[p]))
        hi = min(n_v, int(boundaries[p + 1]))
        owner[lo:hi] = p
    # Outside the partitioned band the intermediate image is empty; the
    # corresponding final pixels are background writes.  Split each empty
    # margin into contiguous per-processor slices so the (cheap) clearing
    # work is spread without fragmenting any processor's row range.
    lo_band = max(0, int(boundaries[0]))
    hi_band = min(n_v, int(boundaries[-1]))
    if lo_band > 0:
        owner[:lo_band] = np.arange(lo_band) * n_procs // lo_band
    if hi_band < n_v:
        tail = n_v - hi_band
        owner[hi_band:] = np.arange(tail) * n_procs // tail
    # Boundary pair rule: line b-1 (owned by p, pair crosses into p+1).
    for p in range(n_procs - 1):
        b = int(boundaries[p + 1])
        if 1 <= b <= n_v:
            winner = p if sizes[p] <= sizes[p + 1] else p + 1
            owner[b - 1] = winner
    return owner
