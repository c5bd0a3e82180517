"""The shear-warp compositing phase.

The unit of work is one *intermediate-image scanline*: compositing
scanline ``v`` sweeps the slices front-to-back, resampling the (at most)
two voxel scanlines of each slice that shear onto ``v`` with bilinear
weights, and compositing them over the image scanline with the
``over`` operator.  Early termination: once every pixel of the scanline
is saturated, the remaining slices are skipped; per-pixel, saturated
pixels stop compositing immediately.

This per-image-scanline ("gather") formulation is what makes the
parallel partitioning of the paper natural: a processor that owns a set
of intermediate-image scanlines *writes* only those scanlines and
read-shares the voxel data.  Because ``k`` is the principal axis, the
resample weights ``(fu, fj)`` are constant across a scanline-slice pair,
so resampling is four shifted-row multiply-adds — the structure both the
vectorized kernel and the original VolPack inner loop exploit.
"""

from __future__ import annotations

import numpy as np

from ..transforms.factorization import ShearWarpFactorization
from ..volume.rle import BYTES_PER_RUN, BYTES_PER_VOXEL, RLEVolume
from .image import IntermediateImage
from .instrument import Region, TraceSink, WorkCounters

__all__ = [
    "composite_image_scanline",
    "composite_frame",
    "nonempty_scanline_bounds",
]


def _decode_padded(rle: RLEVolume, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode scanline (k, j) with one zero pad on each side (edge clamp=0)."""
    opac = np.zeros(rle.ni + 2, dtype=np.float32)
    col = np.zeros(rle.ni + 2, dtype=np.float32)
    o, c = rle.decode_scanline(k, j)
    opac[1:-1] = o
    col[1:-1] = c
    return opac, col


def _trace_voxels(
    trace: TraceSink,
    rle: RLEVolume,
    k: int,
    j: int,
    padded_opacity: np.ndarray,
    i_ranges: list[tuple[int, int]],
) -> None:
    """Emit the voxel-record reads of scanline (k, j) under the active runs.

    ``padded_opacity`` is the one-padded decoded row, so index ``i + 1``
    holds voxel ``i``.  Non-transparent voxels are stored contiguously in
    traversal order, so a prefix count gives each range's offset into the
    scanline's voxel records.
    """
    ni = rle.ni
    nz = padded_opacity[1 : ni + 1] > 0
    prefix = np.zeros(ni + 1, dtype=np.int64)
    np.cumsum(nz, out=prefix[1:])
    base = int(rle.vox_start[k, j])
    for i_lo, i_hi in i_ranges:
        lo = max(0, min(i_lo, ni))
        hi = max(lo, min(i_hi + 1, ni))
        used = int(prefix[hi] - prefix[lo])
        if used > 0:
            start = (base + int(prefix[lo])) * BYTES_PER_VOXEL
            trace.access(Region.VOXEL_DATA, start, used * BYTES_PER_VOXEL)


def composite_image_scanline(
    img: IntermediateImage,
    v: int,
    rle: RLEVolume,
    fact: ShearWarpFactorization,
    counters: WorkCounters | None = None,
    trace: TraceSink | None = None,
) -> WorkCounters | None:
    """Composite intermediate-image scanline ``v`` over all slices.

    Returns the per-scanline work counters when ``counters`` is given
    (the same object, for chaining); these are the quantities the
    paper's profiling step records per scanline.
    """
    ni, nj, nk = rle.shape_ijk
    n_u = img.n_u
    thr = img.opaque_threshold
    opac_row = img.opacity[v]
    col_row = img.color[v]

    # Horizontal span of the *last* slice to be traversed: the shear
    # moves slice footprints monotonically, so the union of all
    # remaining footprints at any point is bracketed by the current
    # slice's span and this one (needed for a sound whole-scanline
    # early-termination test).
    u_off_last, _ = fact.slice_offsets(int(fact.k_front_to_back[-1]))
    last_lo = max(0, int(np.ceil(float(u_off_last) - 1.0)))
    last_hi = min(n_u, int(np.floor(float(u_off_last) + ni - 1e-9)) + 1)

    for k in fact.k_front_to_back:
        k = int(k)
        if trace is not None:
            trace.set_key(k)
        u_off, v_off = fact.slice_offsets(k)
        u_off = float(u_off)
        v_off = float(v_off)

        j_f = v - v_off
        jA = int(np.floor(j_f))
        fj = j_f - jA
        jB = jA + 1
        useA = 0 <= jA < nj
        useB = 0 <= jB < nj and fj > 0.0
        if counters is not None:
            counters.loop_iters += 1
        if not useA and not useB:
            continue

        # Horizontal extent of this slice's footprint on the scanline.
        u_lo = max(0, int(np.ceil(u_off - 1.0)))
        u_hi = min(n_u, int(np.floor(u_off + ni - 1e-9)) + 1)
        if u_hi <= u_lo:
            continue
        L = u_hi - u_lo
        m = int(np.floor(u_lo - u_off))
        fu = (u_lo - u_off) - m

        # Skip everything if the whole span is already opaque.
        active = opac_row[u_lo:u_hi] < thr
        n_active = int(np.count_nonzero(active))
        if counters is not None:
            counters.pixels_skipped += L - n_active
        if n_active == 0:
            continue

        # Any non-transparent voxels at all in the contributing scanlines?
        nvoxA = int(rle.vox_count[k, jA]) if useA else 0
        nvoxB = int(rle.vox_count[k, jB]) if useB else 0
        if counters is not None:
            counters.run_entries += (int(rle.run_count[k, jA]) if useA else 0) + (
                int(rle.run_count[k, jB]) if useB else 0
            )
        if trace is not None:
            if useA:
                trace.access(Region.RUN_TABLE, int(rle.run_start[k, jA]) * BYTES_PER_RUN,
                             int(rle.run_count[k, jA]) * BYTES_PER_RUN)
            if useB:
                trace.access(Region.RUN_TABLE, int(rle.run_start[k, jB]) * BYTES_PER_RUN,
                             int(rle.run_count[k, jB]) * BYTES_PER_RUN)
        if nvoxA == 0 and nvoxB == 0:
            continue

        # The voxel i-ranges under the still-active pixel *runs*.  The RLE
        # kernel walks voxel runs and non-opaque pixel runs in lockstep,
        # so voxels below saturated pixels are never even read — the
        # traced voxel accesses must honor that (early termination saves
        # memory traffic, not just compute).  A saturated interior with
        # an active rim yields several short runs, not one wide span.
        pad = np.zeros(L + 2, dtype=np.int8)
        pad[1:-1] = active
        d_act = np.diff(pad)
        run_starts = np.nonzero(d_act == 1)[0]
        run_ends = np.nonzero(d_act == -1)[0]
        # Voxel index ranges (i coordinates) per active pixel run.
        act_ranges = [(m + int(a), m + int(b) + 1) for a, b in zip(run_starts, run_ends)]

        wA = 1.0 - fj if useA else 0.0
        wB = fj if useB else 0.0

        samp_a = None
        samp_c = None
        if useA and nvoxA > 0:
            oA, cA = _decode_padded(rle, k, jA)
            a = oA[m + 1 : m + 1 + L] * (1.0 - fu) + oA[m + 2 : m + 2 + L] * fu
            c = cA[m + 1 : m + 1 + L] * (1.0 - fu) + cA[m + 2 : m + 2 + L] * fu
            samp_a = wA * a
            samp_c = wA * c
            if trace is not None:
                _trace_voxels(trace, rle, k, jA, oA, act_ranges)
        if useB and nvoxB > 0:
            oB, cB = _decode_padded(rle, k, jB)
            a = oB[m + 1 : m + 1 + L] * (1.0 - fu) + oB[m + 2 : m + 2 + L] * fu
            c = cB[m + 1 : m + 1 + L] * (1.0 - fu) + cB[m + 2 : m + 2 + L] * fu
            if samp_a is None:
                samp_a = wB * a
                samp_c = wB * c
            else:
                samp_a = samp_a + wB * a
                samp_c = samp_c + wB * c
            if trace is not None:
                _trace_voxels(trace, rle, k, jB, oB, act_ranges)

        sel = active & (samp_a > 0.0)
        n_work = int(np.count_nonzero(sel))
        if counters is not None:
            counters.resample_ops += n_work
            counters.composite_ops += n_work
        if n_work == 0:
            continue

        trans = 1.0 - opac_row[u_lo:u_hi][sel]
        col_row[u_lo:u_hi][sel] += trans * samp_a[sel] * samp_c[sel]
        opac_row[u_lo:u_hi][sel] += trans * samp_a[sel]

        if trace is not None:
            # Read-modify-write of the image row, one range per run of
            # pixels actually composited (non-opaque pixels under
            # non-transparent voxel runs) — saturated interiors and
            # empty gaps are both skipped by the lockstep traversal.
            spad = np.zeros(L + 2, dtype=np.int8)
            spad[1:-1] = sel
            d_sel = np.diff(spad)
            for a, b in zip(np.nonzero(d_sel == 1)[0], np.nonzero(d_sel == -1)[0]):
                start, nbytes = img.pixel_byte_range(v, u_lo + int(a), u_lo + int(b))
                trace.access(Region.INTERMEDIATE, start, nbytes, write=False)
                trace.access(Region.INTERMEDIATE, start, nbytes, write=True)

        # Whole-scanline early termination: sound only if every pixel
        # any *remaining* slice could touch is saturated.
        rem_lo = min(u_lo, last_lo)
        rem_hi = max(u_hi, last_hi)
        if np.all(opac_row[rem_lo:rem_hi] >= thr):
            break

    return counters


def nonempty_scanline_bounds(
    rle: RLEVolume, fact: ShearWarpFactorization
) -> tuple[int, int]:
    """Return ``(v_lo, v_hi)``: the scanline range actually worth compositing.

    The new parallel algorithm's "first optimization" (section 4.2): the
    top and bottom of the intermediate image overlap only empty volume,
    so it determines the written region first and composites (and
    profiles) only that.  The old algorithm blindly walks all scanlines.

    O(nk) per view: ``j + v_off[k]`` rounds monotonically in ``j``, so
    its extremes over every non-empty ``(k, j)`` are those over each
    non-empty slice's first and last non-empty ``j``
    (:attr:`RLEVolume.nonempty_rows`, cached per encoding).
    """
    ks, j_first, j_last = rle.nonempty_rows
    if len(ks) == 0:
        return 0, 0
    _, v_off = fact.slice_offsets(ks)
    v_lo = int(np.floor((j_first + v_off).min()))
    v_hi = int(np.ceil((j_last + v_off).max() + 1.0)) + 1
    return max(0, v_lo), min(fact.intermediate_shape[0], v_hi)


def composite_frame(
    img: IntermediateImage,
    rle: RLEVolume,
    fact: ShearWarpFactorization,
    counters: WorkCounters | None = None,
    trace: TraceSink | None = None,
    restrict_bounds: bool = False,
) -> IntermediateImage:
    """Serially composite a whole frame (all scanlines, in order)."""
    if restrict_bounds:
        v_lo, v_hi = nonempty_scanline_bounds(rle, fact)
    else:
        v_lo, v_hi = 0, img.n_v
    for v in range(v_lo, v_hi):
        composite_image_scanline(img, v, rle, fact, counters=counters, trace=trace)
    return img
