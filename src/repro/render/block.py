"""Block compositing kernel: one processor's contiguous scanline band.

The paper's new algorithm hands each processor one *contiguous block* of
intermediate-image scanlines.  The reference kernel
(:func:`repro.render.compositing.composite_image_scanline`) walks that
block one scanline at a time — faithful and instrumentable, but the
per-(scanline, slice) Python overhead dominates wall-clock time on a
real host.  This kernel composites the whole band per slice instead:

* **slice-major traversal** — the volume is streamed once, front to
  back, exactly the order the real renderer (and the trace replay)
  uses; each slice's decoded planes come from the RLE volume's
  decoded-slice LRU (``RLEVolume.slice_entry``) so animation frames and
  sibling workers stop re-decoding the same runs;
* **candidate-sparse resampling** — shear-warp is fast because it walks
  voxel runs and non-opaque pixel runs in lockstep, and so does this
  kernel: per slice it resamples only the *candidates*, the pixels
  still unsaturated (one bool band per call, updated where a slice
  composites) **and** under the slice's bilinear footprint mask (cached
  beside the planes: a corner of the 2x2 neighbourhood is
  non-transparent).  Any other pixel resamples to exactly 0, which the
  reference kernel drops at ``samp_a > 0``.  ``(fu, fj)`` are constant
  per (slice, row) because ``k`` is the principal axis, so the
  candidates' four corners are gathered by flat index and blended as
  1-D arrays — a few percent of the ``rows x span`` footprint;
* **per-row early termination** — an active-row mask retires a scanline
  the moment the reference kernel's whole-scanline termination test
  would have fired for it.  Only rows that saturated a pixel in the
  current slice are tested: a row that composited was live, so without
  a new saturation it still holds an unsaturated pixel in the window,
  and a row that composited nothing is not tested by the reference
  either (it ``continue``s first);
* **slice geometry hoisted out of the loop** — the slice offsets, the
  per-(slice, row) ``jA / fj / useA / useB`` with their blend weights
  and run/voxel counts, and the per-slice ``u_lo / u_hi / m / fu`` are
  computed as arrays once per call (the same float64 elementwise
  operations, hence the same bits), and a slice with no candidate row in
  the band is skipped outright.

The kernel performs the reference kernel's per-pixel arithmetic in the
same operand order and precision, so its output is **bit-identical** to
looping ``composite_image_scanline`` over the band (asserted by
``tests/test_block_kernel.py``).  It counts no work and produces no
memory trace — the scanline kernel remains the instrumented reference
for the simulator.
"""

from __future__ import annotations

import numpy as np

from ..transforms.factorization import ShearWarpFactorization
from ..volume.rle import RLEVolume
from .image import IntermediateImage

__all__ = ["composite_scanline_block"]


def composite_scanline_block(
    img: IntermediateImage,
    v_lo: int,
    v_hi: int,
    rle: RLEVolume,
    fact: ShearWarpFactorization,
) -> IntermediateImage:
    """Composite intermediate-image scanlines ``[v_lo, v_hi)`` over all slices.

    Bit-identical to calling ``composite_image_scanline`` for each ``v``
    in the range.
    """
    ni, nj, nk = rle.shape_ijk
    n_v, n_u = img.shape
    v_lo = max(0, int(v_lo))
    v_hi = min(n_v, int(v_hi))
    if v_hi <= v_lo:
        return img
    H = v_hi - v_lo
    thr = img.opaque_threshold
    opac = img.opacity
    col = img.color

    # Per-row state: scanlines still inside the reference kernel's slice
    # loop.  A row leaves when its whole-scanline termination test fires.
    in_loop = np.ones(H, dtype=bool)
    vs = np.arange(v_lo, v_hi, dtype=np.float64)

    # Slice geometry, hoisted: everything below is a function of (slice)
    # or (slice, row) only, so it is evaluated once per call for all nk
    # slices — the reference kernel's float64 operations, elementwise
    # over arrays, hence the same values bit for bit.  Row ``p`` of each
    # array belongs to the ``p``-th slice in front-to-back order.
    vox_count = rle.vox_count
    ks = np.asarray(fact.k_front_to_back, dtype=np.int64)
    u_offs, v_offs = fact.slice_offsets(ks)
    # Per-(slice, row) vertical resampling: (jA, fj) and which of the two
    # contributing voxel scanlines exist.
    j_f = vs[None, :] - v_offs[:, None]
    jA = np.floor(j_f)
    fj = j_f - jA
    jAi = jA.astype(np.int64)
    useA = (jAi >= 0) & (jAi < nj)
    useB = (jAi >= -1) & (jAi < nj - 1) & (fj > 0.0)
    # The reference kernel's weights are Python floats, which NumPy's
    # weak-scalar promotion rounds to float32 at the multiply; doing the
    # same rounding here (float64 subtraction first, then the cast)
    # keeps the whole blend in float32 and bit-identical.
    wA_all = np.where(useA, 1.0 - fj, 0.0).astype(np.float32)
    wB_all = np.where(useB, fj, 0.0).astype(np.float32)
    # Per-slice horizontal footprint (constant across the band) and the
    # bilinear column fraction.
    u_lo_all = np.maximum(0, np.ceil(u_offs - 1.0).astype(np.int64))
    u_hi_all = np.minimum(n_u, np.floor(u_offs + ni - 1e-9).astype(np.int64) + 1)
    m_all = np.floor(u_lo_all - u_offs).astype(np.int64)
    fu_all = (u_lo_all - u_offs) - m_all
    # Rows a slice has to look at: those with voxels to resample in the
    # (at most two) contributing voxel scanlines.
    k_col = ks[:, None]
    gate = (
        np.where(useA, vox_count[k_col, np.where(useA, jAi, 0)], 0)
        + np.where(useB, vox_count[k_col, np.where(useB, jAi + 1, 0)], 0)
    ) > 0
    # Slices that can touch this band at all; the rest are never entered.
    touch = np.nonzero(gate.any(axis=1) & (u_hi_all > u_lo_all))[0]
    # Python scalars for the loop: a NumPy float64 scalar is not "weak"
    # and would promote the float32 resampling below to float64.
    ks_l, u_lo_l, u_hi_l = ks.tolist(), u_lo_all.tolist(), u_hi_all.tolist()
    m_l, fu_l = m_all.tolist(), fu_all.tolist()

    # Span of the last slice traversed — the reference kernel's sound
    # early-termination window (see composite_image_scanline).
    last_lo, last_hi = u_lo_l[-1], u_hi_l[-1]

    # Pixels still under the opacity threshold: one bool band per call,
    # kept current at the pixels a slice composites (nothing else in the
    # band changes), so no slice compares float opacities again.
    unsat = opac[v_lo:v_hi] < thr
    stride = ni + 2  # row stride of a padded plane, for flat corner indices

    for p in touch.tolist():
        rows = in_loop & gate[p]
        if not rows.any():
            continue
        u_lo, u_hi = u_lo_l[p], u_hi_l[p]
        L = u_hi - u_lo
        col0, fu = m_l[p] + 1, fu_l[p]  # col0: padded column under u_lo

        # Rows with any non-saturated pixel left in the span.
        r1 = np.flatnonzero(rows)
        act = unsat[r1, u_lo:u_hi]
        keep = act.any(axis=1)
        if not keep.any():
            continue
        r3 = r1[keep]
        row0 = jAi[p, r3] + 1  # padded-plane row of voxel scanline jA

        # Candidates: unsaturated pixels with a non-transparent corner.
        p_o, p_c, foot = rle.slice_entry(ks_l[p])
        at = np.flatnonzero(act[keep] & foot[row0, col0 : col0 + L])
        if at.size == 0:
            continue
        ri, ci = np.divmod(at, L)
        rr = r3[ri]

        # Bilinear resample at the candidates: the four corners by flat
        # index (an out-of-range row or column lands on the transparent
        # pad), blended with the reference kernel's exact weights and
        # operand order — row A/B with (1 - fu, fu), then (wA, wB) — in
        # float32, elementwise.
        c00 = (row0 * stride + col0)[ri] + ci
        c01, c10, c11 = c00 + 1, c00 + stride, c00 + (stride + 1)
        one_fu = 1.0 - fu
        wA, wB = wA_all[p, rr], wB_all[p, rr]
        samp_a, samp_c = (
            wA * (plane.take(c00) * one_fu + plane.take(c01) * fu)
            + wB * (plane.take(c10) * one_fu + plane.take(c11) * fu)
            for plane in (p_o, p_c)
        )

        sel = samp_a > 0.0
        rr = rr[sel]
        if rr.size == 0:
            continue

        # Over-composite in place, by (row, column) index into the image
        # planes themselves: a pixel appears once per slice, and nothing
        # is flattened (``reshape(-1)`` of a strided plane is a copy).
        uu = ci[sel] + u_lo
        pix = (rr + v_lo, uu)
        old_o = opac[pix]
        add_o = (1.0 - old_o) * samp_a[sel]
        col[pix] += add_o * samp_c[sel]
        new_o = old_o + add_o
        opac[pix] = new_o

        # Whole-scanline early termination, on the rows that saturated a
        # pixel here: sound only if every pixel any remaining slice could
        # touch is saturated.
        crossed = new_o >= thr
        if crossed.any():
            rr = rr[crossed]
            unsat[rr, uu[crossed]] = False
            hit = np.flatnonzero(np.bincount(rr, minlength=H))
            window = slice(min(u_lo, last_lo), max(u_hi, last_hi))
            gone = hit[~unsat[hit, window].any(axis=1)]
            in_loop[gone] = False
            if not in_loop.any():
                break
    return img
