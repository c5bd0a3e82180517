"""Block compositing kernel: one processor's contiguous scanline band.

The paper's new algorithm hands each processor one *contiguous block* of
intermediate-image scanlines.  The reference kernel
(:func:`repro.render.compositing.composite_image_scanline`) walks that
block one scanline at a time — faithful and instrumentable, but the
per-(scanline, slice) Python overhead dominates wall-clock time on a
real host.  This kernel composites the whole band per slice instead:

* **slice-major traversal** — the volume is streamed once, front to
  back, exactly the order the real renderer (and the trace replay)
  uses; each slice's decoded plane comes from the RLE volume's
  decoded-slice LRU so animation frames and sibling workers stop
  re-decoding the same runs, and a miss is one vectorized pass over
  the slice's runs (``RLEVolume.decode_slice_padded``), not a
  per-scanline walk;
* **constant ``(fu, fj)`` per slice** — because ``k`` is the principal
  axis, the bilinear fractions are constant across a slice's entire
  footprint, so resampling a band is four shifted-plane multiply-adds
  (the structure the original VolPack inner loop exploits);
* **per-row early termination** — an active-row mask retires a scanline
  from the remaining slices the moment the reference kernel's
  whole-scanline termination test would have fired for it, so saturated
  rows stop costing anything.

The kernel performs the reference kernel's per-pixel arithmetic in the
same operand order and precision, so its output is **bit-identical** to
looping ``composite_image_scanline`` over the band (asserted by
``tests/test_block_kernel.py``), and its optional work counters (both
aggregate and per-row) match the reference counts exactly.  What it does
*not* produce is a memory trace — the scanline kernel remains the
instrumented reference for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..transforms.factorization import ShearWarpFactorization
from ..volume.rle import RLEVolume
from .image import IntermediateImage
from .instrument import WorkCounters

__all__ = ["composite_scanline_block", "BlockRowCounters"]

#: Counter fields the compositing kernels accumulate (the warp/ray
#: fields of :class:`WorkCounters` stay zero here).
_ROW_FIELDS = (
    "loop_iters",
    "pixels_skipped",
    "run_entries",
    "resample_ops",
    "composite_ops",
)


@dataclass
class BlockRowCounters:
    """Per-scanline work counts accumulated by the block kernel.

    Row ``v`` of the band maps to index ``v - v_lo`` of each array.  The
    per-row values equal what per-scanline :class:`WorkCounters` would
    record — this is what lets the parallel renderers keep building
    per-scanline cost profiles while compositing through the fast path.
    """

    v_lo: int
    v_hi: int
    loop_iters: np.ndarray = field(init=False)
    pixels_skipped: np.ndarray = field(init=False)
    run_entries: np.ndarray = field(init=False)
    resample_ops: np.ndarray = field(init=False)
    composite_ops: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = max(0, self.v_hi - self.v_lo)
        for name in _ROW_FIELDS:
            setattr(self, name, np.zeros(n, dtype=np.int64))

    def row(self, v: int) -> WorkCounters:
        """Counters of scanline ``v`` as a :class:`WorkCounters`."""
        i = v - self.v_lo
        return WorkCounters(
            **{name: int(getattr(self, name)[i]) for name in _ROW_FIELDS}
        )

    def aggregate(self, into: WorkCounters | None = None) -> WorkCounters:
        """Band totals, optionally accumulated into an existing object."""
        out = into if into is not None else WorkCounters()
        for name in _ROW_FIELDS:
            setattr(out, name, getattr(out, name) + int(getattr(self, name).sum()))
        return out


def composite_scanline_block(
    img: IntermediateImage,
    v_lo: int,
    v_hi: int,
    rle: RLEVolume,
    fact: ShearWarpFactorization,
    counters: WorkCounters | None = None,
    row_counters: BlockRowCounters | None = None,
) -> IntermediateImage:
    """Composite intermediate-image scanlines ``[v_lo, v_hi)`` over all slices.

    Bit-identical to calling ``composite_image_scanline`` for each ``v``
    in the range, including the optional counters (``counters`` receives
    the band aggregate; ``row_counters`` the per-scanline breakdown).
    """
    ni, nj, nk = rle.shape_ijk
    n_v, n_u = img.shape
    v_lo = max(0, int(v_lo))
    v_hi = min(n_v, int(v_hi))
    if row_counters is not None and (row_counters.v_lo, row_counters.v_hi) != (v_lo, v_hi):
        raise ValueError(
            f"row_counters cover [{row_counters.v_lo}, {row_counters.v_hi}), "
            f"kernel composites [{v_lo}, {v_hi})"
        )
    if v_hi <= v_lo:
        return img
    H = v_hi - v_lo
    thr = img.opaque_threshold
    opac = img.opacity
    col = img.color

    want = counters is not None or row_counters is not None
    rc = row_counters if row_counters is not None else (
        BlockRowCounters(v_lo, v_hi) if want else None
    )

    # Per-row state: scanlines still inside the reference kernel's slice
    # loop.  A row leaves when its whole-scanline termination test fires.
    in_loop = np.ones(H, dtype=bool)
    vs = np.arange(v_lo, v_hi, dtype=np.float64)

    # Span of the last slice traversed — the reference kernel's sound
    # early-termination window (see composite_image_scanline).
    u_off_last, _ = fact.slice_offsets(int(fact.k_front_to_back[-1]))
    last_lo = max(0, int(np.ceil(float(u_off_last) - 1.0)))
    last_hi = min(n_u, int(np.floor(float(u_off_last) + ni - 1e-9)) + 1)

    run_count = rle.run_count
    vox_count = rle.vox_count

    for k in fact.k_front_to_back:
        k = int(k)
        if not in_loop.any():
            break
        if want:
            rc.loop_iters[in_loop] += 1
        u_off, v_off = fact.slice_offsets(k)
        u_off = float(u_off)
        v_off = float(v_off)

        # Per-row (jA, fj): the same float64 arithmetic as the reference
        # kernel, evaluated for the whole band at once.
        j_f = vs - v_off
        jA = np.floor(j_f)
        fj = j_f - jA
        jAi = jA.astype(np.int64)
        useA = (jAi >= 0) & (jAi < nj)
        useB = (jAi >= -1) & (jAi < nj - 1) & (fj > 0.0)
        rows = in_loop & (useA | useB)
        if not rows.any():
            continue

        # Horizontal footprint of this slice (constant across the band).
        u_lo = max(0, int(np.ceil(u_off - 1.0)))
        u_hi = min(n_u, int(np.floor(u_off + ni - 1e-9)) + 1)
        if u_hi <= u_lo:
            continue
        L = u_hi - u_lo
        m = int(np.floor(u_lo - u_off))
        fu = (u_lo - u_off) - m

        O = opac[v_lo:v_hi, u_lo:u_hi]
        C = col[v_lo:v_hi, u_lo:u_hi]

        # Rows with any non-saturated pixel left in the span.
        r1 = np.nonzero(rows)[0]
        act = O[r1] < thr
        n_active = act.sum(axis=1)
        if want:
            rc.pixels_skipped[r1] += L - n_active
        live = n_active > 0
        if not live.any():
            continue
        r2 = r1[live]
        act = act[live]

        # Runs/voxels of the (at most two) contributing voxel scanlines.
        jA2 = jAi[r2]
        uA = useA[r2]
        uB = useB[r2]
        rowA = np.where(uA, jA2, 0)
        rowB = np.where(uB, jA2 + 1, 0)
        if want:
            rc.run_entries[r2] += (
                np.where(uA, run_count[k, rowA], 0)
                + np.where(uB, run_count[k, rowB], 0)
            )
        nvox = np.where(uA, vox_count[k, rowA], 0) + np.where(uB, vox_count[k, rowB], 0)
        occupied = nvox > 0
        if not occupied.any():
            continue
        r3 = r2[occupied]
        act = act[occupied]
        jA3 = jAi[r3]

        # Bilinear resample: gather the two contributing plane rows per
        # scanline (an out-of-range row lands on the transparent pad) and
        # blend with the reference kernel's exact weights and operand
        # order — row A/B with (1 - fu, fu), then (wA, wB).
        p_o, p_c = rle.decode_slice_padded(k)
        colA, colB = m + 1, m + 2 + L
        gAo = p_o[jA3 + 1, colA:colB]
        gBo = p_o[jA3 + 2, colA:colB]
        gAc = p_c[jA3 + 1, colA:colB]
        gBc = p_c[jA3 + 2, colA:colB]
        one_fu = 1.0 - fu
        aA = gAo[:, :-1] * one_fu + gAo[:, 1:] * fu
        cA = gAc[:, :-1] * one_fu + gAc[:, 1:] * fu
        aB = gBo[:, :-1] * one_fu + gBo[:, 1:] * fu
        cB = gBc[:, :-1] * one_fu + gBc[:, 1:] * fu
        # The reference kernel's weights are Python floats, which NumPy's
        # weak-scalar promotion rounds to float32 at the multiply; doing
        # the same rounding here (float64 subtraction first, then the
        # cast) keeps the whole blend in float32 and bit-identical.
        fj3 = fj[r3]
        wA = np.where(useA[r3], 1.0 - fj3, 0.0).astype(np.float32)[:, None]
        wB = np.where(useB[r3], fj3, 0.0).astype(np.float32)[:, None]
        samp_a = wA * aA + wB * aB
        samp_c = wA * cA + wB * cB

        sel = act & (samp_a > 0.0)
        n_work = sel.sum(axis=1)
        if want:
            rc.resample_ops[r3] += n_work
            rc.composite_ops[r3] += n_work
        worked = n_work > 0
        if not worked.any():
            continue
        r4 = r3[worked]

        # Over-composite the selected pixels in place.  The flattened
        # boolean selections enumerate the same (row, pixel) pairs in the
        # same row-major order, so the float64 intermediate products and
        # the final float32 rounding match the reference kernel exactly.
        sel4 = sel[worked]
        full = np.zeros((H, L), dtype=bool)
        full[r4] = sel4
        vals_a = samp_a[worked][sel4]
        vals_c = samp_c[worked][sel4]
        trans = 1.0 - O[full]
        C[full] += trans * vals_a * vals_c
        O[full] += trans * vals_a

        # Whole-scanline early termination, per row: sound only if every
        # pixel any remaining slice could touch is saturated.
        rem_lo = min(u_lo, last_lo)
        rem_hi = max(u_hi, last_hi)
        saturated = np.all(opac[v_lo:v_hi, rem_lo:rem_hi][r4] >= thr, axis=1)
        if saturated.any():
            in_loop[r4[saturated]] = False

    if counters is not None:
        rc.aggregate(into=counters)
    return img
