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
  rows stop costing anything;
* **slice geometry hoisted out of the loop** — the slice offsets, the
  per-(slice, row) ``jA / fj / useA / useB`` with their blend weights
  and run/voxel counts, and the per-slice ``u_lo / u_hi / m / fu`` are
  computed as arrays once per call (the same float64 elementwise
  operations, hence the same bits), and a slice with no candidate row in
  the band is skipped outright.  What is left per slice is the resample
  and the composite themselves, which is what keeps a band split into a
  few pool chunks close to the cost of the whole-band call.

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

    # Slice geometry, hoisted: everything below is a function of (slice)
    # or (slice, row) only, so it is evaluated once per call for all nk
    # slices — the reference kernel's float64 operations, elementwise
    # over arrays, hence the same values bit for bit.  Row ``p`` of each
    # array belongs to the ``p``-th slice in front-to-back order.
    run_count = rle.run_count
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
    cand = useA | useB
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
    # Runs/voxels of the (at most two) contributing voxel scanlines.
    k_col = ks[:, None]
    rowA = np.where(useA, jAi, 0)
    rowB = np.where(useB, jAi + 1, 0)
    occupied_all = (
        np.where(useA, vox_count[k_col, rowA], 0)
        + np.where(useB, vox_count[k_col, rowB], 0)
    ) > 0
    if want:
        runs_all = (
            np.where(useA, run_count[k_col, rowA], 0)
            + np.where(useB, run_count[k_col, rowB], 0)
        )
    # Rows a slice has to look at: the reference kernel counts skipped
    # pixels on every candidate row, so with counters on the gate is
    # ``cand``; without them only rows with voxels to resample matter
    # (a subset of ``cand``, so the composited pixels are the same).
    gate = cand if want else occupied_all
    # Slices that can touch this band at all; the rest cost one counter
    # bump (below) instead of a pass through the loop body.
    touch = np.nonzero(gate.any(axis=1) & (u_hi_all > u_lo_all))[0]
    # Python scalars for the loop: a NumPy float64 scalar is not "weak"
    # and would promote the float32 resampling below to float64.
    ks_l, u_lo_l, u_hi_l = ks.tolist(), u_lo_all.tolist(), u_hi_all.tolist()
    m_l, fu_l = m_all.tolist(), fu_all.tolist()

    # Span of the last slice traversed — the reference kernel's sound
    # early-termination window (see composite_image_scanline).
    last_lo, last_hi = u_lo_l[-1], u_hi_l[-1]

    # Slices the reference loop has entered so far (it counts a
    # ``loop_iters`` for every in-loop row of every slice, touching or
    # not; in_loop only changes inside touching slices, so the skipped
    # ones are settled in one add at the next touching slice).
    seen = 0
    for p in touch.tolist():
        if not in_loop.any():
            break
        if want:
            rc.loop_iters[in_loop] += p + 1 - seen
        seen = p + 1
        k = ks_l[p]
        rows = in_loop & gate[p]
        if not rows.any():
            continue

        u_lo, u_hi = u_lo_l[p], u_hi_l[p]
        L = u_hi - u_lo
        m = m_l[p]
        fu = fu_l[p]

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

        if want:
            rc.run_entries[r2] += runs_all[p, r2]
        occupied = occupied_all[p, r2]
        if not occupied.any():
            continue
        r3 = r2[occupied]
        act = act[occupied]
        jA3 = jAi[p, r3]

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
        wA = wA_all[p, r3][:, None]
        wB = wB_all[p, r3][:, None]
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

    if want:
        # Non-touching slices behind the last touching one.
        rc.loop_iters[in_loop] += len(ks_l) - seen
    if counters is not None:
        rc.aggregate(into=counters)
    return img
