"""Golden-equivalence tests: block kernel vs the per-scanline reference.

The block kernel's contract is *bit-identical* output (np.array_equal,
not allclose) and identical work counters for any contiguous scanline
band, so everything built on it — the fast whole-frame path and the
pools' workers — inherits the reference semantics, and the simulator's
traced frames count the work that runs.  Also covers the decoded-slice LRU and the
persistent multiprocessing pool.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datasets import ct_head, mri_brain, solid_sphere
from repro.render import (
    BlockRowCounters,
    FinalImage,
    IntermediateImage,
    ShearWarpRenderer,
    WorkCounters,
    composite_image_scanline,
    composite_scanline_block,
    warp_frame,
    warp_frame_fast,
)
from repro.render.image import BYTES_PER_PIXEL
from repro.render.instrument import Region, TraceSink
from repro.volume import (
    TransferFunction,
    binary_transfer_function,
    ct_transfer_function,
    mri_transfer_function,
)
from repro.volume.rle import DEFAULT_SLICE_CACHE_CAPACITY, SliceCache

COUNTER_FIELDS = (
    "loop_iters",
    "pixels_skipped",
    "run_entries",
    "resample_ops",
    "composite_ops",
)


@pytest.fixture(scope="module")
def mri_renderer():
    return ShearWarpRenderer(mri_brain((24, 24, 18)), mri_transfer_function())


@pytest.fixture(scope="module")
def ct_renderer():
    # The CT phantom's dense bone shells saturate pixels quickly — the
    # early-termination-heavy case.
    return ShearWarpRenderer(ct_head((22, 22, 22)), ct_transfer_function())


def reference_composite(rle, fact, v_lo=None, v_hi=None):
    img = IntermediateImage(fact.intermediate_shape)
    counters = WorkCounters()
    lo = 0 if v_lo is None else v_lo
    hi = img.n_v if v_hi is None else v_hi
    for v in range(lo, hi):
        composite_image_scanline(img, v, rle, fact, counters=counters)
    return img, counters


class TestGoldenEquivalence:
    @pytest.mark.parametrize("angles", [(20, 30, 0), (0, 0, 0), (-35, 55, 10)])
    def test_full_frame_mri(self, mri_renderer, angles):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(*angles))
        rle = mri_renderer.rle_for(fact)
        ref, ref_c = reference_composite(rle, fact)
        got = IntermediateImage(fact.intermediate_shape)
        got_c = WorkCounters()
        composite_scanline_block(got, 0, got.n_v, rle, fact, counters=got_c)
        assert np.array_equal(ref.opacity, got.opacity)
        assert np.array_equal(ref.color, got.color)
        for f in COUNTER_FIELDS:
            assert getattr(ref_c, f) == getattr(got_c, f), f

    @pytest.mark.parametrize("angles", [(35, -25, 5), (10, 80, 0)])
    def test_full_frame_ct_early_termination(self, ct_renderer, angles):
        fact = ct_renderer.factorize_view(ct_renderer.view_from_angles(*angles))
        rle = ct_renderer.rle_for(fact)
        ref, ref_c = reference_composite(rle, fact)
        got = IntermediateImage(fact.intermediate_shape)
        got_c = WorkCounters()
        composite_scanline_block(got, 0, got.n_v, rle, fact, counters=got_c)
        assert np.array_equal(ref.opacity, got.opacity)
        assert np.array_equal(ref.color, got.color)
        # Early termination must actually fire for this to test anything.
        assert ref_c.pixels_skipped > 0
        for f in COUNTER_FIELDS:
            assert getattr(ref_c, f) == getattr(got_c, f), f

    def test_opaque_sphere_terminates_rows(self):
        r = ShearWarpRenderer(solid_sphere((18, 18, 18)), binary_transfer_function(128))
        fact = r.factorize_view(r.view_from_angles(10, 20, 0))
        rle = r.rle_for(fact)
        ref, _ = reference_composite(rle, fact)
        got = IntermediateImage(fact.intermediate_shape)
        composite_scanline_block(got, 0, got.n_v, rle, fact)
        assert np.array_equal(ref.opacity, got.opacity)
        assert np.array_equal(ref.color, got.color)
        assert got.opacity.max() >= got.opaque_threshold  # rows did saturate

    def test_partition_subranges_compose(self, mri_renderer):
        """Compositing a frame as disjoint bands == compositing it whole."""
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        ref, _ = reference_composite(rle, fact)
        got = IntermediateImage(fact.intermediate_shape)
        n_v = got.n_v
        cuts = [0, n_v // 4 + 1, n_v // 2, n_v - 3, n_v]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            composite_scanline_block(got, lo, hi, rle, fact)
        assert np.array_equal(ref.opacity, got.opacity)
        assert np.array_equal(ref.color, got.color)

    def test_band_matches_scanline_loop_on_same_band(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(-15, 40, 10))
        rle = mri_renderer.rle_for(fact)
        n_v = fact.intermediate_shape[0]
        lo, hi = n_v // 3, 2 * n_v // 3
        ref, ref_c = reference_composite(rle, fact, lo, hi)
        got = IntermediateImage(fact.intermediate_shape)
        got_c = WorkCounters()
        composite_scanline_block(got, lo, hi, rle, fact, counters=got_c)
        assert np.array_equal(ref.opacity, got.opacity)
        for f in COUNTER_FIELDS:
            assert getattr(ref_c, f) == getattr(got_c, f), f

    def test_per_row_counters_match_reference(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        n_v = fact.intermediate_shape[0]
        rc = BlockRowCounters(0, n_v)
        img = IntermediateImage(fact.intermediate_shape)
        composite_scanline_block(img, 0, n_v, rle, fact, row_counters=rc)
        ref = IntermediateImage(fact.intermediate_shape)
        for v in range(n_v):
            c = WorkCounters()
            composite_image_scanline(ref, v, rle, fact, counters=c)
            row = rc.row(v)
            for f in COUNTER_FIELDS:
                assert getattr(c, f) == getattr(row, f), (v, f)

    def test_row_counters_range_must_match(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        img = IntermediateImage(fact.intermediate_shape)
        with pytest.raises(ValueError, match="row_counters"):
            composite_scanline_block(
                img, 0, img.n_v, rle, fact, row_counters=BlockRowCounters(1, img.n_v)
            )

    def test_band_outside_volume_footprint(self, mri_renderer):
        """Rows no slice projects onto: every slice is skipped outright,
        nothing is written, and the counters still read what the
        reference loop counts (one ``loop_iters`` per slice per row)."""
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        n_v, n_u = fact.intermediate_shape
        lo, hi = n_v + 2, n_v + 7  # below the sheared footprint
        ref = IntermediateImage((n_v + 8, n_u))
        got = IntermediateImage((n_v + 8, n_u))
        rc = BlockRowCounters(lo, hi)
        composite_scanline_block(got, lo, hi, rle, fact, row_counters=rc)
        assert not got.opacity.any() and not got.color.any()
        for v in range(lo, hi):
            c = WorkCounters()
            composite_image_scanline(ref, v, rle, fact, counters=c)
            assert c.loop_iters == rle.shape_ijk[2]
            for f in COUNTER_FIELDS:
                assert getattr(c, f) == getattr(rc.row(v), f), (v, f)
        # A band straddling the footprint's edge agrees with the loop too.
        composite_scanline_block(got, n_v - 3, n_v + 8, rle, fact)
        for v in range(n_v - 3, n_v + 8):
            composite_image_scanline(ref, v, rle, fact)
        assert np.array_equal(ref.opacity, got.opacity)
        assert np.array_equal(ref.color, got.color)

    @pytest.mark.parametrize("angles", [(0, 0, 0), (12, -9, 30)])
    def test_single_slice_volume(self, angles):
        """``nk = 1``: the first slice is also the last one traversed."""
        raw = np.zeros((14, 12, 1), dtype=np.uint8)
        raw[3:11, 2:9, 0] = 200
        r = ShearWarpRenderer(raw, binary_transfer_function(100))
        fact = r.factorize_view(r.view_from_angles(*angles))
        rle = r.rle_for(fact)
        assert rle.shape_ijk[2] == 1
        ref, ref_c = reference_composite(rle, fact)
        got = IntermediateImage(fact.intermediate_shape)
        got_c = WorkCounters()
        composite_scanline_block(got, 0, got.n_v, rle, fact, counters=got_c)
        assert got.opacity.any()
        assert np.array_equal(ref.opacity, got.opacity)
        assert np.array_equal(ref.color, got.color)
        for f in COUNTER_FIELDS:
            assert getattr(ref_c, f) == getattr(got_c, f), f

    def test_empty_band_is_noop(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        img = IntermediateImage(fact.intermediate_shape)
        composite_scanline_block(img, 5, 5, rle, fact)
        assert not img.opacity.any()


def _assert_same_frame(ref, ref_c, got, got_c):
    assert np.array_equal(ref.opacity, got.opacity)
    assert np.array_equal(ref.color, got.color)
    for f in COUNTER_FIELDS:
        assert getattr(ref_c, f) == getattr(got_c, f), f


def _assert_rows_match_reference(ref, got, rc, rle, fact):
    """Run the scanline reference over ``ref`` (the image ``got`` held
    before its block call) row by row: every row's counters and every
    pixel must equal what the block call left in ``rc`` and ``got``.
    Returns the reference's per-row counters."""
    rows = []
    for v in range(ref.n_v):
        rows.append(composite_image_scanline(ref, v, rle, fact, counters=WorkCounters()))
        for f in COUNTER_FIELDS:
            assert getattr(rows[v], f) == getattr(rc.row(v), f), (v, f)
    assert np.array_equal(ref.opacity, got.opacity)
    assert np.array_equal(ref.color, got.color)
    return rows


class _CompositedPixels(TraceSink):
    """Trace sink that keeps, per slice key, the intermediate-image
    pixels the scanline kernel wrote (its read-modify-write ranges)."""

    def __init__(self, n_u):
        self.n_u, self.k, self.pixels = n_u, None, []

    def set_key(self, key):
        self.k = key

    def access(self, region, start_byte, n_bytes, write=False):
        if region == Region.INTERMEDIATE and write:
            v, u = divmod(start_byte // BYTES_PER_PIXEL, self.n_u)
            self.pixels += [(self.k, v, u + d) for d in range(n_bytes // BYTES_PER_PIXEL)]


class TestCandidateSparseState:
    """The state the candidate-sparse resample adds to the kernel: the
    footprint mask it resamples under and the unsaturated-pixel band it
    carries through a call."""

    @settings(max_examples=20, deadline=None)
    @given(
        rx=st.floats(-60, 60), ry=st.floats(-180, 180), rz=st.floats(-45, 45),
        sparsity=st.sampled_from([0.5, 0.85]),
        seed=st.integers(0, 1000),
    )
    def test_footprint_covers_every_composited_pixel(self, rx, ry, rz, sparsity, seed):
        """Superset property: whatever the scanline reference composites
        in slice ``k`` lies under ``foot`` — so resampling only there
        cannot drop a sample."""
        rng = np.random.default_rng(seed)
        raw = rng.integers(120, 256, (9, 8, 7)).astype(np.uint8)
        raw[rng.random(raw.shape) < sparsity] = 0
        r = ShearWarpRenderer(raw, mri_transfer_function())
        fact = r.factorize_view(r.view_from_angles(rx, ry, rz))
        rle = r.rle_for(fact)
        img = IntermediateImage(fact.intermediate_shape)
        sink = _CompositedPixels(img.n_u)
        for v in range(img.n_v):
            composite_image_scanline(img, v, rle, fact, trace=sink)
        assert sink.pixels or not rle.voxel_opacity.size
        for k, v, u in sink.pixels:
            u_off, v_off = (float(x) for x in fact.slice_offsets(k))
            u_lo = max(0, int(np.ceil(u_off - 1.0)))
            m = int(np.floor(u_lo - u_off))
            jA = int(np.floor(v - v_off))
            assert rle.slice_entry(k)[2][jA + 1, m + 1 + u - u_lo], (k, v, u)

    @pytest.mark.parametrize("second", [(20, 30, 0), (-25, 50, 10), (15, 100, 0)])
    def test_call_on_a_finished_frame(self, ct_renderer, second):
        """The ``unsat`` band starts from whatever the image holds:
        compositing view B over a finished frame of view A (saturated
        and half-filled pixels) matches the scanline reference run over
        a copy, pixels and counters, whole and per row."""
        first = ct_renderer.factorize_view(ct_renderer.view_from_angles(20, 30, 0))
        fact = ct_renderer.factorize_view(ct_renderer.view_from_angles(*second))
        shape = tuple(max(a, b) for a, b in zip(first.intermediate_shape,
                                                fact.intermediate_shape))
        got = IntermediateImage(shape)
        composite_scanline_block(got, 0, got.n_v, ct_renderer.rle_for(first), first)
        assert (got.opacity >= got.opaque_threshold).any()
        assert ((got.opacity > 0) & (got.opacity < got.opaque_threshold)).any()
        ref = IntermediateImage.over(got.color.copy(), got.opacity.copy())
        rle = ct_renderer.rle_for(fact)
        rc = BlockRowCounters(0, got.n_v)
        composite_scanline_block(got, 0, got.n_v, rle, fact, row_counters=rc)
        _assert_rows_match_reference(ref, got, rc, rle, fact)
        assert rc.aggregate().pixels_skipped > 0

    @pytest.mark.parametrize("with_counters", [False, True])
    def test_saturated_band_costs_no_lookup(self, mri_renderer, with_counters):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        rng = np.random.default_rng(5)
        img = IntermediateImage(fact.intermediate_shape)
        img.color[:] = rng.random(img.shape)
        img.opacity[:] = rng.uniform(img.opaque_threshold, 1.0, img.shape)
        lo, hi = 2, img.n_v - 2
        ref = IntermediateImage.over(img.color.copy(), img.opacity.copy())
        ref_c, got_c = WorkCounters(), WorkCounters() if with_counters else None
        for v in range(lo, hi):
            composite_image_scanline(ref, v, rle, fact, counters=ref_c)
        before = (img.color.tobytes(), img.opacity.tobytes())
        cache = rle.slice_cache
        lookups = cache.hits + cache.misses
        composite_scanline_block(img, lo, hi, rle, fact, counters=got_c)
        assert cache.hits + cache.misses == lookups
        assert (img.color.tobytes(), img.opacity.tobytes()) == before
        if with_counters:
            _assert_same_frame(ref, ref_c, img, got_c)
            assert got_c.pixels_skipped > 0 and got_c.composite_ops == 0

    def test_idle_saturated_rows_stay_in_the_loop(self):
        """The termination test is for rows that just saturated a pixel.
        A row that was opaque on entry never works, so the reference
        never tests it: it keeps counting ``loop_iters`` and
        ``pixels_skipped`` to the last slice while its neighbours cross
        the threshold."""
        r = ShearWarpRenderer(solid_sphere((18, 18, 18)), binary_transfer_function(128))
        fact = r.factorize_view(r.view_from_angles(10, 20, 0))
        rle = r.rle_for(fact)
        got = IntermediateImage(fact.intermediate_shape)
        got.opacity[1::2] = 1.0
        ref = IntermediateImage.over(got.color.copy(), got.opacity.copy())
        rc = BlockRowCounters(0, got.n_v)
        composite_scanline_block(got, 0, got.n_v, rle, fact, row_counters=rc)
        rows = _assert_rows_match_reference(ref, got, rc, rle, fact)
        mid = got.n_v // 2 | 1
        # An idle row sat through every slice while its blank neighbour
        # composited and saturated pixels.
        assert rows[mid].loop_iters == rle.nk and rows[mid].composite_ops == 0
        assert rows[mid].pixels_skipped > 0
        assert rows[mid - 1].composite_ops > 0
        assert (got.opacity[mid - 1] >= got.opaque_threshold).any()

    def test_non_contiguous_planes(self, mri_renderer):
        """``IntermediateImage.over`` accepts any 2-D planes; writing by
        (row, column) index reaches a column-sliced view of a wider
        array, where a flattened alias would be a silent copy."""
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        ref, ref_c = reference_composite(rle, fact)
        n_v, n_u = fact.intermediate_shape
        wide_c = np.full((n_v, n_u + 7), -1.0, dtype=np.float32)
        wide_o = np.full((n_v, 2 * n_u + 3), -1.0, dtype=np.float32)
        color, opacity = wide_c[:, 3 : 3 + n_u], wide_o[:, 1 : 1 + 2 * n_u : 2]
        color[:] = 0.0
        opacity[:] = 0.0
        assert not color.flags.c_contiguous and not opacity.flags.c_contiguous
        got, got_c = IntermediateImage.over(color, opacity), WorkCounters()
        composite_scanline_block(got, 0, n_v, rle, fact, counters=got_c)
        _assert_same_frame(ref, ref_c, got, got_c)
        assert got.opacity.any()
        # Nothing outside the views was written.
        assert (wide_c[:, :3] == -1).all() and (wide_c[:, 3 + n_u :] == -1).all()
        assert (wide_o[:, 0::2] == -1).all()


class TestStrictSuperset:
    """Views where the footprint mask holds pixels that resample to 0
    (a zero bilinear weight), and the edge rows that read the pad."""

    @staticmethod
    def _dense(shape, seed=0):
        # Faint everywhere, so nothing saturates and every row of every
        # slice keeps working, edge rows included.
        rng = np.random.default_rng(seed)
        raw = rng.integers(1, 256, shape).astype(np.uint8)
        tf = TransferFunction(opacity_points=((0, 0.0), (1, 0.06), (255, 0.12)))
        return ShearWarpRenderer(raw, tf)

    @staticmethod
    def _check(r, angles):
        fact = r.factorize_view(r.view_from_angles(*angles))
        rle = r.rle_for(fact)
        ref = IntermediateImage(fact.intermediate_shape)
        got = IntermediateImage(fact.intermediate_shape)
        rc = BlockRowCounters(0, got.n_v)
        composite_scanline_block(got, 0, got.n_v, rle, fact, row_counters=rc)
        _assert_rows_match_reference(ref, got, rc, rle, fact)
        assert got.opacity.any()
        return rle, fact, got

    @pytest.mark.parametrize("angles", [(0, 0, 0), (0, 90, 0), (90, 0, 0), (0, 0, 90)])
    def test_axis_aligned_views_have_zero_weights(self, angles):
        """``fu == 0`` and ``fj == 0``: three of the four corners weigh
        nothing, so a candidate whose only non-transparent corner is one
        of those is resampled and then dropped at ``samp_a > 0``."""
        raw = np.zeros((9, 8, 7), dtype=np.uint8)
        raw[2:6, 3:6, 1:5] = 200
        r = ShearWarpRenderer(raw, mri_transfer_function())
        rle, fact, got = self._check(r, angles)
        # Exactly 0, or the 6e-17 that cos(90 deg) leaves: a fraction of
        # 0 on some slices and of 1 - 1 ulp on others.
        assert abs(fact.shear_i) < 1e-15 and abs(fact.shear_j) < 1e-15
        p_o, _, foot = rle.slice_entry(int(rle.vox_count.sum(axis=1).argmax()))
        # The mask is strictly larger than where the top-left corner —
        # the only one with weight at fu = fj = 0 — is non-transparent.
        assert (foot & ~(p_o[:-1, :-1] > 0)).any()

    @pytest.mark.parametrize("angles", [(7, 0, 0), (-7, 0, 0), (9, 80, 0), (12, -17, 3)])
    def test_edge_rows_read_the_pad(self, angles):
        """A dense volume sheared by a fraction of a voxel: the first
        image row of each slice has ``jA == -1`` (only row B exists) and
        the last ``jA == nj - 1`` (only row A), both non-transparent."""
        r = self._dense((8, 7, 6))
        rle, fact, got = self._check(r, angles)
        # Both edge cases occur: some row's jA is -1 with fj > 0, and
        # some row's jA is nj - 1, in a slice that projects onto them.
        _, v_off = fact.slice_offsets(np.arange(rle.nk))
        jA = np.floor(np.arange(got.n_v)[None, :] - v_off[:, None])
        assert (jA == -1).any() and (jA == rle.nj - 1).any()

    @pytest.mark.parametrize("shape", [(9, 1, 6), (1, 8, 6), (9, 7, 1), (1, 1, 5), (1, 1, 1)])
    @pytest.mark.parametrize("angles", [(0, 0, 0), (12, -9, 30), (25, 70, 0), (80, 10, 0)])
    def test_one_row_and_one_slice_volumes(self, shape, angles):
        self._check(self._dense(shape, seed=sum(shape)), angles)


class TestWarpFastBitExact:
    def test_fast_warp_matches_reference(self, mri_renderer):
        for angles in ((20, 30, 0), (-40, 15, 25)):
            fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(*angles))
            rle = mri_renderer.rle_for(fact)
            img = IntermediateImage(fact.intermediate_shape)
            composite_scanline_block(img, 0, img.n_v, rle, fact)
            ref = FinalImage(fact.final_shape)
            warp_frame(ref, img, fact)
            got = FinalImage(fact.final_shape)
            warp_frame_fast(got, img, fact)
            assert np.array_equal(ref.color, got.color)
            assert np.array_equal(ref.alpha, got.alpha)


class TestSliceCache:
    def test_hits_and_misses(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        rle.clear_slice_cache()
        cache = rle.slice_cache
        h0, m0 = cache.hits, cache.misses
        rle.decode_slice(0)
        rle.decode_slice(0)
        rle.decode_slice(1)
        assert cache.misses - m0 == 2
        assert cache.hits - h0 == 1
        assert len(cache) == 2

    def test_cached_planes_are_shared_and_readonly(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        a_o, a_c = rle.decode_slice_padded(2)
        b_o, b_c = rle.decode_slice_padded(2)
        assert a_o is b_o and a_c is b_c
        with pytest.raises(ValueError):
            a_o[0, 0] = 1.0
        # The unpadded view matches the padded interior.
        o, c = rle.decode_slice(2)
        assert np.array_equal(o, a_o[1:-1, 1:-1])
        assert np.array_equal(c, a_c[1:-1, 1:-1])

    def test_decode_matches_scanline_decode(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        k = rle.nk // 2
        o, c = rle.decode_slice(k)
        for j in range(rle.nj):
            ref_o, ref_c = rle.decode_scanline(k, j)
            assert np.array_equal(o[j], ref_o)
            assert np.array_equal(c[j], ref_c)

    def test_lru_eviction(self):
        cache = SliceCache(capacity=2)
        planes = {k: (np.zeros(1), np.zeros(1)) for k in range(3)}
        cache.put(0, planes[0])
        cache.put(1, planes[1])
        assert cache.get(0) is not None  # 0 now most-recent
        cache.put(2, planes[2])  # evicts 1
        assert cache.get(1) is None
        assert cache.get(0) is not None
        assert cache.get(2) is not None
        assert len(cache) == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SliceCache(capacity=0)
        assert SliceCache().capacity == DEFAULT_SLICE_CACHE_CAPACITY

    def test_capacity_covers_own_nk(self):
        """Regression: the front-to-back sweep is cyclic, so a fixed
        128-entry LRU gave an ``nk = 130`` encoding 0 hits — every
        plane was evicted just before its next use."""
        import pickle

        nk = DEFAULT_SLICE_CACHE_CAPACITY + 2
        vol = np.full((2, 2, nk), 200, np.uint8)
        rle = ShearWarpRenderer(vol, mri_transfer_function()).rle_by_axis[2]
        assert rle.nk == nk
        for sweep in range(2):
            h0, m0 = rle.slice_cache.hits, rle.slice_cache.misses
            for k in range(nk):
                rle.decode_slice_padded(k)
            hits, misses = rle.slice_cache.hits - h0, rle.slice_cache.misses - m0
            assert (hits, misses) == ((0, nk) if sweep == 0 else (nk, 0))
        # Both ways an encoding can come back without its cache.
        assert pickle.loads(pickle.dumps(rle)).slice_cache.capacity >= nk
        del rle.__dict__["_slice_cache"]
        assert rle.slice_cache.capacity >= nk
        # Small encodings keep the default.
        small = ShearWarpRenderer(mri_brain((8, 8, 8)), mri_transfer_function())
        assert small.rle_by_axis[0].slice_cache.capacity == DEFAULT_SLICE_CACHE_CAPACITY

    def test_decode_seconds_accumulate_on_misses_only(self):
        r = ShearWarpRenderer(mri_brain((12, 12, 10)), mri_transfer_function())
        rle = r.rle_by_axis[2]
        cache = rle.slice_cache
        assert cache.decode_s == 0.0
        rle.decode_slice_padded(0)
        after_miss = cache.decode_s
        assert after_miss > 0.0
        rle.decode_slice_padded(0)
        assert cache.decode_s == after_miss
        rle.clear_slice_cache()
        assert cache.decode_s == after_miss  # stats survive a clear

    def test_clear_invalidates(self, mri_renderer):
        fact = mri_renderer.factorize_view(mri_renderer.view_from_angles(20, 30, 0))
        rle = mri_renderer.rle_for(fact)
        rle.decode_slice(0)
        assert len(rle.slice_cache) > 0
        rle.clear_slice_cache()
        assert len(rle.slice_cache) == 0

    def test_axis_switch_clears_previous_axis(self, mri_renderer):
        # Straight-on view -> axis 2; rotate 90 degrees about y -> axis 0.
        fact_z = mri_renderer.factorize_view(mri_renderer.view_from_angles(0, 0, 0))
        rle_z = mri_renderer.rle_for(fact_z)
        rle_z.decode_slice(0)
        assert len(rle_z.slice_cache) > 0
        fact_x = mri_renderer.factorize_view(mri_renderer.view_from_angles(0, 90, 0))
        assert fact_x.axis != fact_z.axis
        mri_renderer.rle_for(fact_x)
        assert len(rle_z.slice_cache) == 0
        # Re-prime for other tests (module-scoped fixture).
        mri_renderer.rle_for(fact_z)

    def test_counters_exact_under_thread_hammer(self):
        """Regression: ``hits``/``misses`` are read-modify-write and
        lost updates when the threading backend's workers shared one
        cache without a lock.  Keys 0..3 fit capacity 4, so key 0 is
        never evicted — every ``get(0)`` is a hit and every ``get(99)``
        a miss, making the expected tallies exact."""
        import threading

        cache = SliceCache(capacity=4)
        plane = (np.zeros(1), np.zeros(1))
        cache.put(0, plane)
        n_threads, n_iter = 8, 1500
        barrier = threading.Barrier(n_threads)

        def hammer(tid):
            barrier.wait()  # maximize interleaving
            for i in range(n_iter):
                cache.get(0)
                cache.get(99)
                cache.put(1 + (tid + i) % 3, plane)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits == n_threads * n_iter
        assert cache.misses == n_threads * n_iter
        assert len(cache) <= 4

    def test_cache_survives_unpickling(self):
        import pickle

        vol = mri_brain((12, 12, 10))
        r = ShearWarpRenderer(vol, mri_transfer_function())
        rle = pickle.loads(pickle.dumps(r.rle_by_axis[2]))
        o, c = rle.decode_slice(0)  # lazily re-creates the cache
        assert rle.slice_cache.misses >= 1
        ref_o, ref_c = r.rle_by_axis[2].decode_slice(0)
        assert np.array_equal(o, ref_o)


class TestMPRenderPool:
    @pytest.fixture(scope="class")
    def renderer(self):
        return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())

    def test_animation_bit_exact(self, renderer):
        views = [renderer.view_from_angles(20, 30 + 5 * i, 0) for i in range(4)]
        refs = [renderer.render(v) for v in views]
        with repro.open_pool(renderer, n_procs=2) as pool:
            results = [pool.render(v) for v in views]
        for res, ref in zip(results, refs):
            assert np.array_equal(res.final.color, ref.final.color)
            assert np.array_equal(res.final.alpha, ref.final.alpha)
            assert np.array_equal(res.intermediate.opacity, ref.intermediate.opacity)

    def test_pipelined_submit_out_of_order_results(self, renderer):
        views = [renderer.view_from_angles(10, 15 * i, 0) for i in range(3)]
        refs = [renderer.render(v) for v in views]
        with repro.open_pool(renderer, n_procs=2) as pool:
            handles = [pool.submit(v) for v in views]
            out = {h: pool.result(h) for h in reversed(handles)}
        for h, ref in zip(handles, refs):
            assert np.array_equal(out[h].final.color, ref.final.color)

    def test_one_shot_wrapper_matches(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        ref = renderer.render(view)
        res = repro.render_frame(renderer, view, n_procs=2)
        assert np.array_equal(res.final.color, ref.final.color)
        assert res.n_procs == 2

    def test_validation(self, renderer):
        with pytest.raises(ValueError):
            repro.open_pool(renderer, n_procs=0)
        with pytest.raises(RuntimeError):
            with repro.open_pool(renderer, n_procs=1) as pool:
                pool.close()
                pool.submit(np.eye(4))


class TestBlockKernelFrames:
    """What the simulator replays is what runs: the core renderers
    record through the traced scanline kernel only, and every task they
    record counts exactly the work the block kernel does on its row."""

    @pytest.fixture(scope="class")
    def renderer(self):
        return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())

    @pytest.mark.parametrize("algorithm", ["old", "new"])
    def test_frames_match_scanline_kernel(self, renderer, algorithm):
        from repro.core.new_renderer import NewParallelShearWarp
        from repro.core.old_renderer import OldParallelShearWarp
        from repro.render.fast import render_fast

        cls = OldParallelShearWarp if algorithm == "old" else NewParallelShearWarp
        factory = cls(renderer, 2)
        for i in range(2):
            view = renderer.view_from_angles(20, 30 + 3 * i, 0)
            frame, fast = factory.render_frame(view), render_fast(renderer, view)
            assert np.array_equal(frame.final.color, fast.final.color)
            assert np.array_equal(frame.intermediate.opacity,
                                  fast.intermediate.opacity)
            assert any(t.trace for t in frame.composite_units.values())
            fact = frame.fact
            rows = BlockRowCounters(0, fact.intermediate_shape[0])
            composite_scanline_block(
                IntermediateImage(fact.intermediate_shape), 0,
                fact.intermediate_shape[0], renderer.rle_for(fact), fact,
                row_counters=rows,
            )
            for uid, rec in frame.composite_units.items():
                for f in COUNTER_FIELDS:
                    assert getattr(rec.counters, f) == getattr(rows.row(uid), f)

    def test_block_frames_refuse_simulation(self, renderer):
        """There are no block frames left to refuse: the renderers take
        no kernel, and the frames they record simulate."""
        from repro.core.frame import ParallelFrame
        from repro.core.new_renderer import NewParallelShearWarp
        from repro.core.old_renderer import OldParallelShearWarp
        from repro.memsim.machine import MACHINES
        from repro.parallel.execution import simulate_frame

        for cls in (OldParallelShearWarp, NewParallelShearWarp):
            with pytest.raises(TypeError, match="kernel"):
                cls(renderer, 2, kernel="block")
        assert "kernel" not in {f.name for f in fields(ParallelFrame)}
        frame = NewParallelShearWarp(renderer, 2).render_frame(
            renderer.view_from_angles(20, 30, 0)
        )
        assert simulate_frame(frame, MACHINES["dash"]()).total_time > 0

    def test_harness_simulate_guard(self):
        """Nor do the harness entry points: a kernel is not a key."""
        from repro.analysis.harness import simulate, traced_frames

        with pytest.raises(TypeError, match="kernel"):
            simulate("mri128", "new", "dash", 2, scale=0.1, kernel="block")
        with pytest.raises(TypeError, match="kernel"):
            traced_frames("mri128", "new", 2, scale=0.1, kernel="block")
