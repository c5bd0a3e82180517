"""Tests for the serial shear-warp renderer (compositing + warp)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets import empty_volume, load, mri_brain, solid_sphere
from repro.render import (
    FinalImage,
    IntermediateImage,
    ListTraceSink,
    Region,
    ShearWarpRenderer,
    WorkCounters,
    composite_frame,
    nonempty_scanline_bounds,
    renderer_for,
    warp_frame,
)
from repro.transforms import factorize, view_matrix
from repro.volume import (
    RLEVolume,
    binary_transfer_function,
    ct_transfer_function,
    mri_transfer_function,
    transfer_function_for,
)

from .conftest import assert_frames_identical


@pytest.fixture(scope="module")
def sphere_renderer():
    return ShearWarpRenderer(solid_sphere((24, 24, 24)), binary_transfer_function(128))


@pytest.fixture(scope="module")
def brain_renderer():
    return ShearWarpRenderer(mri_brain((28, 28, 20)), mri_transfer_function())


class TestCompositing:
    def test_axis_view_sphere_composites_disk(self, sphere_renderer):
        res = sphere_renderer.render(np.eye(4))
        img = res.intermediate
        # The sphere projects to a filled disk of opacity ~1 at the centre.
        cy, cx = img.n_v // 2, img.n_u // 2
        assert img.opacity[cy, cx] > 0.9
        assert img.opacity[0, 0] == 0.0

    def test_opacity_bounded(self, brain_renderer):
        res = brain_renderer.render(view_matrix(20, 30, 0, brain_renderer.shape))
        assert res.intermediate.opacity.max() <= 1.0 + 1e-6
        assert res.intermediate.opacity.min() >= 0.0

    def test_empty_volume_renders_black(self):
        r = ShearWarpRenderer(empty_volume((10, 10, 10)), binary_transfer_function(128))
        res = r.render(view_matrix(15, 25, 5, r.shape))
        assert res.intermediate.opacity.max() == 0.0
        assert res.final.color.max() == 0.0

    def test_front_to_back_occlusion(self):
        """An opaque wall in front hides a wall behind it."""
        raw = np.zeros((8, 8, 8), dtype=np.uint8)
        raw[:, :, 2] = 255  # bright wall nearer z=0
        raw[:, :, 6] = 130  # dimmer wall behind
        r = ShearWarpRenderer(raw, binary_transfer_function(100, opacity=1.0))
        # Identity view: rays go along +z, slice 2 is in front.
        res = r.render(np.eye(4))
        img = res.intermediate
        # Colour should be the front wall's (255-valued) colour everywhere lit.
        lit = img.opacity > 0.5
        assert lit.any()
        expected_front = 255 / 255.0
        assert np.allclose(img.color[lit], expected_front, atol=1e-5)

    def test_early_termination_skips_work(self, sphere_renderer):
        """With an opaque sphere, far slices are skipped."""
        c_on = WorkCounters()
        sphere_renderer.render(np.eye(4), counters=c_on)
        # A sphere of radius 0.7*12 at threshold-1 opacity: most interior
        # pixels saturate after the first slice or two, so resamples must be
        # far fewer than the full n^3 voxel count.
        assert c_on.resample_ops < 24**3 / 2
        assert c_on.pixels_skipped > 0

    def test_restrict_bounds_matches_full(self, brain_renderer):
        view = view_matrix(10, 35, 0, brain_renderer.shape)
        full = brain_renderer.render(view, restrict_bounds=False)
        fast = brain_renderer.render(view, restrict_bounds=True)
        assert_frames_identical([fast], [full])

    def test_nonempty_bounds_bracket_content(self, brain_renderer):
        view = view_matrix(10, 35, 0, brain_renderer.shape)
        fact = brain_renderer.factorize_view(view)
        rle = brain_renderer.rle_for(fact)
        v_lo, v_hi = nonempty_scanline_bounds(rle, fact)
        res = brain_renderer.render(view)
        written = np.nonzero(res.intermediate.opacity.sum(axis=1) > 0)[0]
        assert len(written) > 0
        assert v_lo <= written.min()
        assert v_hi >= written.max() + 1

    @settings(max_examples=200)
    @given(
        data=st.data(),
        shape=st.tuples(*[st.integers(1, 9)] * 3),
        angles=st.tuples(*[st.floats(-180.0, 180.0)] * 3),
    )
    def test_nonempty_bounds_equal_the_bound_over_every_voxel_row(
            self, data, shape, angles):
        """The per-slice first and last non-empty rows give exactly the
        bound taken over every non-empty ``(k, j)`` row — empty slices
        and an empty volume (``(0, 0)``) included."""
        fact = factorize(view_matrix(*angles, shape), shape)
        ni, nj, nk = (shape[p] for p in fact.perm)
        empty = data.draw(st.booleans())
        counts = np.zeros((nk, nj), np.int32) if empty else data.draw(
            arrays(np.int32, (nk, nj), elements=st.integers(0, ni)))
        none = np.zeros(0, np.int32)
        rle = RLEVolume(
            axis=fact.axis, shape_ijk=(ni, nj, nk), run_lengths=none,
            run_start=np.zeros((nk, nj), np.int64), run_count=counts,
            voxel_opacity=none, voxel_color=none,
            vox_start=np.zeros((nk, nj), np.int64), vox_count=counts,
        )
        # The bound as first written: over every non-empty voxel row.
        ks, js = np.nonzero(counts > 0)
        want = (0, 0)
        if len(ks):
            v_centers = js + fact.slice_offsets(ks)[1]
            want = (max(0, int(np.floor(v_centers.min()))),
                    min(fact.intermediate_shape[0],
                        int(np.ceil(v_centers.max() + 1.0)) + 1))
        assert nonempty_scanline_bounds(rle, fact) == want
        assert nonempty_scanline_bounds(rle, fact) == want  # cached rows

    def test_counters_accumulate(self, brain_renderer):
        c = WorkCounters()
        brain_renderer.render(view_matrix(0, 20, 0, brain_renderer.shape), counters=c)
        assert c.resample_ops > 0
        assert c.composite_ops == c.resample_ops
        assert c.loop_iters > 0
        assert c.run_entries > 0
        assert c.warp_pixels > 0


class TestWarp:
    def test_warp_identity_view_reproduces_intermediate(self, sphere_renderer):
        """With no rotation the warp is (close to) a translation."""
        res = sphere_renderer.render(np.eye(4))
        inter_mass = res.intermediate.opacity.sum()
        final_mass = res.final.alpha.sum()
        assert final_mass == pytest.approx(inter_mass, rel=0.05)

    def test_rotation_preserves_projected_mass(self, sphere_renderer):
        """A sphere looks the same from any angle (mass within tolerance)."""
        m0 = sphere_renderer.render(np.eye(4)).final.alpha.sum()
        m1 = sphere_renderer.render(
            view_matrix(30, 40, 10, sphere_renderer.shape)
        ).final.alpha.sum()
        assert m1 == pytest.approx(m0, rel=0.1)

    def test_final_image_nonempty_for_content(self, brain_renderer):
        res = brain_renderer.render(view_matrix(25, -30, 15, brain_renderer.shape))
        assert res.final.alpha.max() > 0.3

    @settings(max_examples=15, deadline=None)
    @given(rx=st.floats(-60, 60), ry=st.floats(-60, 60), rz=st.floats(-90, 90))
    def test_render_never_produces_nan_or_overflow(self, rx, ry, rz):
        r = ShearWarpRenderer(solid_sphere((12, 12, 12)), binary_transfer_function(128, 0.8))
        res = r.render(view_matrix(rx, ry, rz, r.shape))
        for arr in (res.intermediate.opacity, res.intermediate.color,
                    res.final.alpha, res.final.color):
            assert np.all(np.isfinite(arr))
        assert res.final.alpha.max() <= 1.0 + 1e-5


class TestTracing:
    def test_trace_regions_cover_pipeline(self, brain_renderer):
        trace = ListTraceSink()
        brain_renderer.render(view_matrix(10, 20, 0, brain_renderer.shape), trace=trace)
        regions = {r[0] for r in trace.records}
        assert Region.RUN_TABLE in regions
        assert Region.VOXEL_DATA in regions
        assert Region.INTERMEDIATE in regions
        assert Region.FINAL in regions

    def test_trace_write_flags(self, brain_renderer):
        trace = ListTraceSink()
        brain_renderer.render(view_matrix(10, 20, 0, brain_renderer.shape), trace=trace)
        # Volume data is read-only; the final image is write-only.
        for region, _, _, write in trace.records:
            if region in (Region.RUN_TABLE, Region.VOXEL_DATA):
                assert not write
            if region == Region.FINAL:
                assert write

    def test_trace_byte_ranges_within_structures(self, brain_renderer):
        view = view_matrix(10, 20, 0, brain_renderer.shape)
        fact = brain_renderer.factorize_view(view)
        rle = brain_renderer.rle_for(fact)
        trace = ListTraceSink()
        res = brain_renderer.render(view, trace=trace)
        from repro.volume import BYTES_PER_RUN, BYTES_PER_VOXEL
        from repro.render import BYTES_PER_PIXEL

        limits = {
            Region.RUN_TABLE: rle.run_lengths.size * BYTES_PER_RUN,
            Region.VOXEL_DATA: rle.voxel_opacity.size * BYTES_PER_VOXEL,
            Region.INTERMEDIATE: res.intermediate.n_v * res.intermediate.n_u * BYTES_PER_PIXEL,
            Region.FINAL: res.final.ny * res.final.nx * BYTES_PER_PIXEL,
        }
        for region, start, nbytes, _ in trace.records:
            assert start >= 0
            assert start + nbytes <= limits[region], region


class TestImages:
    def test_invalid_shapes_raise(self):
        with pytest.raises(ValueError):
            IntermediateImage((0, 5))
        with pytest.raises(ValueError):
            FinalImage((5, 0))

    def test_clear_resets(self):
        img = IntermediateImage((4, 4))
        img.opacity[:] = 0.5
        img.clear()
        assert img.opacity.max() == 0.0

    def test_pixel_byte_range(self):
        img = IntermediateImage((4, 10))
        start, nbytes = img.pixel_byte_range(2, 3, 7)
        assert start == (2 * 10 + 3) * 8
        assert nbytes == 4 * 8


def _same_renderer(got, want):
    """Same voxels, classified the same: the renderer keeps no transfer
    function, so its classified fields are where one shows."""
    for name in ("raw", "opacity", "color"):
        assert np.array_equal(getattr(got.classified, name),
                              getattr(want.classified, name)), name


class TestRendererFor:
    """One factory builds the renderers of ``repro render``, the
    simulator's harness and the render server, each the one that caller
    built for itself before."""

    @pytest.mark.parametrize("dataset", ["mri128", "ct128"])
    def test_the_by_prefix_rule(self, dataset):
        """``classification=None``: CT for a ``ct*`` set, MRI otherwise
        (the CLI's and the harness's renderer, elongation included)."""
        from repro.analysis.harness import get_renderer

        tf = (ct_transfer_function() if dataset.startswith("ct")
              else mri_transfer_function())
        for elongate in (1.0, 1.5):
            want = ShearWarpRenderer(load(dataset, 0.08, elongate), tf)
            _same_renderer(renderer_for(dataset, 0.08, elongate=elongate), want)
            _same_renderer(get_renderer(dataset, 0.08, elongate), want)

    @pytest.mark.parametrize("spec,tf", [
        ("mri", mri_transfer_function()),
        ("ct", ct_transfer_function()),
        (["binary", 60.0, 0.8], binary_transfer_function(60.0, 0.8)),
        (["binary"], binary_transfer_function()),
    ], ids=["mri", "ct", "binary", "binary-defaults"])
    def test_a_classification_spec(self, spec, tf):
        """A named spec overrides the prefix (the server's renderer)."""
        from repro.serve.server import _default_renderer_factory

        got = transfer_function_for(spec)
        assert (got.opacity_points, got.ambient, got.diffuse) == (
            tf.opacity_points, tf.ambient, tf.diffuse)
        want = ShearWarpRenderer(load("ct128", 0.08), tf)
        _same_renderer(renderer_for("ct128", 0.08, spec), want)
        _same_renderer(_default_renderer_factory("ct128", 0.08, spec), want)

    @pytest.mark.parametrize("spec", ["nope", ["gamma", 1.0], [], 3])
    def test_an_unknown_spec_is_a_value_error(self, spec):
        """A spec comes from outside (a serve request): a typed error,
        before any volume is built."""
        from repro.serve.server import _default_renderer_factory

        for build in (renderer_for, _default_renderer_factory):
            with pytest.raises(ValueError, match="classification"):
                build("mri128", 0.08, spec)
        with pytest.raises(ValueError, match="classification"):
            _default_renderer_factory("beating_heart", 0.5, spec)
