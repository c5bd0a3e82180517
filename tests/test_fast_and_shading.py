"""Tests for the vectorized fast path, Phong shading, and volume I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import mri_brain, random_blobs, solid_sphere
from repro.datasets.io import load_den, load_volume, save_den, save_volume
from repro.render import ShearWarpRenderer
from repro.render.fast import composite_frame_fast, render_fast, warp_frame_fast
from repro.render.shading import (
    NormalTable,
    PhongParameters,
    central_gradients,
    shade_volume,
)
from repro.transforms import view_matrix
from repro.volume import mri_transfer_function

from .conftest import assert_frames_identical


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((26, 26, 20)), mri_transfer_function())


class TestFastPath:
    def test_matches_reference_exactly(self, renderer):
        """The fast path every pool is checked against is the renderer's
        own ``render``, bit for bit — across the axis tie at 45 degrees
        and a hair off a principal axis too."""
        views = [renderer.view_from_angles(*a) for a in (
            (20, 30, 0), (-35, 55, 10), (0, 45, 0), (45, 45, 0), (0, 1e-6, 0))]
        assert_frames_identical([render_fast(renderer, v) for v in views],
                                [renderer.render(v) for v in views])

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 300), rx=st.floats(-60, 60), ry=st.floats(-60, 60))
    def test_equivalence_property(self, seed, rx, ry):
        vol = random_blobs((12, 12, 12), density=0.5, seed=seed)
        r = ShearWarpRenderer(vol, mri_transfer_function())
        view = view_matrix(rx, ry, 0, r.shape)
        assert_frames_identical([render_fast(r, view)], [r.render(view)])

    def test_composite_frame_fast_is_the_whole_frame_block_call(self, renderer):
        """Bit for bit — the wiring check the retired ``bench_kernel``
        script carried as its ``fast`` configuration."""
        from repro.render import IntermediateImage, composite_scanline_block

        fact = renderer.factorize_view(renderer.view_from_angles(-35, 55, 10))
        rle = renderer.rle_for(fact)
        fast = composite_frame_fast(IntermediateImage(fact.intermediate_shape), rle, fact)
        block = IntermediateImage(fact.intermediate_shape)
        composite_scanline_block(block, 0, block.n_v, rle, fact)
        assert fast.opacity.any()
        assert np.array_equal(fast.opacity, block.opacity)
        assert np.array_equal(fast.color, block.color)

    def test_fast_is_actually_faster(self):
        import time

        r = ShearWarpRenderer(mri_brain((48, 48, 36)), mri_transfer_function())
        view = r.view_from_angles(20, 30, 0)
        t0 = time.perf_counter()
        r.render(view)
        slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        render_fast(r, view)
        fast = time.perf_counter() - t0
        assert fast < slow


class TestShading:
    def test_gradients_shape(self):
        g = central_gradients(np.zeros((4, 5, 6), np.uint8))
        assert g.shape == (4, 5, 6, 3)

    def test_gradients_reject_non_3d(self):
        with pytest.raises(ValueError):
            central_gradients(np.zeros((4, 4)))

    def test_uniform_volume_zero_gradient(self):
        g = central_gradients(np.full((6, 6, 6), 7, np.uint8))
        assert np.allclose(g, 0.0)

    def test_table_values_bounded(self):
        t = NormalTable()
        assert t.table.min() >= 0.0
        # ambient + diffuse + specular can exceed 1 pre-clip; shading clips.
        lum = t.shade(np.ones((3, 3, 3, 3)))
        assert lum.max() <= 1.0

    def test_lit_side_brighter(self):
        """A sphere's surface facing the light shades brighter."""
        vol = solid_sphere((24, 24, 24), radius=0.7, value=200).astype(np.float32)
        g = central_gradients(vol)
        t = NormalTable(light=(1.0, 0.0, 0.0))
        lum = t.shade(g)
        # Sphere surface: gradients point inward; the -x side faces a
        # +x light.  Compare the two surface caps.
        lit = lum[3:6, 12, 12].mean()
        dark = lum[18:21, 12, 12].mean()
        assert lit != pytest.approx(dark)

    def test_flat_regions_get_ambient(self):
        t = NormalTable(params=PhongParameters(ambient=0.33))
        lum = t.shade(np.zeros((2, 2, 2, 3)))
        assert np.allclose(lum, 0.33)

    def test_shade_volume_renders(self):
        raw = mri_brain((20, 20, 16))
        cv = shade_volume(raw, mri_transfer_function())
        r = ShearWarpRenderer.from_classified(cv)
        res = r.render(r.view_from_angles(20, 30, 0))
        assert np.all(np.isfinite(res.final.color))
        assert res.final.alpha.max() > 0.1

    def test_shading_changes_colors_not_opacity(self):
        raw = mri_brain((16, 16, 12))
        tf = mri_transfer_function()
        plain = ShearWarpRenderer(raw, tf).classified
        shaded = shade_volume(raw, tf)
        assert np.array_equal(plain.opacity, shaded.opacity)
        assert not np.allclose(plain.color, shaded.color)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            PhongParameters(ambient=-0.1)
        with pytest.raises(ValueError):
            PhongParameters(shininess=0)
        with pytest.raises(ValueError):
            NormalTable(light=(0, 0, 0))
        with pytest.raises(ValueError):
            NormalTable(bits=1)


class TestVolumeIO:
    def test_npz_roundtrip(self, tmp_path):
        vol = random_blobs((9, 8, 7), seed=4)
        path = tmp_path / "vol.npz"
        save_volume(path, vol, name="test", scale=0.5)
        loaded, meta = load_volume(path)
        assert np.array_equal(loaded, vol)
        assert meta == {"name": "test", "scale": 0.5}

    def test_den_roundtrip(self, tmp_path):
        vol = random_blobs((10, 6, 4), seed=9)
        path = tmp_path / "vol.den"
        save_den(path, vol)
        assert np.array_equal(load_den(path), vol)

    def test_den_header_is_16bit_extents(self, tmp_path):
        vol = np.zeros((3, 4, 5), np.uint8)
        path = tmp_path / "v.den"
        save_den(path, vol)
        raw = path.read_bytes()
        assert np.frombuffer(raw[:6], dtype="<u2").tolist() == [3, 4, 5]
        assert len(raw) == 6 + 3 * 4 * 5

    def test_den_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.den"
        path.write_bytes(b"\x03\x00\x03\x00\x03\x00\x01\x02")
        with pytest.raises(ValueError):
            load_den(path)

    def test_non_3d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_den(tmp_path / "x.den", np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError):
            save_volume(tmp_path / "x.npz", np.zeros((4, 4), np.uint8))
