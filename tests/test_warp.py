"""Focused tests for the warp kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import mri_brain, solid_sphere
from repro.render import (
    FinalImage,
    IntermediateImage,
    ShearWarpRenderer,
    WorkCounters,
)
from repro.render.warp import (
    final_pixel_source_lines,
    warp_coeffs,
    warp_frame,
    warp_rows,
    warp_rows_by_pid,
    warp_scanline,
    warp_tile,
)
from repro.transforms import view_matrix
from repro.volume import binary_transfer_function, mri_transfer_function


@pytest.fixture(scope="module")
def scene():
    r = ShearWarpRenderer(mri_brain((22, 22, 16)), mri_transfer_function())
    view = r.view_from_angles(25, 35, 10)
    fact = r.factorize_view(view)
    rle = r.rle_for(fact)
    img = IntermediateImage(fact.intermediate_shape)
    from repro.render.compositing import composite_frame

    composite_frame(img, rle, fact)
    return r, fact, img


class TestWarpKernels:
    def test_tiles_equal_full_frame(self, scene):
        _, fact, img = scene
        full = FinalImage(fact.final_shape)
        warp_frame(full, img, fact)
        tiled = FinalImage(fact.final_shape)
        for y0 in range(0, tiled.ny, 7):
            for x0 in range(0, tiled.nx, 5):
                warp_tile(tiled, y0, y0 + 7, x0, x0 + 5, img, fact)
        assert np.array_equal(tiled.color, full.color)
        assert np.array_equal(tiled.alpha, full.alpha)

    def test_ownership_partitions_pixels_exactly_once(self, scene):
        _, fact, img = scene
        full = FinalImage(fact.final_shape)
        warp_frame(full, img, fact)
        owner = np.arange(img.n_v) % 3  # arbitrary 3-way line ownership
        split = FinalImage(fact.final_shape)
        for pid in range(3):
            for y in range(split.ny):
                warp_scanline(split, y, img, fact, line_owner=owner, pid=pid)
        assert np.array_equal(split.color, full.color)

    def test_out_of_range_rows_write_nothing(self, scene):
        _, fact, img = scene
        final = FinalImage(fact.final_shape)
        n = warp_scanline(final, final.ny - 1, img, fact, x_lo=5, x_hi=5)
        assert n == 0

    def test_counters_count_written_pixels(self, scene):
        _, fact, img = scene
        final = FinalImage(fact.final_shape)
        c = WorkCounters()
        total = 0
        for y in range(final.ny):
            total += warp_scanline(final, y, img, fact, counters=c)
        assert c.warp_pixels == total

    def test_source_lines_bracket_inverse_mapping(self, scene):
        _, fact, img = scene
        src = final_pixel_source_lines(fact.final_shape, fact)
        ny, nx = fact.final_shape
        for y in (0, ny // 2, ny - 1):
            uv = fact.warp_inverse_points(
                np.stack([np.arange(nx, dtype=float), np.full(nx, float(y))], axis=1)
            )
            v0 = np.floor(uv[:, 1])
            assert src[y, 0] <= v0.min()
            assert src[y, 1] >= v0.max() + 1


class TestWarpVectorization:
    """The vectorized helpers must match their scalar-loop references."""

    def test_precomputed_coeffs_bit_identical(self, scene):
        _, fact, img = scene
        plain = FinalImage(fact.final_shape)
        hoisted = FinalImage(fact.final_shape)
        coeffs = warp_coeffs(fact)
        for y in range(plain.ny):
            warp_scanline(plain, y, img, fact)
            warp_scanline(hoisted, y, img, fact, coeffs=coeffs)
        assert np.array_equal(plain.color, hoisted.color)
        assert np.array_equal(plain.alpha, hoisted.alpha)

    def test_source_lines_match_per_row_loop(self, scene):
        _, fact, _ = scene
        ny, nx = fact.final_shape
        a_inv, b = warp_coeffs(fact)
        want = np.empty((ny, 2), dtype=np.int64)
        for y in range(ny):
            vs = [
                a_inv[1, 0] * (x - b[0]) + a_inv[1, 1] * (y - b[1])
                for x in (0.0, nx - 1.0)
            ]
            want[y, 0] = int(np.floor(min(vs)))
            want[y, 1] = int(np.floor(max(vs))) + 1
        got = final_pixel_source_lines(fact.final_shape, fact)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_procs", [1, 3, 4])
    def test_rows_by_pid_match_unique_loop(self, scene, n_procs):
        _, fact, img = scene
        src = final_pixel_source_lines(fact.final_shape, fact)
        n_v = img.n_v
        # Non-monotonic ownership on purpose: the helper must not assume
        # contiguous blocks (line_ownership's empty margins are striped).
        owner = (np.arange(n_v) * 7) % n_procs
        want = [[] for _ in range(n_procs)]
        for y in range(fact.final_shape[0]):
            vmin = min(max(int(src[y, 0]), 0), n_v - 1)
            vmax = min(max(int(src[y, 1]), vmin + 1), n_v)
            for pid in np.unique(owner[vmin:vmax]):
                want[int(pid)].append(y)
        got = warp_rows_by_pid(src, owner, n_procs)
        for pid in range(n_procs):
            assert list(got[pid]) == want[pid]


def _scanline_loop(fact, img, rows, owner=None, pid=None, fill=0.0):
    """The reference: ``warp_scanline`` row by row into a pre-filled image."""
    final = FinalImage(fact.final_shape)
    final.color[:] = final.alpha[:] = fill
    n = sum(warp_scanline(final, int(y), img, fact, line_owner=owner, pid=pid)
            for y in rows)
    return final, n


class TestWarpRows:
    """``warp_rows`` is the ``warp_scanline`` loop, bit for bit."""

    # Principal-axis ties (45 deg), axis-aligned 90 deg views and the
    # identity are where the factorization degenerates.
    DEGENERATE = [(0, 0, 0), (0, 90, 0), (90, 0, 0), (0, 45, 0), (45, 0, 0),
                  (0, 135, 0), (0, 180, 90), (35.264, 45, 0)]

    @settings(max_examples=25)
    @given(
        angles=st.one_of(
            st.sampled_from(DEGENERATE),
            st.tuples(st.floats(-180, 180), st.floats(-180, 180),
                      st.floats(-180, 180)),
        ),
        n_procs=st.integers(1, 4),
        data=st.data(),
    )
    def test_matches_scanline_loop(self, scene, angles, n_procs, data):
        r, _, _ = scene
        fact = r.factorize_view(r.view_from_angles(*angles))
        img = IntermediateImage(fact.intermediate_shape)
        # Any pixel values do: the warp only resamples them.
        rng = np.random.default_rng(7)
        img.color[:] = rng.random(img.shape, dtype=np.float32)
        img.opacity[:] = rng.random(img.shape, dtype=np.float32)
        ny = fact.final_shape[0]
        rows = np.array(sorted(data.draw(
            st.sets(st.integers(0, ny - 1), max_size=ny))), dtype=np.int64)
        owner = (np.arange(img.n_v) * 5) % n_procs
        owner[::7] = -1  # shard mode: lines nobody in this pool owns
        for own, pid in [(None, None)] + [(owner, p) for p in range(n_procs)]:
            want, n_want = _scanline_loop(fact, img, rows, own, pid, fill=-1.0)
            got = FinalImage(fact.final_shape)
            got.color[:] = got.alpha[:] = -1.0
            n_got = warp_rows(got, rows, img, fact, line_owner=own, pid=pid)
            assert n_got == n_want
            assert np.array_equal(got.color, want.color)
            assert np.array_equal(got.alpha, want.alpha)

    @pytest.mark.parametrize("rows", [[], [0], [3], [2, 9, 10, 17]])
    def test_row_sets(self, scene, rows):
        """Empty, single and non-contiguous row sets; rows not asked
        for, and pixels another processor owns, keep their old value."""
        _, fact, img = scene
        owner = np.arange(img.n_v) % 2
        want, n_want = _scanline_loop(fact, img, rows, owner, 1, fill=-1.0)
        got = FinalImage(fact.final_shape)
        got.color[:] = got.alpha[:] = -1.0
        assert warp_rows(got, np.array(rows, dtype=np.int64), img, fact,
                         line_owner=owner, pid=1) == n_want
        assert np.array_equal(got.color, want.color)
        assert np.array_equal(got.alpha, want.alpha)
        untouched = np.ones(got.shape, dtype=bool)
        untouched[rows] = False
        assert (got.color[untouched] == -1.0).all()

    def test_owners_partition_the_frame(self, scene):
        _, fact, img = scene
        full = FinalImage(fact.final_shape)
        warp_frame(full, img, fact)
        owner = np.arange(img.n_v) % 3
        split = FinalImage(fact.final_shape)
        rows = np.arange(split.ny)
        written = sum(warp_rows(split, rows, img, fact, line_owner=owner, pid=p)
                      for p in range(3))
        assert np.array_equal(split.color, full.color)
        assert np.array_equal(split.alpha, full.alpha)
        assert written == warp_rows(FinalImage(fact.final_shape), rows, img, fact)

    def test_unsorted_duplicate_rows_and_precomputed_coeffs(self, scene):
        _, fact, img = scene
        want, _ = _scanline_loop(fact, img, [4, 5, 11])
        got = FinalImage(fact.final_shape)
        warp_rows(got, np.array([11, 4, 5, 4]), img, fact, coeffs=warp_coeffs(fact))
        assert np.array_equal(got.color, want.color)


class TestWarpGeometry:
    def test_pure_translation_view_round_trips_sphere(self):
        """With the identity view, warping is near-lossless."""
        r = ShearWarpRenderer(solid_sphere((18, 18, 18)), binary_transfer_function(128))
        res = r.render(np.eye(4))
        # Centre of mass maps consistently between images.
        inter = res.intermediate.opacity
        fin = res.final.alpha
        ci = np.array(np.nonzero(inter > 0.5)).mean(axis=1)
        cf = np.array(np.nonzero(fin > 0.5)).mean(axis=1)
        expected = res.fact.warp_points([[ci[1], ci[0]]])[0]
        assert abs(expected[0] - cf[1]) < 1.0
        assert abs(expected[1] - cf[0]) < 1.0

    def test_rotated_view_image_inside_bounds(self):
        r = ShearWarpRenderer(solid_sphere((18, 18, 18)), binary_transfer_function(128))
        res = r.render(view_matrix(30, 40, 25, r.shape))
        ys, xs = np.nonzero(res.final.alpha > 0.1)
        assert len(ys) > 0
        assert ys.min() >= 0 and ys.max() < res.final.ny
        assert xs.min() >= 0 and xs.max() < res.final.nx
