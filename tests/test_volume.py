"""Tests for classification and run-length encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import mri_brain, random_blobs
from repro.transforms.factorization import PERMUTATIONS
from repro.volume import (
    OPACITY_EPSILON,
    ClassifiedVolume,
    RLEVolume,
    TransferFunction,
    binary_transfer_function,
    encode,
    encode_all_axes,
    mri_transfer_function,
)
from repro.volume.rle import SliceCache


class TestTransferFunction:
    def test_opacity_interpolates_knots(self):
        tf = TransferFunction(opacity_points=((0, 0.0), (100, 0.0), (200, 1.0)))
        assert tf.opacity(150) == pytest.approx(0.5)
        assert tf.opacity(50) == pytest.approx(0.0)

    def test_rejects_nonincreasing_knots(self):
        with pytest.raises(ValueError):
            TransferFunction(opacity_points=((0, 0.0), (0, 1.0)))

    def test_rejects_out_of_range_opacity(self):
        with pytest.raises(ValueError):
            TransferFunction(opacity_points=((0, 0.0), (255, 1.5)))

    def test_rejects_single_knot(self):
        with pytest.raises(ValueError):
            TransferFunction(opacity_points=((0, 0.0),))

    def test_epsilon_cull_zeroes_low_opacity(self):
        tf = TransferFunction(opacity_points=((0, 0.0), (255, OPACITY_EPSILON / 2)))
        a, c = tf.classify(np.array([255], dtype=np.uint8))
        assert a[0] == 0.0 and c[0] == 0.0

    def test_classify_dtype_and_range(self):
        tf = mri_transfer_function()
        vals = np.arange(256, dtype=np.uint8)
        a, c = tf.classify(vals)
        assert a.dtype == np.float32 and c.dtype == np.float32
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert c.min() >= 0.0 and c.max() <= 1.0

    def test_classified_volume_shape_validation(self):
        with pytest.raises(ValueError):
            ClassifiedVolume(
                raw=np.zeros((4, 4, 4), np.uint8),
                opacity=np.zeros((4, 4, 3), np.float32),
                color=np.zeros((4, 4, 4), np.float32),
            )


def _classified(shape=(12, 10, 8), seed=3, density=0.35):
    raw = random_blobs(shape, density=density, seed=seed)
    return ClassifiedVolume.classify(raw, binary_transfer_function(threshold=60))


class TestRLE:
    def test_roundtrip_dense_equals_classified(self):
        """Decoding every scanline reconstructs the classified fields."""
        cv = _classified()
        for axis in (0, 1, 2):
            rle = encode(cv, axis)
            perm = PERMUTATIONS[axis]
            order = (perm[2], perm[1], perm[0])
            opac_ref = cv.opacity.transpose(order)
            col_ref = cv.color.transpose(order)
            for k in range(rle.nk):
                o, c = rle.decode_slice(k)
                assert np.array_equal(o, opac_ref[k])
                assert np.array_equal(c, col_ref[k])

    def test_run_lengths_sum_to_scanline_length(self):
        cv = _classified()
        rle = encode(cv, 2)
        for k in range(rle.nk):
            for j in range(rle.nj):
                assert rle.scanline_runs(k, j).sum() == rle.ni

    def test_runs_alternate_starting_transparent(self):
        cv = _classified()
        rle = encode(cv, 1)
        for k in range(rle.nk):
            for j in range(rle.nj):
                dense, _ = rle.decode_scanline(k, j)
                pos = 0
                for idx, length in enumerate(rle.scanline_runs(k, j)):
                    seg = dense[pos : pos + length]
                    if idx % 2 == 0:
                        assert np.all(seg == 0.0)
                    else:
                        assert np.all(seg > 0.0)
                    pos += int(length)

    def test_vox_count_matches_nonzero(self):
        cv = _classified()
        rle = encode(cv, 0)
        assert rle.vox_count.sum() == np.count_nonzero(cv.opacity)

    def test_nontransparent_runs_cover_exactly_nonzeros(self):
        cv = _classified()
        rle = encode(cv, 2)
        for k in range(rle.nk):
            for j in range(rle.nj):
                dense, _ = rle.decode_scanline(k, j)
                covered = np.zeros(rle.ni, dtype=bool)
                for start, length in rle.nontransparent_runs(k, j):
                    covered[start : start + length] = True
                assert np.array_equal(covered, dense > 0)

    def test_empty_volume_single_run(self):
        cv = ClassifiedVolume.classify(
            np.zeros((6, 5, 4), np.uint8), binary_transfer_function(128)
        )
        rle = encode(cv, 2)
        assert rle.voxel_opacity.size == 0
        assert np.all(rle.run_count == 1)
        assert np.all(rle.run_lengths == rle.ni)

    def test_full_volume_compresses_to_one_opaque_run(self):
        raw = np.full((6, 5, 4), 255, np.uint8)
        cv = ClassifiedVolume.classify(raw, binary_transfer_function(128))
        rle = encode(cv, 2)
        assert np.all(rle.run_count == 3)  # [0, ni, 0]
        assert rle.voxel_opacity.size == raw.size

    def test_compression_ratio_large_for_sparse_volume(self):
        """Paper: RLE greatly compresses medical volumes."""
        raw = mri_brain((40, 40, 28))
        cv = ClassifiedVolume.classify(raw, mri_transfer_function())
        rle = encode(cv, 2)
        assert rle.compression_ratio > 1.5

    def test_encode_all_axes_returns_three(self):
        cv = _classified((8, 9, 10))
        rles = encode_all_axes(cv)
        assert set(rles) == {0, 1, 2}
        # shape_ijk is the permuted shape; total voxels identical.
        for axis, rle in rles.items():
            assert np.prod(rle.shape_ijk) == 8 * 9 * 10
            assert rle.voxel_opacity.size == np.count_nonzero(cv.opacity)

    def test_invalid_axis_raises(self):
        with pytest.raises(ValueError):
            encode(_classified((4, 4, 4)), 3)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        density=st.floats(0.05, 0.9),
        axis=st.integers(0, 2),
    )
    def test_roundtrip_property(self, seed, density, axis):
        """RLE encode/decode is lossless for arbitrary volumes."""
        cv = _classified((7, 6, 5), seed=seed, density=density)
        rle = encode(cv, axis)
        perm = PERMUTATIONS[axis]
        order = (perm[2], perm[1], perm[0])
        ref = cv.opacity.transpose(order)
        got = np.stack([rle.decode_slice(k)[0] for k in range(rle.nk)])
        assert np.array_equal(got, ref)


def _volume_from_kji(opac_kji, col_kji, axis):
    """ClassifiedVolume whose ``axis`` encoding traverses the given
    ``[k][j][i]`` fields (the inverse of ``encode``'s permutation)."""
    perm = PERMUTATIONS[axis]
    inv = np.argsort((perm[2], perm[1], perm[0]))
    opac = np.ascontiguousarray(np.asarray(opac_kji, np.float32).transpose(inv))
    col = np.ascontiguousarray(np.asarray(col_kji, np.float32).transpose(inv))
    return ClassifiedVolume(raw=np.zeros(opac.shape, np.uint8), opacity=opac, color=col)


def _check_slice_decode(rle, opac_kji, col_kji):
    """Every slice decode equals the ``decode_scanline`` oracle and the
    culled source fields; pads are transparent; planes are read-only."""
    nk, nj, ni = opac_kji.shape
    assert (rle.ni, rle.nj, rle.nk) == (ni, nj, nk)
    assert np.all(rle.run_count % 2 == 1)
    keep = opac_kji > 0
    for k in range(nk):
        oracle = zip(*(rle.decode_scanline(k, j) for j in range(nj)))
        for plane, rows, src in zip(
            rle.decode_slice_padded(k), oracle, (opac_kji, col_kji)
        ):
            assert plane.shape == (nj + 2, ni + 2) and plane.dtype == np.float32
            assert not plane.flags.writeable
            assert not plane[0].any() and not plane[-1].any()
            assert not plane[:, 0].any() and not plane[:, -1].any()
            assert np.array_equal(plane[1:-1, 1:-1], np.stack(rows))
            assert np.array_equal(plane[1:-1, 1:-1], np.where(keep[k], src[k], 0))


class TestSliceDecode:
    """The whole-slice decode against the per-scanline oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 5)),
        sparsity=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
        axis=st.integers(0, 2),
        seed=st.integers(0, 10_000),
    )
    def test_matches_scanline_oracle(self, shape, sparsity, axis, seed):
        rng = np.random.default_rng(seed)
        nk, nj, ni = shape[2], shape[1], shape[0]
        opac = rng.uniform(0.1, 1.0, (nk, nj, ni)).astype(np.float32)
        opac[rng.random((nk, nj, ni)) < sparsity] = 0.0
        # Colour is left non-zero under transparent voxels: the encoding
        # must drop it, not carry it through.
        col = rng.uniform(0.1, 1.0, (nk, nj, ni)).astype(np.float32)
        rle = encode(_volume_from_kji(opac, col, axis), axis)
        _check_slice_decode(rle, opac, col)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_degenerate_rows(self, axis):
        # (voxel row, its alternating runs): zero-length leading and
        # trailing transparent runs, a blank row, single voxels, a run
        # ending exactly at ni.
        rows = [
            ([1, 1, 1, 1, 1, 1], [0, 6, 0]),
            ([0, 0, 0, 0, 0, 0], [6]),
            ([1, 0, 1, 0, 1, 0], [0, 1, 1, 1, 1, 1, 1]),
            ([0, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1, 0]),
            ([0, 0, 0, 1, 1, 1], [3, 3, 0]),
            ([0, 1, 1, 0, 0, 0], [1, 2, 3]),
        ]
        # Slice 0 mixes every row kind, so run counts differ between
        # neighbouring scanlines; slice 1 is fully transparent; slice 2
        # is fully opaque.
        mask = np.zeros((3, len(rows), 6), bool)
        mask[0] = np.array([voxels for voxels, _ in rows], bool)
        mask[2] = True
        rng = np.random.default_rng(axis)
        opac = np.where(mask, rng.uniform(0.1, 1.0, mask.shape), 0).astype(np.float32)
        col = rng.uniform(0.1, 1.0, mask.shape).astype(np.float32)
        rle = encode(_volume_from_kji(opac, col, axis), axis)
        for j, (_, runs) in enumerate(rows):
            assert rle.scanline_runs(0, j).tolist() == runs
        assert rle.run_lengths.dtype == np.int32
        assert rle.run_start.dtype == np.int64 and rle.run_count.dtype == np.int32
        assert np.all(rle.run_count[1] == 1) and rle.vox_count[1].sum() == 0
        assert np.all(rle.run_count[2] == 3)
        _check_slice_decode(rle, opac, col)

    def test_benchmark_datasets_match_oracle(self):
        """Every (timestep, axis, slice) of a scaled-down movie renderer
        and of ``mri128`` — the volumes the benchmark renders."""
        from repro.datasets import load
        from repro.movie import beating_heart_renderer

        encodings = [
            enc
            for by_axis in beating_heart_renderer(0.5, timesteps=4).timeline.encodings
            for enc in by_axis.values()
        ]
        cv = ClassifiedVolume.classify(load("mri128", scale=0.25), mri_transfer_function())
        encodings += encode_all_axes(cv).values()
        for rle in encodings:
            for k in range(rle.nk):
                oracle = zip(*(rle.decode_scanline(k, j) for j in range(rle.nj)))
                for plane, rows in zip(rle.decode_slice(k), oracle):
                    assert np.array_equal(plane, np.stack(rows))

    def test_slice_decode_never_walks_scanlines(self, monkeypatch):
        """The frame path must stay off the per-run Python walk:
        ``decode_scanline`` is the oracle and the scanline kernel's API,
        not something a slice decode may fall back to."""
        rle = encode(_classified(), 2)

        def boom(self, k, j):
            raise AssertionError("slice decode reached decode_scanline")

        monkeypatch.setattr(RLEVolume, "decode_scanline", boom)
        for k in range(rle.nk):
            rle.decode_slice_padded(k)
            rle.decode_slice(k)
        assert rle.slice_cache.misses == rle.nk


class TestFootprintMask:
    """The bilinear footprint mask a slice-cache entry carries beside its
    two planes: what the block kernel resamples under."""

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 4)),
        sparsity=st.sampled_from([0.0, 0.5, 0.8, 0.95, 1.0]),
        axis=st.integers(0, 2),
        seed=st.integers(0, 10_000),
    )
    def test_is_the_2x2_any_of_the_padded_plane(self, shape, sparsity, axis, seed):
        import pickle

        rng = np.random.default_rng(seed)
        nk, nj, ni = shape[2], shape[1], shape[0]
        opac = rng.uniform(0.1, 1.0, (nk, nj, ni)).astype(np.float32)
        opac[rng.random((nk, nj, ni)) < sparsity] = 0.0
        rle = encode(_volume_from_kji(opac, opac, axis), axis)
        cache = rle.slice_cache
        for k in range(nk):
            p_o, p_c, foot = rle.slice_entry(k)
            assert foot.shape == (nj + 1, ni + 1) and foot.dtype == np.bool_
            assert not foot.flags.writeable
            brute = np.array([
                [(p_o[a : a + 2, b : b + 2] > 0).any() for b in range(ni + 1)]
                for a in range(nj + 1)
            ])
            assert np.array_equal(foot, brute)
            # One entry, one mechanism: a hit serves the same three
            # objects, and the two-plane accessor is a view of that entry.
            lookups = cache.hits + cache.misses
            again = rle.slice_entry(k)
            assert cache.hits + cache.misses == lookups + 1
            assert again[0] is p_o and again[1] is p_c and again[2] is foot
            assert rle.decode_slice_padded(k)[0] is p_o
        assert len(cache) == nk
        kept = rle.slice_entry(0)[2]
        # Cleared: the mask goes with the planes, and is rebuilt equal.
        rle.clear_slice_cache()
        assert len(cache) == 0
        misses = cache.misses
        rebuilt = rle.slice_entry(0)[2]
        assert cache.misses == misses + 1
        assert rebuilt is not kept and np.array_equal(rebuilt, kept)
        # Pickled: derived state is dropped and rebuilt on demand.
        clone = pickle.loads(pickle.dumps(rle))
        assert len(clone.slice_cache) == 0
        assert np.array_equal(clone.slice_entry(0)[2], kept)
        assert clone.slice_cache.misses == 1

    def test_mask_is_evicted_with_its_planes(self):
        rle = encode(_classified((5, 4, 3)), 2)
        object.__setattr__(rle, "_slice_cache", SliceCache(capacity=2))
        first = rle.slice_entry(0)
        rle.slice_entry(1)
        rle.slice_entry(2)  # evicts slice 0: planes and mask together
        assert len(rle.slice_cache) == 2
        again = rle.slice_entry(0)
        assert all(a is not b for a, b in zip(first, again))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
