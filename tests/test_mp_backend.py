"""Tests for the real multiprocessing shared-memory backend."""

import numpy as np
import pytest

import repro
import repro.parallel.poolcore as poolcore
from repro.core.partition import uniform_contiguous_partition
from repro.datasets import density_wedge, mri_brain, solid_sphere
from repro.obs import busy_spread
from repro.render import ShearWarpRenderer
from repro.render.fast import render_fast
from repro.render.image import IntermediateImage
from repro.volume import binary_transfer_function, mri_transfer_function


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())


class TestMPBackend:
    def test_matches_serial_two_workers(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        ref = renderer.render(view)
        res = repro.render_frame(renderer, view, n_procs=2)
        assert np.allclose(res.final.color, ref.final.color, atol=1e-5)
        assert np.allclose(res.final.alpha, ref.final.alpha, atol=1e-5)

    def test_matches_serial_four_workers(self, renderer):
        view = renderer.view_from_angles(-15, 40, 10)
        ref = renderer.render(view)
        res = repro.render_frame(renderer, view, n_procs=4)
        assert np.allclose(res.final.color, ref.final.color, atol=1e-5)

    def test_single_worker(self, renderer):
        view = renderer.view_from_angles(0, 10, 0)
        ref = renderer.render(view)
        res = repro.render_frame(renderer, view, n_procs=1)
        assert np.allclose(res.final.color, ref.final.color, atol=1e-5)

    def test_sphere_axis_view(self):
        r = ShearWarpRenderer(solid_sphere((16, 16, 16)), binary_transfer_function(128))
        res = repro.render_frame(r, np.eye(4), n_procs=2)
        cy, cx = res.final.ny // 2, res.final.nx // 2
        assert res.final.alpha[cy, cx] > 0.9

    def test_rejects_zero_workers(self, renderer):
        with pytest.raises(ValueError):
            repro.render_frame(renderer, np.eye(4), n_procs=0)

    def test_rejects_negative_profile_period(self, renderer):
        with pytest.raises(ValueError):
            repro.open_pool(renderer, n_procs=1, profile_period=-1)


class TestPoolErrors:
    def test_worker_error_attributed_to_its_own_frame(self, renderer,
                                                      monkeypatch):
        """Frame n failing must not poison frame n+1 already in flight.

        The compositing kernel is patched to blow up on each worker's
        *first* call only; the patch reaches the workers through fork, so
        frame 0 fails in every worker while frames 1+ render normally.
        """
        real = poolcore.composite_scanline_block
        calls = {"n": 0}  # per-process after fork: each worker counts its own

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected compositing failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(poolcore, "composite_scanline_block", flaky)
        v0 = renderer.view_from_angles(20, 30, 0)
        v1 = renderer.view_from_angles(20, 33, 0)
        v2 = renderer.view_from_angles(20, 36, 0)
        # Retries/degradation off: this test is about error *attribution*
        # (the fault-recovery paths are covered in test_mp_faults.py).
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             max_retries=0, degrade_to_serial=False) as pool:
            f0 = pool.submit(v0)
            f1 = pool.submit(v1)
            # The sibling collected first still succeeds and is correct.
            res1 = pool.result(f1)
            ref1 = renderer.render(v1)
            assert np.allclose(res1.final.color, ref1.final.color, atol=1e-5)
            # The failed frame raises from its *own* result call...
            with pytest.raises(RuntimeError, match="injected compositing"):
                pool.result(f0)
            # ...idempotently: a re-poll (the serve layer's per-client
            # retry/report path) re-raises the same typed error rather
            # than decaying into KeyError.
            with pytest.raises(RuntimeError, match="injected compositing"):
                pool.result(f0)
            # The pool (and the failed frame's buffer) stays usable.
            res2 = pool.render(v2)
            ref2 = renderer.render(v2)
            assert np.allclose(res2.final.color, ref2.final.color, atol=1e-5)

    def test_failed_submit_leaves_pool_state_clean(self, renderer):
        """A submit that dies on the capacity check must not consume a
        frame id or mark a buffer occupied/dirty — and the check is per
        dimension: a view scaled along x *or* y alone overflows only one
        side of the capacity and must still be refused (a lexicographic
        tuple compare let the x-only case through, truncating the
        frame)."""
        good = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2, profile_period=0) as pool:
            cap = pool.final_cap
            for rows in (slice(0, 3), slice(0, 1), slice(1, 2)):  # xyz, x, y
                bad = good.copy()
                bad[rows, :3] *= 3.0  # upscales the image beyond capacity
                ny, nx = render_fast(renderer, bad).final.shape
                assert ny > cap[0] or nx > cap[1]
                with pytest.raises(RuntimeError, match="capacity"):
                    pool.submit(bad)
                with pytest.raises(RuntimeError, match="capacity"):
                    pool.submit_batch([good, bad])
            frame = pool.submit(good)
            assert frame == 0  # the failed submits consumed no frame id
            res = pool.result(frame)
            ref = renderer.render(good)
            assert np.allclose(res.final.color, ref.final.color, atol=1e-5)


#: The skewed wedge the adaptive-partition tests render.  A profiled
#: worker's costs are its CPU time, the block kernel's per-call fixed
#: cost and its warp share included, so the profile moves boundaries
#: toward equal *counted* work only where the per-line work outweighs
#: both, and one noisy profile can mislead the frames planned from it.
#: On 24x24x16 and 48x48x24 wedges, and on this one over six frames, a
#: profiled run's mean spread did not always beat the uniform run's
#: beside two busy loops; here, over twelve, it is 0.50-0.84 against
#: 1.23.
WEDGE = (64, 96, 32)


class TestAdaptivePartition:
    def _animate(self, renderer, views, profile_period, n_procs=3):
        with repro.open_pool(renderer, n_procs=n_procs,
                             profile_period=profile_period) as pool:
            handles = [pool.submit(v) for v in views]
            return [pool.result(h) for h in handles]

    def test_adaptive_bit_identical_to_uniform(self):
        """Profile-balanced partitions only move scanlines between
        workers — the animation's images must match the uniform split
        bit for bit, even though the boundaries differ.

        Uses the skewed wedge phantom: on a near-symmetric volume the
        balanced partition can legitimately coincide with the uniform
        split, which would make the boundaries-moved assertion vacuous.
        """
        renderer = ShearWarpRenderer(density_wedge(WEDGE),
                                     mri_transfer_function())
        views = [renderer.view_from_angles(18, 8 + 3 * i, 0)
                 for i in range(6)]
        uni = self._animate(renderer, views, profile_period=0)
        ada = self._animate(renderer, views, profile_period=2)
        for u, a in zip(uni, ada):
            assert np.array_equal(u.final.color, a.final.color)
            assert np.array_equal(u.final.alpha, a.final.alpha)
            assert np.array_equal(u.intermediate.color, a.intermediate.color)
        assert not any(u.profiled for u in uni)
        assert ada[0].profiled  # no profile exists yet on frame 0
        # On a real (non-flat) volume the measured profile must move at
        # least one boundary away from the uniform split.
        moved = any(
            not np.array_equal(u.boundaries, a.boundaries)
            for u, a in zip(uni, ada)
        )
        assert moved

    def test_profile_partition_evens_out_counted_work(self):
        """The paper's section 4.3 claim as a count, not a timing: on the
        skewed wedge, the work the kernel *counts* inside each worker's
        band is spread more evenly over the workers on frames
        partitioned from a measured profile than on the uniform run of
        the same views.  Frames are rendered one at a time, so every
        frame after the first is planned with a profile installed."""
        renderer = ShearWarpRenderer(density_wedge(WEDGE),
                                     mri_transfer_function())
        views = [renderer.view_from_angles(18, 8 + 3 * i, 0)
                 for i in range(12)]

        def counted_spread(res):
            # Per-row ``scanline_cost`` of each band, as a profiled
            # worker counts it.
            rle = renderer.rle_for(res.fact)
            img = IntermediateImage(res.fact.intermediate_shape)
            return busy_spread([
                poolcore.composite_range(img, lo, hi, rle, res.fact,
                                         True, None, 0).sum()
                for lo, hi in zip(res.boundaries[:-1], res.boundaries[1:])
            ])

        spread = {}
        for period in (0, 2):
            with repro.open_pool(renderer, n_procs=3, profile_period=period,
                                 stealing=False) as pool:
                results = [pool.render(v) for v in views]
            spread[period] = np.mean([counted_spread(r) for r in results[1:]])
        assert spread[2] < spread[0]

    def test_reports_boundaries_and_busy_times(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2, profile_period=3) as pool:
            res = pool.render(view)
        assert res.boundaries is not None and len(res.boundaries) == 3
        assert np.all(np.diff(res.boundaries) >= 0)
        assert res.busy_s is not None and res.busy_s.shape == (2,)
        assert np.all(res.busy_s >= 0)

    def test_axis_switch_invalidates_profile(self, renderer):
        """Crossing a principal-axis boundary must force a uniform
        re-profiling frame: the old profile's scanline coordinates no
        longer exist in the new intermediate image."""
        with repro.open_pool(renderer, n_procs=3, profile_period=100) as pool:
            r0 = pool.render(renderer.view_from_angles(10, 20, 0))
            r1 = pool.render(renderer.view_from_angles(10, 24, 0))
            r2 = pool.render(renderer.view_from_angles(10, 70, 0))
        assert r0.profiled and not r1.profiled
        assert r2.fact.axis != r1.fact.axis  # the switch actually happened
        assert r2.profiled  # invalidation forced a fresh measurement
        uniform = uniform_contiguous_partition(
            int(r2.boundaries[0]), int(r2.boundaries[-1]), 3
        )
        assert np.array_equal(r2.boundaries, uniform)
        ref = renderer.render(renderer.view_from_angles(10, 70, 0))
        assert np.allclose(r2.final.color, ref.final.color, atol=1e-5)
