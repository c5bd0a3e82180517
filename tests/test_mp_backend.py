"""Tests for the real multiprocessing shared-memory backend."""

import os
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from repro.core.partition import contiguous_partition
from repro.core.profiling import scanline_cost
from repro.datasets import density_wedge, solid_sphere
from repro.obs import busy_spread
from repro.render import ShearWarpRenderer, WorkCounters, composite_image_scanline
from repro.render.fast import render_fast
from repro.render.image import IntermediateImage
from repro.volume import binary_transfer_function, mri_transfer_function

from .conftest import assert_frames_identical, fail_composite, serial_refs


def _render(renderer, view, **overrides):
    with repro.open_pool(renderer, **overrides) as pool:
        return pool.render(view)


class TestMPBackend:
    def test_sphere_axis_view(self):
        r = ShearWarpRenderer(solid_sphere((16, 16, 16)), binary_transfer_function(128))
        res = _render(r, np.eye(4), n_procs=2)
        cy, cx = res.final.ny // 2, res.final.nx // 2
        assert res.final.alpha[cy, cx] > 0.9

    def test_rejects_zero_workers(self, renderer):
        with pytest.raises(ValueError):
            repro.open_pool(renderer, n_procs=0)

    def test_profile_period_is_not_an_option(self, renderer):
        """The pool cuts every banded frame from the last one's band
        times, so neither the config nor the facade takes a period."""
        with pytest.raises(TypeError, match="profile_period"):
            repro.PoolConfig(profile_period=-1)
        with pytest.raises(TypeError, match="profile_period"):
            repro.open_pool(renderer, n_procs=1, profile_period=5)


class TestSharedSegments:
    @pytest.mark.parametrize("trace, owned", [(False, 3), (True, 4)])
    def test_a_pool_owns_images_doorbell_and_rings_only(self, renderer,
                                                        trace, owned):
        """A two-worker pool maps the intermediate and final images and
        the doorbell, plus the span rings when tracing: no claim-cursor
        segment, since no pool steals."""
        before = set(os.listdir("/dev/shm"))
        with repro.open_pool(renderer, n_procs=2, trace=trace) as pool:
            pool.render(renderer.view_from_angles(20, 30, 0))
            made = set(os.listdir("/dev/shm")) - before
            mine = {seg.name.lstrip("/") for seg in vars(pool).values()
                    if isinstance(seg, shared_memory.SharedMemory)}
        assert len(made) == owned
        assert made == mine


class TestPoolErrors:
    def test_worker_error_attributed_to_its_own_frame(self, renderer,
                                                      monkeypatch):
        """Frame n failing must not poison frame n+1 already in flight.

        Compositing is patched to blow up on frame 0 alone; the patch
        reaches the workers through fork, so frame 0 fails on whichever
        worker it is dealt to while frames 1+ render normally.
        """
        fail_composite(monkeypatch, None, frame=0, once=False)
        v0 = renderer.view_from_angles(20, 30, 0)
        v1 = renderer.view_from_angles(20, 33, 0)
        v2 = renderer.view_from_angles(20, 36, 0)
        # Retries/degradation off: this test is about error *attribution*
        # (the fault-recovery paths are covered in test_mp_faults.py).
        with repro.open_pool(renderer, n_procs=2, max_retries=0,
                             degrade_to_serial=False) as pool:
            f0 = pool.submit(v0)
            f1 = pool.submit(v1)
            # The sibling collected first still succeeds and is correct.
            res1 = pool.result(f1)
            assert_frames_identical([res1], serial_refs(renderer, [v1]))
            # The failed frame raises from its *own* result call...
            with pytest.raises(RuntimeError, match="injected composite"):
                pool.result(f0)
            # ...idempotently: a re-poll (the serve layer's per-client
            # retry/report path) re-raises the same typed error rather
            # than decaying into KeyError.
            with pytest.raises(RuntimeError, match="injected composite"):
                pool.result(f0)
            # The pool (and the failed frame's buffer) stays usable.
            res2 = pool.render(v2)
            assert_frames_identical([res2], serial_refs(renderer, [v2]))

    def test_failed_submit_leaves_pool_state_clean(self, renderer):
        """A submit that dies on the capacity check must not consume a
        frame id or mark a buffer occupied/dirty — and the check is per
        dimension: a view scaled along x *or* y alone overflows only one
        side of the capacity and must still be refused (a lexicographic
        tuple compare let the x-only case through, truncating the
        frame)."""
        good = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2) as pool:
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
            assert_frames_identical([res], serial_refs(renderer, [good]))


#: The skewed wedge the adaptive-partition tests render.  A worker's
#: band time is its CPU time, the block kernel's per-call fixed cost
#: and its warp share included, so band time moves boundaries toward
#: equal *counted* work only where the per-line work outweighs both,
#: and one noisy frame can mislead the frame cut from it.
WEDGE = (64, 96, 32)


def _flat(res, n_procs):
    """The cut equal time per row makes of ``res``'s non-empty band:
    what a pool cuts a key's first frame by."""
    v_lo, v_hi = int(res.boundaries[0]), int(res.boundaries[-1])
    return contiguous_partition(np.ones(v_hi - v_lo), n_procs, v_lo=v_lo)


class TestAdaptivePartition:
    def test_adaptive_bit_identical_to_uniform(self, banded):
        """Profile-balanced partitions only move scanlines between
        workers — the animation's images must match the serial render
        (and so the flat cut's) bit for bit, even though the
        boundaries differ.

        Uses the skewed wedge phantom: on a near-symmetric volume the
        balanced partition can legitimately coincide with the flat
        cut, which would make the boundaries-moved assertion vacuous.
        """
        renderer = ShearWarpRenderer(density_wedge(WEDGE),
                                     mri_transfer_function())
        views = [renderer.view_from_angles(18, 8 + 3 * i, 0)
                 for i in range(6)]
        with repro.open_pool(renderer, n_procs=3) as pool:
            ada = [pool.result(pool.submit(v)) for v in views]
        assert_frames_identical(ada, serial_refs(renderer, views))
        # No band time exists yet on frame 0: the flat cut.
        assert np.array_equal(ada[0].boundaries, _flat(ada[0], 3))
        # On a real (non-flat) volume the measured band times must move
        # at least one boundary away from the flat cut.
        assert any(not np.array_equal(a.boundaries, _flat(a, 3))
                   for a in ada[1:])

    def test_profile_partition_evens_out_counted_work(self, banded):
        """The paper's section 4.3 claim as a count, not a timing: on the
        skewed wedge, the work the reference kernel *counts* inside each
        worker's band is spread more evenly over the workers on frames
        cut from band times than by the flat cut of the same frames'
        bands.  Frames are rendered one at a time and cut banded, so
        every frame after the first is cut from the one before."""
        renderer = ShearWarpRenderer(density_wedge(WEDGE),
                                     mri_transfer_function())
        views = [renderer.view_from_angles(18, 8 + 3 * i, 0)
                 for i in range(12)]

        def counted_spread(res, bounds):
            # Per-row ``scanline_cost`` of each band, as the instrumented
            # scanline kernel counts it.
            rle = renderer.rle_for(res.fact)
            img = IntermediateImage(res.fact.intermediate_shape)
            rows = [scanline_cost(composite_image_scanline(
                img, v, rle, res.fact, counters=WorkCounters()))
                for v in range(bounds[0], bounds[-1])]
            return busy_spread([sum(rows[lo - bounds[0]:hi - bounds[0]])
                                for lo, hi in zip(bounds[:-1], bounds[1:])])

        with repro.open_pool(renderer, n_procs=3) as pool:
            results = [pool.render(v) for v in views]
        balanced = np.mean([counted_spread(r, r.boundaries) for r in results[1:]])
        flat = np.mean([counted_spread(r, _flat(r, 3)) for r in results[1:]])
        assert balanced < flat

    def test_reports_boundaries_and_busy_times(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2) as pool:
            res = pool.render(view)
        assert res.boundaries is not None and len(res.boundaries) == 3
        assert np.all(np.diff(res.boundaries) >= 0)
        assert res.busy_s is not None and res.busy_s.shape == (2,)
        assert np.all(res.busy_s >= 0)

    def test_axis_switch_invalidates_profile(self, renderer, banded):
        """Crossing a principal-axis boundary must drop the band times
        and cut the flat frame a key starts with: the old profile's scanline coordinates
        no longer exist in the new intermediate image."""
        with repro.open_pool(renderer, n_procs=3) as pool:
            r0 = pool.render(renderer.view_from_angles(10, 20, 0))
            r1 = pool.render(renderer.view_from_angles(10, 24, 0))
            assert pool._planner.profile_key == (r1.fact.axis, r1.fact.perm)
            r2 = pool.render(renderer.view_from_angles(10, 70, 0))
            dropped = pool.metrics.counter("pool/profile_invalidations").value
        assert r0.fact.axis == r1.fact.axis
        assert r2.fact.axis != r1.fact.axis  # the switch actually happened
        assert dropped == 1  # ... and dropped the profile it made stale
        assert np.array_equal(r2.boundaries, _flat(r2, 3))
        ref = render_fast(renderer, renderer.view_from_angles(10, 70, 0))
        assert_frames_identical([r2], [ref])
