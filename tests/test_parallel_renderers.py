"""Tests for the old and new parallel renderers (correctness + structure)."""

import numpy as np
import pytest

from repro.core import (
    COMPOSITE,
    WARP,
    NewParallelShearWarp,
    OldParallelShearWarp,
    ProfileSchedule,
)
from repro.datasets import mri_brain, solid_sphere
from repro.render import ShearWarpRenderer
from repro.transforms import view_matrix
from repro.volume import binary_transfer_function, mri_transfer_function

from .conftest import assert_frames_identical


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((28, 28, 20)), mri_transfer_function())


@pytest.fixture(scope="module")
def view(renderer):
    return renderer.view_from_angles(20, 30, 0)


@pytest.fixture(scope="module")
def serial_result(renderer, view):
    return renderer.render(view)


class TestOldRenderer:
    def test_image_matches_serial(self, renderer, view, serial_result):
        """Parallel task decomposition must not change the image."""
        frame = OldParallelShearWarp(renderer, n_procs=4).render_frame(view)
        assert_frames_identical([frame], [serial_result])

    def test_all_scanlines_are_tasks(self, renderer, view):
        frame = OldParallelShearWarp(renderer, n_procs=3).render_frame(view)
        n_v = frame.intermediate.n_v
        assert sorted(frame.composite_units) == list(range(n_v))
        queued = sorted(uid for q in frame.composite_queues for uid in q)
        assert queued == list(range(n_v))

    def test_interleaved_initial_assignment(self, renderer, view):
        frame = OldParallelShearWarp(renderer, n_procs=2, chunk=4).render_frame(view)
        # Proc 0's first chunk is scanlines 0-3, proc 1's is 4-7.
        assert frame.composite_queues[0][:4] == [0, 1, 2, 3]
        assert frame.composite_queues[1][:4] == [4, 5, 6, 7]

    def test_warp_tiles_cover_final_image(self, renderer, view):
        frame = OldParallelShearWarp(renderer, n_procs=4, tile=8).render_frame(view)
        ny, nx = frame.final.shape
        seen = np.zeros((ny, nx), dtype=int)
        for t in frame.warp_tasks.values():
            y0, y1, x0, x1 = t.meta
            seen[y0:y1, x0:x1] += 1
        assert np.all(seen == 1)

    def test_costs_positive_for_content_lines(self, renderer, view):
        frame = OldParallelShearWarp(renderer, n_procs=2).render_frame(view)
        costs = [t.cost for t in frame.composite_units.values()]
        assert max(costs) > 0
        assert all(c >= 0 for c in costs)

    def test_trace_segments_keyed_by_slice(self, renderer, view):
        frame = OldParallelShearWarp(renderer, n_procs=2).render_frame(view)
        busy_task = max(frame.composite_units.values(), key=lambda t: t.cost)
        keys = [k for k, _ in busy_task.trace]
        assert len(keys) == len(set(keys))  # one segment per slice
        assert set(keys) <= set(frame.slice_order)

    def test_rejects_zero_procs(self, renderer):
        with pytest.raises(ValueError):
            OldParallelShearWarp(renderer, n_procs=0)


class TestNewRenderer:
    def test_image_matches_serial(self, renderer, view, serial_result):
        new = NewParallelShearWarp(renderer, n_procs=4)
        frame = new.render_frame(view)
        # Final image: every pixel written exactly once by its owner.
        assert_frames_identical([frame], [serial_result])

    def test_image_matches_serial_many_procs(self, renderer, view, serial_result):
        new = NewParallelShearWarp(renderer, n_procs=13)
        new.render_frame(view)  # profile frame
        frame = new.render_frame(view)
        assert_frames_identical([frame], [serial_result])

    def test_contiguous_partitions(self, renderer, view):
        new = NewParallelShearWarp(renderer, n_procs=4)
        frame = new.render_frame(view)
        b = frame.boundaries
        assert len(b) == 5
        assert np.all(np.diff(b) >= 0)
        for pid, q in enumerate(frame.composite_queues):
            assert q == list(range(int(b[pid]), int(b[pid + 1])))

    def test_only_nonempty_region_composited(self, renderer, view):
        """The new algorithm skips the empty image top/bottom."""
        old = OldParallelShearWarp(renderer, n_procs=2).render_frame(view)
        new = NewParallelShearWarp(renderer, n_procs=2).render_frame(view)
        assert len(new.composite_units) < len(old.composite_units)

    def test_first_frame_profiled_and_stored(self, renderer, view):
        new = NewParallelShearWarp(renderer, n_procs=2)
        frame = new.render_frame(view)
        assert frame.profiled
        assert new.last_profile is not None
        assert new.last_profile.total > 0

    def test_profile_period_respected(self, renderer, view):
        new = NewParallelShearWarp(renderer, n_procs=2,
                                   profile_schedule=ProfileSchedule(period=3))
        flags = [new.render_frame(view).profiled for _ in range(6)]
        assert flags == [True, False, False, True, False, False]

    def test_profiled_frames_cost_more(self, renderer, view):
        """Profiling adds 10-15% to compositing cost."""
        new = NewParallelShearWarp(renderer, n_procs=2,
                                   profile_schedule=ProfileSchedule(period=2))
        f_prof = new.render_frame(view)
        f_plain = new.render_frame(view)
        assert f_prof.composite_cost_total > 1.05 * f_plain.composite_cost_total

    def test_profile_balances_second_frame(self, renderer, view):
        new = NewParallelShearWarp(renderer, n_procs=4)
        new.render_frame(view)
        frame = new.render_frame(view)
        costs = np.array([
            sum(frame.composite_units[u].cost for u in q)
            for q in frame.composite_queues
        ])
        assert costs.max() <= costs.mean() * 2.5  # no pathological imbalance

    def test_warp_one_task_per_proc(self, renderer, view):
        new = NewParallelShearWarp(renderer, n_procs=4)
        frame = new.render_frame(view)
        assert sorted(frame.warp_tasks) == [0, 1, 2, 3]
        assert not frame.warp_stealing

    def test_single_proc_degenerates_gracefully(self, renderer, view, serial_result):
        new = NewParallelShearWarp(renderer, n_procs=1)
        frame = new.render_frame(view)
        assert_frames_identical([frame], [serial_result])

    def test_rotating_animation_stays_correct(self, renderer):
        """Across a rotation, images keep matching the serial renderer."""
        new = NewParallelShearWarp(renderer, n_procs=5)
        for i in range(4):
            v = renderer.view_from_angles(20, 30 + 5 * i, 0)
            assert_frames_identical([new.render_frame(v)], [renderer.render(v)])


class TestFrameStructure:
    def test_counters_totals_positive(self, renderer, view):
        frame = OldParallelShearWarp(renderer, n_procs=2).render_frame(view)
        total = frame.counters_total()
        assert total.resample_ops > 0
        assert total.warp_pixels > 0

    def test_phases_labeled(self, renderer, view):
        frame = OldParallelShearWarp(renderer, n_procs=2).render_frame(view)
        assert all(t.phase == COMPOSITE for t in frame.composite_units.values())
        assert all(t.phase == WARP for t in frame.warp_tasks.values())

    def test_region_sizes_cover_trace(self, renderer, view):
        frame = NewParallelShearWarp(renderer, n_procs=3).render_frame(view)
        for task in list(frame.composite_units.values()) + list(frame.warp_tasks.values()):
            for _, records in task.trace:
                for region, start, nbytes, _ in records:
                    assert start + nbytes <= frame.region_sizes[region], region

    def test_trace_bytes_and_touches(self, renderer, view):
        frame = NewParallelShearWarp(renderer, n_procs=2).render_frame(view)
        t = max(frame.composite_units.values(), key=lambda t: t.cost)
        assert t.trace_bytes > 0
        assert t.trace_line_touches > 0
        assert t.trace_line_touches >= t.trace_bytes // 64
