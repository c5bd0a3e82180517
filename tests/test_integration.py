"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro.core import NewParallelShearWarp, OldParallelShearWarp
from repro.datasets import ct_head, empty_volume, mri_brain, random_blobs
from repro.memsim import ccnuma_sim, dash, simulate_animation, simulate_frame
from repro.memsim.svm import SVMConfig, SVMSimulator, simulate_frame_svm
from repro.render import ShearWarpRenderer
from repro.volume import ct_transfer_function, mri_transfer_function

from .conftest import assert_frames_identical


class TestAxisSwitching:
    def test_animation_across_principal_axis_change(self):
        """Rotating past 45 degrees switches the principal axis and the
        RLE encoding; the stateful new renderer must survive the switch
        (its carried profile is in the old axis's coordinates)."""
        r = ShearWarpRenderer(mri_brain((20, 20, 20)), mri_transfer_function())
        new = NewParallelShearWarp(r, n_procs=3)
        axes = set()
        for deg in (30, 40, 50, 60):  # crosses the 45-degree boundary
            view = r.view_from_angles(0, deg, 0)
            frame = new.render_frame(view)
            axes.add(frame.fact.axis)
            assert_frames_identical([frame], [r.render(view)])
        assert len(axes) == 2  # the switch actually happened

    def test_all_principal_axes_render(self):
        r = ShearWarpRenderer(random_blobs((14, 16, 18)), mri_transfer_function())
        for angles in ((0, 0, 0), (0, 90, 0), (90, 0, 0)):
            res = r.render(r.view_from_angles(*angles))
            assert np.all(np.isfinite(res.final.color))


class TestDegenerateVolumes:
    def test_empty_volume_through_full_pipeline(self):
        r = ShearWarpRenderer(empty_volume((12, 12, 12)), mri_transfer_function())
        view = r.view_from_angles(15, 25, 0)
        for factory in (OldParallelShearWarp(r, 3), NewParallelShearWarp(r, 3)):
            frame = factory.render_frame(view)
            assert frame.final.alpha.max() == 0.0
            rep = simulate_frame(frame, ccnuma_sim().scaled(0.001))
            assert rep.total_time >= 0

    def test_more_procs_than_scanlines(self):
        r = ShearWarpRenderer(mri_brain((10, 10, 8)), mri_transfer_function())
        view = r.view_from_angles(10, 10, 0)
        ref = r.render(view)
        new = NewParallelShearWarp(r, n_procs=32)
        frame = new.render_frame(view)
        assert_frames_identical([frame], [ref])

    def test_tiny_volume_full_stack(self):
        r = ShearWarpRenderer(random_blobs((8, 8, 8), density=0.5),
                              mri_transfer_function())
        views = [r.view_from_angles(5, 10 + 3 * i, 0) for i in range(2)]
        old = OldParallelShearWarp(r, 2)
        frames = [old.render_frame(v) for v in views]
        rep = simulate_animation(frames, dash().scaled(0.001))
        assert rep.total_time > 0


class TestCrossAlgorithmInvariants:
    @pytest.fixture(scope="class")
    def setup(self):
        r = ShearWarpRenderer(ct_head((22, 22, 22)), ct_transfer_function())
        views = [r.view_from_angles(20, 30 + 3 * i, 0) for i in range(3)]
        old = OldParallelShearWarp(r, 4)
        new = NewParallelShearWarp(r, 4)
        return ([old.render_frame(v) for v in views],
                [new.render_frame(v) for v in views])

    def test_same_image_both_algorithms(self, setup):
        old_frames, new_frames = setup
        assert_frames_identical(new_frames, old_frames)

    def test_same_compositing_work_modulo_empty_region(self, setup):
        """New skips empty scanlines; content work must be identical."""
        old_frames, new_frames = setup
        fo, fn = old_frames[1], new_frames[1]
        old_resamples = sum(t.counters.resample_ops
                            for t in fo.composite_units.values())
        new_resamples = sum(t.counters.resample_ops
                            for t in fn.composite_units.values())
        assert old_resamples == new_resamples

    def test_hw_and_svm_agree_on_winner(self, setup):
        """Both platform models should favor the new algorithm here."""
        old_frames, new_frames = setup
        m = ccnuma_sim().scaled(0.002)
        t_old = simulate_animation(old_frames, m).total_time
        t_new = simulate_animation(new_frames, m).total_time
        cfg = SVMConfig().scaled(0.1)
        sim_o, sim_n = SVMSimulator(cfg, 4), SVMSimulator(cfg, 4)
        for fo, fn in zip(old_frames, new_frames):
            svm_old = simulate_frame_svm(fo, cfg, sim_o)
            svm_new = simulate_frame_svm(fn, cfg, sim_n)
        assert t_new < t_old * 1.15  # at worst competitive on hardware
        assert svm_new.total_time < svm_old.total_time
