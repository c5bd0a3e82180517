"""Tests for the hardware execution model (scheduler + memsim + costs)."""

import numpy as np
import pytest

from repro.core import NewParallelShearWarp, OldParallelShearWarp
from repro.datasets import mri_brain
from repro.memsim import ccnuma_sim, challenge, dash, simulate_animation, simulate_frame
from repro.render import ShearWarpRenderer
from repro.volume import mri_transfer_function


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((24, 24, 18)), mri_transfer_function())


@pytest.fixture(scope="module")
def machine():
    return ccnuma_sim().scaled(1 / 256)


def frames_for(renderer, algorithm, n_procs, n_frames=2):
    views = [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(n_frames)]
    if algorithm == "old":
        f = OldParallelShearWarp(renderer, n_procs)
        return [f.render_frame(v) for v in views]
    f = NewParallelShearWarp(renderer, n_procs)
    return [f.render_frame(v) for v in views]


class TestSimulateFrame:
    def test_report_structure(self, renderer, machine):
        frame = frames_for(renderer, "old", 2)[0]
        rep = simulate_frame(frame, machine)
        assert rep.total_time > 0
        assert rep.composite.span > 0
        assert rep.warp.span > 0
        b = rep.breakdown()
        assert b["total"] == pytest.approx(b["busy"] + b["memory"] + b["sync"], rel=1e-6)

    def test_fractions_sum_to_one(self, renderer, machine):
        frame = frames_for(renderer, "new", 3)[0]
        f = simulate_frame(frame, machine).fractions()
        assert sum(f.values()) == pytest.approx(1.0)

    def test_old_pays_interphase_barrier(self, renderer, machine):
        frame_old = frames_for(renderer, "old", 4)[0]
        rep = simulate_frame(frame_old, machine)
        expected = rep.composite.span + rep.warp.span + 2 * rep.barrier_cycles
        assert rep.total_time == pytest.approx(expected)

    def test_new_chains_phases_per_proc(self, renderer, machine):
        frame = frames_for(renderer, "new", 4)[0]
        rep = simulate_frame(frame, machine)
        chained = rep.composite.proc_totals + rep.warp.proc_totals
        assert rep.total_time == pytest.approx(chained.max() + rep.barrier_cycles)

    def test_more_procs_less_time(self, renderer, machine):
        t1 = simulate_frame(frames_for(renderer, "old", 1)[0], machine).total_time
        t4 = simulate_frame(frames_for(renderer, "old", 4)[0], machine).total_time
        assert t4 < t1

    def test_busy_conserved_across_procs(self, renderer, machine):
        """Total busy cycles don't depend on the processor count."""
        b2 = simulate_frame(frames_for(renderer, "old", 2)[0], machine).breakdown()["busy"]
        b4 = simulate_frame(frames_for(renderer, "old", 4)[0], machine).breakdown()["busy"]
        assert b2 == pytest.approx(b4, rel=1e-6)


class TestSimulateAnimation:
    def test_requires_frames(self, machine):
        with pytest.raises(ValueError):
            simulate_animation([], machine)

    def test_mismatched_procs_rejected(self, renderer, machine):
        f2 = frames_for(renderer, "old", 2)[0]
        f4 = frames_for(renderer, "old", 4)[0]
        with pytest.raises(ValueError):
            simulate_animation([f2, f4], machine)

    def test_steady_state_reduces_cold_misses(self, renderer, machine):
        frames = frames_for(renderer, "old", 2, n_frames=3)
        cold_first = simulate_frame(frames[0], machine)
        warm = simulate_animation(frames, machine)
        from repro.analysis.breakdown import combined_stats

        cold1 = combined_stats(cold_first).total_misses("cold")
        cold3 = combined_stats(warm).total_misses("cold")
        assert cold3 < cold1

    def test_old_warp_phase_shows_true_sharing_when_warm(self, renderer, machine):
        """The phase-interface communication the paper diagnoses."""
        frames = frames_for(renderer, "old", 4, n_frames=3)
        rep = simulate_animation(frames, machine)
        assert rep.warp.stats.total_misses("true") > 0

    def test_new_reduces_interface_misses(self, renderer, machine):
        """New algorithm: warp reads mostly hit in the compositor's cache."""
        old = simulate_animation(frames_for(renderer, "old", 4, 3), machine)
        new = simulate_animation(frames_for(renderer, "new", 4, 3), machine)
        old_warp_misses = sum(old.warp.stats.misses[p]["true"] +
                              old.warp.stats.misses[p]["replacement"]
                              for p in range(4))
        new_warp_misses = sum(new.warp.stats.misses[p]["true"] +
                              new.warp.stats.misses[p]["replacement"]
                              for p in range(4))
        assert new_warp_misses < old_warp_misses


class TestMachineConfigs:
    def test_presets_have_paper_parameters(self):
        d = dash()
        assert d.line_bytes == 16
        assert d.cache_bytes == 256 * 1024
        c = challenge()
        assert c.centralized
        assert c.line_bytes == 128
        s = ccnuma_sim()
        assert (s.t_local, s.t_remote2, s.t_remote3) == (70.0, 210.0, 280.0)

    def test_scaled_preserves_latencies(self):
        d = dash().scaled(0.01)
        assert d.t_local == dash().t_local
        assert d.cache_bytes < dash().cache_bytes

    def test_scaled_floor(self):
        d = dash().scaled(1e-9)
        assert d.cache_bytes >= 4 * d.line_bytes * d.assoc

    def test_barrier_grows_with_procs(self):
        m = ccnuma_sim()
        assert m.barrier_cost(32) > m.barrier_cost(2)

    def test_miss_cost_lookup(self):
        m = dash()
        assert m.miss_cost("local") == 30.0
        with pytest.raises(KeyError):
            m.miss_cost("bogus")
