"""Tests for the analysis layer (breakdowns, working sets, harness)."""

import numpy as np
import pytest

from repro.analysis.breakdown import (
    combined_stats,
    format_table,
    miss_breakdown,
    time_breakdown_rows,
)
from repro.analysis.workingset import (
    SweepPoint,
    cache_size_sweep,
    line_size_sweep,
    working_set_size,
)
from repro.core import OldParallelShearWarp
from repro.datasets import mri_brain
from repro.memsim import ccnuma_sim, simulate_frame
from repro.render import ShearWarpRenderer
from repro.volume import mri_transfer_function


@pytest.fixture(scope="module")
def frame():
    r = ShearWarpRenderer(mri_brain((24, 24, 18)), mri_transfer_function())
    return OldParallelShearWarp(r, n_procs=4).render_frame(
        r.view_from_angles(20, 30, 0)
    )


@pytest.fixture(scope="module")
def machine():
    return ccnuma_sim().scaled(1 / 256)


@pytest.fixture(scope="module")
def report(frame, machine):
    return simulate_frame(frame, machine)


class TestBreakdown:
    def test_combined_stats_adds_phases(self, report):
        c = combined_stats(report)
        assert c.total_refs() == (report.composite.stats.total_refs()
                                  + report.warp.stats.total_refs())
        assert c.total_misses() == (report.composite.stats.total_misses()
                                    + report.warp.stats.total_misses())

    def test_miss_breakdown_excludes_cold_by_default(self, report):
        mb = miss_breakdown(report)
        assert "cold" not in mb
        mb_all = miss_breakdown(report, include_cold=True)
        assert "cold" in mb_all

    def test_miss_breakdown_percent_range(self, report):
        for v in miss_breakdown(report, include_cold=True).values():
            assert 0.0 <= v <= 100.0

    def test_time_breakdown_rows(self, report):
        rows = time_breakdown_rows({4: report})
        assert len(rows) == 1
        p, busy, mem, sync = rows[0]
        assert p == 4
        assert busy + mem + sync == pytest.approx(100.0, abs=0.1)

    def test_format_table(self):
        out = format_table(["a", "b"], [(1, 2.5), (3, 4.0)])
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "2.50" in lines[2]


class TestWorkingSet:
    def test_cache_sweep_miss_rate_nonincreasing(self, frame, machine):
        pts = cache_size_sweep(frame, machine, sizes=(512, 4096, 65536))
        rates = [p.miss_rate for p in pts]
        # Larger caches can't have (much) higher miss rates.
        assert rates[-1] <= rates[0] + 0.1

    def test_line_sweep_shear_warp_likes_long_lines(self, frame, machine):
        """Figure 8: miss rate drops with line size (good spatial locality).

        Needs a cache small enough that the volume streams miss (the
        paper's regime); with everything cache-resident only false
        sharing would remain and the trend inverts.
        """
        from dataclasses import replace

        small = replace(machine, cache_bytes=1024)
        pts = line_size_sweep(frame, small, lines=(16, 32))
        # At unit-test volume sizes only the first doubling is free of
        # capacity artifacts; the full 16..256 B sweep is exercised at
        # experiment scale by benchmarks/fig08_old_linesize.py.
        assert pts[1].miss_rate < pts[0].miss_rate

    def test_working_set_knee(self):
        pts = [
            SweepPoint(1024, 20.0, {}),
            SweepPoint(4096, 18.0, {}),
            SweepPoint(16384, 2.0, {}),
            SweepPoint(65536, 1.5, {}),
        ]
        assert working_set_size(pts) == 16384

    def test_working_set_empty_raises(self):
        with pytest.raises(ValueError):
            working_set_size([])


class TestHarness:
    def test_get_renderer_cached(self):
        from repro.analysis.harness import get_renderer

        a = get_renderer("mri128", scale=0.1)
        b = get_renderer("mri128", scale=0.1)
        assert a is b

    def test_record_frames_cached_and_sized(self):
        from repro.analysis.harness import record_frames

        frames = record_frames("mri128", "old", 2, n_frames=2, scale=0.1)
        assert len(frames) == 2
        again = record_frames("mri128", "old", 2, n_frames=2, scale=0.1)
        assert frames is again

    def test_machine_for_scales_cache(self):
        from repro.analysis.harness import machine_for

        m = machine_for("dash", scale=0.125)
        assert m.cache_bytes < 256 * 1024

    def test_speedup_curve_shape(self):
        from repro.analysis.harness import speedup_curve

        pts = speedup_curve("mri128", "old", "challenge", procs=(1, 2), scale=0.1)
        assert [p.n_procs for p in pts] == [1, 2]
        assert pts[0].speedup == pytest.approx(1.0)
        assert pts[1].speedup > 0

    def test_speedup_respects_max_procs(self):
        from repro.analysis.harness import speedup_curve

        pts = speedup_curve("mri128", "old", "challenge", procs=(1, 64), scale=0.1)
        assert [p.n_procs for p in pts] == [1]

    def test_unknown_algorithm_rejected(self):
        from repro.analysis.harness import record_frames

        with pytest.raises(ValueError):
            record_frames("mri128", "fancy", 2, scale=0.1)


class TestCacheForRate:
    def test_smallest_size_reaching_target(self):
        from repro.analysis.workingset import SweepPoint, cache_for_rate

        pts = [SweepPoint(1024, 9.0, {}), SweepPoint(4096, 1.4, {}),
               SweepPoint(16384, 0.2, {})]
        assert cache_for_rate(pts, target_rate=1.5) == 4096

    def test_never_reached_returns_largest(self):
        from repro.analysis.workingset import SweepPoint, cache_for_rate

        pts = [SweepPoint(1024, 9.0, {}), SweepPoint(4096, 5.0, {})]
        assert cache_for_rate(pts, target_rate=1.5) == 4096

    def test_empty_raises(self):
        import pytest

        from repro.analysis.workingset import cache_for_rate

        with pytest.raises(ValueError):
            cache_for_rate([])
