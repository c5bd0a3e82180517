"""Tests for scanline profiling and the profile schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiling import (
    PROFILING_OVERHEAD,
    ProfileSchedule,
    ScanlineProfile,
    scanline_cost,
)
from repro.render import WorkCounters


class TestScanlineCost:
    def test_zero_counters_zero_cost(self):
        assert scanline_cost(WorkCounters()) == 0.0

    def test_monotone_in_resamples(self):
        a = WorkCounters(resample_ops=10)
        b = WorkCounters(resample_ops=20)
        assert scanline_cost(b) > scanline_cost(a)

    def test_all_terms_contribute(self):
        base = scanline_cost(WorkCounters())
        for field, val in (("resample_ops", 5), ("run_entries", 5),
                           ("loop_iters", 5), ("pixels_skipped", 5)):
            c = WorkCounters(**{field: val})
            assert scanline_cost(c) > base, field


class TestScanlineProfile:
    def test_cumulative_is_prefix_sum(self):
        p = ScanlineProfile(10, np.array([1.0, 2.0, 3.0]))
        assert list(p.cumulative()) == [1.0, 3.0, 6.0]
        assert p.total == 6.0
        assert p.v_hi == 13

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            ScanlineProfile(0, np.array([1.0, -1.0]))

    def test_trim_empty_strips_margins(self):
        p = ScanlineProfile(5, np.array([0, 0, 3.0, 1.0, 0, 2.0, 0, 0]))
        t = p.trim_empty()
        assert t.v_lo == 7
        assert list(t.costs) == [3.0, 1.0, 0.0, 2.0]

    def test_trim_all_empty(self):
        t = ScanlineProfile(5, np.zeros(4)).trim_empty()
        assert len(t.costs) == 0

    @settings(max_examples=25, deadline=None)
    @given(costs=st.lists(st.floats(0, 100), min_size=1, max_size=50))
    def test_cumulative_monotone_property(self, costs):
        p = ScanlineProfile(0, np.array(costs))
        cum = p.cumulative()
        assert np.all(np.diff(cum) >= -1e-12)
        assert cum[-1] == pytest.approx(p.total)


class TestProfileSchedule:
    def test_period_one_profiles_everything(self):
        s = ProfileSchedule(period=1)
        for _ in range(4):
            assert s.should_profile()
            s.advance()

    def test_period_k(self):
        s = ProfileSchedule(period=3)
        flags = []
        for _ in range(7):
            flags.append(s.should_profile())
            s.advance()
        assert flags == [True, False, False, True, False, False, True]

    def test_from_rotation_matches_paper_rule(self):
        """Profiles refresh every ~15 degrees of rotation."""
        s = ProfileSchedule.from_rotation(degrees_per_frame=3.0)
        assert s.period == 5
        s = ProfileSchedule.from_rotation(degrees_per_frame=30.0)
        assert s.period == 1

    def test_from_rotation_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ProfileSchedule.from_rotation(0.0)

    def test_overhead_constant_in_paper_range(self):
        assert 0.10 <= PROFILING_OVERHEAD <= 0.15
