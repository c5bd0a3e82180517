"""Tests for the hardware performance-counter emulation."""

import pytest

from repro.core import OldParallelShearWarp
from repro.datasets import mri_brain
from repro.memsim import origin2000, simulate_frame
from repro.memsim.perfcounters import COUNTER_LIMITS, sample_counters
from repro.render import ShearWarpRenderer
from repro.volume import mri_transfer_function


@pytest.fixture(scope="module")
def report():
    r = ShearWarpRenderer(mri_brain((22, 22, 16)), mri_transfer_function())
    frame = OldParallelShearWarp(r, n_procs=4).render_frame(
        r.view_from_angles(20, 30, 0)
    )
    return simulate_frame(frame, origin2000().scaled(0.002))


class TestCounters:
    def test_counts_match_simulation_totals(self, report):
        c = sample_counters(report)
        assert c.composite.l2_misses == report.composite.stats.total_misses()
        assert c.warp.l2_misses == report.warp.stats.total_misses()
        assert c.composite.cycles == pytest.approx(report.composite.span)

    def test_counters_expose_no_miss_classes(self, report):
        """The point of section 5.5.1: only *counts*, no classes."""
        c = sample_counters(report)
        for phase in c.phases:
            fields = set(phase.__dataclass_fields__)
            assert "l2_misses" in fields
            assert not any("true" in f or "sharing" in f or "conflict" in f
                           for f in fields)

    def test_memory_fraction_coarse_conclusion(self, report):
        c = sample_counters(report)
        assert 0.0 <= c.composite.approx_memory_fraction <= 1.0

    def test_summary_mentions_limitations(self, report):
        text = sample_counters(report).summary()
        for limit in COUNTER_LIMITS:
            assert limit in text

    def test_miss_rate_bounded(self, report):
        c = sample_counters(report)
        assert 0.0 <= c.composite.l2_miss_rate <= 1.0
