"""Hardware performance-counter emulation (section 5.5.1).

The Origin2000's R10000 counters let the authors *count* events (cache
misses, graduated instructions, cycles) per program section — enough to
see that "a large amount of execution time was spent on cache misses" —
but could not say whether misses were capacity or conflict, sharing or
not, nor whether cost came from miss rates or contention.  That gap in
the tool hierarchy is a thesis of the paper.

This module replays that experience on top of our simulator: it exposes
a :class:`CounterReport` holding only the quantities real counters
could report, so examples and ablations can show precisely where the
counters run out and the detailed simulation has to take over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .execution import FrameReport, PhaseReport

__all__ = ["CounterReport", "PhaseCounters", "sample_counters", "COUNTER_LIMITS"]

#: What the R10000-style counters cannot tell you — the questions that
#: pushed the authors down the tool hierarchy to simulation.
COUNTER_LIMITS = (
    "cannot split misses into capacity vs conflict",
    "cannot split misses into sharing vs replacement (no coherence classes)",
    "cannot attribute stall time to miss rate vs contention",
    "cannot see where invalidations come from",
)


@dataclass(frozen=True)
class PhaseCounters:
    """Per-phase counter readings a real machine could sample."""

    name: str
    cycles: float  # elapsed cycles (max across processors)
    graduated_instructions: float  # total busy cycles as an instruction proxy
    l2_misses: int  # total secondary-cache misses, *unclassified*
    l2_miss_rate: float  # misses / references — per-procedure level info

    @property
    def approx_memory_fraction(self) -> float:
        """The coarse conclusion counters support: time minus
        instructions, as a fraction — "a large amount of execution time
        was spent on cache misses" and no more."""
        if self.cycles <= 0:
            return 0.0
        per_proc_busy = self.graduated_instructions
        return max(0.0, 1.0 - per_proc_busy / (self.cycles or 1.0))


def _sample_phase(phase: PhaseReport, n_procs: int) -> PhaseCounters:
    stats = phase.stats
    total_misses = stats.total_misses()
    refs = stats.total_refs()
    return PhaseCounters(
        name=phase.name,
        cycles=float(phase.span),
        graduated_instructions=float(phase.busy.sum()) / max(1, n_procs),
        l2_misses=total_misses,
        l2_miss_rate=total_misses / refs if refs else 0.0,
    )


@dataclass(frozen=True)
class CounterReport:
    """Everything an R10000-counter toolchain would show for one frame."""

    composite: PhaseCounters
    warp: PhaseCounters
    n_procs: int

    @property
    def phases(self) -> tuple[PhaseCounters, PhaseCounters]:
        return (self.composite, self.warp)

    def summary(self) -> str:
        lines = [f"hardware-counter view ({self.n_procs} processors):"]
        for ph in self.phases:
            lines.append(
                f"  {ph.name:10s} cycles={ph.cycles:12.0f} "
                f"instr/proc={ph.graduated_instructions:12.0f} "
                f"L2 misses={ph.l2_misses:8d} "
                f"(rate {100 * ph.l2_miss_rate:.2f}%)"
            )
        lines.append("  counters cannot tell you:")
        for limit in COUNTER_LIMITS:
            lines.append(f"    - {limit}")
        return "\n".join(lines)


def sample_counters(report: FrameReport) -> CounterReport:
    """Reduce a full simulation report to counter-level information."""
    return CounterReport(
        composite=_sample_phase(report.composite, report.n_procs),
        warp=_sample_phase(report.warp, report.n_procs),
        n_procs=report.n_procs,
    )
