"""Working-set and spatial-locality sweeps (Figures 8, 9, 17, 18).

The paper measures working sets by running the program on the simulator
with per-processor cache sizes swept in powers of two and locating the
knees of the miss-rate-vs-cache-size curve; spatial locality by sweeping
the cache line size.  Both sweeps re-simulate the same recorded frame
with a modified machine, so the renderer/scheduler work is shared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.frame import ParallelFrame
from ..memsim.execution import simulate_animation, simulate_frame
from ..memsim.machine import MachineConfig
from .breakdown import combined_stats, miss_breakdown


def _simulate(frame_or_frames, machine):
    """One frame -> cold simulation; a sequence -> steady-state animation.

    Sweeps skip the two-pass schedule refinement (refine=0): it only
    sharpens timing, not the miss statistics the sweeps report.
    """
    if isinstance(frame_or_frames, ParallelFrame):
        return simulate_frame(frame_or_frames, machine, refine=0)
    return simulate_animation(list(frame_or_frames), machine, refine=0)

__all__ = ["SweepPoint", "cache_size_sweep", "cache_for_rate", "line_size_sweep", "working_set_size"]


@dataclass
class SweepPoint:
    """One sweep sample: parameter value and resulting miss statistics."""

    value: int  # cache bytes or line bytes
    miss_rate: float  # percent, cold misses excluded
    breakdown: dict[str, float]  # percent per class (no cold)


def cache_size_sweep(
    frame: ParallelFrame,
    machine: MachineConfig,
    sizes: tuple[int, ...] = tuple(2**k for k in range(10, 21)),
) -> list[SweepPoint]:
    """Miss rate vs per-processor cache size (paper: 1 KB .. 1 MB).

    ``frame`` may be a single frame (cold caches) or a frame sequence
    (steady-state animation, as the paper measures).
    """
    out = []
    for size in sizes:
        m = replace(machine, cache_bytes=int(size))
        report = _simulate(frame, m)
        stats = combined_stats(report)
        out.append(
            SweepPoint(
                value=int(size),
                miss_rate=100.0 * stats.miss_rate(include_cold=False),
                breakdown=miss_breakdown(report),
            )
        )
    return out


def line_size_sweep(
    frame: ParallelFrame,
    machine: MachineConfig,
    lines: tuple[int, ...] = (16, 32, 64, 128, 256),
) -> list[SweepPoint]:
    """Miss rate vs cache line size at fixed capacity (Figures 8/17)."""
    out = []
    for line in lines:
        m = replace(machine, line_bytes=int(line))
        report = _simulate(frame, m)
        stats = combined_stats(report)
        out.append(
            SweepPoint(
                value=int(line),
                miss_rate=100.0 * stats.miss_rate(include_cold=False),
                breakdown=miss_breakdown(report),
            )
        )
    return out


def working_set_size(points: list[SweepPoint], knee_ratio: float = 0.5) -> int:
    """Locate the working set: smallest cache whose miss rate is within
    ``knee_ratio`` of the way down from the worst to the best rate.

    A crude but robust knee detector for monotone miss-rate curves.
    """
    if not points:
        raise ValueError("empty sweep")
    pts = sorted(points, key=lambda s: s.value)
    worst = pts[0].miss_rate
    best = pts[-1].miss_rate
    threshold = best + (worst - best) * (1.0 - knee_ratio)
    for s in pts:
        if s.miss_rate <= threshold:
            return s.value
    return pts[-1].value


def cache_for_rate(points: list[SweepPoint], target_rate: float = 1.5) -> int:
    """Smallest cache whose miss rate is at or below ``target_rate`` (%).

    A more robust working-set size measure than knee detection when the
    sweep grid is coarse or the curve declines smoothly; returns the
    largest swept size if the target is never reached.
    """
    if not points:
        raise ValueError("empty sweep")
    for s in sorted(points, key=lambda s: s.value):
        if s.miss_rate <= target_rate:
            return s.value
    return max(points, key=lambda s: s.value).value
