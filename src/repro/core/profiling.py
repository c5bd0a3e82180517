"""Per-scanline cost profiling and the profile schedule (section 4.2).

The new algorithm inserts profiling instructions into the compositing
kernel to count, per intermediate-image scanline, the work done for the
current frame; the profile predicts the *next* frame's per-scanline
costs because successive animation viewpoints differ by a few degrees.
Profiling costs 10-15 % extra compositing time, so it runs only every
``k`` frames — the paper picks ``k`` so profiles refresh once every ~15
degrees of rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..render.instrument import WorkCounters

__all__ = [
    "scanline_cost",
    "PROFILING_OVERHEAD",
    "NOMINAL_MEM_PER_BYTE",
    "ScanlineProfile",
    "ProfileSchedule",
]

#: Fractional compositing-time overhead of a profiled frame (paper: 10-15 %).
PROFILING_OVERHEAD = 0.12

# Cost weights (cycles per counted operation) used to collapse a
# scanline's WorkCounters into one scalar "instructions executed" value,
# mirroring the basic-block instruction counts of the paper's profiler.
# Calibrated so the serial renderer's memory-stall fraction on the DASH
# model matches the paper's measurement (~18 % at P=1, section 3.4.1);
# see EXPERIMENTS.md for the calibration note.
_W_RESAMPLE = 48.0
_W_RUN = 6.0
_W_LOOP = 20.0
_W_SKIP = 1.0

#: Nominal memory cycles per byte of traffic (one ~100-cycle miss per
#: 64-byte line) used when a *time* estimate is needed before the
#: machine is known: profile-based partitioning and steal scheduling
#: must balance wall-clock time, which at these volume sizes is
#: measurably memory-dependent (unlike the paper's instruction-count
#: profile, which sufficed at ~18 % memory share).
NOMINAL_MEM_PER_BYTE = 1.5
#: Nominal memory cycles per estimated cache-line touch (see
#: ``TaskRecord.trace_line_touches``) — the preferred traffic-to-time
#: estimate, since scattered short runs miss once per *touch*, not per
#: byte.
NOMINAL_MEM_PER_LINE_TOUCH = 90.0


def scanline_cost(c: WorkCounters) -> float:
    """Scalar cost (cycle units) of one scanline's compositing work."""
    return (
        _W_RESAMPLE * c.resample_ops
        + _W_RUN * c.run_entries
        + _W_LOOP * c.loop_iters
        + _W_SKIP * c.pixels_skipped
    )


@dataclass
class ScanlineProfile:
    """A measured per-scanline cost profile for one frame.

    ``costs[i]`` is the cost of absolute scanline ``v_lo + i``.  The
    cumulative curve (parallel prefix) is what the partitioner searches.
    """

    v_lo: int
    costs: np.ndarray

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=np.float64)
        if np.any(self.costs < 0):
            raise ValueError("scanline costs must be non-negative")

    @property
    def v_hi(self) -> int:
        return self.v_lo + len(self.costs)

    @property
    def total(self) -> float:
        return float(self.costs.sum())

    def cumulative(self) -> np.ndarray:
        """The parallel-prefix cumulative cost curve of Figure 11."""
        return np.cumsum(self.costs)

    def trim_empty(self) -> "ScanlineProfile":
        """Drop zero-cost scanlines at both ends (the empty image margins)."""
        nz = np.nonzero(self.costs > 0)[0]
        if len(nz) == 0:
            return ScanlineProfile(self.v_lo, self.costs[:0])
        lo, hi = int(nz[0]), int(nz[-1]) + 1
        return ScanlineProfile(self.v_lo + lo, self.costs[lo:hi])


@dataclass
class ProfileSchedule:
    """Decides which frames re-profile (every ``period`` frames).

    ``period`` corresponds to the paper's choice of k: with an animation
    stepping ``degrees_per_frame``, profiles refresh every
    ``refresh_degrees`` of rotation.
    """

    period: int = 5
    _frame: int = field(default=0, init=False)

    @classmethod
    def from_rotation(cls, degrees_per_frame: float, refresh_degrees: float = 15.0) -> "ProfileSchedule":
        if degrees_per_frame <= 0:
            raise ValueError("degrees_per_frame must be positive")
        return cls(period=max(1, int(round(refresh_degrees / degrees_per_frame))))

    def should_profile(self) -> bool:
        """True if the *current* frame must be profiled (always frame 0)."""
        return self._frame % self.period == 0

    def advance(self) -> None:
        self._frame += 1

    @property
    def frame(self) -> int:
        return self._frame
