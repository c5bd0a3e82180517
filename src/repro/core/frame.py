"""Shared per-frame task bookkeeping for the parallel renderers.

Both parallel algorithms decompose a frame into **tasks**; each task is
executed once (deterministically — a task's cost and memory trace depend
only on the data, not on which processor runs it) and recorded as a
:class:`TaskRecord`.  The execution model then schedules the records on
P logical processors and feeds the per-processor trace streams to the
memory-system simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..render.image import FinalImage, IntermediateImage
from ..render.instrument import Region, WorkCounters
from ..transforms.factorization import ShearWarpFactorization
from ..volume.rle import BYTES_PER_RUN, BYTES_PER_VOXEL, RLEVolume

__all__ = ["TaskRecord", "ParallelFrame", "region_sizes", "COMPOSITE", "WARP"]

COMPOSITE = "composite"
WARP = "warp"


@dataclass
class TaskRecord:
    """One executed task: its cost, op counts, and memory trace."""

    uid: int
    phase: str
    pid0: int  # initially assigned processor
    cost: float  # scalar cost in cycle units (busy time)
    counters: WorkCounters
    #: Trace segments ``(key, records)``: compositing tasks have one
    #: segment per slice (key = slice index, in front-to-back visit
    #: order); warp tasks a single key-0 segment.  Records are
    #: ``(region, start_byte, n_bytes, is_write)``.
    trace: list[tuple[int, list[tuple[str, int, int, bool]]]]
    meta: Any = None  # scanline index, tile rectangle, ...

    @property
    def trace_bytes(self) -> int:
        """Total bytes touched — a machine-independent traffic measure."""
        return sum(r[2] for _, recs in self.trace for r in recs)

    @property
    def trace_line_touches(self) -> int:
        """Estimated cache-line touches: every range record starts a new
        line plus one per 64 bytes.  Distinguishes scanlines with many
        short scattered runs (high miss-per-byte) from dense streaming —
        the quantity per-scanline *time* estimates should scale with.
        """
        return sum(1 + r[2] // 64 for _, recs in self.trace for r in recs)

    def segment(self, key: int) -> list[tuple[str, int, int, bool]]:
        """Records of one segment (empty if the task skipped that slice)."""
        for k, recs in self.trace:
            if k == key:
                return recs
        return []


def region_sizes(
    rle: RLEVolume, img: IntermediateImage, final: FinalImage
) -> dict[str, int]:
    """Byte sizes of every traced data structure for this frame."""
    from ..render.image import BYTES_PER_PIXEL

    return {
        Region.RUN_TABLE: int(rle.run_lengths.size) * BYTES_PER_RUN,
        Region.VOXEL_DATA: int(rle.voxel_opacity.size) * BYTES_PER_VOXEL,
        Region.INTERMEDIATE: img.n_v * img.n_u * BYTES_PER_PIXEL,
        Region.FINAL: final.ny * final.nx * BYTES_PER_PIXEL,
        Region.PROFILE: img.n_v * 8,
    }


@dataclass
class ParallelFrame:
    """Everything recorded while rendering one frame with P processors."""

    algorithm: str  # "old" | "new"
    n_procs: int
    fact: ShearWarpFactorization
    intermediate: IntermediateImage
    final: FinalImage
    composite_units: dict[int, TaskRecord]
    composite_queues: list[list[int]]  # initial per-proc queues (uids)
    warp_tasks: dict[int, TaskRecord]
    warp_queues: list[list[int]]
    region_sizes: dict[str, int]
    #: Slice indices in front-to-back order: the global interleaving key
    #: order for slice-major replay of compositing traces.
    slice_order: tuple[int, ...]
    steal_chunk: int  # stealing granularity for the compositing phase
    composite_stealing: bool = True  # task stealing in the compositing phase
    warp_stealing: bool = False  # neither algorithm steals in the warp
    profiled: bool = False  # did this frame carry profiling overhead?
    profile: Any = None  # ScanlineProfile measured this frame (if any)
    boundaries: np.ndarray | None = None  # new algorithm's partition

    @property
    def composite_cost_total(self) -> float:
        return sum(t.cost for t in self.composite_units.values())

    @property
    def warp_cost_total(self) -> float:
        return sum(t.cost for t in self.warp_tasks.values())

    def counters_total(self) -> WorkCounters:
        total = WorkCounters()
        for t in self.composite_units.values():
            total.merge(t.counters)
        for t in self.warp_tasks.values():
            total.merge(t.counters)
        return total
