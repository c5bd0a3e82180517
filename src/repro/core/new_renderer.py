"""The NEW parallel shear-warp algorithm (section 4 — the contribution).

Compositing: each processor receives one *contiguous* block of
intermediate-image scanlines, sized predictively from the per-scanline
cost profile of a previous frame (cumulative prefix + boundary search);
only the non-empty region of the image is composited (and profiled).
Idle processors steal chunks of scanlines — the chunk size is decoupled
from the initial assignment (section 4.4; single-scanline stealing blew
up synchronization cost ~10x).

Warp: the *same* intermediate-image partition is reused — each processor
warps exactly the scanlines it composited, so the data is already in its
cache and the inter-phase communication (and, on SVM, the inter-phase
barrier) disappears.  The scanline pair at each partition boundary is
assigned wholly to the neighbor with fewer lines, eliminating
final-image write sharing without locks (section 4.5).  No stealing in
the warp.
"""

from __future__ import annotations

import numpy as np

from ..render.compositing import composite_image_scanline, nonempty_scanline_bounds
from ..render.image import FinalImage, IntermediateImage
from ..render.instrument import ListTraceSink, Region, SegmentedTraceSink, WorkCounters
from ..render.serial import ShearWarpRenderer
from ..render.warp import (
    final_pixel_source_lines,
    warp_coeffs,
    warp_rows_by_pid,
    warp_scanline,
)
from .frame import COMPOSITE, WARP, ParallelFrame, TaskRecord, region_sizes
from .old_renderer import warp_line_cost_estimate, warp_tile_cost
from .partition import contiguous_partition, line_ownership, uniform_contiguous_partition
from .profiling import (
    NOMINAL_MEM_PER_LINE_TOUCH,
    PROFILING_OVERHEAD,
    ProfileSchedule,
    ScanlineProfile,
    scanline_cost,
)

__all__ = ["NewParallelShearWarp", "DEFAULT_STEAL_CHUNK"]

#: Default stealing granularity (scanlines per steal); the paper sizes it
#: from the data set, processor count and cache line size.
DEFAULT_STEAL_CHUNK = 2


class NewParallelShearWarp:
    """Frame factory for the paper's improved parallel algorithm.

    Stateful across frames: the profile measured on frame ``f`` (when the
    :class:`ProfileSchedule` says so) drives the partition of frames
    ``f+1 ...`` until the next profiled frame.
    """

    def __init__(
        self,
        renderer: ShearWarpRenderer,
        n_procs: int,
        steal_chunk: int = DEFAULT_STEAL_CHUNK,
        profile_schedule: ProfileSchedule | None = None,
        mem_per_line_touch: float = NOMINAL_MEM_PER_LINE_TOUCH,
        partition: str = "profile",
        stealing: bool = True,
        recorder=None,
    ) -> None:
        if n_procs < 1:
            raise ValueError("need at least one processor")
        if partition not in ("profile", "uniform"):
            raise ValueError("partition must be 'profile' or 'uniform'")
        # Ablation knobs: 'uniform' disables the predictive profile
        # (equal-count contiguous split, no profiling overhead);
        # stealing=False isolates what dynamic stealing contributes.
        self.partition_mode = partition
        self.stealing = stealing
        self.renderer = renderer
        self.n_procs = n_procs
        self.steal_chunk = steal_chunk
        self.schedule = profile_schedule or ProfileSchedule(period=5)
        # Traffic-to-time coefficient of the machine the renderer "runs
        # on": the paper's profile measures elapsed per-scanline time
        # natively; our machine-independent op counts are converted with
        # this (see MachineConfig.mem_per_line_touch).
        self.mem_per_line_touch = mem_per_line_touch
        self.last_profile: ScanlineProfile | None = None
        # Optional repro.obs.SpanRecorder: wall-clock phase spans of the
        # recording pass itself (frame id = frames rendered so far).
        self.recorder = recorder
        self._obs_frame = 0

    def _partition(self, v_lo: int, v_hi: int, warp_line_cost: float) -> np.ndarray:
        """Contiguous boundaries for the current frame.

        The partition balances each processor's whole frame — measured
        compositing profile plus the (roughly uniform) per-scanline warp
        cost.  Since the new algorithm has no barrier between the
        phases, a processor's completion time is the *sum* of its two
        phases, so that sum is what the split equalizes.  (At the
        paper's 26-scanlines-per-processor granularity the warp term is
        negligible, matching their compositing-only balancing; at proxy
        granularity the end processors would otherwise collect many
        cheap-to-composite but full-width-to-warp scanlines.)
        """
        prof = self.last_profile
        if prof is None or prof.total <= 0:
            return uniform_contiguous_partition(v_lo, v_hi, self.n_procs)
        prof = prof.trim_empty()
        if len(prof.costs) < self.n_procs:
            return uniform_contiguous_partition(v_lo, v_hi, self.n_procs)
        # The profile is in the previous frame's scanline coordinates; the
        # viewpoint moves a few degrees between frames, so using the same
        # indices is the paper's prediction step.  Clamp to this frame's
        # non-empty region.
        bounds = contiguous_partition(
            prof.costs + warp_line_cost, self.n_procs, v_lo=prof.v_lo
        )
        bounds = np.clip(bounds, v_lo, v_hi)
        bounds[0], bounds[-1] = v_lo, v_hi
        for p in range(1, self.n_procs + 1):
            bounds[p] = max(bounds[p], bounds[p - 1])
        return bounds

    def render_frame(self, view: np.ndarray) -> ParallelFrame:
        """Render one frame and advance the profile schedule."""
        obs, obs_frame = self.recorder, self._obs_frame
        self._obs_frame += 1
        fact = self.renderer.factorize_view(view)
        if obs is not None:
            t0 = obs.now()
        rle = self.renderer.rle_for(fact)
        if obs is not None:
            t1 = obs.now()
            obs.span(obs_frame, "decode", t0, t1)
        img = IntermediateImage(fact.intermediate_shape)
        final = FinalImage(fact.final_shape)

        # First optimization: find the non-empty scanline region up front.
        v_lo, v_hi = nonempty_scanline_bounds(rle, fact)
        profiled = (self.partition_mode == "profile"
                    and (self.schedule.should_profile() or self.last_profile is None))
        if self.partition_mode == "uniform":
            self.last_profile = None
        boundaries = self._partition(
            v_lo, v_hi, warp_line_cost_estimate(img.n_u, self.mem_per_line_touch)
        )

        # ---- compositing: contiguous per-processor scanline blocks ----
        composite_units: dict[int, TaskRecord] = {}
        composite_queues: list[list[int]] = [[] for _ in range(self.n_procs)]
        costs = np.zeros(max(0, v_hi - v_lo), dtype=np.float64)
        for pid in range(self.n_procs):
            for v in range(int(boundaries[pid]), int(boundaries[pid + 1])):
                sink = SegmentedTraceSink()
                counters = WorkCounters()
                composite_image_scanline(img, v, rle, fact,
                                         counters=counters, trace=sink)
                cost = scanline_cost(counters)
                if profiled:
                    # Profiling instructions inflate compositing by 10-15 %
                    # and write the per-scanline profile entry.
                    counters.profile_ops += int(cost * PROFILING_OVERHEAD)
                    cost *= 1.0 + PROFILING_OVERHEAD
                    sink.access(Region.PROFILE, v * 8, 8, write=True)
                rec = TaskRecord(
                    uid=v,
                    phase=COMPOSITE,
                    pid0=pid,
                    cost=cost,
                    counters=counters,
                    trace=sink.take_segments(),
                    meta=v,
                )
                # The profile predicts per-scanline *time*: instructions
                # plus a nominal memory term for the cache lines touched.
                costs[v - v_lo] = (
                    scanline_cost(counters)
                    + self.mem_per_line_touch * rec.trace_line_touches
                )
                composite_units[v] = rec
                composite_queues[pid].append(v)

        if obs is not None:
            t2 = obs.now()
            obs.span(obs_frame, "composite", t1, t2)
            obs.count(obs_frame, "rows", max(0, v_hi - v_lo))

        profile = None
        if profiled:
            profile = ScanlineProfile(v_lo, costs)
            self.last_profile = profile
        if obs is not None:
            t3 = obs.now()
            if profiled:
                # The cost collapse is fused into the scanline loop above;
                # this span marks the profile *assembly* (paper's write-out).
                obs.span(obs_frame, "profile", t2, t3)

        # ---- warp: same partition, boundary-pair ownership ----
        owner = line_ownership(boundaries, img.n_v)
        coeffs = warp_coeffs(fact)
        src_lines = final_pixel_source_lines(final.shape, fact, coeffs=coeffs)
        # Exact row lists: a processor touches final row y only if it
        # owns one of the intermediate scanlines the row samples.
        rows_by_pid = warp_rows_by_pid(src_lines, owner, self.n_procs)
        warp_tasks: dict[int, TaskRecord] = {}
        warp_queues: list[list[int]] = [[] for _ in range(self.n_procs)]
        for pid in range(self.n_procs):
            sink = ListTraceSink()
            counters = WorkCounters()
            for y in rows_by_pid[pid]:
                warp_scanline(final, int(y), img, fact, line_owner=owner,
                              pid=pid, counters=counters, trace=sink,
                              coeffs=coeffs)
            rec = TaskRecord(
                uid=pid,
                phase=WARP,
                pid0=pid,
                cost=warp_tile_cost(counters),
                counters=counters,
                trace=sink.take_segments(),
                meta=(int(boundaries[pid]), int(boundaries[pid + 1])),
            )
            warp_tasks[pid] = rec
            warp_queues[pid].append(pid)

        if obs is not None:
            obs.span(obs_frame, "warp", t3, obs.now())

        self.schedule.advance()
        return ParallelFrame(
            algorithm="new",
            n_procs=self.n_procs,
            fact=fact,
            intermediate=img,
            final=final,
            composite_units=composite_units,
            composite_queues=composite_queues,
            warp_tasks=warp_tasks,
            warp_queues=warp_queues,
            region_sizes=region_sizes(rle, img, final),
            slice_order=tuple(int(k) for k in fact.k_front_to_back),
            steal_chunk=self.steal_chunk,
            composite_stealing=self.stealing,
            profiled=profiled,
            profile=profile,
            boundaries=boundaries,
        )
