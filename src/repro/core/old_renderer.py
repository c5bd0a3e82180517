"""The ORIGINAL parallel shear-warp algorithm (section 3.1).

Compositing: the intermediate image's scanlines are grouped into
fixed-size chunks, dealt round-robin (interleaved) across processors;
idle processors steal chunks.  The whole image is composited "blindly"
from the first scanline to the last (no empty-region optimization).

Warp: the *final* image is divided into fixed-size square tiles, dealt
round-robin; no stealing.  A processor's warp tiles bear no relation to
the intermediate scanlines it composited — the true-sharing
communication at the phase interface that the paper diagnoses as the
scalability bottleneck.
"""

from __future__ import annotations

import numpy as np

from ..render.compositing import composite_image_scanline
from ..render.image import FinalImage, IntermediateImage
from ..render.instrument import ListTraceSink, SegmentedTraceSink, WorkCounters
from ..render.serial import ShearWarpRenderer
from ..render.warp import warp_coeffs, warp_tile
from .frame import COMPOSITE, WARP, ParallelFrame, TaskRecord, region_sizes
from .partition import interleaved_chunks, round_robin_tiles
from .profiling import scanline_cost

__all__ = ["OldParallelShearWarp", "DEFAULT_CHUNK", "DEFAULT_TILE", "warp_tile_cost"]

#: Default chunk size (scanlines per task).  The paper determines the
#: optimal size empirically per configuration; callers can sweep it.
DEFAULT_CHUNK = 4
#: Default warp tile edge (pixels).
DEFAULT_TILE = 16

# Warp-phase cost weights (cycles per op), calibrated with the
# compositing weights in repro.core.profiling so the warp is ~10 % of
# serial frame time (Figure 2's proportions).
_W_WARP_PIXEL = 10.0
_W_WARP_ROW = 40.0


def warp_tile_cost(c: WorkCounters) -> float:
    """Scalar cost of a warp task from its op counts."""
    return _W_WARP_PIXEL * c.warp_pixels + _W_WARP_ROW * c.loop_iters


def warp_line_cost_estimate(n_u: int, mem_per_line_touch: float | None = None) -> float:
    """A priori warp *time* for one intermediate scanline's worth of
    final pixels.

    Each owned scanline implies roughly one final row of resampled
    pixels, whose bilinear reads touch two intermediate rows (partially
    re-read across adjacent final rows) plus the final-image writes —
    about 48 traffic bytes (3/4 of a 64-byte touch) per pixel on top of
    the per-pixel compute.
    """
    from .profiling import NOMINAL_MEM_PER_LINE_TOUCH

    mem = NOMINAL_MEM_PER_LINE_TOUCH if mem_per_line_touch is None else mem_per_line_touch
    return (_W_WARP_PIXEL + 0.75 * mem) * n_u + _W_WARP_ROW


class OldParallelShearWarp:
    """Frame factory for the original parallel algorithm.

    Produces :class:`ParallelFrame` records; timing comes from
    :mod:`repro.parallel.execution`.
    """

    def __init__(
        self,
        renderer: ShearWarpRenderer,
        n_procs: int,
        chunk: int = DEFAULT_CHUNK,
        tile: int = DEFAULT_TILE,
        recorder=None,
    ) -> None:
        if n_procs < 1:
            raise ValueError("need at least one processor")
        self.renderer = renderer
        self.n_procs = n_procs
        self.chunk = chunk
        self.tile = tile
        # Optional repro.obs.SpanRecorder: wall-clock phase spans of the
        # recording pass itself (frame id = frames rendered so far).
        self.recorder = recorder
        self._obs_frame = 0

    def render_frame(self, view: np.ndarray) -> ParallelFrame:
        """Render one frame, recording per-task costs and traces."""
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

        # ---- compositing: every scanline is an atomic unit ----
        n_v = img.n_v
        chunks = interleaved_chunks(0, n_v, self.chunk, self.n_procs)
        composite_units: dict[int, TaskRecord] = {}
        composite_queues: list[list[int]] = [[] for _ in range(self.n_procs)]
        for pid, chunk_list in enumerate(chunks):
            for (lo, hi) in chunk_list:
                for v in range(lo, hi):
                    sink = SegmentedTraceSink()
                    counters = WorkCounters()
                    composite_image_scanline(img, v, rle, fact,
                                             counters=counters, trace=sink)
                    rec = TaskRecord(
                        uid=v,
                        phase=COMPOSITE,
                        pid0=pid,
                        cost=scanline_cost(counters),
                        counters=counters,
                        trace=sink.take_segments(),
                        meta=v,
                    )
                    composite_units[v] = rec
                    composite_queues[pid].append(v)

        if obs is not None:
            t2 = obs.now()
            obs.span(obs_frame, "composite", t1, t2)
            obs.count(obs_frame, "rows", n_v)

        # ---- warp: round-robin tiles of the final image ----
        tiles = round_robin_tiles(final.shape, self.tile, self.n_procs)
        coeffs = warp_coeffs(fact)  # one 2x2 inverse for the whole frame
        warp_tasks: dict[int, TaskRecord] = {}
        warp_queues: list[list[int]] = [[] for _ in range(self.n_procs)]
        uid = 0
        for pid, tile_list in enumerate(tiles):
            for (y0, y1, x0, x1) in tile_list:
                sink = ListTraceSink()
                counters = WorkCounters()
                warp_tile(final, y0, y1, x0, x1, img, fact,
                          counters=counters, trace=sink, coeffs=coeffs)
                rec = TaskRecord(
                    uid=uid,
                    phase=WARP,
                    pid0=pid,
                    cost=warp_tile_cost(counters),
                    counters=counters,
                    trace=sink.take_segments(),
                    meta=(y0, y1, x0, x1),
                )
                warp_tasks[uid] = rec
                warp_queues[pid].append(uid)
                uid += 1

        if obs is not None:
            obs.span(obs_frame, "warp", t2, obs.now())

        return ParallelFrame(
            algorithm="old",
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
            steal_chunk=self.chunk,
        )
