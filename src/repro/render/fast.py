"""Vectorized whole-frame rendering (the fast path for interactive use).

The scanline kernel in :mod:`repro.render.compositing` is the faithful,
instrumentable unit of work the parallel studies are built on.  For
actually *using* the renderer, compositing goes through the block kernel
(:mod:`repro.render.block`) — slice-major, resampling only the
unsaturated pixels under each slice's non-transparent voxels, per-row
early termination — called here with the whole frame as one degenerate
band.  The warp is a single vectorized
inverse-mapped gather: :func:`repro.render.warp.warp_rows` over every
row with no owner mask — the same function a pool worker calls on the
rows of its own band, so the vectorized warp exists once.

Both fast phases are **bit-identical** to the reference kernels (same
per-pixel operations, operand order and rounding), typically ~5-20x
faster.
"""

from __future__ import annotations

import numpy as np

from ..transforms.factorization import ShearWarpFactorization
from ..volume.rle import RLEVolume
from .block import composite_scanline_block
from .image import FinalImage, IntermediateImage
from .serial import RenderResult, ShearWarpRenderer
from .warp import warp_rows

__all__ = ["composite_frame_fast", "warp_frame_fast", "render_fast"]


def composite_frame_fast(
    img: IntermediateImage,
    rle: RLEVolume,
    fact: ShearWarpFactorization,
) -> IntermediateImage:
    """Composite every scanline: the whole-frame call of the block kernel."""
    return composite_scanline_block(img, 0, img.n_v, rle, fact)


def warp_frame_fast(
    final: FinalImage,
    img: IntermediateImage,
    fact: ShearWarpFactorization,
) -> FinalImage:
    """Warp the whole final image with one vectorized gather: the
    all-rows, no-owner call of :func:`repro.render.warp.warp_rows`."""
    warp_rows(final, np.arange(final.ny), img, fact)
    return final


def render_fast(
    renderer: ShearWarpRenderer,
    view: np.ndarray,
    recorder=None,
    obs_frame: int = 0,
    timestep: int | None = None,
) -> RenderResult:
    """Render one frame through the vectorized path.

    ``recorder`` (a :class:`repro.obs.SpanRecorder`) captures wall-clock
    decode/composite/warp spans for frame id ``obs_frame``; ``None``
    (the default) records nothing.  ``timestep`` selects the encoding of
    a time-varying renderer and is ignored by static ones.
    """
    fact = renderer.factorize_view(view)
    if recorder is not None:
        t0 = recorder.now()
    rle = renderer.rle_for(fact, timestep=timestep)
    img = IntermediateImage(fact.intermediate_shape)
    if recorder is not None:
        t1 = recorder.now()
        recorder.span(obs_frame, "decode", t0, t1)
    composite_frame_fast(img, rle, fact)
    if recorder is not None:
        t2 = recorder.now()
        recorder.span(obs_frame, "composite", t1, t2)
        recorder.count(obs_frame, "rows", img.n_v)
    final = FinalImage(fact.final_shape)
    warp_frame_fast(final, img, fact)
    if recorder is not None:
        recorder.span(obs_frame, "warp", t2, recorder.now())
    return RenderResult(final=final, intermediate=img, fact=fact)
