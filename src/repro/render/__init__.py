"""Serial renderers: shear-warp and the ray-casting baseline."""

from .block import composite_scanline_block
from .compositing import composite_frame, composite_image_scanline, nonempty_scanline_bounds
from .image import BYTES_PER_PIXEL, OPAQUE_THRESHOLD, FinalImage, IntermediateImage
from .instrument import ListTraceSink, Region, SegmentedTraceSink, TraceSink, WorkCounters
from .fast import composite_frame_fast, render_fast, warp_frame_fast
from .serial import RenderResult, ShearWarpRenderer, renderer_for
from .shading import NormalTable, PhongParameters, central_gradients, shade_volume
from .warp import (
    final_pixel_source_lines,
    warp_coeffs,
    warp_frame,
    warp_rows,
    warp_rows_by_pid,
    warp_scanline,
    warp_tile,
)

__all__ = [
    "composite_scanline_block",
    "composite_frame",
    "composite_image_scanline",
    "nonempty_scanline_bounds",
    "BYTES_PER_PIXEL",
    "OPAQUE_THRESHOLD",
    "FinalImage",
    "IntermediateImage",
    "ListTraceSink",
    "SegmentedTraceSink",
    "Region",
    "TraceSink",
    "WorkCounters",
    "composite_frame_fast",
    "render_fast",
    "warp_frame_fast",
    "NormalTable",
    "PhongParameters",
    "central_gradients",
    "shade_volume",
    "RenderResult",
    "ShearWarpRenderer",
    "renderer_for",
    "final_pixel_source_lines",
    "warp_coeffs",
    "warp_frame",
    "warp_rows",
    "warp_rows_by_pid",
    "warp_scanline",
    "warp_tile",
]
