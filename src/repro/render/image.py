"""Intermediate (composited) and final image buffers.

The intermediate image lives in sheared object space; its *rows* are the
scanlines that both the compositing partitioners and (in the new
algorithm) the warp partitioner operate on.  Pixels carry (color,
opacity); a pixel whose opacity exceeds ``opaque_threshold`` is treated
as opaque and skipped for the remaining slices (the shear-warp analogue
of early ray termination).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IntermediateImage", "FinalImage", "OPAQUE_THRESHOLD", "BYTES_PER_PIXEL"]

#: Opacity above which a pixel is considered saturated (VolPack uses ~0.95).
OPAQUE_THRESHOLD = 0.95

#: Pixel record size in bytes (one float word of color + one of opacity),
#: used by the memory tracer.
BYTES_PER_PIXEL = 8


def _plane_shape(a: np.ndarray, b: np.ndarray) -> tuple[int, int]:
    """Common 2-D shape of two planes an image is about to wrap."""
    if a.ndim != 2 or a.shape != b.shape or 0 in a.shape:
        raise ValueError(f"planes must share one non-empty 2-D shape, "
                         f"got {a.shape} and {b.shape}")
    return a.shape


@dataclass
class IntermediateImage:
    """Composited image in sheared space: ``(n_v, n_u)`` rows x columns."""

    shape: tuple[int, int]
    opaque_threshold: float = OPAQUE_THRESHOLD
    color: np.ndarray = field(init=False)
    opacity: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n_v, n_u = self.shape
        if n_v <= 0 or n_u <= 0:
            raise ValueError(f"invalid intermediate image shape {self.shape}")
        self.color = np.zeros((n_v, n_u), dtype=np.float32)
        self.opacity = np.zeros((n_v, n_u), dtype=np.float32)

    @classmethod
    def over(cls, color: np.ndarray, opacity: np.ndarray) -> "IntermediateImage":
        """Wrap existing planes (shared-memory views, copies) in place —
        no allocation, no zeroing."""
        self = cls.__new__(cls)
        self.shape = _plane_shape(color, opacity)
        self.opaque_threshold = OPAQUE_THRESHOLD
        self.color, self.opacity = color, opacity
        return self

    @property
    def n_v(self) -> int:
        return self.shape[0]

    @property
    def n_u(self) -> int:
        return self.shape[1]

    def clear(self) -> None:
        """Reset for a new frame."""
        self.color[:] = 0.0
        self.opacity[:] = 0.0

    def scanline_opaque(self, v: int, u_lo: int = 0, u_hi: int | None = None) -> bool:
        """True if every pixel of scanline ``v`` in [u_lo, u_hi) is opaque."""
        sl = self.opacity[v, u_lo:u_hi]
        return bool(np.all(sl >= self.opaque_threshold))

    def pixel_byte_range(self, v: int, u_lo: int, u_hi: int) -> tuple[int, int]:
        """Byte offset and length of pixels ``[u_lo, u_hi)`` of scanline v."""
        start = (v * self.n_u + u_lo) * BYTES_PER_PIXEL
        return start, (u_hi - u_lo) * BYTES_PER_PIXEL


@dataclass
class FinalImage:
    """Warped final image: ``(ny, nx)`` rows x columns of (color, alpha)."""

    shape: tuple[int, int]
    color: np.ndarray = field(init=False)
    alpha: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        ny, nx = self.shape
        if ny <= 0 or nx <= 0:
            raise ValueError(f"invalid final image shape {self.shape}")
        self.color = np.zeros((ny, nx), dtype=np.float32)
        self.alpha = np.zeros((ny, nx), dtype=np.float32)

    @classmethod
    def over(cls, color: np.ndarray, alpha: np.ndarray) -> "FinalImage":
        """Wrap existing planes in place — no allocation, no zeroing."""
        self = cls.__new__(cls)
        self.shape = _plane_shape(color, alpha)
        self.color, self.alpha = color, alpha
        return self

    @property
    def ny(self) -> int:
        return self.shape[0]

    @property
    def nx(self) -> int:
        return self.shape[1]

    def clear(self) -> None:
        self.color[:] = 0.0
        self.alpha[:] = 0.0

    def pixel_byte_range(self, y: int, x_lo: int, x_hi: int) -> tuple[int, int]:
        """Byte offset and length of pixels ``[x_lo, x_hi)`` of row y."""
        start = (y * self.nx + x_lo) * BYTES_PER_PIXEL
        return start, (x_hi - x_lo) * BYTES_PER_PIXEL
