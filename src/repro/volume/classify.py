"""Voxel classification: scalar value -> (opacity, color).

The shear-warp pipeline classifies the volume once (per transfer
function), thresholds away low-opacity voxels, and run-length-encodes
the result.  As in VolPack, classification happens *before* rendering,
so the renderer streams over pre-shaded (opacity, color) voxel records.

Colors are scalar luminances: the paper's performance study is
insensitive to the number of color channels, and one channel keeps the
voxel record at two 4-byte words (opacity + luminance), matching the
compact records the memory-system analysis assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TransferFunction",
    "mri_transfer_function",
    "ct_transfer_function",
    "binary_transfer_function",
    "transfer_function_for",
    "OPACITY_EPSILON",
]

#: Voxels classified below this opacity are treated as fully transparent
#: and dropped from the run-length encoding (VolPack's min-opacity cull).
OPACITY_EPSILON = 0.05


@dataclass(frozen=True)
class TransferFunction:
    """Piecewise-linear opacity ramp plus a luminance shading ramp.

    Attributes
    ----------
    opacity_points:
        ``(value, opacity)`` knots, values in [0, 255], strictly
        increasing in value; opacity is linearly interpolated between
        knots.
    ambient, diffuse:
        Luminance = ``ambient + diffuse * value / 255`` — a cheap stand-in
        for VolPack's pre-shaded colors (shading cost is part of
        classification, outside the timed rendering loop, in both).
    """

    opacity_points: tuple[tuple[float, float], ...]
    ambient: float = 0.25
    diffuse: float = 0.75
    _values: np.ndarray = field(init=False, repr=False, default=None)
    _opacities: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        pts = np.asarray(self.opacity_points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("need at least two (value, opacity) knots")
        if np.any(np.diff(pts[:, 0]) <= 0):
            raise ValueError("knot values must be strictly increasing")
        if np.any((pts[:, 1] < 0) | (pts[:, 1] > 1)):
            raise ValueError("opacities must lie in [0, 1]")
        object.__setattr__(self, "_values", pts[:, 0])
        object.__setattr__(self, "_opacities", pts[:, 1])

    def opacity(self, values: np.ndarray) -> np.ndarray:
        """Map raw voxel values to opacities in [0, 1]."""
        v = np.asarray(values, dtype=np.float64)
        return np.interp(v, self._values, self._opacities)

    def color(self, values: np.ndarray) -> np.ndarray:
        """Map raw voxel values to luminances in [0, 1]."""
        v = np.asarray(values, dtype=np.float64)
        return np.clip(self.ambient + self.diffuse * v / 255.0, 0.0, 1.0)

    def classify(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(opacity, color)`` float32 arrays with the epsilon cull.

        Voxels with opacity below :data:`OPACITY_EPSILON` get exactly
        zero opacity (and zero color) so the RLE encoder can drop them.
        """
        a = self.opacity(values)
        c = self.color(values)
        cull = a < OPACITY_EPSILON
        a = np.where(cull, 0.0, a)
        c = np.where(cull, 0.0, c)
        return a.astype(np.float32), c.astype(np.float32)


def mri_transfer_function() -> TransferFunction:
    """Transfer function for the MRI brain phantoms.

    Keys on brain-tissue intensities (>~110); scalp and skull classify
    transparent, yielding the 70-95 % transparent-voxel fraction the
    paper reports for medical data.
    """
    return TransferFunction(
        opacity_points=((0, 0.0), (105, 0.0), (130, 0.25), (185, 0.8), (255, 0.95))
    )


def ct_transfer_function() -> TransferFunction:
    """Transfer function for the CT head phantoms (bone isolation)."""
    return TransferFunction(
        opacity_points=((0, 0.0), (150, 0.0), (195, 0.65), (255, 0.97))
    )


def binary_transfer_function(threshold: float = 128, opacity: float = 1.0) -> TransferFunction:
    """Hard-threshold TF: handy for geometric correctness tests."""
    t = float(threshold)
    return TransferFunction(
        opacity_points=((0, 0.0), (t - 0.5, 0.0), (t + 0.5, opacity), (255, opacity)),
        ambient=0.0,
        diffuse=1.0,
    )


def transfer_function_for(classification) -> TransferFunction:
    """The transfer function a classification spec names: ``"mri"``,
    ``"ct"``, or ``["binary", threshold, opacity]`` (both optional).

    Specs arrive from outside (a serve request), so an unknown one is a
    ``ValueError``.
    """
    if classification == "mri":
        return mri_transfer_function()
    if classification == "ct":
        return ct_transfer_function()
    if (
        isinstance(classification, (list, tuple))
        and classification
        and classification[0] == "binary"
    ):
        return binary_transfer_function(*[float(x) for x in classification[1:]])
    raise ValueError(f"unknown classification spec {classification!r}")
