"""Time-varying volumes: per-timestep RLE encodings behind one renderer.

A movie of a *moving* volume needs, per timestep, exactly what the
static renderer precomputes once — classification plus the three
per-axis run-length encodings.  :class:`TimeVaryingVolume` precomputes
them for every timestep up front (the VolPack preprocessing cost, paid
``T`` times), and :class:`TimeVaryingRenderer` swaps the active
encoding per frame through the same ``rle_for`` seam the pools already
call — so every backend (mp, thread, shard) renders time-varying frames
without a single pool-side change beyond threading the ``timestep``
through the job.

Memory and residency
--------------------
All ``T * 3`` encodings stay resident (they must: the mp workers
inherit them through the fork snapshot at pool construction, so they
cannot be built lazily after the fork).  Their decoded slices follow
the one residency rule of
:meth:`~repro.render.serial.ShearWarpRenderer.rle_for`: each renderer
copy (the parent's, and each mp worker's forked one) keeps the planes
of its ``min(T, RESIDENT_ENCODINGS)`` most recently used
``(timestep, axis)`` encodings and clears an encoding's slice cache
when it falls out of that LRU.  A movie cycling through up to four
timesteps therefore decodes each slice once per process and reads it
on every later cycle — shear-warp's speed rests on prepared data that
outlives the frame — for up to ``RESIDENT_ENCODINGS`` decoded
encodings per process, about 5.5 MB each at 96x96x64.  No plane can go
stale: each encoding owns its own cache, keyed within that encoding
only.
"""

from __future__ import annotations

import numpy as np

from ..render.serial import ShearWarpRenderer
from ..volume.classify import TransferFunction
from ..volume.rle import RLEVolume, encode_all_axes
from ..volume.volume import ClassifiedVolume

__all__ = [
    "TimeVaryingVolume",
    "TimeVaryingRenderer",
    "beating_heart_renderer",
]

#: Full-resolution grid of the ``beating_heart`` phantom; ``scale``
#: shrinks it linearly (floor 8 per axis).
_HEART_BASE_SHAPE = (48, 48, 32)


def beating_heart_renderer(
    scale: float = 1.0,
    timesteps: int = 4,
    tf: TransferFunction | None = None,
) -> "TimeVaryingRenderer":
    """The standard time-varying workload, shared by the CLI ``--movie``
    path, the serve ``movie`` op and the movie benchmark/CI jobs —
    all build the renderer here so their frames byte-compare.
    """
    from ..datasets import beating_heart
    from ..volume.classify import mri_transfer_function

    shape = tuple(
        max(8, int(round(d * float(scale)))) for d in _HEART_BASE_SHAPE
    )
    volumes = beating_heart(shape, timesteps=timesteps)
    return TimeVaryingRenderer(
        volumes, tf if tf is not None else mri_transfer_function()
    )


class TimeVaryingVolume:
    """A volume sequence classified and RLE-encoded per timestep.

    Parameters
    ----------
    volumes:
        Sequence of ``uint8`` volumes, one per timestep, all the same
        shape (the factorization, and therefore the pools' shared-image
        capacity, depends only on the shape).
    tf:
        One transfer function applied to every timestep.
    """

    def __init__(self, volumes, tf: TransferFunction) -> None:
        volumes = [np.asarray(v) for v in volumes]
        if not volumes:
            raise ValueError("need at least one timestep")
        shape = volumes[0].shape
        for t, v in enumerate(volumes):
            if v.shape != shape:
                raise ValueError(
                    f"timestep {t} has shape {v.shape}, timestep 0 has {shape}"
                )
        self.classified: list[ClassifiedVolume] = [
            ClassifiedVolume.classify(v, tf) for v in volumes
        ]
        self.encodings: list[dict[int, RLEVolume]] = [
            encode_all_axes(cv) for cv in self.classified
        ]

    @property
    def n_timesteps(self) -> int:
        return len(self.encodings)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.classified[0].shape


class TimeVaryingRenderer(ShearWarpRenderer):
    """A :class:`ShearWarpRenderer` whose volume changes with time.

    Drop-in for the static renderer everywhere (pools, planners, the
    serial reference): ``rle_for(fact, timestep=t)`` selects timestep
    ``t``'s encoding (``None`` and out-of-range values wrap modulo the
    timestep count, so an endless rotation movie can just pass the
    frame index).  ``rle_for`` and its residency rule are the base
    class's (see the module docstring); this class only says where a
    timestep's encodings are.
    """

    def __init__(self, volumes, tf: TransferFunction | None = None) -> None:
        if isinstance(volumes, TimeVaryingVolume):
            tvv = volumes
        else:
            if tf is None:
                raise TypeError("tf is required when passing raw volumes")
            tvv = TimeVaryingVolume(volumes, tf)
        self.timeline = tvv
        # Base-class state, pointed at timestep 0 so every static-path
        # consumer (shape, factorize_view, plain render calls) works.
        self._adopt(tvv.classified[0], tvv.encodings[0])

    @property
    def n_timesteps(self) -> int:
        return self.timeline.n_timesteps

    def _encodings(self, step: int) -> dict[int, RLEVolume]:
        return self.timeline.encodings[step]
