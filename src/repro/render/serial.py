"""The serial shear-warp volume renderer (public entry point).

Ties the full pipeline together: classification -> per-axis run-length
encoding (done once per volume/transfer function) -> per-frame
factorization -> compositing -> warp.  This is the uniprocessor
algorithm of section 2, and the substrate both parallelizations run on.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..datasets import load
from ..transforms import matrices
from ..transforms.factorization import ShearWarpFactorization, factorize
from ..volume.classify import TransferFunction, transfer_function_for
from ..volume.rle import RLEVolume, encode_all_axes
from ..volume.volume import ClassifiedVolume
from .compositing import composite_frame
from .image import FinalImage, IntermediateImage
from .instrument import TraceSink, WorkCounters
from .warp import warp_frame

__all__ = ["RESIDENT_ENCODINGS", "RenderResult", "ShearWarpRenderer", "renderer_for"]

#: Most ``(timestep, axis)`` encodings whose decoded slices one renderer
#: keeps at a time (see :meth:`ShearWarpRenderer.rle_for`).  Not a knob:
#: a renderer with fewer timesteps keeps one encoding per timestep.
RESIDENT_ENCODINGS = 4

#: Every renderer of this process, held weakly, for
#: :func:`_fresh_locks_after_fork`.
_RENDERERS: weakref.WeakSet = weakref.WeakSet()


def _fresh_locks_after_fork() -> None:
    """Give every renderer of a forked child fresh locks.

    A pool forks its workers — and re-forks them after a fault — from a
    parent that runs other threads too (a server's loop, other pools'
    supervisors, a degraded serial render).  A lock one of them held at
    the fork stays held in the child for good, with no thread left to
    release it, and a worker takes the renderer's residency lock and a
    slice cache's lock on every frame: it would hang on its first.
    """
    for renderer in list(_RENDERERS):
        renderer._reset_locks()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)


@dataclass
class RenderResult:
    """Everything produced while rendering one frame."""

    final: FinalImage
    intermediate: IntermediateImage
    fact: ShearWarpFactorization
    counters: WorkCounters | None = None


class ShearWarpRenderer:
    """Serial shear-warp renderer for one classified volume.

    Parameters
    ----------
    raw:
        ``uint8`` volume, indexed ``[x, y, z]``.
    tf:
        Transfer function used to classify the volume.  Classification
        and the three per-axis run-length encodings happen once, here —
        per-frame work is compositing + warp only, as in VolPack.
    """

    #: A static volume is the same volume at every timestep.
    n_timesteps = 1
    #: Observability: how many times :meth:`rle_for` moved to another
    #: *timestep* (axis-only switches not counted).
    timestep_switches = 0

    def __init__(self, raw: np.ndarray, tf: TransferFunction) -> None:
        classified = ClassifiedVolume.classify(raw, tf)
        self._adopt(classified, encode_all_axes(classified))

    @classmethod
    def from_classified(cls, classified: ClassifiedVolume) -> "ShearWarpRenderer":
        """Build a renderer from an already-classified volume (e.g. the
        Phong-shaded output of :func:`repro.render.shading.shade_volume`)."""
        self = cls.__new__(cls)
        self._adopt(classified, encode_all_axes(classified))
        return self

    def _adopt(self, classified: ClassifiedVolume,
               rle_by_axis: dict[int, RLEVolume]) -> None:
        self.classified = classified
        self.rle_by_axis = rle_by_axis
        # (timestep, axis) keys whose encodings may hold decoded planes,
        # least recently used first.
        self._resident: OrderedDict[tuple[int, int], None] = OrderedDict()
        self._resident_lock = threading.Lock()
        _RENDERERS.add(self)

    def _reset_locks(self) -> None:
        """New residency and slice-cache locks (in a forked child)."""
        self._resident_lock = threading.Lock()
        for step in range(self.n_timesteps):
            for rle in self._encodings(step).values():
                rle.slice_cache.reset_lock()

    def _encodings(self, step: int) -> dict[int, RLEVolume]:
        """The three per-axis encodings of timestep ``step``."""
        return self.rle_by_axis

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.classified.shape

    def factorize_view(self, view: np.ndarray) -> ShearWarpFactorization:
        """Factorize a 4x4 viewing matrix for this volume."""
        return factorize(view, self.shape)

    def view_from_angles(self, rot_x: float = 0.0, rot_y: float = 0.0, rot_z: float = 0.0) -> np.ndarray:
        """Convenience: build a centred rotation view matrix."""
        return matrices.view_matrix(rot_x, rot_y, rot_z, self.shape)

    def rle_for(self, fact: ShearWarpFactorization, timestep: int | None = None) -> RLEVolume:
        """Pick the run-length encoding for ``(timestep, fact.axis)``.

        ``timestep`` wraps modulo :attr:`n_timesteps` (``None`` is 0), so
        static and time-varying renderers share one call signature.

        Decoded slices live in each encoding's own slice cache; this
        method bounds how many encodings keep them.  It holds an LRU of
        the ``(timestep, axis)`` keys it has handed out, of capacity
        ``min(n_timesteps, RESIDENT_ENCODINGS)``: the requested key moves
        to the front, and a key that falls off the end has its
        encoding's slice cache cleared.  A static renderer's capacity is
        1, so a principal-axis switch drops the axis left behind; a movie
        cycling through up to four timesteps keeps every one's planes
        from frame to frame instead of decoding them again.

        The LRU is guarded by a lock: the thread pool's planner and
        workers call this at the same time.  A consumer still decoding
        from an encoding evicted under it may refill some of its planes;
        they stay until that key is evicted again.
        """
        step = 0 if timestep is None else int(timestep) % self.n_timesteps
        key = (step, fact.axis)
        with self._resident_lock:
            resident = self._resident
            if resident and next(reversed(resident))[0] != step:
                self.timestep_switches += 1
            resident[key] = None
            resident.move_to_end(key)
            while len(resident) > min(self.n_timesteps, RESIDENT_ENCODINGS):
                old_step, old_axis = resident.popitem(last=False)[0]
                self._encodings(old_step)[old_axis].clear_slice_cache()
        return self._encodings(step)[fact.axis]

    def render(
        self,
        view: np.ndarray,
        counters: WorkCounters | None = None,
        trace: TraceSink | None = None,
        restrict_bounds: bool = False,
        recorder=None,
        obs_frame: int = 0,
        timestep: int | None = None,
    ) -> RenderResult:
        """Render one frame from viewing matrix ``view``.

        ``restrict_bounds`` enables the new algorithm's optimization of
        skipping the empty top/bottom of the intermediate image; the
        baseline serial renderer (and the old parallel one) leaves it
        off.

        ``recorder`` (a :class:`repro.obs.SpanRecorder`) captures
        wall-clock decode/composite/warp phase spans for frame id
        ``obs_frame`` — the native-timing complement of the op-count
        ``counters`` and memory-trace ``trace`` hooks, and a no-op when
        left ``None``.
        """
        fact = self.factorize_view(view)
        if recorder is not None:
            t0 = recorder.now()
        rle = self.rle_for(fact, timestep=timestep)
        img = IntermediateImage(fact.intermediate_shape)
        if recorder is not None:
            t1 = recorder.now()
            recorder.span(obs_frame, "decode", t0, t1)
        composite_frame(img, rle, fact, counters=counters, trace=trace,
                        restrict_bounds=restrict_bounds)
        if recorder is not None:
            t2 = recorder.now()
            recorder.span(obs_frame, "composite", t1, t2)
            recorder.count(obs_frame, "rows", img.n_v)
        final = FinalImage(fact.final_shape)
        warp_frame(final, img, fact, counters=counters, trace=trace)
        if recorder is not None:
            recorder.span(obs_frame, "warp", t2, recorder.now())
        return RenderResult(final=final, intermediate=img, fact=fact, counters=counters)


def renderer_for(dataset: str, scale: float, classification=None,
                 elongate: float = 1.0) -> ShearWarpRenderer:
    """A renderer (classified and encoded once) for paper data set
    ``dataset`` at proxy ``scale``.

    ``classification`` is a :func:`~repro.volume.classify.
    transfer_function_for` spec; ``None`` picks by name: CT for a
    ``ct*`` data set, MRI for any other.
    """
    if classification is None:
        classification = "ct" if dataset.startswith("ct") else "mri"
    tf = transfer_function_for(classification)
    return ShearWarpRenderer(load(dataset, float(scale), elongate), tf)
