"""The ``RenderBackend`` protocol: one seam over every execution model.

The repo grew three ways to turn a viewing matrix into pixels — the
fork-based :class:`~repro.parallel.mp_backend.MPRenderPool`, the no-fork
:class:`~repro.parallel.thread_backend.ThreadRenderPool`, and the
multi-pool :class:`~repro.shard.ShardedRenderService` — each with its
own constructor but, by design, bit-identical output.  Code that only
*consumes* frames (the movie pipeline, the render service) should not
care which one it holds.  This module is the first slice of the ROADMAP
item 5 API redesign: a minimal structural protocol all three conform to,

- ``submit_batch(frame_specs) -> list[frame_id]`` — enqueue a batch of
  :class:`FrameSpec` (or bare views; see :func:`as_frame_specs`),
- ``result(frame_id)`` — block for one frame's result, in any order,
- ``close()`` — release workers/pools,
- ``trace`` — whether it records spans (``export_chrome_trace``); the
  one thing a caller has to ask, since every pool balances its bands
  by the band times of its last banded frame, with nothing to set.

``submit_batch``, ``result`` and ``close`` are safe from any thread,
concurrently: a backend guards its own state with its own lock (the
pools' ledger condition, the shard fleet's lock), never with a rule
about who may call.  Two threads may stream frames through one backend
while a third collects a batch, and ``close`` from any thread wakes
every waiter with ``PoolClosed``.  The planes a result carries are the
caller's own — writable, sharing memory with nothing the backend or
another result holds — so a consumer keeps them without a copy.

``RenderBackend`` is ``runtime_checkable`` so ``isinstance(pool,
RenderBackend)`` works as a structural test, with the usual caveat that
only member *presence* is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "FrameSpec",
    "RenderBackend",
    "as_frame_specs",
]


@dataclass(frozen=True)
class FrameSpec:
    """One frame of work, backend-agnostically.

    ``view`` is a 4x4 viewing matrix (or anything the renderer's
    ``factorize_view`` accepts).  ``timestep`` selects the encoding of a
    time-varying renderer — ``None`` means "the static volume", which
    every renderer accepts.  ``region`` optionally restricts compositing
    to a :class:`~repro.parallel.poolcore.FrameRegion` (the shard
    service uses this internally; most callers leave it ``None``).
    """

    view: np.ndarray
    timestep: int | None = None
    region: object | None = None


@runtime_checkable
class RenderBackend(Protocol):
    """Structural protocol every render pool conforms to."""

    trace: bool

    def submit_batch(self, frame_specs: Sequence) -> list[int]: ...

    def result(self, frame_id: int): ...

    def close(self) -> None: ...


def as_frame_specs(frame_specs: Sequence) -> list[FrameSpec]:
    """Normalize a ``submit_batch`` argument to a list of FrameSpec.

    Accepts :class:`FrameSpec` instances and bare views (arrays)
    interchangeably, so existing ``submit_batch(views)`` callers keep
    working unchanged while movie callers pass specs with timesteps.
    """
    out: list[FrameSpec] = []
    for spec in frame_specs:
        if isinstance(spec, FrameSpec):
            out.append(spec)
        else:
            out.append(FrameSpec(view=spec))
    return out
