"""The native render pools: one core, a process and a thread transport.

:data:`POOL_CLASSES` maps each ``PoolConfig.backend`` to its pool
class: the one mapping :func:`repro.open_pool` opens a pool through,
and a shard fleet each of its pools.  ``"mp"``, the process pool over
shared memory, is the user's; ``"thread"`` is the fork-free test
transport and the benchmark's baseline probe."""

from .backend import FrameSpec, RenderBackend, as_frame_specs
from .mp_backend import MPRenderPool
from .poolcore import (
    POOL_BACKENDS,
    FrameFailed,
    FrameTimeout,
    MPPoolError,
    MPRenderResult,
    PoolClosed,
    PoolConfig,
    PoolUnrecoverable,
    WorkerDied,
)
from .thread_backend import ThreadRenderPool

#: The pool class of each ``PoolConfig.backend``.
POOL_CLASSES = dict(zip(POOL_BACKENDS, (MPRenderPool, ThreadRenderPool)))

__all__ = [
    "RenderBackend",
    "FrameSpec",
    "as_frame_specs",
    "MPRenderPool",
    "POOL_CLASSES",
    "MPRenderResult",
    "PoolConfig",
    "MPPoolError",
    "FrameFailed",
    "FrameTimeout",
    "WorkerDied",
    "PoolClosed",
    "PoolUnrecoverable",
    "ThreadRenderPool",
]
