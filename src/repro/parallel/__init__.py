"""Execution models: event-driven logical processors, and the real
render pools (one core, a process and a thread transport)."""

from .backend import FrameSpec, RenderBackend, as_frame_specs
from .execution import FrameReport, PhaseReport, simulate_animation, simulate_frame
from .mp_backend import MPRenderPool
from .poolcore import (
    FrameFailed,
    FrameTimeout,
    MPPoolError,
    MPRenderResult,
    PoolClosed,
    PoolConfig,
    PoolUnrecoverable,
    WorkerDied,
)
from .scheduler import ProcSchedule, ScheduleResult, Unit, schedule
from .thread_backend import ThreadRenderPool

__all__ = [
    "RenderBackend",
    "FrameSpec",
    "as_frame_specs",
    "FrameReport",
    "PhaseReport",
    "simulate_frame",
    "simulate_animation",
    "MPRenderPool",
    "MPRenderResult",
    "PoolConfig",
    "MPPoolError",
    "FrameFailed",
    "FrameTimeout",
    "WorkerDied",
    "PoolClosed",
    "PoolUnrecoverable",
    "ThreadRenderPool",
    "ProcSchedule",
    "ScheduleResult",
    "Unit",
    "schedule",
]
