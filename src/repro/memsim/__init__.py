"""Trace-driven multiprocessor memory-system simulation, and the
paper's event-driven execution model that drives it: recorded frame
tasks are scheduled on P logical processors (:mod:`.schedule`), their
memory traces replayed through the coherence simulator and priced by
the cost model (:mod:`.execution`)."""

from .address import WORD_BYTES, AddressSpace
from .coherence import COST_KINDS, MISS_CLASSES, CoherentSystem, MissStats
from .costmodel import StallModel, memory_stalls
from .execution import FrameReport, PhaseReport, simulate_animation, simulate_frame
from .machine import (
    MACHINES,
    MachineConfig,
    cache_scale_for,
    ccnuma_sim,
    challenge,
    dash,
    origin2000,
    svm_cluster,
)
from .perfcounters import COUNTER_LIMITS, CounterReport, PhaseCounters, sample_counters
from .schedule import ProcSchedule, ScheduleResult, Unit, schedule
from .svm import SVMConfig, SVMFrameReport, SVMSimulator, simulate_frame_svm
from .trace import build_streams, replay_interleaved, stream_page_sets

__all__ = [
    "WORD_BYTES",
    "AddressSpace",
    "COST_KINDS",
    "MISS_CLASSES",
    "CoherentSystem",
    "MissStats",
    "StallModel",
    "memory_stalls",
    "FrameReport",
    "PhaseReport",
    "simulate_frame",
    "simulate_animation",
    "MACHINES",
    "MachineConfig",
    "cache_scale_for",
    "ccnuma_sim",
    "challenge",
    "dash",
    "origin2000",
    "svm_cluster",
    "COUNTER_LIMITS",
    "CounterReport",
    "PhaseCounters",
    "sample_counters",
    "ProcSchedule",
    "ScheduleResult",
    "Unit",
    "schedule",
    "SVMConfig",
    "SVMFrameReport",
    "SVMSimulator",
    "simulate_frame_svm",
    "build_streams",
    "replay_interleaved",
    "stream_page_sets",
]
