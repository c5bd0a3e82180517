"""Hardware-platform execution model: frame + machine -> time breakdown.

Combines the three substrates exactly the way the paper's methodology
does:

1. the **scheduler** replays the frame's tasks on P logical processors
   (initial assignment + chunked stealing) giving per-processor busy
   time, steal overhead, and execution order;
2. the **coherence simulator** replays the per-processor memory traces
   (in execution order, round-robin interleaved) giving per-processor
   miss counts by class and locality kind — cache state persists from
   the compositing phase into the warp phase, which is precisely where
   the new algorithm's reuse pays off;
3. the **cost model** converts misses into stall cycles with contention.

The phase structure differs between the algorithms: the old one needs a
global barrier between compositing and warp (processors warp tiles
composited by others), the new one lets each processor roll straight
from compositing its partition into warping it (section 4.5 / 5.5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.frame import ParallelFrame
from .address import AddressSpace
from .coherence import CoherentSystem, MissStats
from .costmodel import StallModel, memory_stalls
from .machine import MachineConfig
from .schedule import ScheduleResult, Unit, schedule
from .trace import build_streams, replay_interleaved

__all__ = ["PhaseReport", "FrameReport", "simulate_frame", "simulate_animation"]


@dataclass
class PhaseReport:
    """Timing of one phase (compositing or warp) on P processors."""

    name: str
    busy: np.ndarray  # per-proc compute cycles
    steal: np.ndarray  # per-proc steal/lock overhead cycles
    mem: np.ndarray  # per-proc memory stall cycles
    stats: MissStats
    stall_model: StallModel
    sched: ScheduleResult

    @property
    def proc_totals(self) -> np.ndarray:
        return self.busy + self.steal + self.mem

    @property
    def span(self) -> float:
        """Phase completion time (all processors done)."""
        return float(np.max(self.proc_totals)) if len(self.busy) else 0.0


@dataclass
class FrameReport:
    """Complete simulated timing of one frame on one machine."""

    machine: MachineConfig
    n_procs: int
    algorithm: str
    composite: PhaseReport
    warp: PhaseReport
    barrier_cycles: float
    total_time: float

    def breakdown(self) -> dict[str, float]:
        """Cumulative cycles across processors by category (Figure 5/14).

        ``sync`` is barrier/imbalance wait plus stealing overhead —
        everything that is neither instruction execution nor memory
        stall, matching the paper's three-way split.
        """
        busy = float(self.composite.busy.sum() + self.warp.busy.sum())
        mem = float(self.composite.mem.sum() + self.warp.mem.sum())
        total_all = self.total_time * self.n_procs
        sync = max(0.0, total_all - busy - mem)
        return {"busy": busy, "memory": mem, "sync": sync, "total": total_all}

    def fractions(self) -> dict[str, float]:
        b = self.breakdown()
        t = b["total"] or 1.0
        return {k: v / t for k, v in b.items() if k != "total"}


def _phase(
    name: str,
    tasks,
    queues,
    machine: MachineConfig,
    system: CoherentSystem,
    addr: AddressSpace,
    steal_chunk: int,
    allow_stealing: bool,
    key_order: tuple[int, ...] | None = None,
    refine: int = 1,
) -> PhaseReport:
    # Scheduling (idleness, steal victims) reacts to estimated wall-clock
    # time: busy cycles plus a memory estimate (one local-latency miss
    # per estimated cache-line touch).  Busy time stays the pure compute.
    t_line = machine.mem_per_line_touch
    mem_factor = {uid: 1.0 for uid in tasks}

    def _run():
        unit_queues = [
            [
                Unit(
                    uid,
                    cost=tasks[uid].cost
                    + tasks[uid].trace_line_touches * t_line * mem_factor[uid],
                    busy=tasks[uid].cost,
                )
                for uid in q
            ]
            for q in queues
        ]
        sched = schedule(
            unit_queues,
            steal_chunk=max(1, steal_chunk),
            steal_cost=machine.steal_cost,
            allow_stealing=allow_stealing,
        )
        stats = system.new_scope()
        streams = build_streams(tasks, sched, addr, key_order=key_order)
        replay_interleaved(system, streams)
        return sched, stats

    if allow_stealing and refine > 0 and len(queues) > 1:
        # Two-pass refinement: real task stealing reacts to *elapsed*
        # time, which includes memory stalls the a-priori estimate
        # cannot know.  Replay once, derive per-processor memory-rate
        # corrections, then re-run schedule + replay from the same
        # starting cache state with corrected per-task costs.
        snap = system.snapshot()
        sched1, stats1 = _run()
        busy1 = np.array([p.busy for p in sched1.procs])
        model1 = memory_stalls(stats1, machine, busy1)
        for pid, proc in enumerate(sched1.procs):
            est = sum(tasks[uid].trace_line_touches * t_line for uid in proc.executed)
            factor = model1.stalls[pid] / est if est > 0 else 1.0
            for uid in proc.executed:
                mem_factor[uid] = max(0.1, factor)
        system.restore(snap)

    sched, stats = _run()
    busy = np.array([p.busy for p in sched.procs])
    steal = np.array([p.steal_overhead for p in sched.procs])
    model = memory_stalls(stats, machine, busy)
    return PhaseReport(
        name=name,
        busy=busy,
        steal=steal,
        mem=model.stalls,
        stats=stats,
        stall_model=model,
        sched=sched,
    )


def simulate_frame(
    frame: ParallelFrame,
    machine: MachineConfig,
    system: CoherentSystem | None = None,
    addr: AddressSpace | None = None,
    refine: int = 1,
) -> FrameReport:
    """Simulate one recorded frame on ``machine``.

    Pass a persistent ``system`` (and its ``addr``) to carry cache and
    directory state across frames — see :func:`simulate_animation`.
    """
    n = frame.n_procs
    if addr is None:
        addr = AddressSpace.layout(frame.region_sizes, machine.page_bytes)
    if system is None:
        system = CoherentSystem(n, machine, addr)

    comp = _phase(
        "composite", frame.composite_units, frame.composite_queues,
        machine, system, addr,
        steal_chunk=frame.steal_chunk, allow_stealing=frame.composite_stealing,
        key_order=frame.slice_order, refine=refine,
    )
    warp = _phase(
        "warp", frame.warp_tasks, frame.warp_queues,
        machine, system, addr,
        steal_chunk=1, allow_stealing=frame.warp_stealing,
    )

    barrier = machine.barrier_cost(n)
    if frame.algorithm == "old":
        # Global barrier between the phases, and one ending the frame.
        total = comp.span + warp.span + 2 * barrier
    else:
        # Each processor rolls from compositing into warping its own
        # partition; only the frame-end barrier remains.
        per_proc = comp.proc_totals + warp.proc_totals
        total = float(np.max(per_proc)) + barrier
    return FrameReport(
        machine=machine,
        n_procs=n,
        algorithm=frame.algorithm,
        composite=comp,
        warp=warp,
        barrier_cycles=barrier,
        total_time=total,
    )


def simulate_animation(
    frames: list[ParallelFrame], machine: MachineConfig, refine: int = 1
) -> FrameReport:
    """Simulate an animation and report the **last** frame's timing.

    The paper measures steady-state animation: caches and directory
    state carry over between frames, so a frame's misses reflect what
    the previous frame left behind.  This is where the old algorithm's
    phase-interface communication shows up as *true sharing* — a
    processor re-reads intermediate-image lines it cached in an earlier
    frame's warp, finding them invalidated by whoever composited them
    this frame.  A cold single-frame simulation misclassifies all of
    that as cold misses.
    """
    if not frames:
        raise ValueError("need at least one frame")
    n = frames[0].n_procs
    if any(f.n_procs != n for f in frames):
        raise ValueError("all frames must use the same processor count")
    # One address space covering every frame (sizes vary slightly as the
    # view rotates; bases must stay fixed for cache state to be shared).
    sizes: dict[str, int] = {}
    for f in frames:
        for region, size in f.region_sizes.items():
            sizes[region] = max(sizes.get(region, 0), size)
    addr = AddressSpace.layout(sizes, machine.page_bytes)
    system = CoherentSystem(n, machine, addr)
    report = None
    for frame in frames:
        report = simulate_frame(frame, machine, system=system, addr=addr,
                                refine=refine)
    return report
