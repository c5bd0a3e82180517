"""Page-based shared virtual memory platform (HLRC), section 5.5.2.

Models the paper's SVM platform: SMP nodes (4 processors each) on a
Myrinet-like network, coherence kept in software at 4 KB page
granularity with an all-software home-based lazy release consistency
protocol.  State advances in *intervals* separated by barriers:

* during an interval, a processor touching a page whose home copy has
  been updated since the processor last fetched it takes a **page
  fault** — the data-wait time of Figures 21/22;
* multiple writers per page are allowed (twins); at the next release
  each writer sends a **diff** of its writes to the page's home
  (first-touch assignment);
* at a **barrier**, write notices propagate and stale copies are
  invalidated; the barrier itself is delayed by the network/memory-bus
  contention that in-flight data creates — the effect the paper
  identifies as the dominant cost of the old algorithm's inter-phase
  barrier.

The old algorithm runs a frame as two intervals (composite | barrier |
warp | barrier); the new algorithm's identical partitioning across
phases removes the inter-phase barrier, leaving one interval per frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.frame import ParallelFrame
from .address import AddressSpace
from .schedule import Unit, schedule
from .trace import build_streams, stream_page_sets

__all__ = ["SVMConfig", "SVMFrameReport", "SVMSimulator", "simulate_frame_svm"]


@dataclass(frozen=True)
class SVMConfig:
    """Cost parameters of the SVM platform (200 MHz, 1 CPI processors)."""

    page_bytes: int = 4096
    procs_per_node: int = 4
    fault_cycles: float = 6000.0  # software fault handling, ~30 us
    io_bytes_per_cycle: float = 0.5  # 100 MB/s I/O bus at 200 MHz
    diff_cycles: float = 1500.0  # twin/diff creation + application
    barrier_base: float = 10000.0
    barrier_per_proc: float = 1500.0
    lock_cycles: float = 2500.0  # task-queue lock acquire over the network
    contention_cap: float = 6.0
    cpu_mhz: float = 200.0

    def barrier_cost(self, n_procs: int) -> float:
        return self.barrier_base + self.barrier_per_proc * n_procs

    def scaled(self, volume_scale: float) -> "SVMConfig":
        """Proxy-scaled configuration.

        Compute per frame scales with n^3 but page-grain phenomena with
        n^2 (image pages) and n (rows per page), so an unscaled config
        would drown the proxy's compute in fault overhead.  Pages scale
        by ``volume_scale`` (keeping the rows-per-page ratio: a paper
        intermediate-image row is ~1.6 pages, and page-level
        write-sharing between neighboring processors must stay a
        boundary effect, not engulf whole partitions); per-event costs
        scale by ``volume_scale**2`` so the fault-overhead-to-compute
        ratio of a frame matches paper scale.
        """
        from dataclasses import replace

        s = volume_scale
        return replace(
            self,
            page_bytes=max(256, int(self.page_bytes * s) // 64 * 64),
            fault_cycles=self.fault_cycles * s * s,
            io_bytes_per_cycle=self.io_bytes_per_cycle / s,
            diff_cycles=self.diff_cycles * s * s,
            barrier_base=self.barrier_base * s * s,
            barrier_per_proc=self.barrier_per_proc * s * s,
            lock_cycles=self.lock_cycles * s * s,
        )


@dataclass
class SVMFrameReport:
    """Per-frame SVM timing, split into the paper's four categories."""

    n_procs: int
    algorithm: str
    compute: np.ndarray  # per-proc busy cycles
    data_wait: np.ndarray  # page-fault stall cycles
    barrier_wait: np.ndarray  # barrier wait + diff flushing
    lock_wait: np.ndarray  # task-stealing lock overhead
    total_time: float
    faults: np.ndarray
    bytes_fetched: np.ndarray
    contention: float

    def breakdown(self) -> dict[str, float]:
        """Cumulative cycles by category (Figures 21/22)."""
        return {
            "compute": float(self.compute.sum()),
            "data": float(self.data_wait.sum()),
            "barrier": float(self.barrier_wait.sum()),
            "lock": float(self.lock_wait.sum()),
            "total": self.total_time * self.n_procs,
        }

    def fractions(self) -> dict[str, float]:
        b = self.breakdown()
        t = b["total"] or 1.0
        return {k: v / t for k, v in b.items() if k != "total"}


class SVMSimulator:
    """HLRC page state carried across intervals (and frames)."""

    def __init__(self, config: SVMConfig, n_procs: int) -> None:
        if n_procs < 1:
            raise ValueError("need at least one processor")
        self.config = config
        self.n_procs = n_procs
        self.interval = 0
        self.page_version: dict[int, int] = {}
        self.page_home: dict[int, int] = {}
        self.valid_version: list[dict[int, int]] = [dict() for _ in range(n_procs)]

    def node_of(self, p: int) -> int:
        return p // self.config.procs_per_node

    def run_interval(
        self,
        reads: list[dict[int, int]],
        writes: list[dict[int, int]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one interval; returns (faults, bytes_fetched, diffs).

        ``reads``/``writes`` are per-processor ``page -> bytes`` maps of
        the pages each processor touches during the interval.
        """
        cfg = self.config
        faults = np.zeros(self.n_procs)
        fetched = np.zeros(self.n_procs)
        diffs = np.zeros(self.n_procs)
        self.interval += 1
        for p in range(self.n_procs):
            touched = set(reads[p]) | set(writes[p])
            valid = self.valid_version[p]
            for page in touched:
                if page not in self.page_home:
                    # First touch anywhere: p becomes the home; no fetch.
                    self.page_home[page] = p
                    valid[page] = 0
                    continue
                current = self.page_version.get(page, 0)
                have = valid.get(page)
                if have is None or have < current:
                    if self.page_home[page] == p:
                        # Home copy is always current (diffs applied here).
                        valid[page] = current
                        continue
                    faults[p] += 1
                    fetched[p] += cfg.page_bytes
                    valid[page] = current
            for page in writes[p]:
                if self.page_home.get(page, p) != p:
                    diffs[p] += 1
        # Publish write notices: versions bump after the interval.
        for p in range(self.n_procs):
            for page in writes[p]:
                self.page_version[page] = self.interval
                # The writer's own copy stays valid for what it wrote...
                # unless another processor also wrote the page (its words
                # arrive as a diff at the home), which invalidates p too.
                writers = sum(1 for q in range(self.n_procs) if page in writes[q])
                if writers == 1 or self.page_home.get(page) == p:
                    self.valid_version[p][page] = self.interval
        return faults, fetched, diffs

    def contention_factor(self, fetched: np.ndarray, span: float) -> float:
        """Queueing factor at the busiest node's I/O bus."""
        if span <= 0:
            return 1.0
        cfg = self.config
        n_nodes = (self.n_procs + cfg.procs_per_node - 1) // cfg.procs_per_node
        node_bytes = np.zeros(n_nodes)
        for p in range(self.n_procs):
            node_bytes[self.node_of(p)] += fetched[p]
        rho = min(float(node_bytes.max()) / (span * cfg.io_bytes_per_cycle), 0.98)
        return min(1.0 / (1.0 - rho), cfg.contention_cap)


def _interval_timing(
    cfg: SVMConfig,
    busy: np.ndarray,
    faults: np.ndarray,
    fetched: np.ndarray,
    diffs: np.ndarray,
    sim: SVMSimulator,
    n_procs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Solve one interval's (data, flush, wait, span, contention)."""
    base_data = faults * cfg.fault_cycles + fetched / cfg.io_bytes_per_cycle
    factor = 1.0
    for _ in range(3):
        span = float(np.max(busy + base_data * factor))
        factor = sim.contention_factor(fetched, span)
    data = base_data * factor
    flush = diffs * cfg.diff_cycles
    span = float(np.max(busy + data))
    wait = span - (busy + data)
    return data, flush, wait, span, factor


def simulate_frame_svm(
    frame: ParallelFrame,
    config: SVMConfig | None = None,
    sim: SVMSimulator | None = None,
) -> SVMFrameReport:
    """Simulate one recorded frame on the SVM platform.

    Pass a persistent ``sim`` to model an animation in steady state
    (recommended: first-frame cold faults dominate otherwise).
    """
    cfg = config or SVMConfig()
    n = frame.n_procs
    if sim is None:
        sim = SVMSimulator(cfg, n)
    if sim.n_procs != n:
        raise ValueError("simulator processor count does not match the frame")

    addr = AddressSpace.layout(frame.region_sizes, cfg.page_bytes)

    # Schedules provide busy time, steal counts, and execution order.
    comp_sched = schedule(
        [[Unit(uid, frame.composite_units[uid].cost) for uid in q]
         for q in frame.composite_queues],
        steal_chunk=max(1, frame.steal_chunk),
        steal_cost=cfg.lock_cycles,
    )
    warp_sched = schedule(
        [[Unit(uid, frame.warp_tasks[uid].cost) for uid in q]
         for q in frame.warp_queues],
        allow_stealing=frame.warp_stealing,
    )
    comp_streams = build_streams(frame.composite_units, comp_sched, addr)
    warp_streams = build_streams(frame.warp_tasks, warp_sched, addr)
    comp_busy = np.array([p.busy for p in comp_sched.procs])
    warp_busy = np.array([p.busy for p in warp_sched.procs])
    lock = np.array([p.steal_overhead for p in comp_sched.procs])

    compute = comp_busy + warp_busy
    barrier = np.zeros(n)
    data = np.zeros(n)
    faults_total = np.zeros(n)
    fetched_total = np.zeros(n)

    if frame.algorithm == "old":
        intervals = [comp_streams, warp_streams]
        busies = [comp_busy, warp_busy]
    else:
        merged = [a + b for a, b in zip(comp_streams, warp_streams)]
        intervals = [merged]
        busies = [comp_busy + warp_busy]

    total = 0.0
    contention = 1.0
    for streams, busy in zip(intervals, busies):
        reads, writes = stream_page_sets(streams, cfg.page_bytes)
        faults, fetched, diffs = sim.run_interval(reads, writes)
        d, flush, wait, span, factor = _interval_timing(
            cfg, busy, faults, fetched, diffs, sim, n
        )
        contention = max(contention, factor)
        data += d
        # Barrier: imbalance wait + diff flushing + the barrier operation
        # itself, inflated by contention (delayed sync messages).
        bcost = cfg.barrier_cost(n) * factor
        barrier += wait + flush + bcost
        faults_total += faults
        fetched_total += fetched
        total += span + float(flush.max()) + bcost

    return SVMFrameReport(
        n_procs=n,
        algorithm=frame.algorithm,
        compute=compute,
        data_wait=data,
        barrier_wait=barrier,
        lock_wait=lock,
        total_time=total,
        faults=faults_total,
        bytes_fetched=fetched_total,
        contention=contention,
    )
