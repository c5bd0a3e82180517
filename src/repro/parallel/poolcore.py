"""The render-pool core: one frame lifecycle, shared by every transport.

The paper's new algorithm wins by using *one* contiguous partition for
both of a frame's phases (sections 4.1, 4.5); this module is the same
idea one level up.  Everything about a pooled frame that does not depend
on *how* workers are run lives here exactly once:

* the typed errors, :class:`PoolConfig`, :class:`FrameRegion` and the
  result type :class:`MPRenderResult`;
* :class:`FramePlanner` — factorization, the non-empty band, the paper's
  profile feedback loop (sections 4.2-4.3: on profiled frames each
  worker writes the costs of the scanlines it composited into the
  frame's one shared cost row, later frames are split with
  :func:`~repro.core.partition.contiguous_partition` over that profile,
  and a principal-axis switch invalidates it) and scanline ownership
  (section 4.5) — for a pool's workers and, one level up, for a shard
  fleet's pools;
* the *dynamic* half (section 4.4): guided, cost-aware chunk claims
  over a shared ``(head, tail)`` cursor pair per worker
  (:func:`claim_own_chunk`, :func:`steal_victim_chunk`,
  :func:`composite_share`) — an owner takes half of what is left off
  the head of its block, a thief half of the most-loaded victim's tail,
  and whoever finds fewer than two grains (:data:`DEFAULT_STEAL_CHUNK`
  rows, a kernel call's fixed cost) left takes them all, so no kernel
  call is smaller than a grain.  The partition does the work and
  stealing mops up the residue: a band under two grains is *one*
  kernel call, a taller one about ``log2(rows / grain)``;
* :func:`run_frame` — the worker's frame body (decode → composite →
  barrier → warp, with its spans, CPU clocks, fault points and the
  in-place calibration of a profiled frame's costs);
* :class:`PoolCore` — the frame ledger: ``submit_batch`` (and its
  one-frame form ``submit``) / ``result`` / ``render`` /
  ``render_animation``, the queue of admitted messages that cannot
  start yet, per-worker completion accounting, the finish → retry →
  degrade → fail state machine,
  timeline collection, ``fault_counters`` and ``export_chrome_trace``;
* the fault- and delay-injection hooks tests and CI use.

A *transport* subclasses :class:`PoolCore` and supplies only what
genuinely differs: where a frame's images and cost row live, how jobs
reach workers, how a completion is reported, and what a retry costs.
:class:`~repro.parallel.mp_backend.MPRenderPool` (fork + shared-memory
images + doorbell + supervisor) and
:class:`~repro.parallel.thread_backend.ThreadRenderPool` (threads +
per-frame arrays) are the two transports; both plan, composite, account
and recover through this module, so they cannot drift apart — the basis
of their bit-identity to each other and to the serial renderer.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.partition import (
    contiguous_partition,
    line_ownership,
    uniform_contiguous_partition,
)
from ..core.profiling import ProfileSchedule, ScanlineProfile, scanline_cost_rows
from ..obs.metrics import MetricsRegistry, busy_spread, metrics_from_timelines
from ..obs.recorder import RingReader, SpanRecorder
from ..obs.timeline import FrameTimeline
from ..obs.timeline import export_chrome_trace as _export_chrome_trace
from ..render.block import BlockRowCounters, composite_scanline_block
from ..render.compositing import nonempty_scanline_bounds
from ..render.fast import render_fast
from ..render.image import FinalImage, IntermediateImage
from ..render.warp import final_pixel_source_lines, warp_rows, warp_rows_by_pid
from ..transforms.factorization import PERMUTATIONS, ShearWarpFactorization
from .backend import BackendCapabilities, FrameSpec, as_frame_specs

__all__ = [
    "POOL_BACKENDS",
    "DEFAULT_STEAL_CHUNK",
    "MPPoolError",
    "FrameFailed",
    "FrameTimeout",
    "WorkerDied",
    "PoolClosed",
    "PoolUnrecoverable",
    "PoolConfig",
    "FrameRegion",
    "FramePlanner",
    "profile_partition",
    "MPRenderResult",
    "PoolCore",
    "WorkerContext",
    "run_frame",
    "capacity_shapes",
    "composite_range",
    "seed_claims",
    "claim_own_chunk",
    "steal_victim_chunk",
    "composite_share",
    "FAULT_PHASES",
    "FAULT_KINDS",
    "armed_fault",
    "worker_burn_per_row",
]

#: Pool backends selectable through ``PoolConfig.backend`` (dispatched
#: by the ``repro.open_pool`` facade): ``"mp"`` is the process pool,
#: ``"thread"`` the no-copy threading pool.
POOL_BACKENDS = ("mp", "thread")

#: The stealing grain, in scanlines: no claim, no steal and no
#: remainder they leave behind is smaller than this (section 4.4), and a
#: band under two grains is one kernel call.  It is the break-even of a
#: block-kernel call's fixed cost: a call costs ``F + c * rows`` with
#: ``F`` — the ~80 small NumPy calls per touched slice, paid whatever
#: the chunk's height — worth 63-103 rows at 32^3, 64^3 and 128^3 since
#: the kernel resamples only its candidates (EXPERIMENTS.md "PR 18": a
#: row got 1.6-2.7x cheaper, the fixed part 1.3-1.4x; 43-62 rows and a
#: grain of 48 before), so a chunk below it spends more on being a
#: separate call than on its rows.  The static partition does the work
#: and stealing only fires on bands of two grains or more.  A measured
#: constant, not an option: a pool reads it once, at construction, so a
#: test that needs finer splitting monkeypatches it before building the
#: pool, as with ``TEST_ROW_DELAY``.
DEFAULT_STEAL_CHUNK = 80


# -- typed pool errors --------------------------------------------------------


class MPPoolError(RuntimeError):
    """Base of every typed render-pool error.

    Subclasses ``RuntimeError`` so callers written against the old
    untyped API keep catching what they caught before.
    """


class FrameFailed(MPPoolError):
    """A frame's workers raised, and retries/degradation were exhausted."""


class FrameTimeout(MPPoolError):
    """A frame exceeded :attr:`PoolConfig.timeout_s` and could not be
    recovered within the configured retries."""


class WorkerDied(MPPoolError):
    """A worker process died (SIGKILL, OOM, crash) and the frame could
    not be recovered within the configured retries."""


class PoolClosed(MPPoolError):
    """The pool was closed — raised by ``submit`` on a closed pool and
    by ``result`` waiters when ``close()`` lands mid-wait."""


class PoolUnrecoverable(MPPoolError):
    """The pool itself is broken (worker respawn failed, supervisor
    died) and cannot render anything further."""


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class PoolConfig:
    """Every render-pool knob, validated in one place.

    This is the one front door: build a config and hand it to
    ``repro.open_pool(renderer, config=cfg)`` /
    ``repro.render_frame(renderer, view, config=cfg)`` (or to a pool
    class directly, ``MPRenderPool(renderer, cfg)``); the facade's
    keyword overrides (``open_pool(r, n_procs=4)``) build one for you.

    There is no kernel to choose: every worker composites with the block
    kernel (:func:`~repro.render.block.composite_scanline_block`), which
    is bit-identical to the instrumented scanline reference in pixels
    and in every work counter, row by row.  The reference stays where it
    is the point — the test oracle and the simulator's traced renderers.

    Parameters
    ----------
    n_procs:
        Worker count.
    profile_period:
        Re-profile every this many frames (paper section 4.2), plus one
        frame whenever no profile is valid for the view's principal
        axis (a fresh pool, an axis switch) — requested once, however
        many frames are planned before it completes.  ``0`` disables
        the feedback loop (always-uniform partitions).
    stealing:
        Chunked task stealing on top of the static partition (paper
        section 4.4).  Claims are guided — an owner takes half of its
        remaining block, a thief half of the victim's — while two
        grains or more remain, and whatever is left below that goes in
        one piece, so no chunk and no remainder is smaller than the
        grain.  The grain (:data:`DEFAULT_STEAL_CHUNK`) is the measured
        row-equivalent of one block-kernel call's fixed cost: bands
        shorter than two grains are composited in a single call by
        their owner and never split.
    trace:
        Per-worker span/counter ring recording (:mod:`repro.obs`), in
        rings of :data:`~repro.obs.recorder.DEFAULT_RING_CAPACITY`
        records.
    timeout_s:
        Per-frame deadline in seconds, measured from dispatch.  A frame
        still incomplete past its deadline is treated as a fault (hung
        or wedged worker) and recovered.  ``None`` (default) disables
        the deadline — worker *deaths* are still detected via their
        sentinels; only silent hangs need a timeout to be caught.
        (The thread pool ignores it: a thread can neither die silently
        nor be terminated.)
    max_retries:
        How many times a lost frame (dead worker, timeout, worker
        exception) is re-dispatched before giving up on the pool for
        that frame.
    degrade_to_serial:
        After ``max_retries`` is exhausted (or if the pool cannot
        respawn workers at all), render the frame serially in the
        parent instead of failing it.  The serial renderer is the
        bit-identity reference, so a degraded animation still produces
        exactly the same images.
    backend:
        ``"mp"`` (the process pool,
        :class:`~repro.parallel.mp_backend.MPRenderPool`) or
        ``"thread"`` (the no-copy
        :class:`~repro.parallel.thread_backend.ThreadRenderPool`
        exploiting numpy's GIL release).  Dispatched by the
        ``repro.open_pool`` facade; the pool classes themselves ignore
        it.
    shards:
        How many scanline shards to split the intermediate image into,
        each rendered by its *own* pool instance and merged by the
        sort-last tree of :class:`repro.shard.ShardedRenderService`.
        Dispatched by the ``repro.open_pool`` facade (``shards > 1``
        builds a shard fleet instead of a single pool); the pool
        classes themselves ignore it, like ``backend``.
    """

    n_procs: int = 2
    profile_period: int = 5
    stealing: bool = True
    trace: bool = False
    timeout_s: float | None = None
    max_retries: int = 2
    degrade_to_serial: bool = True
    backend: str = "mp"
    shards: int = 1

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1 (need at least one worker)")
        if self.shards < 1:
            raise ValueError("shards must be >= 1 (need at least one shard)")
        if self.backend not in POOL_BACKENDS:
            raise ValueError(
                f"backend must be one of {POOL_BACKENDS}, got {self.backend!r}"
            )
        if self.profile_period < 0:
            raise ValueError("profile_period must be >= 0 (0 disables profiling)")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (None disables it)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def replace(self, **changes) -> "PoolConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


# -- frame planning -----------------------------------------------------------


@dataclass(frozen=True)
class FrameRegion:
    """Restriction of one frame to a shard of the intermediate image.

    A :class:`repro.shard.ShardedRenderService` splits the intermediate
    scanlines into contiguous shards and hands each shard's pool one of
    these per frame.  The region lives entirely in the parent's planning
    step — nothing about it is pickled to the workers; it only clamps
    the composite band and masks warp-row ownership, and the job tuples
    carry the already-restricted plan.

    Attributes
    ----------
    comp_lo / comp_hi:
        The scanline band ``[comp_lo, comp_hi)`` this pool must
        composite.  Besides its owned lines this includes the *ghost*
        line below each owned line: a final pixel with source line
        ``v0`` bilinearly samples lines ``v0`` and ``v0 + 1``, so the
        compositing band overlaps one line into the next shard.
    owned:
        Boolean mask over all ``n_v`` intermediate scanlines: the lines
        whose *warp output* this pool owns.  Lines outside the mask get
        warp ownership ``-1`` (no worker warps them here), which is how
        the shard service keeps final pixels disjoint across pools.
    """

    comp_lo: int
    comp_hi: int
    owned: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.comp_lo > self.comp_hi:
            raise ValueError("comp_lo must be <= comp_hi")


class FramePlanner:
    """Frame planning + the paper's profile feedback loop, backend-neutral.

    Cuts a frame's non-empty scanline band into ``n_blocks`` contiguous
    blocks: a pool's workers, or a shard fleet's pools — the one rule at
    both levels.  Owns the factorization, the non-empty band, the
    profiling schedule (sections 4.2-4.3: one frame in ``profile_period``
    and one per missing profile; ``0`` for a planner that only consumes
    profiles, as a fleet's does), the last measured
    :class:`ScanlineProfile` and its validity key, partition boundaries
    (uniform or profile-balanced) and line ownership (section 4.5).  A
    plan has two halves: :meth:`admit` when the frame is submitted,
    :meth:`partition` when it goes out.  Every transport plans through
    one instance of this class, so the backends cannot drift apart — the
    basis of their bit-identity.  An axis switch that drops the profile
    increments the counter named ``invalidations``.
    """

    def __init__(self, renderer, n_blocks: int, profile_period: int,
                 metrics: MetricsRegistry,
                 invalidations: str = "pool/profile_invalidations") -> None:
        self.renderer = renderer
        self.n_blocks = n_blocks
        self.metrics = metrics
        self.invalidations = invalidations
        self.schedule = (
            ProfileSchedule(period=profile_period) if profile_period > 0 else None
        )
        # Last assembled profile and the (axis, perm) it was measured
        # under — a principal-axis switch changes the intermediate-image
        # coordinate system, so the profile stops predicting anything.
        self.profile: ScanlineProfile | None = None
        self.profile_key: tuple[int, tuple[int, int, int]] | None = None
        # The (axis, perm) of the last frame planned as profiled.  A
        # batch is partitioned before any of its frames completes, so
        # "no valid profile" stays true for the whole batch; without
        # this every frame behind the first would be profiled too.
        self._requested_key: tuple[int, tuple[int, int, int]] | None = None

    def admit(self, view: np.ndarray, inter_cap=None, final_cap=None,
              region: FrameRegion | None = None,
              timestep: int | None = None) -> dict:
        """The half of a plan that can refuse a frame: factorization,
        the capacity check and the non-empty band — clamped to
        ``region``'s ``[comp_lo, comp_hi)`` in shard mode, of
        ``timestep``'s encoding on a time-varying renderer.  Touches no
        planner state, so a refused frame leaves nothing behind.
        """
        fact = self.renderer.factorize_view(view)
        n_v, n_u = fact.intermediate_shape
        ny, nx = fact.final_shape
        if inter_cap is not None and (
            n_v > inter_cap[0] or n_u > inter_cap[1]
            or ny > final_cap[0] or nx > final_cap[1]
        ):
            raise RuntimeError(
                f"frame shapes {(n_v, n_u)}/{(ny, nx)} exceed pool capacity "
                f"{inter_cap}/{final_cap} — is the view matrix scaled?"
            )
        rle = self.renderer.rle_for(fact, timestep=timestep)
        v_lo, v_hi = nonempty_scanline_bounds(rle, fact)
        if region is not None:
            v_lo = max(v_lo, int(region.comp_lo))
            v_hi = max(v_lo, min(v_hi, int(region.comp_hi)))
            if len(region.owned) != n_v:
                raise ValueError(
                    f"region.owned covers {len(region.owned)} lines, "
                    f"frame has {n_v}"
                )
        return dict(
            fact=fact, view=np.array(view, dtype=np.float64, copy=True),
            timestep=timestep, region=region, v_lo=v_lo, v_hi=v_hi,
            key=(fact.axis, fact.perm),
        )

    def partition(self, plan: dict) -> dict:
        """The half of a plan that *is* the feedback loop, added to
        ``plan`` in place: whether the frame is profiled, its boundaries
        from the newest valid profile and the line ownership that
        follows them — masked to a ``region``'s owned lines
        (deterministic).

        Note the profile validity key stays ``(axis, perm)``: the §4.2
        loop *predicts* the next frame's cost from the last measured
        frame's, and a moving volume is exactly the drift that
        prediction is supposed to absorb — so a timestep switch does
        not invalidate the profile, it stresses it.
        """
        fact, key, region = plan["fact"], plan["key"], plan["region"]
        if self.profile is not None and self.profile_key != key:
            self.profile = None
            self.metrics.counter(self.invalidations).inc()
        profiled = False
        if self.schedule is not None:
            # A profiled frame costs 15-27 % more to composite (the
            # paper's 10-15 %, section 4.2), so a missing profile is
            # requested once per key, not on every frame planned before
            # the requested one completes; otherwise only the schedule
            # profiles.
            profiled = self.schedule.should_profile() or (
                self.profile is None and self._requested_key != key
            )
            self.schedule.advance()
            if profiled:
                self._requested_key = key
        boundaries = profile_partition(
            self.profile, self.n_blocks, plan["v_lo"], plan["v_hi"]
        )
        owner = line_ownership(boundaries, fact.intermediate_shape[0])
        if region is not None:
            # Lines outside the shard get no warp owner here: the warp's
            # pid comparison never matches -1, so final
            # pixels sourced from them stay zero in this pool's buffer
            # and are taken from the owning shard by the merge tree.
            owner = np.where(np.asarray(region.owned, dtype=bool), owner, -1)
        plan.update(profiled=profiled, boundaries=boundaries, owner=owner)
        return plan

    def install_profile(self, v_lo: int, costs: np.ndarray, key) -> None:
        """Adopt a freshly measured per-scanline profile."""
        self.profile = ScanlineProfile(v_lo, costs)
        self.profile_key = key


def profile_partition(profile: ScanlineProfile | None, n: int,
                      v_lo: int, v_hi: int) -> np.ndarray:
    """``n`` contiguous blocks over ``[v_lo, v_hi)``, balanced by
    ``profile`` (section 4.3); uniform without a usable one.

    The profile is in the frame-it-was-measured-on's scanline
    coordinates; successive animation viewpoints differ by a few
    degrees, so reusing the indices is the paper's prediction step.
    Boundaries are clamped to this frame's non-empty band.
    :class:`FramePlanner` calls it at both levels that partition
    scanlines: workers within a pool and shards across pools.
    """
    if profile is None or profile.total <= 0:
        return uniform_contiguous_partition(v_lo, v_hi, n)
    profile = profile.trim_empty()
    if len(profile.costs) < n:
        return uniform_contiguous_partition(v_lo, v_hi, n)
    bounds = contiguous_partition(profile.costs, n, v_lo=profile.v_lo)
    bounds = np.clip(bounds, v_lo, v_hi)
    bounds[0], bounds[-1] = v_lo, v_hi
    return np.maximum.accumulate(bounds)


# -- chaos hooks (tests, CI) -------------------------------------------------


#: Imbalance-injection hook for tests and CI: ``(pid,
#: seconds_per_row)`` makes worker ``pid`` burn that much *CPU* per
#: scanline it composites — a deterministic stand-in for a slow or
#: interfered-with processor.  Monkeypatch this before pool construction
#: (workers snapshot it when they start).
TEST_ROW_DELAY: tuple[int, float] | None = None

#: Worker phases at which a fault can be injected.
FAULT_PHASES = ("decode", "composite", "profile", "steal", "warp")

#: Kinds of injectable fault: SIGKILL the worker, hang it forever, or
#: raise out of the phase.
FAULT_KINDS = ("kill", "hang", "raise")

#: Deterministic fault-injection hook, mirroring ``TEST_ROW_DELAY``:
#: ``(pid, frame, kind, phase)`` makes worker ``pid`` fail on frame
#: ``frame`` when it reaches ``phase`` (``kind`` one of
#: :data:`FAULT_KINDS`, ``phase`` one of :data:`FAULT_PHASES`).
#: Monkeypatch this before pool construction.  Only the process pool
#: arms it (a thread cannot be killed without the whole process), and
#: only for its *first* worker generation, so a respawned worker does
#: not re-trip it and recovery can be observed succeeding.
TEST_FAULT: tuple[int, int, str, str] | None = None


def armed_fault() -> tuple[int, int, str, str] | None:
    """The fault a transport's first worker generation should arm
    (the current :data:`TEST_FAULT`)."""
    return TEST_FAULT


def worker_burn_per_row(pid: int) -> float:
    """Seconds of CPU worker ``pid`` burns per composited scanline
    under the current :data:`TEST_ROW_DELAY` (0.0 when unarmed)."""
    delay = TEST_ROW_DELAY
    return delay[1] if delay is not None and delay[0] == pid else 0.0


def _burn(seconds: float) -> None:
    """Busy-wait so the injected delay shows up in CPU time, offering
    the GIL at every spin: the stand-in is for one slow *processor*.  A
    bare ``pass`` loop on the thread transport keeps the GIL for a whole
    switch interval (5 ms) each time a sibling's NumPy call lets go of
    it, which slows the sibling by far more than the delay slows the
    worker it was aimed at."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        time.sleep(0)


def _maybe_fault(fault, pid: int, frame: int, phase: str) -> None:
    """Trip the armed fault if it matches this (pid, frame, phase)."""
    if fault is None:
        return
    fpid, fframe, kind, fphase = fault
    if pid != fpid or frame != fframe or phase != fphase:
        return
    if kind == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        while True:  # until the supervisor terminates us
            time.sleep(3600.0)
    elif kind == "raise":
        raise RuntimeError(f"injected {phase} fault (TEST_FAULT)")


# -- result type and capacity -------------------------------------------------


@dataclass
class MPRenderResult:
    """Output of a real parallel render.

    Besides the images, the pool reports how the frame was split and how
    long each worker actually computed (``busy_s[pid]``, compositing +
    warp CPU time, barrier waits excluded) — the observables the
    paper's load-balance evaluation is built on.
    """

    final: FinalImage
    intermediate: IntermediateImage
    fact: ShearWarpFactorization
    n_procs: int
    boundaries: np.ndarray | None = None
    profiled: bool = False
    busy_s: np.ndarray | None = field(default=None, repr=False)
    timeline: FrameTimeline | None = field(default=None, repr=False)
    #: Successful chunk steals across all workers, and the scanlines they
    #: moved (zero on a static pool or a frame that never went idle).
    steals: int = 0
    steal_rows: int = 0
    #: How many times this frame was re-dispatched after a fault (0 on
    #: the healthy path).
    retries: int = 0
    #: True when retries ran out and the frame was rendered serially in
    #: the parent (bit-identical images; no per-worker observables).
    degraded: bool = False
    #: Per-scanline costs in CPU seconds on profiled frames (``None``
    #: otherwise), starting at scanline ``costs_v_lo``: each worker's
    #: op counts scaled to its compositing time, plus its warp time
    #: spread over its block — what the shard service gathers, as is,
    #: into its cross-shard profile.
    costs: np.ndarray | None = field(default=None, repr=False)
    costs_v_lo: int = 0

    @property
    def busy_spread(self) -> float | None:
        """Per-worker busy-time spread ``(max - min) / mean`` (see
        :func:`repro.obs.busy_spread`); ``None`` if busy times are absent."""
        return None if self.busy_s is None else busy_spread(self.busy_s)


def capacity_shapes(
    vol_shape: tuple[int, int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Largest (intermediate, final) image shapes any view can produce.

    The factorization guarantees ``|shear| <= 1`` along the principal
    axis, so for permutation ``(ni, nj, nk)`` the intermediate image is
    at most ``(nj + nk, ni + nk)``; the residual warp is a rotation plus
    translation of that rectangle, bounded by its diagonal.
    """
    cap_u = cap_v = 0
    for perm in PERMUTATIONS.values():
        ni, nj, nk = (vol_shape[perm[0]], vol_shape[perm[1]], vol_shape[perm[2]])
        cap_u = max(cap_u, int(np.ceil((ni - 1) + (nk - 1))) + 2)
        cap_v = max(cap_v, int(np.ceil((nj - 1) + (nk - 1))) + 2)
    diag = int(np.ceil(np.hypot(cap_u - 1, cap_v - 1))) + 2
    return (cap_v, cap_u), (diag, diag)


# -- the worker side: claim, steal, composite, one frame ----------------------


def composite_range(img, lo, hi, rle, fact, profiled, rec, frame):
    """Composite scanlines ``[lo, hi)`` in one block-kernel call; their
    per-row costs when profiling.

    One claimed chunk (or, with stealing off, the whole band).  The
    block kernel's per-row arithmetic is row-independent, so splitting a
    band into chunks leaves every pixel bit-identical.
    """
    if hi <= lo:
        return None
    if not profiled:
        composite_scanline_block(img, lo, hi, rle, fact)
        return None
    rows = BlockRowCounters(lo, hi)
    composite_scanline_block(img, lo, hi, rle, fact, row_counters=rows)
    if rec is not None:
        tp0 = rec.now()
    costs = scanline_cost_rows(rows)
    if rec is not None:
        # Nested inside this frame's composite span.
        rec.span(frame, "profile", tp0, rec.now())
    return costs


def seed_claims(claims: np.ndarray, boundaries: np.ndarray) -> None:
    """Point every worker's ``(head, tail)`` cursor pair in the
    ``(n_procs, 2)`` array ``claims`` at its static block."""
    claims[:, 0] = boundaries[:-1]
    claims[:, 1] = boundaries[1:]


def _guided_take(rem: int, grain: int, half: int) -> int:
    """Rows one claim takes of ``rem`` unclaimed ones: ``half`` while at
    least two grains are left (so ``half`` and what it leaves behind are
    both at least ``grain``), everything after that — splitting less
    than two grains would buy somebody a kernel call whose fixed cost
    exceeds its rows."""
    return half if rem >= 2 * grain else rem


def claim_own_chunk(claims, lock, pid, grain) -> tuple[int, int] | None:
    """Claim the next chunk off the head of this worker's own block.

    Guided and cost-aware: half of what is left (rounded up) while at
    least two grains remain, then everything — a band under two grains
    is one claim, a band of ``n`` rows at most ``floor(log2(n / grain))
    + 1``, and whatever is still unclaimed stays stealable in chunks of
    at least ``grain`` rows.
    """
    with lock:
        lo = int(claims[pid, 0])
        rem = int(claims[pid, 1]) - lo
        if rem <= 0:
            return None
        hi = lo + _guided_take(rem, grain, (rem + 1) // 2)
        claims[pid, 0] = hi
    return lo, hi


def steal_victim_chunk(claims, locks, pid, grain) -> tuple[int, int] | None:
    """Trim a chunk off the most-loaded victim's tail: half of what it
    has left (rounded down), or all of it once fewer than two grains
    remain — never less than ``grain`` scanlines unless that is all
    there is.

    The victim scan reads the cursors without locks (stale values only
    cost us a sub-optimal victim); the claim itself re-checks under the
    victim's lock, so a scanline is never handed out twice.  Returns
    ``None`` once no victim has unclaimed work left.
    """
    n_procs = len(locks)
    while True:
        best, best_rem = -1, 0
        for q in range(n_procs):
            if q == pid:
                continue
            rem = int(claims[q, 1]) - int(claims[q, 0])
            if rem > best_rem:
                best, best_rem = q, rem
        if best < 0:
            return None
        with locks[best]:
            lo = int(claims[best, 0])
            hi = int(claims[best, 1])
            if hi > lo:
                new_tail = hi - _guided_take(hi - lo, grain, (hi - lo) // 2)
                claims[best, 1] = new_tail
                return new_tail, hi
        # Raced: the victim drained between scan and lock — rescan.


def composite_share(img, band, claims, locks, pid, grain, rle, fact,
                    costs, rec, frame, burn_per_row=0.0, fault=None):
    """Composite worker ``pid``'s share of one frame (every pool's loop).

    Static pool (``claims is None``): the whole ``band`` in one kernel
    call.  Stealing pool: drain the head of our own block in guided
    chunks, then turn thief until every block is drained.  On a profiled
    frame ``costs`` is the frame's cost row (``None`` otherwise) and
    every chunk's per-scanline op counts are written straight into it,
    at the chunk's own scanlines.  Records the ``steal`` spans and the
    frame's counters (rows, steals, kernel calls, slice-cache deltas) on
    ``rec``; returns ``(chunks, n_steals, n_steal_rows)`` where
    ``chunks`` lists the ``(lo, hi)`` ranges this worker composited.
    """
    chunks: list[tuple[int, int]] = []
    n_rows = n_steals = n_steal_rows = 0
    if rec is not None:
        cache = rle.slice_cache
        hits0, misses0, decode_s0 = cache.hits, cache.misses, cache.decode_s

    def run(lo: int, hi: int) -> None:
        nonlocal n_rows
        frag = composite_range(img, lo, hi, rle, fact, costs is not None,
                               rec, frame)
        n_rows += hi - lo
        chunks.append((lo, hi))
        if frag is not None:
            costs[lo:hi] = frag
        if burn_per_row:
            _burn(burn_per_row * (hi - lo))

    if claims is None:
        if band[1] > band[0]:
            run(*band)
    else:
        while (got := claim_own_chunk(claims, locks[pid], pid, grain)) is not None:
            run(*got)
        _maybe_fault(fault, pid, frame, "steal")
        while True:
            if rec is not None:
                ts0 = rec.now()
            got = steal_victim_chunk(claims, locks, pid, grain)
            if got is None:
                break
            if rec is not None:
                rec.span(frame, "steal", ts0, rec.now())
            n_steals += 1
            n_steal_rows += got[1] - got[0]
            run(*got)
    if rec is not None:
        rec.count(frame, "rows", n_rows)
        rec.count(frame, "steals", n_steals)
        rec.count(frame, "steal_rows", n_steal_rows)
        rec.count(frame, "kernel_calls", len(chunks))
        rec.count(frame, "cache_hits", cache.hits - hits0)
        rec.count(frame, "cache_misses", cache.misses - misses0)
        rec.count(frame, "decode_us", (cache.decode_s - decode_s0) * 1e6)
    return chunks, n_steals, n_steal_rows


def _calibrate_costs(costs: np.ndarray, chunks, t_comp: float) -> None:
    """Turn the op counts one worker wrote into ``costs`` into *time*,
    which is what the partition must balance (the paper's native profile
    is elapsed time too): every chunk it composited — including rows it
    stole — is scaled so together they sum to its compositing CPU time.
    Each scanline is composited by exactly one worker, so the frame's
    row is covered exactly once even when rows crossed blocks, and no
    two workers touch the same element before the barrier."""
    total = sum(float(costs[lo:hi].sum()) for lo, hi in chunks)
    if total > 0 and t_comp > 0:
        scale = t_comp / total
        for lo, hi in chunks:
            costs[lo:hi] *= scale


@dataclass
class WorkerContext:
    """What one worker needs to run any frame, handed over by its
    transport when the worker starts."""

    pid: int
    renderer: object
    steal_chunk: int
    #: One lock per worker's claim cursor pair: the owner takes only its
    #: own lock, a thief only the victim's (empty when stealing is off).
    claim_locks: list
    #: Separates the frame's two phases across the whole worker set.
    barrier: object
    #: CPU clock of this worker alone (``time.process_time`` in a forked
    #: worker, ``time.thread_time`` on a thread) — not wall clock: on an
    #: oversubscribed host wall time includes slices spent descheduled,
    #: which would poison both the profile and the busy-time report.
    clock: Callable[[], float]
    #: Span recorder, or ``None`` on an untraced pool: every recording
    #: site is guarded, so the disabled path does zero observability
    #: work (no clock reads, no allocation).
    rec: SpanRecorder | None = None
    burn_per_row: float = 0.0
    fault: tuple | None = None


def run_frame(ctx: WorkerContext, frame: int, fact, band, owner, final_rows,
              costs, timestep, img, final, claims):
    """One worker's share of one frame: decode → composite → barrier → warp.

    ``img`` / ``final`` are the frame's images wherever the transport
    keeps them; ``claims`` its ``(n_procs, 2)`` cursor array (``None``
    on a static pool).  A barrier still separates the phases: however
    the partition is balanced, a worker's warp rows bilinearly sample
    the boundary scanline pair its neighbor composited, so the warp may
    only start once compositing is complete everywhere.

    ``costs`` is the frame's cost row on a profiled frame, ``None``
    otherwise: float64, indexed by intermediate scanline and shared by
    the whole worker set — the paper's one profile array (sections
    4.2-4.3), written where the pixels are.  Before the barrier this
    worker stores the calibrated cost of every scanline it composited
    (:func:`_calibrate_costs`); after it, it adds its warp CPU time,
    spread evenly, to its *static* block ``band`` — warp rows follow the
    boundaries, not who stole what, so warp load moves with the
    boundaries on the next partition.  The barrier orders that ``+=``
    after every ``=``, whichever worker made it.

    Returns ``(err, t_comp, t_warp, n_steals, n_steal_rows)`` — ``err``
    is the exception text if a phase raised (the cost row is then
    incomplete, and the frame is retried or failed, never installed).
    """
    pid, rec, fault, clock = ctx.pid, ctx.rec, ctx.fault, ctx.clock
    err: str | None = None
    chunks: list[tuple[int, int]] = []
    n_steals = n_steal_rows = 0
    t_comp = t_warp = 0.0
    # Span clocks pre-bound so the finally block can record even when
    # a phase died before its start time was taken (the bogus span is
    # discarded with the failed frame's timeline).
    tc0 = tb0 = 0.0
    t0 = clock()
    try:
        try:
            _maybe_fault(fault, pid, frame, "decode")
            if rec is not None:
                td0 = rec.now()
            rle = ctx.renderer.rle_for(fact, timestep=timestep)
            if rec is not None:
                tc0 = rec.now()
                rec.span(frame, "decode", td0, tc0)
            if costs is not None:
                _maybe_fault(fault, pid, frame, "profile")
            _maybe_fault(fault, pid, frame, "composite")
            chunks, n_steals, n_steal_rows = composite_share(
                img, band, claims, ctx.claim_locks, pid, ctx.steal_chunk, rle,
                fact, costs, rec, frame, ctx.burn_per_row, fault,
            )
        finally:
            # Busy time stops at the barrier: the wait measures the
            # *imbalance*, not this worker's work.
            t_comp = clock() - t0
            if costs is not None:
                _calibrate_costs(costs, chunks, t_comp)
            if rec is not None:
                tb0 = rec.now()
                rec.span(frame, "composite", tc0, tb0)
            # Siblings block on this barrier no matter what happened
            # above — reaching it even on error prevents a deadlock.
            # (A *dead* sibling can never arrive; a transport whose
            # workers can die detects that and stops the stragglers.)
            ctx.barrier.wait()
            if rec is not None:
                rec.span(frame, "barrier", tb0, rec.now())
        t1 = clock()
        _maybe_fault(fault, pid, frame, "warp")
        if rec is not None:
            tw0 = rec.now()
        # One band-vectorized gather over the rows this block can feed.
        warp_rows(final, final_rows, img, fact, line_owner=owner, pid=pid)
        t_warp = clock() - t1
        if costs is not None and band[1] > band[0]:
            costs[band[0]:band[1]] += t_warp / (band[1] - band[0])
        if rec is not None:
            rec.span(frame, "warp", tw0, rec.now())
    except Exception as exc:  # noqa: BLE001 - reported through the ledger
        err = f"{type(exc).__name__}: {exc}"
    return err, t_comp, t_warp, n_steals, n_steal_rows


# -- the frame ledger ---------------------------------------------------------


class PoolCore:
    """The frame ledger every render pool shares; subclass to add a transport.

    Owns a frame from ``submit`` to ``result``: planning, the in-flight
    record, per-worker completion accounting, the finish → retry →
    degrade → fail state machine, timelines and counters.  ``result()``
    never blocks forever on a healthy transport: it returns the frame,
    raises the frame's typed error (:class:`FrameFailed`,
    :class:`FrameTimeout`, :class:`WorkerDied`, :class:`PoolClosed`,
    :class:`PoolUnrecoverable`), or — with ``degrade_to_serial`` —
    returns a bit-identical serially rendered frame.

    A transport implements (all called with the pool condition held):

    ``_send_locked(frames)``
        Give each frame its images and claim cursors and get its jobs
        to every worker: one message per worker, in the same order on
        all.
    ``_take_images_locked(frame, rec) -> (intermediate, final)``
        Hand over a finished frame's images and free whatever held them.
    ``close()``
        Stop the workers; set ``_closed`` and wake every waiter.

    and may override ``_can_start_locked`` (has a message's first frame
    somewhere to render yet?  A transport that can say no calls
    :meth:`_feed_locked` when that changes), ``_cost_row_locked`` (a
    cost row workers that cannot reach the parent's memory can write),
    ``_retry_locked`` (a worker raised with retries left and the set
    intact; by default :meth:`_redispatch_locked`), ``_release_locked``
    (a frame left without its images being taken), ``_raise_if_dead``
    (liveness of whatever completes frames) and the ``inter_cap`` /
    ``final_cap`` image capacity.  Admission never waits: a message
    that cannot start yet is held in the parent (``_held``, the one
    place an undelivered job lives) until :meth:`_feed_locked`
    partitions and sends it.  Workers run :func:`run_frame` — which
    leaves a profiled frame's costs in ``rec["costs"]`` — and report
    its outcome through :meth:`_worker_done_locked`.
    """

    #: Name of the transport in exported trace metadata.
    transport = ""
    #: Largest frame the transport's images can hold (``None``: any).
    inter_cap: tuple[int, int] | None = None
    final_cap: tuple[int, int] | None = None

    def __init__(self, renderer, config: PoolConfig | None = None) -> None:
        self._closed = False
        self._cond = threading.Condition()
        self._broken: str | None = None
        if config is None:
            config = PoolConfig()
        elif not isinstance(config, PoolConfig):
            raise TypeError(
                f"config must be a PoolConfig, got {type(config).__name__}"
            )
        self.renderer = renderer
        self.config = config
        self.n_procs = config.n_procs
        self.profile_period = config.profile_period
        self.stealing = config.stealing
        # The grain this pool's workers run with, read once so every
        # worker generation of the pool agrees on it.
        self.steal_chunk = DEFAULT_STEAL_CHUNK
        self.trace = config.trace
        # One worker has nobody to steal from; skip the claim traffic.
        self._steal_active = config.stealing and config.n_procs > 1

        # Observability: the registry always exists (submit updates pool
        # health gauges either way); span recording only when tracing.
        self.metrics = MetricsRegistry()
        self._planner = FramePlanner(
            renderer, config.n_procs, config.profile_period, self.metrics
        )
        self.timelines: list[FrameTimeline] = []
        self.trace_epoch = time.perf_counter()
        #: Parent-side readers over the workers' span rings (the
        #: transport fills this in when tracing).
        self._readers: list[RingReader] = []
        self._frame_obs: dict[int, FrameTimeline] = {}
        self._sup_rec: SpanRecorder | None = None
        self._sup_reader: RingReader | None = None
        if config.trace:
            # The parent records dispatch/recovery spans on its own
            # track, one past the worker pids.
            self._sup_rec = SpanRecorder.in_memory(epoch=self.trace_epoch)
            self._sup_reader = RingReader(
                self._sup_rec.cursor, self._sup_rec.records, pid=config.n_procs
            )

        self._next_frame = 0
        self._inflight: dict[int, dict] = {}  # frame -> per-frame record
        # Messages (frame-id lists, one per submit call) admitted but
        # not yet sent: the transport cannot start their first frame.
        self._held: deque[list[int]] = deque()
        self._results: dict[int, MPRenderResult] = {}
        # Frames that failed for good: frame -> typed exception.  Each
        # frame's error is raised only from its own result() call, never
        # from a sibling's.
        self._failed: dict[int, MPPoolError] = {}

    # -- transport seam ------------------------------------------------------

    def _send_locked(self, frames: list[int]) -> None:
        raise NotImplementedError

    def _take_images_locked(self, frame: int, rec: dict):
        raise NotImplementedError

    def _retry_locked(self, frame: int, cause: str) -> None:
        self._redispatch_locked(frame)

    def close(self) -> None:
        raise NotImplementedError

    def _can_start_locked(self, frame: int) -> bool:
        """Can the workers be handed ``frame`` now?"""
        return True

    def _cost_row_locked(self, frame: int, rec: dict) -> np.ndarray:
        """Where the workers write a profiled frame's costs: float64,
        indexed by intermediate scanline."""
        return np.zeros(rec["fact"].intermediate_shape[0], dtype=np.float64)

    def _release_locked(self, frame: int, rec: dict) -> None:
        """``frame`` left the pool without its images being taken."""

    def _raise_if_dead(self) -> None:
        """Raise :class:`PoolUnrecoverable` if nothing can complete frames."""

    # -- frame lifecycle -----------------------------------------------------

    @property
    def capabilities(self) -> BackendCapabilities:
        """What this pool can do (the :class:`RenderBackend` struct)."""
        return BackendCapabilities(
            trace=self.trace,
            steal=self._steal_active,
            profile=self.profile_period > 0,
            shard=False,
        )

    def submit(self, view: np.ndarray,
               region: FrameRegion | None = None,
               timestep: int | None = None) -> int:
        """Dispatch one frame; returns its frame id.

        A one-spec :meth:`submit_batch` — same admission, same frame
        ids, same dispatch — that ``pool/batch_frames`` does not count.
        It never waits for somewhere to render: a frame the transport
        cannot start yet is held in the parent and partitioned when it
        goes out, so a loop of ``submit`` calls both pipelines and
        closes the feedback loop.  ``region`` restricts the frame to
        one shard's band (see :class:`FrameRegion`); ``timestep``
        selects a time-varying renderer's encoding.
        """
        with self._cond:
            return self._submit_locked([FrameSpec(view, timestep, region)])[0]

    def submit_batch(self, frame_specs) -> list[int]:
        """Dispatch a whole animation in one queue round-trip per worker.

        ``frame_specs`` is a sequence of bare views and/or
        :class:`~repro.parallel.backend.FrameSpec` items (the
        :class:`RenderBackend` batch form, which carries per-frame
        timesteps and regions).  This is the one way a frame enters the
        pool.

        A batch is admitted, partitioned and sent as a whole — at once
        on a pool that can start its first frame, otherwise when the
        frames ahead of it have retired — so all of it is partitioned
        from the profile that was valid at that moment (uniformly if
        there was none) and a profile measured *inside* the batch
        balances the next message, not this one.  The planner's schedule
        still runs frame to frame: one frame in ``profile_period`` is
        profiled, and a missing profile — fresh pool, principal-axis
        switch — is requested once, on the first frame that lacks it,
        not on every frame behind it.  Each worker receives its entire
        job list as a *single* queue message and runs frame to frame
        without re-synchronizing with the parent: the parent's
        collection of frame ``f`` overlaps the workers' compositing of
        ``f+1`` (MovieMaker's stage overlap), and the queue/wakeup cost
        is amortized over the batch instead of paid per frame.

        Returns the frame ids in submission order; collect them with
        :meth:`result` (in order, for image reuse to stream).  Raises
        :class:`PoolClosed` / :class:`PoolUnrecoverable` on a pool that
        can no longer accept work.

        Partitions and profiling never change pixels (only which worker
        composites which rows, and which frames count their work), so
        the output is bit-identical however the frames were grouped.
        """
        specs = as_frame_specs(frame_specs)
        with self._cond:
            frames = self._submit_locked(specs)
            self.metrics.counter("pool/batch_frames").inc(len(frames))
            return frames

    def _submit_locked(self, specs: list[FrameSpec]) -> list[int]:
        """Admit ``specs`` and queue them as one message per worker."""
        self._raise_if_unusable()
        if not specs:
            return []
        t_d0 = self._sup_rec.now() if self._sup_rec is not None else 0.0
        # Admit everything before claiming anything: a view that is
        # refused must leave no bookkeeping behind, nor strand its
        # batch-mates in flight.
        admitted = [
            self._planner.admit(s.view, self.inter_cap, self.final_cap,
                                region=s.region, timestep=s.timestep)
            for s in specs
        ]
        frames = [self._claim_frame_locked(a) for a in admitted]
        self._held.append(frames)
        self._feed_locked()
        self._sample_gauges_locked()
        if self._sup_rec is not None:
            self._sup_rec.span(frames[0], "dispatch", t_d0, self._sup_rec.now())
        return frames

    def result(self, frame: int) -> MPRenderResult:
        """Wait for ``frame`` and return its images.

        Never blocks forever: every in-flight frame is completed,
        retried, degraded or failed.  Raises the frame's *own* typed
        error (:class:`FrameFailed`, :class:`FrameTimeout`,
        :class:`WorkerDied`) — idempotently: calling ``result()`` again
        on a failed frame re-raises the *same* error (the serve layer
        retries and reports per client, so a failure must stay
        observable, not decay into ``KeyError``).  Raises
        :class:`PoolClosed` if the pool is closed while the frame is
        still in flight; :class:`PoolUnrecoverable` if the pool itself
        broke.
        """
        with self._cond:
            while True:
                if frame in self._failed:
                    raise self._failed[frame]
                if frame in self._results:
                    return self._results.pop(frame)
                if frame not in self._inflight:
                    raise KeyError(f"unknown frame {frame}")
                # One bounded wait, with liveness checks.
                if self._broken is not None:
                    raise PoolUnrecoverable(self._broken)
                if self._closed:
                    raise PoolClosed(f"pool closed while frame {frame} was in flight")
                self._raise_if_dead()
                self._cond.wait(timeout=0.2)

    def render(self, view: np.ndarray,
               timestep: int | None = None) -> MPRenderResult:
        """Render one frame synchronously."""
        return self.result(self.submit(view, timestep=timestep))

    def render_animation(self, views) -> list[MPRenderResult]:
        """Render a sequence of views (or
        :class:`~repro.parallel.backend.FrameSpec` items) as one batch,
        returning results in order."""
        return [self.result(f) for f in self.submit_batch(views)]

    def _raise_if_unusable(self) -> None:
        if self._closed:
            raise PoolClosed("pool is closed")
        if self._broken is not None:
            raise PoolUnrecoverable(self._broken)

    def _claim_frame_locked(self, admitted: dict) -> int:
        """Allocate the next frame id and its in-flight record."""
        frame = self._next_frame
        self._next_frame += 1
        self._inflight[frame] = {
            "attempt": 0,
            "sent": False,  # partitioned, and handed to the transport?
            "busy": np.zeros(self.n_procs, dtype=np.float64),
            **admitted,
        }
        return frame

    def _dispatch_locked(self, frames: list[int]) -> None:
        """Re-send ``frames`` (a retry, a recovery) ahead of whatever
        is still held: they are older than every held frame."""
        if frames:
            self._held.appendleft(frames)
            self._feed_locked()

    def _feed_locked(self) -> None:
        """Send every held message whose first frame can start, oldest
        first.  A frame is partitioned here, when the workers can take
        it, so it sees every profile installed until then; one sent
        before keeps its saved partition, so a retry is bit-identical
        to what the lost attempt would have produced."""
        while self._held and self._can_start_locked(self._held[0][0]):
            frames = self._held.popleft()
            for frame in frames:
                rec = self._inflight[frame]
                if not rec["sent"]:
                    self._planner.partition(rec)
                    # The final rows each worker's warp can feed.
                    src_lines = final_pixel_source_lines(
                        rec["fact"].final_shape, rec["fact"])
                    rec["rows_by_pid"] = warp_rows_by_pid(
                        src_lines, rec["owner"], self.n_procs)
                # Fresh per-attempt accounting.
                rec.update(done=0, errors=[], steals=0, steal_rows=0)
                rec["busy"][:] = 0.0
                rec["costs"] = (
                    self._cost_row_locked(frame, rec) if rec["profiled"] else None
                )
            self._send_locked(frames)
            for frame in frames:
                self._inflight[frame]["sent"] = True

    def _sample_gauges_locked(self) -> None:
        """Pool-health gauges, sampled at submit time."""
        self.metrics.gauge("pool/queue_depth").set(len(self._inflight))

    # -- completion: account, finish, retry, degrade, fail -------------------

    def _worker_done_locked(self, frame: int, pid: int, err: str | None,
                            t_comp: float, t_warp: float,
                            n_steals: int, n_steal_rows: int) -> None:
        """Account worker ``pid``'s :func:`run_frame` outcome to
        ``frame``; the last worker to report finishes the frame."""
        rec = self._inflight.get(frame)
        if rec is None:
            return
        rec["done"] += 1
        rec["busy"][pid] = t_comp + t_warp
        rec["steals"] += int(n_steals)
        rec["steal_rows"] += int(n_steal_rows)
        if err is not None:
            rec["errors"].append(f"worker {pid}: {err}")
        if rec["done"] >= self.n_procs:
            self._finish_locked(frame)

    def _finish_locked(self, frame: int) -> None:
        """All workers reported: hand over, retry, degrade, or fail."""
        rec = self._inflight[frame]
        timeline = self._collect_timeline_locked(frame)
        if rec["errors"]:
            # A worker raised but the set is intact.  The failed
            # attempt's timeline was drained above and is dropped (its
            # spans may be truncated).
            msg = "; ".join(rec["errors"])
            if rec["attempt"] < self.config.max_retries:
                self._retry_locked(frame, msg)
            else:
                self._exhausted_locked(frame, FrameFailed(msg))
            return
        if timeline is not None:
            self.timelines.append(timeline)
            metrics_from_timelines([timeline], self.metrics)
        if rec["steals"]:
            self.metrics.counter("pool/steals").inc(rec["steals"])
            self.metrics.counter("pool/steal_rows").inc(rec["steal_rows"])
        costs = None
        if rec["profiled"]:
            # A private copy of the frame's band, taken before the
            # transport gets the row back with the images.
            costs = rec["costs"][rec["v_lo"]:rec["v_hi"]].copy()
            self._planner.install_profile(rec["v_lo"], costs, rec["key"])
        del self._inflight[frame]
        img, final = self._take_images_locked(frame, rec)
        self._results[frame] = MPRenderResult(
            final=final,
            intermediate=img,
            fact=rec["fact"],
            n_procs=self.n_procs,
            boundaries=rec["boundaries"],
            profiled=rec["profiled"],
            busy_s=rec["busy"],
            timeline=timeline,
            steals=rec["steals"],
            steal_rows=rec["steal_rows"],
            retries=rec["attempt"],
            costs=costs,
            costs_v_lo=int(rec["v_lo"]),
        )

    def _count_retry_locked(self, frame: int) -> None:
        self._inflight[frame]["attempt"] += 1
        self.metrics.counter("pool/frames_retried").inc()

    def _redispatch_locked(self, frame: int) -> None:
        """Retry ``frame`` behind whatever the workers already hold."""
        self._count_retry_locked(frame)
        self._dispatch_locked([frame])

    def _exhausted_locked(self, frame: int, exc: MPPoolError) -> None:
        """``frame`` is out of retries: degrade to serial, or fail with
        ``exc``."""
        if self.config.degrade_to_serial:
            self._degrade_locked(frame)
        else:
            self._fail_locked(frame, exc)

    def _fail_locked(self, frame: int, exc: MPPoolError) -> None:
        self._release_locked(frame, self._inflight.pop(frame))
        self._failed[frame] = exc

    def _degrade_locked(self, frame: int) -> None:
        """Render ``frame`` serially in the parent — the last resort.

        The serial fast path is the pool's bit-identity reference, so a
        degraded frame carries exactly the pixels the workers would have
        produced; only the per-worker observables are absent.
        """
        rec = self._inflight.pop(frame)
        self._release_locked(frame, rec)
        try:
            res = render_fast(self.renderer, rec["view"],
                              timestep=rec.get("timestep"))
        except Exception as exc:  # noqa: BLE001 - surface, don't hang
            self._failed[frame] = FrameFailed(
                f"degraded serial render of frame {frame} failed: "
                f"{type(exc).__name__}: {exc}"
            )
            return
        self.metrics.counter("pool/degraded_frames").inc()
        self._results[frame] = MPRenderResult(
            final=res.final,
            intermediate=res.intermediate,
            fact=res.fact,
            n_procs=self.n_procs,
            boundaries=rec["boundaries"],
            profiled=False,
            busy_s=None,
            timeline=None,
            retries=rec["attempt"],
            degraded=True,
        )

    # -- observability -------------------------------------------------------

    def _collect_timeline_locked(self, frame: int) -> FrameTimeline | None:
        """Drain the span rings and return ``frame``'s assembled timeline.

        Every worker has reported ``frame`` by the time this runs, and
        each report happens-after that worker's ring writes, so the
        frame's records are all visible.  Records of *later* frames
        still in flight stay parked in ``_frame_obs`` until their own
        finish.
        """
        if not self.trace:
            return None
        for reader in (*self._readers, self._sup_reader):
            for r in reader.drain():
                tl = self._frame_obs.get(r.frame)
                if tl is None:
                    tl = self._frame_obs[r.frame] = FrameTimeline(r.frame)
                tl.add(r)
        dropped = sum(r.dropped for r in self._readers)
        if dropped:
            # Ring wrapped before the parent drained — never silent.
            self.metrics.gauge("trace/dropped_records").set(dropped)
        return self._frame_obs.pop(frame, None)

    def fault_counters(self) -> dict[str, int]:
        """Current recovery counters (zeros on a healthy pool;
        ``worker_restarts`` stays 0 on a transport whose workers cannot
        die)."""
        counters = self.metrics.counters
        return {
            name: int(counters[key].value) if key in counters else 0
            for name, key in (
                ("worker_restarts", "pool/worker_restarts"),
                ("frames_retried", "pool/frames_retried"),
                ("degraded_frames", "pool/degraded_frames"),
            )
        }

    def export_chrome_trace(self, path: str, metadata: dict | None = None) -> None:
        """Write every completed frame's timeline as Chrome trace JSON.

        The file loads in Perfetto / ``chrome://tracing`` with one track
        per worker (plus the parent's ``dispatch`` / ``recover`` spans
        on track ``n_procs``).  Requires the pool to have been built
        with ``trace=True``.
        """
        if not self.trace:
            raise RuntimeError("pool was created without trace=True")
        meta = {
            "n_procs": self.n_procs,
            "profile_period": self.profile_period,
            "stealing": self._steal_active,
            "steal_chunk": self.steal_chunk,
            "frames": len(self.timelines),
            "backend": self.transport,
            "batch_frames": int(
                self.metrics.counter("pool/batch_frames").value
            ),
        }
        meta.update(self.fault_counters())
        if metadata:
            meta.update(metadata)
        _export_chrome_trace(path, self.timelines, metadata=meta)

    # -- context manager -----------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort if close() was forgotten
        try:
            self.close()
        except Exception:
            pass
