"""Real shared-address-space execution via ``multiprocessing``.

The event-driven model in :mod:`repro.parallel.execution` reproduces the
paper's 1997 platforms; this module runs the same two partitioning
schemes for real on a modern multicore host.  The GIL rules out threads
for compute-bound Python, so worker *processes* share the image buffers
through ``multiprocessing.shared_memory`` — writes land in truly shared
pages, exactly the shared-address-space programming model of the paper.
The read-only renderer state (classified volume, RLE encodings) reaches
workers for free through ``fork``.

:class:`MPRenderPool` keeps the workers and the shared buffers alive
across frames, which is what makes animation rendering viable: fork,
shared-memory setup and the first slice decodes are paid once, and the
image segments are double-buffered so the parent overlaps zeroing and
result materialisation with the next frame's compositing.  Each worker
composites its contiguous partition through the block kernel
(:func:`repro.render.block.composite_scanline_block`) by default, so the
per-scanline Python overhead the paper's processors never had does not
throttle the measured speedup; ``kernel="scanline"`` selects the
instrumented reference kernel instead (bit-identical output either way).

The pool runs the paper's profile feedback loop (sections 4.2-4.3) for
real: on frames a :class:`~repro.core.profiling.ProfileSchedule` marks
for profiling, each worker collapses its partition's per-row work
counters into per-scanline costs and ships them back with its done
message; the parent assembles a
:class:`~repro.core.profiling.ScanlineProfile` and partitions subsequent
frames with :func:`~repro.core.partition.contiguous_partition` over that
profile instead of the uniform split.  The same boundaries drive
warp-row ownership (section 4.5), and the profile is invalidated when
the principal axis / permutation changes (the intermediate-image
scanline coordinates it was measured in no longer exist).
``profile_period=0`` disables the loop (always-uniform partitions);
either way the images are bit-identical, only the load balance moves.

On top of the static partition the pool runs the paper's *dynamic* half
(section 4.4): chunked task stealing over a shared claim array.  Each
worker's compositing assignment lives in shared memory as a ``(head,
tail)`` cursor pair.  Claims are *guided*: the owner takes half of what
is left from the head of its contiguous block, a worker that runs dry
trims half of what the most-loaded victim has left off its *tail*, and
``steal_chunk`` is the floor under both (single-scanline steals made
synchronization ~10x worse in the paper).  A pool chunk pays a full
pass over the kernel's slice loop whatever its height, so a band is
drained in about ``log2(rows / steal_chunk)`` kernel calls — the block
is composited as a block (sections 4.1, 4.5), stealing only mops up
residual imbalance — while its unclaimed half stays stealable
throughout.  Intermediate scanlines are independent and each is
composited exactly once by exactly one worker, so the images stay
bit-identical with stealing on or off, for both kernels.  The warp is
one band-vectorized gather per worker
(:func:`repro.render.warp.warp_rows`); warp-row ownership keeps
following the static boundaries (section 4.5), and on profiled frames a
stolen row's cost counters are shipped back by the thief, so the
feedback loop still sees every row's true cost.
``stealing=False`` (or one worker) restores the purely static pool.

Fault tolerance
---------------
The partitioned design only pays off when the runtime survives slow or
failed participants (the lesson of the paper's SVM experience, section
5, where uneven page-fault costs dominated the carefully balanced
compute).  The pool is therefore *self-healing*: a supervisor thread in
the parent owns the done queue, polls worker sentinels and per-frame
deadlines, and on a fault — an OOM-killed fork, a SIGKILLed or hung
worker, an exception escaping the compositing kernel — stops the worker
set, **respawns** it against the existing shared-memory segments
(fresh queues, barrier and claim locks; rings re-zeroed; claim cursors
re-seeded) and **resubmits** every lost frame, up to
:attr:`PoolConfig.max_retries` times.  When retries are exhausted the
frame degrades to an in-parent serial render
(:attr:`PoolConfig.degrade_to_serial`), so an animation always
completes with bit-identical images; with degradation off the frame's
``result()`` raises a typed error (:class:`FrameTimeout`,
:class:`WorkerDied`, :class:`FrameFailed`) instead of hanging.
Recovery is observable: ``pool/worker_restarts``,
``pool/frames_retried``, ``pool/degraded_frames`` counters and a
``pool/recovery_s`` histogram in :attr:`MPRenderPool.metrics`, a
``recover`` span on the supervisor's timeline track when tracing, and
:attr:`MPRenderResult.retries` / :attr:`MPRenderResult.degraded` per
frame.

Dispatch, batching and the doorbell
-----------------------------------
Once compositing is vectorized the per-frame *compute* is a few
milliseconds — small enough that per-frame queue round-trips, pickle
traffic and supervisor wakeups dominate a pooled frame.  Three
mechanisms kill that overhead (all bit-identical to the per-frame
path):

* **Batched submission** — :meth:`MPRenderPool.submit_batch` /
  :meth:`MPRenderPool.render_animation` plan N frames up front and push
  each worker *one* job-queue message holding the whole batch, so
  workers run frame-to-frame without re-synchronizing with the parent
  (MovieMaker's stage-overlap idea applied to dispatch).
* **Cross-frame pipelining** — the image segments are already
  double-buffered; a per-buffer *release cursor* in shared memory lets
  a worker start compositing frame ``f`` the moment the parent has
  collected frame ``f - buffers``, so worker compositing of frame
  ``f+1`` overlaps the parent's copy-out/zeroing of frame ``f``.
* **The shm doorbell** (:attr:`PoolConfig.doorbell`) — instead of one
  pickled done-queue message per worker per frame, each worker writes
  its completion record (frame id, busy times, steal counters) into a
  small shared segment and rings a shared event; the supervisor reads
  completion with a memory scan.  The done queue survives only for
  error strings and profile cost fragments, which are rare and
  variable-sized.

All knobs live on one frozen :class:`PoolConfig`; the individual
keyword arguments of :class:`MPRenderPool` and
:func:`render_parallel_mp` remain as a compatibility shim that builds
the config for you.  ``PoolConfig.backend`` selects this process-based
pool (``"mp"``) or the no-copy threading pool
(:class:`repro.parallel.thread_backend.ThreadRenderPool`,
``"thread"``) through the :func:`repro.open_pool` facade.

On a single-core host this still runs correctly (and is exercised by
the test suite); the wall-clock speedup study is
``examples/multicore_speedup.py``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import queue as queue_mod
import signal
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from ..core.partition import (
    contiguous_partition,
    line_ownership,
    uniform_contiguous_partition,
)
from ..core.profiling import (
    ProfileSchedule,
    ScanlineProfile,
    scanline_cost,
    scanline_cost_rows,
)
from ..obs.metrics import MetricsRegistry, busy_spread, metrics_from_timelines
from ..obs.recorder import DEFAULT_RING_CAPACITY, RingReader, SpanRecorder, ring_bytes
from ..obs.timeline import FrameTimeline
from ..obs.timeline import export_chrome_trace as _export_chrome_trace
from ..render.block import BlockRowCounters, composite_scanline_block
from ..render.compositing import composite_image_scanline, nonempty_scanline_bounds
from ..render.fast import render_fast
from ..render.image import FinalImage, IntermediateImage
from ..render.instrument import WorkCounters
from ..render.serial import ShearWarpRenderer
from ..render.warp import (
    final_pixel_source_lines,
    warp_coeffs,
    warp_rows,
    warp_rows_by_pid,
)
from ..transforms.factorization import PERMUTATIONS, ShearWarpFactorization
from .backend import BackendCapabilities, FrameSpec, as_frame_specs

__all__ = [
    "FrameRegion",
    "MPRenderPool",
    "MPRenderResult",
    "PoolConfig",
    "render_parallel_mp",
    "COMPOSITE_KERNELS",
    "POOL_BACKENDS",
    "DEFAULT_STEAL_CHUNK",
    "MPPoolError",
    "FrameFailed",
    "FrameTimeout",
    "WorkerDied",
    "PoolClosed",
    "PoolUnrecoverable",
]

#: Compositing kernels a worker can run over its partition.
COMPOSITE_KERNELS = ("scanline", "block")

#: Pool backends selectable through ``PoolConfig.backend`` (dispatched
#: by the ``repro.open_pool`` facade): ``"mp"`` is this module's
#: process pool, ``"thread"`` the no-copy threading pool.
POOL_BACKENDS = ("mp", "thread")

#: Default stealing grain: the *fewest* scanlines a claim or steal takes
#: (section 4.4).  Claims are guided — half of what is left, never less
#: than this — because a pool chunk pays a full pass over the kernel's
#: slice loop whatever its height; the floor keeps the tail of a band
#: from dissolving into the single-scanline chunks that recreate the
#: paper's ~10x sync blowup.
DEFAULT_STEAL_CHUNK = 8

#: Default supervisor cadence: how often worker sentinels and frame
#: deadlines are checked while no done messages arrive.  Done messages
#: themselves wake the supervisor immediately regardless.
DEFAULT_POLL_S = 0.05


# -- typed pool errors --------------------------------------------------------


class MPPoolError(RuntimeError):
    """Base of every typed :class:`MPRenderPool` error.

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
    """Every :class:`MPRenderPool` knob, validated in one place.

    This is the canonical front door: build one config and hand it to
    ``MPRenderPool(renderer, config=cfg)`` /
    ``render_parallel_mp(..., config=cfg)`` / ``repro.open_pool`` —
    instead of threading eight keyword arguments through every layer.
    The individual kwargs on those callables remain as a legacy shim
    that builds a ``PoolConfig`` internally.

    Parameters
    ----------
    n_procs:
        Worker process count.
    kernel:
        ``"block"`` (default, vectorized) or ``"scanline"``
        (instrumented reference); bit-identical images either way.
    buffers:
        Shared image buffers cycled across frames; with two, submitting
        frame ``n+1`` only waits for frame ``n-1``.
    profile_period:
        Re-profile every this many frames (paper section 4.2);
        ``0`` disables the feedback loop (always-uniform partitions).
    stealing / steal_chunk:
        Chunked task stealing on top of the static partition (paper
        section 4.4).  Claims are guided — an owner takes half of its
        remaining block, a thief half of the victim's — and
        ``steal_chunk`` is the minimum chunk, in scanlines.
    trace / trace_capacity:
        Per-worker span/counter ring recording (:mod:`repro.obs`).
    timeout_s:
        Per-frame deadline in seconds, measured from dispatch.  A frame
        still incomplete past its deadline is treated as a fault (hung
        or wedged worker) and recovered.  ``None`` (default) disables
        the deadline — worker *deaths* are still detected via their
        sentinels; only silent hangs need a timeout to be caught.
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
    poll_s:
        Supervisor cadence for sentinel/deadline checks.  Smaller
        values detect faults faster; done messages are handled
        immediately regardless.
    backend:
        ``"mp"`` (this module's process pool) or ``"thread"`` (the
        no-copy :class:`~repro.parallel.thread_backend.ThreadRenderPool`
        exploiting numpy's GIL release).  Dispatched by the
        ``repro.open_pool`` facade; the pool classes themselves ignore
        it.
    doorbell:
        Signal frame completion through per-buffer shared-memory
        completion records plus a shared event (a memory write instead
        of a pickled done-queue round-trip per worker per frame).
        ``False`` restores the per-frame done-queue protocol;
        bit-identical either way.
    pipeline:
        Whether :meth:`MPRenderPool.render_animation` submits the whole
        animation as one batch (workers run frame-to-frame, parent
        collection overlaps worker compositing).  ``False`` falls back
        to per-frame submit/result pairs.
    shards:
        How many scanline shards to split the intermediate image into,
        each rendered by its *own* pool instance and merged by the
        sort-last tree of :class:`repro.shard.ShardedRenderService`.
        Dispatched by the ``repro.open_pool`` facade (``shards > 1``
        builds a shard fleet instead of a single pool); the pool
        classes themselves ignore it, like ``backend``.
    """

    n_procs: int = 2
    kernel: str = "block"
    buffers: int = 2
    profile_period: int = 5
    stealing: bool = True
    steal_chunk: int = DEFAULT_STEAL_CHUNK
    trace: bool = False
    trace_capacity: int = DEFAULT_RING_CAPACITY
    timeout_s: float | None = None
    max_retries: int = 2
    degrade_to_serial: bool = True
    poll_s: float = DEFAULT_POLL_S
    backend: str = "mp"
    doorbell: bool = True
    pipeline: bool = True
    shards: int = 1

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("need at least one worker")
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.kernel not in COMPOSITE_KERNELS:
            raise ValueError(
                f"kernel must be one of {COMPOSITE_KERNELS}, got {self.kernel!r}"
            )
        if self.backend not in POOL_BACKENDS:
            raise ValueError(
                f"backend must be one of {POOL_BACKENDS}, got {self.backend!r}"
            )
        if self.buffers < 1:
            raise ValueError("need at least one image buffer")
        if self.profile_period < 0:
            raise ValueError("profile_period must be >= 0 (0 disables profiling)")
        if self.steal_chunk < 1:
            raise ValueError("steal_chunk must be >= 1 scanline")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (None disables it)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive")

    def replace(self, **changes) -> "PoolConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


#: Legacy-kwarg names accepted by the compat shims, in the positional
#: order the old ``MPRenderPool.__init__`` took them.
_LEGACY_FIELDS = tuple(f.name for f in dataclasses.fields(PoolConfig))


def _warn_legacy(given: dict) -> None:
    """Deprecation notice for the pre-``PoolConfig`` keyword shim.

    The individual pool kwargs (``n_procs=...``, ``stealing=...``, ...)
    predate :class:`PoolConfig` and will be removed in 2.0 (see the
    README's deprecation timeline).  ``repro.open_pool(**overrides)``
    stays — it builds a :class:`PoolConfig` internally and is the
    blessed facade path.
    """
    warnings.warn(
        "passing individual pool kwargs "
        f"({', '.join(sorted(given))}) is deprecated and will be removed "
        "in 2.0; build a PoolConfig and pass config=PoolConfig(...) "
        "instead (or use repro.open_pool)",
        DeprecationWarning,
        stacklevel=3,
    )


def _config_from(config: PoolConfig | None, legacy: dict) -> PoolConfig:
    """Build the effective config from ``config=`` or legacy kwargs."""
    given = {k: v for k, v in legacy.items() if v is not None}
    if config is not None:
        if given:
            raise TypeError(
                "pass either config= or individual pool kwargs, not both "
                f"(got config and {sorted(given)})"
            )
        return config
    if given:
        _warn_legacy(given)
    return PoolConfig(**given)


# -- doorbell layout ----------------------------------------------------------

#: Floats per doorbell completion cell:
#: ``[frame, flags, t_comp, t_warp, steals, steal_rows]``.  Each cell is
#: written by exactly one worker and read by the parent, so no lock is
#: needed; ``frame`` is stored *last* so a parent that reads the frame
#: id sees the rest of the record.
_CELL_FLOATS = 6

#: Cell flag bit: this worker also put a message (error string and/or
#: profile cost fragments) on the done queue for this frame.
_FLAG_QUEUE_MSG = 1


def _doorbell_bytes(buffers: int, n_procs: int) -> int:
    """Bytes of the doorbell segment: completion cells + release cursors."""
    return buffers * n_procs * _CELL_FLOATS * 8 + buffers * 8


def _doorbell_views(buf, buffers: int, n_procs: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, release) views over the doorbell segment.

    ``cells[buf, pid]`` is worker ``pid``'s completion record for the
    frame occupying image buffer ``buf``; ``release[buf]`` is the last
    frame the parent has fully collected *and re-zeroed* out of that
    buffer — the cursor a worker gates on before writing frame
    ``release[buf] + buffers`` into it.
    """
    cells = np.ndarray((buffers, n_procs, _CELL_FLOATS), np.float64, buffer=buf)
    release = np.ndarray(
        (buffers,), np.int64, buffer=buf,
        offset=buffers * n_procs * _CELL_FLOATS * 8,
    )
    return cells, release


def _await_release(release, buf: int, frame: int, buffers: int, rec) -> None:
    """Gate a worker until the parent has collected ``frame - buffers``.

    The pipelining half of batched dispatch: workers run frame-to-frame
    without talking to the parent, bounded only by this per-buffer
    cursor (at most ``buffers`` frames of lead).  Spin briefly, then
    sleep in sub-millisecond slices — the wait is recorded as a
    ``doorbell`` span so pipeline stalls are visible in traces.
    """
    target = frame - buffers
    if release[buf] >= target:
        return
    t0 = 0.0 if rec is None else rec.now()
    spins = 0
    while release[buf] < target:
        spins += 1
        time.sleep(0.0 if spins < 100 else 0.0002)
    if rec is not None:
        rec.span(frame, "doorbell", t0, rec.now())


# -- shared frame planning (both backends) ------------------------------------


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

    Owns everything a pool needs to turn a view matrix into a dispatch
    record: the factorization, the non-empty scanline band, the
    profiling schedule (sections 4.2-4.3), the last measured
    :class:`ScanlineProfile` and its validity key, partition boundaries
    (uniform or profile-balanced), warp-row ownership (section 4.5) and
    the boundary-drift metric.  :class:`MPRenderPool` and the threading
    backend both plan through one instance of this class, so the two
    backends cannot drift apart — the basis of their bit-identity.
    """

    def __init__(self, renderer, n_procs: int, profile_period: int,
                 metrics: MetricsRegistry) -> None:
        self.renderer = renderer
        self.n_procs = n_procs
        self.metrics = metrics
        self.schedule = (
            ProfileSchedule(period=profile_period) if profile_period > 0 else None
        )
        # Last assembled profile and the (axis, perm) it was measured
        # under — a principal-axis switch changes the intermediate-image
        # coordinate system, so the profile stops predicting anything.
        self.profile: ScanlineProfile | None = None
        self.profile_key: tuple[int, tuple[int, int, int]] | None = None
        self._last_boundaries: np.ndarray | None = None
        self._last_part_key: tuple[int, tuple[int, int, int]] | None = None

    def plan(self, view: np.ndarray, inter_cap=None, final_cap=None,
             region: FrameRegion | None = None,
             timestep: int | None = None) -> dict:
        """Everything needed to dispatch one frame (deterministic).

        ``region`` (shard mode) clamps the composite band to the shard's
        ``[comp_lo, comp_hi)`` and masks warp ownership to the shard's
        owned lines; the rest of the plan — partitioning, profiling,
        warp-row assignment — runs unchanged inside that restriction.

        ``timestep`` selects a time-varying renderer's encoding (static
        renderers ignore it).  Note the profile validity key stays
        ``(axis, perm)``: the §4.2 loop *predicts* the next frame's cost
        from the last measured frame's, and a moving volume is exactly
        the drift that prediction is supposed to absorb — so a timestep
        switch does not invalidate the profile, it stresses it.
        """
        fact = self.renderer.factorize_view(view)
        n_v, n_u = fact.intermediate_shape
        ny, nx = fact.final_shape
        if inter_cap is not None and (
            (n_v, n_u) > inter_cap or (ny, nx) > final_cap
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
        if self.profile is not None and self.profile_key != (fact.axis, fact.perm):
            self.profile = None
            self.metrics.counter("pool/profile_invalidations").inc()
        profiled = False
        if self.schedule is not None:
            profiled = self.schedule.should_profile() or self.profile is None
            self.schedule.advance()
        boundaries = self.partition(v_lo, v_hi)
        # Partition-boundary drift between successive frames of the
        # same principal axis: how far the feedback loop moves the split.
        part_key = (fact.axis, fact.perm)
        if (
            self._last_boundaries is not None
            and self._last_part_key == part_key
            and len(self._last_boundaries) == len(boundaries)
        ):
            self.metrics.histogram("pool/boundary_drift").observe(
                float(np.abs(boundaries - self._last_boundaries).mean())
            )
        self._last_boundaries = boundaries
        self._last_part_key = part_key
        owner = line_ownership(boundaries, n_v)
        if region is not None:
            owned = np.asarray(region.owned, dtype=bool)
            if len(owned) != n_v:
                raise ValueError(
                    f"region.owned covers {len(owned)} lines, frame has {n_v}"
                )
            # Lines outside the shard get no warp owner here: the warp's
            # pid comparison never matches -1, so final
            # pixels sourced from them stay zero in this pool's buffer
            # and are taken from the owning shard by the merge tree.
            owner = np.where(owned, owner, -1)
        coeffs = warp_coeffs(fact)
        src_lines = final_pixel_source_lines((ny, nx), fact, coeffs=coeffs)
        rows_by_pid = warp_rows_by_pid(src_lines, owner, self.n_procs)
        return {
            "fact": fact,
            "view": np.array(view, dtype=np.float64, copy=True),
            "timestep": timestep,
            "profiled": profiled,
            "v_lo": v_lo,
            "v_hi": v_hi,
            "boundaries": boundaries,
            "owner": owner,
            "rows_by_pid": rows_by_pid,
            "key": part_key,
        }

    def partition(self, v_lo: int, v_hi: int) -> np.ndarray:
        """Contiguous boundaries for the next frame (section 4.3).

        The profile is in the frame-it-was-measured-on's scanline
        coordinates; successive animation viewpoints differ by a few
        degrees, so reusing the indices is the paper's prediction step.
        Boundaries are clamped to this frame's non-empty band.
        """
        prof = self.profile
        if prof is None or prof.total <= 0:
            return uniform_contiguous_partition(v_lo, v_hi, self.n_procs)
        prof = prof.trim_empty()
        if len(prof.costs) < self.n_procs:
            return uniform_contiguous_partition(v_lo, v_hi, self.n_procs)
        bounds = contiguous_partition(prof.costs, self.n_procs, v_lo=prof.v_lo)
        bounds = np.clip(bounds, v_lo, v_hi)
        bounds[0], bounds[-1] = v_lo, v_hi
        for p in range(1, self.n_procs + 1):
            bounds[p] = max(bounds[p], bounds[p - 1])
        return bounds

    def install_profile(self, v_lo: int, costs: np.ndarray, key) -> None:
        """Adopt a freshly measured per-scanline profile."""
        self.profile = ScanlineProfile(v_lo, costs)
        self.profile_key = key


def _apply_cost_fragments(rec: dict, pid: int, frags, t_comp: float,
                          t_warp: float) -> None:
    """Fold one worker's per-chunk cost fragments into a frame record.

    Calibrates the op-count profile to measured *time*, which is what
    the partition must balance (the paper's native profile is elapsed
    time too): every chunk this worker composited — including rows it
    stole — is scaled so together they sum to its compositing CPU time.
    Each scanline was composited by exactly one worker, so the
    assembled profile covers every row exactly once even when rows
    crossed blocks.  Shared by the MP and threading backends.
    """
    if rec["costs"] is None:
        rec["costs"] = np.zeros(
            max(0, rec["v_hi"] - rec["v_lo"]), dtype=np.float64
        )
    total = sum(float(f.sum()) for _, f in frags)
    scale = (t_comp / total) if total > 0 and t_comp > 0 else 1.0
    base = rec["v_lo"]
    for chunk_lo, f in frags:
        off = chunk_lo - base
        rec["costs"][off:off + len(f)] = np.asarray(f, np.float64) * scale
    # Warp CPU time is spread over this worker's *static* block (warp
    # rows follow the boundaries, not who stole what), so warp load
    # moves with the boundaries on the next partition.
    b = rec["boundaries"]
    blo, bhi = int(b[pid]), int(b[pid + 1])
    if bhi > blo:
        rec["costs"][blo - base:bhi - base] += t_warp / (bhi - blo)


# -- chaos hooks (tests, benchmarks, CI) --------------------------------------


def _row_delay_from_env() -> tuple[int, float] | None:
    """Parse the ``REPRO_MP_ROW_DELAY`` chaos knob (``"pid:sec_per_row"``)."""
    spec = os.environ.get("REPRO_MP_ROW_DELAY")
    if not spec:
        return None
    pid_s, sec_s = spec.split(":", 1)
    return int(pid_s), float(sec_s)


#: Imbalance-injection hook for tests, benchmarks and CI: ``(pid,
#: seconds_per_row)`` makes worker ``pid`` burn that much *CPU* per
#: scanline it composites — a deterministic stand-in for a slow or
#: interfered-with processor.  Set the env var above or monkeypatch this
#: before pool construction (it reaches the workers through fork).
_TEST_ROW_DELAY: tuple[int, float] | None = _row_delay_from_env()

#: Worker phases at which a fault can be injected.
FAULT_PHASES = ("decode", "composite", "profile", "steal", "warp")

#: Kinds of injectable fault: SIGKILL the worker, hang it forever, or
#: raise out of the phase.
FAULT_KINDS = ("kill", "hang", "raise")


def _fault_from_env() -> tuple[int, int, str, str] | None:
    """Parse ``REPRO_MP_FAULT`` (``"pid:frame:kind[:phase]"``).

    ``kind`` is one of :data:`FAULT_KINDS`, ``phase`` one of
    :data:`FAULT_PHASES` (default ``composite``).
    """
    spec = os.environ.get("REPRO_MP_FAULT")
    if not spec:
        return None
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"REPRO_MP_FAULT must be pid:frame:kind[:phase], got {spec!r}")
    pid, frame, kind = int(parts[0]), int(parts[1]), parts[2]
    phase = parts[3] if len(parts) == 4 else "composite"
    if kind not in FAULT_KINDS:
        raise ValueError(f"REPRO_MP_FAULT kind must be one of {FAULT_KINDS}")
    if phase not in FAULT_PHASES:
        raise ValueError(f"REPRO_MP_FAULT phase must be one of {FAULT_PHASES}")
    return pid, frame, kind, phase


#: Deterministic fault-injection hook, mirroring ``_TEST_ROW_DELAY``:
#: ``(pid, frame, kind, phase)`` makes worker ``pid`` fail on frame
#: ``frame`` when it reaches ``phase``.  Set ``REPRO_MP_FAULT`` or
#: monkeypatch this before pool construction.  The fault is armed only
#: for the pool's *first* worker generation, so a respawned worker does
#: not re-trip it and recovery can be observed succeeding.
_TEST_FAULT: tuple[int, int, str, str] | None = _fault_from_env()


def _burn(seconds: float) -> None:
    """Busy-wait so the injected delay shows up in CPU (process) time."""
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


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
        raise RuntimeError(f"injected {phase} fault (REPRO_MP_FAULT)")


# Worker globals installed by fork (read-only for the volume; the images
# are views onto shared memory, partitioned so no two workers write the
# same bytes).  The parent clears this right after the workers fork so
# renderer state cannot leak into a later pool's fork snapshot.
_G: dict = {}

# Serializes the stage-_G / fork / clear-_G critical section across
# pools.  ``_G`` is process-global, and with several pools alive each
# pool's *supervisor thread* respawns workers after a fault: two
# concurrent recoveries could interleave so one pool's workers fork
# against the other pool's queues and barrier (a cross-pool wedge), or
# against an already-cleared ``_G``.  Holding one lock across the whole
# spawn also keeps the fork away from another pool's concurrent
# multiprocessing-object creation (shared-heap and resource-tracker
# locks must not be mid-operation in the fork snapshot).
_SPAWN_LOCK = threading.Lock()


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
    #: Per-scanline calibrated costs on profiled frames (``None``
    #: otherwise), starting at scanline ``costs_v_lo`` — the raw
    #: material the shard service stitches its cross-shard profile from.
    costs: np.ndarray | None = field(default=None, repr=False)
    costs_v_lo: int = 0

    @property
    def busy_spread(self) -> float | None:
        """Per-worker busy-time spread ``(max - min) / mean`` (see
        :func:`repro.obs.busy_spread`); ``None`` if busy times are absent."""
        return None if self.busy_s is None else busy_spread(self.busy_s)


def _capacity_shapes(
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


def _composite_range(img, lo, hi, rle, fact, kernel, profiled, rec, frame):
    """Composite scanlines ``[lo, hi)``; per-row costs when profiling.

    One claimed chunk (or, with stealing off, the whole band).  The
    block kernel's per-row arithmetic is row-independent, so splitting a
    band into chunks leaves every pixel bit-identical.
    """
    if hi <= lo:
        return None
    if kernel == "block":
        if profiled:
            rows = BlockRowCounters(lo, hi)
            composite_scanline_block(img, lo, hi, rle, fact, row_counters=rows)
            if rec is not None:
                tp0 = rec.now()
            costs = scanline_cost_rows(rows)
            if rec is not None:
                # Nested inside this frame's composite span.
                rec.span(frame, "profile", tp0, rec.now())
            return costs
        composite_scanline_block(img, lo, hi, rle, fact)
        return None
    if profiled:
        costs = np.zeros(hi - lo, dtype=np.float64)
        for v in range(lo, hi):
            counters = WorkCounters()
            composite_image_scanline(img, v, rle, fact, counters=counters)
            costs[v - lo] = scanline_cost(counters)
        return costs
    for v in range(lo, hi):
        composite_image_scanline(img, v, rle, fact)
    return None


def _claim_own_chunk(claims, lock, pid, grain) -> tuple[int, int] | None:
    """Claim the next chunk off the head of this worker's own block.

    Guided: half of what is left (rounded up), never less than ``grain``
    scanlines — so a band of ``n`` rows is drained in about
    ``log2(n / grain)`` kernel calls while its unclaimed half stays
    stealable the whole time.
    """
    with lock:
        lo = int(claims[pid, 0])
        rem = int(claims[pid, 1]) - lo
        if rem <= 0:
            return None
        hi = lo + min(rem, max(grain, (rem + 1) // 2))
        claims[pid, 0] = hi
    return lo, hi


def _steal_chunk(claims, locks, pid, grain) -> tuple[int, int] | None:
    """Trim a chunk off the most-loaded victim's tail: half of what it
    has left (rounded down), never less than ``grain`` scanlines.

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
                new_tail = hi - min(hi - lo, max(grain, (hi - lo) // 2))
                claims[best, 1] = new_tail
                return new_tail, hi
        # Raced: the victim drained between scan and lock — rescan.


def _composite_share(img, band, claims, locks, pid, grain, rle, fact, kernel,
                     profiled, rec, frame, burn_per_row=0.0, fault=None):
    """Composite worker ``pid``'s share of one frame (both pools' loop).

    Static pool (``claims is None``): the whole ``band`` in one kernel
    call.  Stealing pool: drain the head of our own block in guided
    chunks, then turn thief until every block is drained.  Records the
    ``steal`` spans and the frame's counters (rows, steals, kernel
    calls, slice-cache deltas) on ``rec``; returns ``(frags, n_steals,
    n_steal_rows)`` where ``frags`` is the per-chunk cost fragments
    ``[(v_start, costs)]`` on profiled frames, else ``None``.
    """
    frags: list[tuple[int, np.ndarray]] | None = [] if profiled else None
    n_rows = n_calls = n_steals = n_steal_rows = 0
    if rec is not None:
        cache = rle.slice_cache
        hits0, misses0, decode_s0 = cache.hits, cache.misses, cache.decode_s

    def run(lo: int, hi: int) -> None:
        nonlocal n_rows, n_calls
        frag = _composite_range(img, lo, hi, rle, fact, kernel, profiled,
                                rec, frame)
        n_rows += hi - lo
        # The scanline kernel is invoked once per row of the chunk.
        n_calls += 1 if kernel == "block" else hi - lo
        if frag is not None:
            frags.append((lo, frag))
        if burn_per_row:
            _burn(burn_per_row * (hi - lo))

    if claims is None:
        if band[1] > band[0]:
            run(*band)
    else:
        while (got := _claim_own_chunk(claims, locks[pid], pid, grain)) is not None:
            run(*got)
        _maybe_fault(fault, pid, frame, "steal")
        while True:
            if rec is not None:
                ts0 = rec.now()
            got = _steal_chunk(claims, locks, pid, grain)
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
        rec.count(frame, "kernel_calls", n_calls)
        rec.count(frame, "cache_hits", cache.hits - hits0)
        rec.count(frame, "cache_misses", cache.misses - misses0)
        rec.count(frame, "decode_us", (cache.decode_s - decode_s0) * 1e6)
    return frags, n_steals, n_steal_rows


def _worker_loop(pid: int) -> None:
    """Composite and warp this worker's partition, frame after frame.

    A job-queue message is either ``None`` (shutdown), one job tuple,
    or a *batch* — a list of job tuples the worker runs back to back
    without returning to the queue.  Between batched frames the worker
    re-synchronizes with the parent only through the per-buffer release
    cursor (so it never runs more than ``buffers`` frames ahead of
    collection) and the shared barrier between the frame's two phases.
    """
    renderer: ShearWarpRenderer = _G["renderer"]
    kernel: str = _G["kernel"]
    jobs = _G["job_queues"][pid]
    done = _G["done_queue"]
    barrier = _G["barrier"]
    shm_i = _G["shm_i"]
    shm_f = _G["shm_f"]
    cap_iv, cap_iu = _G["inter_cap"]
    cap_fy, cap_fx = _G["final_cap"]
    inter_floats = cap_iv * cap_iu
    final_floats = cap_fy * cap_fx
    steal_chunk: int = _G["steal_chunk"]
    claim_locks = _G["claim_locks"]
    buffers: int = _G["buffers"]
    shm_c = _G.get("shm_c")
    # (buffers, n_procs, 2) head/tail cursors; None when stealing is off.
    claims = (
        np.ndarray((buffers, _G["n_procs"], 2), np.int64, buffer=shm_c.buf)
        if shm_c is not None else None
    )
    shm_d = _G["shm_d"]
    cells, release = _doorbell_views(shm_d.buf, buffers, _G["n_procs"])
    use_doorbell: bool = _G["doorbell"]
    bell = _G["bell"]
    delay = _TEST_ROW_DELAY
    burn_per_row = delay[1] if delay is not None and delay[0] == pid else 0.0
    # The injected fault is armed only for generation 0: a worker
    # respawned by the supervisor must not re-trip it, so the retried
    # frame can demonstrate recovery.
    fault = _TEST_FAULT if _G["generation"] == 0 else None
    # Tracing is opt-in: ``rec`` stays None on untraced pools and every
    # recording site below is guarded, so the disabled path does zero
    # observability work (no clock reads, no allocation).
    shm_t = _G.get("shm_t")
    rec = (
        SpanRecorder.over(shm_t.buf, pid, _G["trace_capacity"], _G["trace_epoch"])
        if shm_t is not None else None
    )

    t_wait0 = 0.0 if rec is None else rec.now()
    while True:
        msg = jobs.get()
        if msg is None:
            return
        batch = msg if isinstance(msg, list) else [msg]
        for job in batch:
            _render_job(pid, job, renderer, kernel, done, barrier, shm_i, shm_f,
                        cap_iv, cap_iu, cap_fy, cap_fx, inter_floats,
                        final_floats, steal_chunk, claim_locks, buffers, claims,
                        cells, release, use_doorbell, bell, burn_per_row, fault,
                        rec, t_wait0)
            # Within a batch there is no queue wait: the next frame's
            # wait span collapses to ~zero and any stall shows up as a
            # ``doorbell`` span instead.
            t_wait0 = 0.0 if rec is None else rec.now()


def _render_job(pid, job, renderer, kernel, done, barrier, shm_i, shm_f,
                cap_iv, cap_iu, cap_fy, cap_fx, inter_floats, final_floats,
                steal_chunk, claim_locks, buffers, claims, cells, release,
                use_doorbell, bell, burn_per_row, fault, rec, t_wait0) -> None:
    """Run one frame's composite + warp and report completion."""
    frame, buf, fact, v_lo, v_hi, owner, final_rows, profiled, timestep = job
    if rec is not None:
        rec.span(frame, "wait", t_wait0, rec.now())
    # Pipelining gate: frame f may enter buffer f % buffers only once
    # the parent has collected and re-zeroed frame f - buffers.
    _await_release(release, buf, frame, buffers, rec)
    err: str | None = None
    # Per-chunk cost fragments [(v_start, costs)] on profiled frames.
    frags: list[tuple[int, np.ndarray]] | None = None
    n_steals = n_steal_rows = 0
    t_comp = t_warp = 0.0
    # Span clocks pre-bound so the finally block can record even when
    # a phase died before its start time was taken (the bogus span is
    # discarded with the failed frame's timeline).
    tc0 = tb0 = 0.0
    # CPU time, not wall clock: on an oversubscribed host a worker's
    # wall time includes slices it spent descheduled, which would
    # poison both the profile and the busy-time report.
    t0 = time.process_time()
    try:
        n_v, n_u = fact.intermediate_shape
        ny, nx = fact.final_shape
        base_i = buf * 2 * inter_floats
        base_f = buf * 2 * final_floats
        img = IntermediateImage.over(
            np.ndarray((cap_iv, cap_iu), np.float32, buffer=shm_i.buf,
                       offset=base_i * 4)[:n_v, :n_u],
            np.ndarray((cap_iv, cap_iu), np.float32, buffer=shm_i.buf,
                       offset=(base_i + inter_floats) * 4)[:n_v, :n_u],
        )

        try:
            _maybe_fault(fault, pid, frame, "decode")
            if rec is not None:
                td0 = rec.now()
            rle = renderer.rle_for(fact, timestep=timestep)
            if rec is not None:
                tc0 = rec.now()
                rec.span(frame, "decode", td0, tc0)
            if profiled:
                _maybe_fault(fault, pid, frame, "profile")
            _maybe_fault(fault, pid, frame, "composite")
            frags, n_steals, n_steal_rows = _composite_share(
                img, (v_lo, v_hi), None if claims is None else claims[buf],
                claim_locks, pid, steal_chunk, rle, fact, kernel, profiled,
                rec, frame, burn_per_row, fault,
            )
        finally:
            # Busy time stops at the barrier: the wait measures the
            # *imbalance*, not this worker's work.
            t_comp = time.process_time() - t0
            if rec is not None:
                tb0 = rec.now()
                rec.span(frame, "composite", tc0, tb0)
            # Siblings block on this barrier no matter what happened
            # above — reaching it even on error prevents a deadlock.
            # (A *dead* sibling can never arrive; the parent's
            # supervisor detects that and terminates the stragglers.)
            barrier.wait()
            if rec is not None:
                rec.span(frame, "barrier", tb0, rec.now())

        t1 = time.process_time()
        _maybe_fault(fault, pid, frame, "warp")
        if rec is not None:
            tw0 = rec.now()
        final = FinalImage.over(
            np.ndarray((cap_fy, cap_fx), np.float32, buffer=shm_f.buf,
                       offset=base_f * 4)[:ny, :nx],
            np.ndarray((cap_fy, cap_fx), np.float32, buffer=shm_f.buf,
                       offset=(base_f + final_floats) * 4)[:ny, :nx],
        )
        # One band-vectorized gather over the rows this block can feed.
        warp_rows(final, final_rows, img, fact, line_owner=owner, pid=pid)
        t_warp = time.process_time() - t1
        if rec is not None:
            rec.span(frame, "warp", tw0, rec.now())
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        err = f"{type(exc).__name__}: {exc}"
        frags = None
    if use_doorbell:
        # Completion is a shm write, not a pickle: the parent's
        # supervisor reads the cell when the bell rings.  Errors and
        # profile fragments still ride the queue (rare + variable
        # size); the flag tells the parent to await that message
        # before treating the cell as fully absorbed.
        flags = _FLAG_QUEUE_MSG if (err is not None or frags) else 0
        if flags:
            done.put((pid, frame, err, frags, t_comp, t_warp,
                      n_steals, n_steal_rows))
        cell = cells[buf, pid]
        cell[1] = flags
        cell[2] = t_comp
        cell[3] = t_warp
        cell[4] = n_steals
        cell[5] = n_steal_rows
        cell[0] = frame  # written last: a reader seeing it sees the rest
        bell.set()
    else:
        done.put((pid, frame, err, frags, t_comp, t_warp,
                  n_steals, n_steal_rows))


class MPRenderPool:
    """Persistent, self-healing pool of render workers sharing
    double-buffered images.

    Configure through one :class:`PoolConfig`::

        pool = MPRenderPool(renderer, config=PoolConfig(n_procs=4))

    or through the legacy keyword arguments (a compatibility shim builds
    the config; passing both is an error).  See :class:`PoolConfig` for
    the meaning of every knob.

    A supervisor thread owns the done queue and watches worker
    sentinels and per-frame deadlines; dead/hung workers are respawned
    against the existing shared segments and their in-flight frames
    retried (see the module docstring).  ``result()`` therefore never
    blocks forever: it returns the frame, raises a typed error
    (:class:`FrameTimeout`, :class:`WorkerDied`, :class:`FrameFailed`,
    :class:`PoolClosed`, :class:`PoolUnrecoverable`), or — with
    ``degrade_to_serial`` — returns a bit-identical serially rendered
    frame.

    Parameters
    ----------
    renderer:
        The serial renderer whose volume/encodings the workers inherit
        through ``fork`` at pool construction.  (Re-create the pool if
        the renderer's volume changes.)
    config:
        A :class:`PoolConfig`; mutually exclusive with the individual
        keyword arguments.
    """

    def __init__(
        self,
        renderer: ShearWarpRenderer,
        n_procs: int | None = None,
        kernel: str | None = None,
        buffers: int | None = None,
        profile_period: int | None = None,
        stealing: bool | None = None,
        steal_chunk: int | None = None,
        trace: bool | None = None,
        trace_capacity: int | None = None,
        timeout_s: float | None = None,
        max_retries: int | None = None,
        degrade_to_serial: bool | None = None,
        poll_s: float | None = None,
        *,
        config: PoolConfig | None = None,
    ) -> None:
        # Teardown-critical state first, with inert defaults: close() /
        # __del__ must work on a pool whose construction died at *any*
        # later point (bad config, failed shm allocation, fork failure)
        # without AttributeErrors and without leaking shm segments.
        self._closed = False
        self._workers: list = []
        self._job_queues: list = []
        self._done_queue = None
        self._shm_i = self._shm_f = self._shm_c = self._shm_t = None
        self._shm_d = None
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        self._broken: str | None = None

        cfg = _config_from(config, {
            "n_procs": n_procs, "kernel": kernel, "buffers": buffers,
            "profile_period": profile_period, "stealing": stealing,
            "steal_chunk": steal_chunk, "trace": trace,
            "trace_capacity": trace_capacity, "timeout_s": timeout_s,
            "max_retries": max_retries,
            "degrade_to_serial": degrade_to_serial, "poll_s": poll_s,
        })
        if mp.get_start_method(allow_none=True) not in (None, "fork"):
            raise RuntimeError("MPRenderPool requires the fork start method")

        self.renderer = renderer
        self.config = cfg
        # Mirrored attributes, kept for the pre-config API.
        self.n_procs = cfg.n_procs
        self.kernel = cfg.kernel
        self.buffers = cfg.buffers
        self.profile_period = cfg.profile_period
        self.stealing = cfg.stealing
        self.steal_chunk = cfg.steal_chunk
        self.trace = cfg.trace
        self.trace_capacity = cfg.trace_capacity
        # One worker has nobody to steal from; skip the claim traffic.
        self._steal_active = cfg.stealing and cfg.n_procs > 1
        self.inter_cap, self.final_cap = _capacity_shapes(renderer.shape)
        cap_iv, cap_iu = self.inter_cap
        cap_fy, cap_fx = self.final_cap
        self._inter_floats = cap_iv * cap_iu
        self._final_floats = cap_fy * cap_fx
        self._generation = 0
        self._health_due = 0.0

        try:
            self._construct()
        except BaseException:
            self.close()
            raise

    def _construct(self) -> None:
        """Fallible half of ``__init__``: shm segments, fork, bookkeeping."""
        self._shm_i = shared_memory.SharedMemory(
            create=True, size=self.buffers * 2 * self._inter_floats * 4
        )
        self._shm_f = shared_memory.SharedMemory(
            create=True, size=self.buffers * 2 * self._final_floats * 4
        )
        # Zero through numpy views — never a full-size Python bytes object.
        np.ndarray(
            (self.buffers * 2 * self._inter_floats,), np.float32, buffer=self._shm_i.buf
        ).fill(0.0)
        np.ndarray(
            (self.buffers * 2 * self._final_floats,), np.float32, buffer=self._shm_f.buf
        ).fill(0.0)
        # Claim cursors for chunked stealing: one (head, tail) int64 pair
        # per worker per image buffer, zeroed so an uninitialised slot
        # reads as an empty (drained) assignment.
        self._claims: np.ndarray | None = None
        if self._steal_active:
            self._shm_c = shared_memory.SharedMemory(
                create=True, size=self.buffers * self.n_procs * 2 * 8
            )
            self._claims = np.ndarray(
                (self.buffers, self.n_procs, 2), np.int64, buffer=self._shm_c.buf
            )
            self._claims.fill(0)

        # Doorbell segment: per-buffer completion cells plus the release
        # cursors the workers gate buffer reuse on (batched pipelining).
        # Allocated unconditionally — the release cursors are the reuse
        # protocol even when doorbell *completion* is switched off.
        self._shm_d = shared_memory.SharedMemory(
            create=True, size=_doorbell_bytes(self.buffers, self.n_procs)
        )
        self._cells, self._release = _doorbell_views(
            self._shm_d.buf, self.buffers, self.n_procs
        )
        self._cells.fill(0.0)
        self._cells[:, :, 0] = -1.0  # no frame has completed anywhere
        # Buffer b is born free for frame b: its gate target is b - buffers.
        self._release[:] = np.arange(self.buffers) - self.buffers
        # Deferred claim-cursor seeding: buf -> frames dispatched into a
        # buffer whose earlier occupant was still in flight (batch mode).
        self._claims_pending: dict[int, deque] = {}
        self._last_complete_t = time.monotonic()
        # Any frame waiting on an error/fragment queue message already
        # in flight?  Makes the doorbell supervisor poll fast.
        self._q_deferred = False

        # Observability: the registry always exists (submit updates pool
        # health gauges either way); the span rings are allocated only
        # when tracing so an untraced pool carries no extra segment.
        self.metrics = MetricsRegistry()
        self._planner = FramePlanner(
            self.renderer, self.n_procs, self.profile_period, self.metrics
        )
        self.timelines: list[FrameTimeline] = []
        self._trace_epoch = time.perf_counter()
        self._readers: list[RingReader] = []
        self._frame_obs: dict[int, FrameTimeline] = {}
        self._sup_rec: SpanRecorder | None = None
        self._sup_reader: RingReader | None = None
        if self.trace:
            self._shm_t = shared_memory.SharedMemory(
                create=True, size=self.n_procs * ring_bytes(self.trace_capacity)
            )
            self._reset_trace_rings()
            # The supervisor records recovery spans on its own track,
            # one past the worker pids.
            self._sup_rec = SpanRecorder.in_memory(epoch=self._trace_epoch)
            self._sup_reader = RingReader(
                self._sup_rec.cursor, self._sup_rec.records, pid=self.n_procs
            )

        self._next_frame = 0
        self._inflight: dict[int, dict] = {}  # frame -> per-frame record
        self._results: dict[int, MPRenderResult] = {}
        # Frames that failed for good: frame -> typed exception.  Each
        # frame's error is raised only from its own result() call, never
        # from a sibling's.
        self._failed: dict[int, MPPoolError] = {}
        # Per-buffer state: the *latest* frame assigned to it.  The
        # buffer's contents are re-zeroed when each occupant retires
        # (see ``_retire_buffer_locked``), so a freshly released buffer
        # is always clean for its next frame.
        self._buf_frame: list[int | None] = [None] * self.buffers

        self._spawn_workers(generation=0)
        self._supervisor = threading.Thread(
            target=self._supervise, name="mp-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn_workers(self, generation: int) -> None:
        """Fork a worker set against the existing shared segments.

        Queues, barrier and claim locks are created fresh each
        generation: after a fault the old ones may hold stale jobs,
        wedged waiters or semaphores owned by dead processes, and
        rebuilding them is the only state-reset that needs no
        cooperation from the casualties.
        """
        with _SPAWN_LOCK:
            self._spawn_workers_locked(generation)

    def _spawn_workers_locked(self, generation: int) -> None:
        ctx = mp.get_context("fork")
        self._job_queues = [ctx.SimpleQueue() for _ in range(self.n_procs)]
        self._done_queue = ctx.Queue()
        # One lock per worker's claim cursor pair: the owner takes only
        # its own lock, a thief takes only the victim's — claim and steal
        # never serialise unrelated workers.
        claim_locks = (
            [ctx.Lock() for _ in range(self.n_procs)] if self._steal_active else []
        )
        # Fresh bell per generation: a terminated worker's last ring must
        # not wake the supervisor into reading its half-written cells
        # (recovery zeroes the cells before the new set starts anyway).
        self._bell = ctx.Event()
        # The barrier's state lives in a block of multiprocessing's
        # process-global shared heap.  The parent must keep the object
        # referenced while this generation's workers live: dropping it
        # (``_G.clear()`` below) would free the block back to the heap,
        # and the next ``ctx.Barrier`` — e.g. a second pool's — would
        # reuse the same shared memory, aliasing both pools' barrier
        # state and wedging their workers mid-frame.
        self._barrier = ctx.Barrier(self.n_procs)
        _G.update(
            renderer=self.renderer,
            kernel=self.kernel,
            job_queues=self._job_queues,
            done_queue=self._done_queue,
            barrier=self._barrier,
            shm_i=self._shm_i,
            shm_f=self._shm_f,
            inter_cap=self.inter_cap,
            final_cap=self.final_cap,
            buffers=self.buffers,
            n_procs=self.n_procs,
            steal_chunk=self.steal_chunk,
            claim_locks=claim_locks,
            shm_c=self._shm_c,
            shm_d=self._shm_d,
            doorbell=self.config.doorbell,
            bell=self._bell,
            shm_t=self._shm_t,
            trace_capacity=self.trace_capacity,
            trace_epoch=self._trace_epoch,
            generation=generation,
        )
        try:
            self._workers = [
                ctx.Process(target=_worker_loop, args=(pid,), daemon=True)
                for pid in range(self.n_procs)
            ]
            for w in self._workers:
                w.start()
        finally:
            # The fork snapshot is taken at start(); drop the parent-side
            # references so nothing leaks into a later pool's snapshot.
            _G.clear()

    def _reset_trace_rings(self) -> None:
        """Zero the span rings and restart the parent-side readers."""
        np.ndarray(
            (self._shm_t.size // 8,), np.float64, buffer=self._shm_t.buf
        ).fill(0.0)
        self._readers = [
            RingReader.over(self._shm_t.buf, pid, self.trace_capacity)
            for pid in range(self.n_procs)
        ]

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
        """Dispatch one frame to the workers; returns its frame id.

        Blocks only if every buffer is still occupied by an unfinished
        frame (with ``buffers=2`` that means two frames behind).  The
        partition is profile-balanced whenever a valid profile from an
        earlier frame exists, uniform otherwise.  ``region`` restricts
        the frame to one shard's band (see :class:`FrameRegion`);
        ``timestep`` selects a time-varying renderer's encoding.
        Raises :class:`PoolClosed` / :class:`PoolUnrecoverable` on a
        pool that can no longer accept work.
        """
        with self._cond:
            self._raise_if_unusable()
            t_d0 = self._sup_rec.now() if self._sup_rec is not None else 0.0
            plan = self._planner.plan(view, self.inter_cap, self.final_cap,
                                      region=region, timestep=timestep)
            self._sample_gauges_locked()
            # Everything fallible is done — only now wait for a buffer
            # and claim a frame id, so a failed submit leaves no
            # bookkeeping behind (no consumed id, no buffer marked
            # occupied by a frame that was never queued).
            buf = self._next_frame % self.buffers
            prev = self._buf_frame[buf]
            while prev is not None and prev in self._inflight:
                self._wait_event()  # supervisor completes/retires frames
                prev = self._buf_frame[buf]
            frame = self._claim_frame_locked(plan, batched=False)
            self._dispatch_locked(frame)
            if self._sup_rec is not None:
                self._sup_rec.span(frame, "dispatch", t_d0, self._sup_rec.now())
            return frame

    def submit_batch(self, frame_specs, regions=None) -> list[int]:
        """Dispatch a whole animation in one queue round-trip per worker.

        ``frame_specs`` is a sequence of bare views and/or
        :class:`~repro.parallel.backend.FrameSpec` items (the
        :class:`RenderBackend` batch form, which carries per-frame
        timesteps and regions); ``regions`` (parallel list) is the
        pre-protocol way to restrict frames to shard bands and is still
        accepted — a spec's own ``region`` wins where both are given.

        Every frame is planned up front — the profile feedback loop
        still advances frame to frame, and planning is deterministic, so
        the partitions (and therefore the pixels) are identical to
        per-frame submission.  Each worker then receives its entire job
        list as a *single* queue message and runs frame to frame gated
        only by the per-buffer release cursors: the parent's collection
        of frame ``f`` overlaps the workers' compositing of ``f+1``
        (MovieMaker's stage overlap), and the pickle/queue/wakeup cost
        is amortized over the batch instead of paid per frame.

        Returns the frame ids in submission order; collect them with
        :meth:`result` (in order, for buffer reuse to stream).

        Because every frame is planned before any completes, a profile
        measured *inside* the batch balances the next batch, not this
        one — the feedback loop crosses batch boundaries.  Partitions
        never change pixels (only which worker composites which rows),
        so batched output stays bit-identical to per-frame submission.
        """
        specs = as_frame_specs(frame_specs)
        if regions is None:
            regions = [None] * len(specs)
        with self._cond:
            self._raise_if_unusable()
            if not specs:
                return []
            t_d0 = self._sup_rec.now() if self._sup_rec is not None else 0.0
            frames: list[int] = []
            per_worker: list[list[tuple]] = [[] for _ in range(self.n_procs)]
            for spec, region in zip(specs, regions):
                plan = self._planner.plan(spec.view, self.inter_cap,
                                          self.final_cap,
                                          region=spec.region or region,
                                          timestep=spec.timestep)
                frame = self._claim_frame_locked(plan, batched=True)
                jobs = self._prepare_dispatch_locked(frame)
                for pid in range(self.n_procs):
                    per_worker[pid].append(jobs[pid])
                frames.append(frame)
            for pid in range(self.n_procs):
                self._job_queues[pid].put(per_worker[pid])
            self.metrics.counter("pool/batch_frames").inc(len(frames))
            self._sample_gauges_locked()
            if self._sup_rec is not None:
                self._sup_rec.span(frames[0], "dispatch", t_d0,
                                   self._sup_rec.now())
            return frames

    def render_animation(self, views, regions=None) -> list[MPRenderResult]:
        """Render a sequence of views, returning results in order.

        With ``config.pipeline`` (the default) the whole animation goes
        out as one batch; ``pipeline=False`` falls back to per-frame
        submit/result pairs (still overlapped up to ``buffers`` frames
        deep by the classic protocol).  Pixels are identical either way.
        ``regions`` (optional, parallel to ``views``) restricts each
        frame to one shard's band.
        """
        if self.config.pipeline:
            return [self.result(f) for f in self.submit_batch(views, regions)]
        specs = as_frame_specs(views)
        if regions is None:
            regions = [None] * len(specs)
        handles = [
            self.submit(s.view, s.region or r, timestep=s.timestep)
            for s, r in zip(specs, regions)
        ]
        return [self.result(h) for h in handles]

    def _claim_frame_locked(self, plan: dict, batched: bool) -> int:
        """Allocate the next frame id and its in-flight record."""
        frame = self._next_frame
        self._next_frame += 1
        buf = frame % self.buffers
        self._buf_frame[buf] = frame
        rec = {
            "buf": buf,
            "done": 0,
            "errors": [],
            "costs": None,
            "busy": np.zeros(self.n_procs, dtype=np.float64),
            "steals": 0,
            "steal_rows": 0,
            "attempt": 0,
            "deadline": None,
            "dispatch_t": 0.0,
            "batched": batched,
            "was_dispatched": False,
            "cells_absorbed": False,
            "q_seen": 0,
            "q_expected": 0,
        }
        rec.update(plan)
        self._inflight[frame] = rec
        return frame

    def _sample_gauges_locked(self) -> None:
        """Pool-health gauges, sampled at submit time: how deep the
        pipeline is and how many shared buffers are still occupied by
        unfinished frames."""
        self.metrics.gauge("pool/queue_depth").set(len(self._inflight))
        self.metrics.gauge("pool/buffer_occupancy").set(
            sum(1 for f in self._buf_frame if f is not None and f in self._inflight)
        )

    def _dispatch_locked(self, frame: int) -> None:
        """(Re-)send ``frame``'s jobs to every worker.  Lock held."""
        jobs = self._prepare_dispatch_locked(frame)
        for pid in range(self.n_procs):
            self._job_queues[pid].put(jobs[pid])

    def _prepare_dispatch_locked(self, frame: int) -> list[tuple]:
        """Reset ``frame``'s record and buffer; build its per-worker jobs.

        Used by ``submit``/``submit_batch`` for the first attempt and by
        the recovery paths for retries: the saved record carries
        everything needed to reproduce the exact same partition, so a
        retried frame is bit-identical to what the lost attempt would
        have produced.
        """
        rec = self._inflight[frame]
        buf = rec["buf"]
        fact = rec["fact"]
        boundaries = rec["boundaries"]
        # In batch mode an earlier in-flight frame may still occupy this
        # buffer: its *retirement* zeroes the images and seeds our claim
        # cursors, all before the release cursor lets any worker in.
        occupied = any(
            g < frame and r["buf"] == buf for g, r in self._inflight.items()
        )
        if occupied:
            self._claims_pending.setdefault(buf, deque()).append(frame)
        else:
            if rec["was_dispatched"]:
                # Re-dispatch into a free buffer: clear the lost
                # attempt's partial writes.
                self._zero_images_locked(buf, fact)
            self._cells[buf, :, 0] = -1.0
            if self._claims is not None:
                # Seed the claim cursors to the static boundaries
                # *before* the jobs go out — the queue put is the
                # happens-before edge that makes these writes visible
                # to every worker.
                self._claims[buf, :, 0] = boundaries[:-1]
                self._claims[buf, :, 1] = boundaries[1:]
        rec["done"] = 0
        rec["errors"] = []
        rec["costs"] = None
        rec["busy"][:] = 0.0
        rec["steals"] = 0
        rec["steal_rows"] = 0
        rec["cells_absorbed"] = False
        rec["q_seen"] = 0
        rec["q_expected"] = 0
        rec["was_dispatched"] = True
        rec["dispatch_t"] = time.monotonic()
        rec["deadline"] = (
            rec["dispatch_t"] + self.config.timeout_s
            if self.config.timeout_s is not None else None
        )
        return [
            (
                frame,
                buf,
                fact,
                int(boundaries[pid]),
                int(boundaries[pid + 1]),
                rec["owner"],
                rec["rows_by_pid"][pid],
                rec["profiled"],
                rec.get("timestep"),
            )
            for pid in range(self.n_procs)
        ]

    def result(self, frame: int) -> MPRenderResult:
        """Wait for ``frame`` and return its images (copies).

        Never blocks forever: the supervisor completes, retries,
        degrades or fails every in-flight frame.  Raises the frame's
        *own* typed error (:class:`FrameFailed`, :class:`FrameTimeout`,
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
                if self._broken is not None:
                    raise PoolUnrecoverable(self._broken)
                if self._closed:
                    raise PoolClosed(
                        f"pool closed while frame {frame} was in flight"
                    )
                sup = self._supervisor
                if sup is None or not sup.is_alive():
                    raise PoolUnrecoverable("supervisor thread died")
                self._cond.wait(timeout=0.2)

    def render(self, view: np.ndarray) -> MPRenderResult:
        """Render one frame synchronously."""
        return self.result(self.submit(view))

    def _wait_event(self) -> None:
        """One bounded wait on the pool condition, with liveness checks."""
        if self._broken is not None:
            raise PoolUnrecoverable(self._broken)
        if self._closed:
            raise PoolClosed("pool is closed")
        sup = self._supervisor
        if sup is None or not sup.is_alive():
            raise PoolUnrecoverable("supervisor thread died")
        self._cond.wait(timeout=0.2)

    def _raise_if_unusable(self) -> None:
        if self._closed:
            raise PoolClosed("pool is closed")
        if self._broken is not None:
            raise PoolUnrecoverable(self._broken)

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> None:
        """Own the done queue; watch sentinels and deadlines; recover.

        Runs in a daemon thread for the pool's whole life.  Done
        messages are handled the moment they arrive; health (worker
        sentinels, per-frame deadlines) is checked at most every
        ``poll_s`` seconds so a busy pool pays a bounded supervision
        cost — measured by ``benchmarks/bench_faults.py`` (< 2% target).

        In doorbell mode the wake signal is the workers' shared bell
        event, cleared *before* the cells are read: a cell written after
        the read re-rings the bell, so no completion is ever missed.
        The queue is drained non-blocking for the rare error/fragment
        messages; a frame whose cells flag such a message still in
        flight is deferred and the loop polls fast until it lands.
        """
        while not self._stop.is_set():
            if self.config.doorbell:
                bell = self._bell
                bell.wait(0.002 if self._q_deferred else self.config.poll_s)
                bell.clear()
                with self._cond:
                    if self._closed or self._stop.is_set():
                        return
                    try:
                        while True:
                            try:
                                m = self._done_queue.get_nowait()
                            except queue_mod.Empty:
                                break
                            except (OSError, ValueError, EOFError):
                                return  # queue torn down: pool is closing
                            if m is not None:
                                self._handle_done(m)
                        self._process_doorbell_locked()
                        self._q_deferred = any(
                            r["q_seen"] < r["q_expected"]
                            for r in self._inflight.values()
                        )
                        now = time.monotonic()
                        if now >= self._health_due:
                            self._health_due = now + self.config.poll_s
                            self._check_health_locked()
                    except Exception as exc:  # noqa: BLE001
                        self._broken = (
                            f"supervisor failure: {type(exc).__name__}: {exc}"
                        )
                    finally:
                        self._cond.notify_all()
                    if self._broken is not None:
                        return
                continue
            queue = self._done_queue
            try:
                msg = queue.get(timeout=self.config.poll_s)
            except queue_mod.Empty:
                msg = None
            except (OSError, ValueError, EOFError):
                return  # queue torn down under us: pool is closing
            with self._cond:
                if self._closed or self._stop.is_set():
                    return
                try:
                    if msg is not None:
                        self._handle_done(msg)
                    if queue is self._done_queue:
                        # Absorb whatever else already arrived.
                        while True:
                            try:
                                m = self._done_queue.get_nowait()
                            except queue_mod.Empty:
                                break
                            if m is not None:
                                self._handle_done(m)
                    now = time.monotonic()
                    if now >= self._health_due:
                        self._health_due = now + self.config.poll_s
                        self._check_health_locked()
                except Exception as exc:  # noqa: BLE001 - never die silently
                    self._broken = (
                        f"supervisor failure: {type(exc).__name__}: {exc}"
                    )
                finally:
                    self._cond.notify_all()
                if self._broken is not None:
                    return

    def _check_health_locked(self) -> None:
        """Detect dead workers and expired frame deadlines.

        Only the *oldest* in-flight frame can expire: a batch dispatches
        many frames at one instant, so a later frame's from-dispatch
        deadline would fire while the workers are still legitimately
        chewing through its predecessors.  Each completion re-arms the
        clock (``_last_complete_t``), so a deadline only trips when the
        pipeline as a whole has stopped making progress.
        """
        dead = [pid for pid, w in enumerate(self._workers) if not w.is_alive()]
        now = time.monotonic()
        expired: list[int] = []
        if self._inflight and self.config.timeout_s is not None:
            frame = min(self._inflight)
            rec = self._inflight[frame]
            if rec["deadline"] is not None and now > max(
                rec["deadline"], self._last_complete_t + self.config.timeout_s
            ):
                expired = [frame]
        if dead or expired:
            self._recover_locked(dead, expired)

    def _recover_locked(self, dead: list[int], expired: list[int],
                        cause: str | None = None) -> None:
        """Rebuild the worker set and re-dispatch the lost frames.

        A dead or wedged worker poisons everything downstream of the
        shared barrier, so recovery stops the *whole* set: terminate
        all workers, rebuild queues/barrier/locks, respawn against the
        existing shm segments, and resubmit every in-flight frame (its
        saved partition makes the retry bit-identical).  Frames out of
        retries degrade to an in-parent serial render or fail typed.
        """
        t0 = time.perf_counter()
        trec0 = self._sup_rec.now() if self._sup_rec is not None else 0.0
        if cause is None:
            cause = (
                f"worker(s) {dead} died" if dead else
                f"frame(s) {sorted(expired)} exceeded timeout_s={self.config.timeout_s}"
            )
        # Stop the entire worker set: survivors may be wedged at the
        # barrier waiting for a casualty that will never arrive.
        for w in self._workers:
            try:
                if w.pid is not None:
                    w.terminate()
            except Exception:  # noqa: BLE001 - recovery must not raise
                pass
        for w in self._workers:
            try:
                if w.pid is None:
                    continue
                w.join(timeout=2.0)
                if w.is_alive():
                    w.kill()
                    w.join(timeout=2.0)
            except Exception:  # noqa: BLE001
                pass
        self.metrics.counter("pool/worker_restarts").inc(len(self._workers))
        self._close_queues()
        # The old generation's completion cells and deferred claim
        # seeds are stale; the re-dispatch loop below rebuilds both.
        self._cells[:, :, 0] = -1.0
        self._claims_pending.clear()

        # Retire or retry every in-flight frame.
        expired_set = set(expired)
        for frame in sorted(self._inflight):
            rec = self._inflight[frame]
            if rec["attempt"] < self.config.max_retries:
                rec["attempt"] += 1
                self.metrics.counter("pool/frames_retried").inc()
                continue
            if self.config.degrade_to_serial:
                self._degrade_locked(frame)
            else:
                del self._inflight[frame]
                self._retire_buffer_locked(frame, rec)
                exc_type = FrameTimeout if frame in expired_set else WorkerDied
                self._failed[frame] = exc_type(
                    f"frame {frame} lost ({cause}) after "
                    f"{rec['attempt']} retr{'y' if rec['attempt'] == 1 else 'ies'}"
                )

        # Stale observability state dies with the old generation.
        self._frame_obs.clear()
        if self.trace:
            self._reset_trace_rings()

        self._generation += 1
        try:
            self._spawn_workers(self._generation)
        except BaseException as exc:  # noqa: BLE001 - pool is now broken
            self._broken = f"worker respawn failed: {type(exc).__name__}: {exc}"
            # Salvage what we can: every surviving frame either degrades
            # or fails typed — no waiter is left hanging.
            for frame in sorted(self._inflight):
                if self.config.degrade_to_serial:
                    self._degrade_locked(frame)
                else:
                    rec = self._inflight.pop(frame)
                    self._retire_buffer_locked(frame, rec)
                    self._failed[frame] = PoolUnrecoverable(self._broken)
            return

        for frame in sorted(self._inflight):
            self._dispatch_locked(frame)
            if self._sup_rec is not None:
                self._sup_rec.span(frame, "recover", trec0, self._sup_rec.now())
        self.metrics.histogram("pool/recovery_s").observe(
            time.perf_counter() - t0
        )

    def _close_queues(self) -> None:
        """Drop the per-generation queues (best effort, never raises)."""
        for q in self._job_queues:
            try:
                q.close()
            except Exception:  # noqa: BLE001
                pass
        self._job_queues = []
        if self._done_queue is not None:
            try:
                self._done_queue.close()
            except Exception:  # noqa: BLE001
                pass

    def _degrade_locked(self, frame: int) -> None:
        """Render ``frame`` serially in the parent — the last resort.

        The serial fast path is the pool's bit-identity reference, so a
        degraded frame carries exactly the pixels the workers would have
        produced; only the per-worker observables are absent.
        """
        rec = self._inflight.pop(frame)
        self._retire_buffer_locked(frame, rec)
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

    def _handle_done(self, msg: tuple) -> None:
        """Account one worker's done message to its frame's record.

        In doorbell mode only error strings and profile cost fragments
        travel the queue (completion itself lives in the shm cells), so
        the message just feeds the record; whether the frame is finished
        is decided by :meth:`_process_doorbell_locked`.
        """
        pid, frame, err, frags, t_comp, t_warp, n_steals, n_steal_rows = msg
        rec = self._inflight.get(frame)
        if rec is None:
            return
        if self.config.doorbell:
            rec["q_seen"] += 1
            if err is not None:
                rec["errors"].append(f"worker {pid}: {err}")
            elif frags:
                _apply_cost_fragments(rec, pid, frags, t_comp, t_warp)
            return
        rec["done"] += 1
        rec["busy"][pid] = t_comp + t_warp
        rec["steals"] += int(n_steals)
        rec["steal_rows"] += int(n_steal_rows)
        if err is not None:
            rec["errors"].append(f"worker {pid}: {err}")
        elif frags:
            _apply_cost_fragments(rec, pid, frags, t_comp, t_warp)
        if rec["done"] >= self.n_procs:
            self._finish(frame)

    def _process_doorbell_locked(self) -> None:
        """Finish frames whose completion cells are all filled in.

        Completion is in frame order (each worker runs its jobs in
        order), so scan from the oldest in-flight frame and stop at the
        first incomplete one.  Cells are absorbed exactly once; a frame
        whose cells flag an error/fragment queue message still in flight
        is deferred until the message lands.
        """
        while self._inflight:
            frame = min(self._inflight)
            rec = self._inflight[frame]
            cells = self._cells[rec["buf"]]
            if not rec["cells_absorbed"]:
                if not bool(np.all(cells[:, 0] == frame)):
                    return
                for pid in range(self.n_procs):
                    c = cells[pid]
                    rec["busy"][pid] = c[2] + c[3]
                    rec["steals"] += int(c[4])
                    rec["steal_rows"] += int(c[5])
                    if int(c[1]) & _FLAG_QUEUE_MSG:
                        rec["q_expected"] += 1
                rec["cells_absorbed"] = True
            if rec["q_seen"] < rec["q_expected"]:
                return  # error/fragment message still on the queue
            self._finish(frame)
            if frame in self._inflight:
                return  # re-dispatched (retry/recovery) — wait afresh

    def _finish(self, frame: int) -> None:
        """All workers reported: materialise, retry, degrade, or fail."""
        rec = self._inflight[frame]
        timeline = self._collect_timeline(frame)
        if rec["errors"]:
            # A worker raised but the set is intact — retry is just a
            # re-dispatch, no respawn needed.  The failed attempt's
            # timeline was drained above and is dropped (its spans may
            # be truncated); the frame's buffer regions stay marked
            # dirty, so the re-dispatch zeroes whatever was written.
            msg = "; ".join(rec["errors"])
            if rec["attempt"] < self.config.max_retries:
                if rec["batched"]:
                    # Workers still hold the rest of the batch in their
                    # queues; appending a retry *behind* it would reorder
                    # buffer reuse.  Escalate to full recovery instead:
                    # queues are rebuilt and every unfinished frame is
                    # re-dispatched in order (finished frames are already
                    # materialized and are not re-rendered).
                    self._recover_locked([], [], cause=f"frame {frame}: {msg}")
                    return
                rec["attempt"] += 1
                self.metrics.counter("pool/frames_retried").inc()
                self._dispatch_locked(frame)
                return
            if self.config.degrade_to_serial:
                self._degrade_locked(frame)
                return
            del self._inflight[frame]
            self._retire_buffer_locked(frame, rec)
            self._failed[frame] = FrameFailed(msg)
            return
        if timeline is not None:
            self.timelines.append(timeline)
            metrics_from_timelines([timeline], self.metrics)
        if rec["steals"]:
            self.metrics.counter("pool/steals").inc(rec["steals"])
            self.metrics.counter("pool/steal_rows").inc(rec["steal_rows"])
        if rec["profiled"] and rec["costs"] is not None:
            self._planner.install_profile(rec["v_lo"], rec["costs"], rec["key"])
        self._materialize(frame, timeline)

    def _collect_timeline(self, frame: int) -> FrameTimeline | None:
        """Drain the span rings and return ``frame``'s assembled timeline.

        Every worker has posted its done message for ``frame`` by the
        time this runs, and each done message happens-after that
        worker's ring writes, so the frame's records are all visible.
        Records of *later* frames still in flight stay parked in
        ``_frame_obs`` until their own finish.
        """
        if not self.trace:
            return None
        readers = list(self._readers)
        if self._sup_reader is not None:
            readers.append(self._sup_reader)
        for reader in readers:
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

    def _materialize(self, frame: int, timeline: FrameTimeline | None = None) -> None:
        """Copy a completed frame out of its shared buffer and retire it."""
        t0 = time.perf_counter()
        info = self._inflight.pop(frame)
        fact: ShearWarpFactorization = info["fact"]
        buf = info["buf"]
        n_v, n_u = fact.intermediate_shape
        ny, nx = fact.final_shape
        img = IntermediateImage.over(
            self._inter_view(buf, 0)[:n_v, :n_u].copy(),
            self._inter_view(buf, 1)[:n_v, :n_u].copy(),
        )
        final = FinalImage.over(
            self._final_view(buf, 0)[:ny, :nx].copy(),
            self._final_view(buf, 1)[:ny, :nx].copy(),
        )
        self._results[frame] = MPRenderResult(
            final=final,
            intermediate=img,
            fact=fact,
            n_procs=self.n_procs,
            boundaries=info["boundaries"],
            profiled=info["profiled"],
            busy_s=info["busy"],
            timeline=timeline,
            steals=info["steals"],
            steal_rows=info["steal_rows"],
            retries=info["attempt"],
            costs=info["costs"],
            costs_v_lo=int(info["v_lo"]),
        )
        self._retire_buffer_locked(frame, info)
        if self._inflight:
            # Workers are compositing later frames while the parent
            # copies this one out: the copy/zero time that the classic
            # per-frame protocol would serialize is overlapped.
            self.metrics.counter("pool/pipeline_overlap_s").inc(
                time.perf_counter() - t0
            )

    # -- shared-buffer plumbing ----------------------------------------------

    def _inter_view(self, buf: int, plane: int) -> np.ndarray:
        off = (buf * 2 + plane) * self._inter_floats * 4
        return np.ndarray(self.inter_cap, np.float32, buffer=self._shm_i.buf, offset=off)

    def _final_view(self, buf: int, plane: int) -> np.ndarray:
        off = (buf * 2 + plane) * self._final_floats * 4
        return np.ndarray(self.final_cap, np.float32, buffer=self._shm_f.buf, offset=off)

    def _zero_images_locked(self, buf: int, fact) -> None:
        """Zero the image regions ``fact``'s frame writes in ``buf``.

        Outside those regions the buffer stays zero by induction: every
        retiring occupant cleans exactly what it wrote.
        """
        n_v, n_u = fact.intermediate_shape
        ny, nx = fact.final_shape
        for plane in (0, 1):
            self._inter_view(buf, plane)[:n_v, :n_u].fill(0.0)
            self._final_view(buf, plane)[:ny, :nx].fill(0.0)

    def _retire_buffer_locked(self, frame: int, rec: dict) -> None:
        """Release ``frame``'s buffer to its next occupant.

        Zeroes the regions the frame wrote, resets the buffer's
        completion cells, seeds the next occupant's claim cursors if it
        was dispatched while the buffer was still busy (batch mode), and
        only *then* bumps the release cursor — the cursor is the
        happens-before edge the gated worker spins on, so everything
        written here is visible before any worker touches the buffer.
        Also re-arms the progress clock the frame deadlines run on.
        """
        buf = rec["buf"]
        if rec["was_dispatched"]:
            self._zero_images_locked(buf, rec["fact"])
        self._cells[buf, :, 0] = -1.0
        pending = self._claims_pending.get(buf)
        while pending:
            nxt = pending.popleft()
            nrec = self._inflight.get(nxt)
            if nxt > frame and nrec is not None and nrec["buf"] == buf:
                if self._claims is not None:
                    b = nrec["boundaries"]
                    self._claims[buf, :, 0] = b[:-1]
                    self._claims[buf, :, 1] = b[1:]
                break
        if self._release[buf] < frame:
            self._release[buf] = frame
        self._last_complete_t = time.monotonic()

    # -- observability -------------------------------------------------------

    def fault_counters(self) -> dict[str, int]:
        """Current recovery counters (zeros on a healthy pool)."""
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
        per worker (plus the supervisor's ``recover`` spans on track
        ``n_procs`` after any recovery).  Requires the pool to have been
        built with ``trace=True``.
        """
        if not self.trace:
            raise RuntimeError("pool was created without trace=True")
        meta = {
            "n_procs": self.n_procs,
            "kernel": self.kernel,
            "profile_period": self.profile_period,
            "stealing": self._steal_active,
            "steal_chunk": self.steal_chunk,
            "frames": len(self.timelines),
            "backend": "mp",
            "doorbell": self.config.doorbell,
            "batch_frames": int(
                self.metrics.counter("pool/batch_frames").value
            ),
        }
        meta.update(self.fault_counters())
        if metadata:
            meta.update(metadata)
        _export_chrome_trace(path, self.timelines, metadata=meta)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop the supervisor and workers and release the shared buffers.

        Safe on a partially-constructed pool (``__init__`` failed midway)
        and on a half-dead one (workers killed, supervisor mid-recovery):
        every teardown step tolerates missing or half-built state, and
        whatever shm segments were created are unlinked.  A concurrent
        ``result()`` waiter is woken and raises :class:`PoolClosed`.
        """
        cond = getattr(self, "_cond", None)
        if cond is not None:
            with cond:
                if self._closed:
                    return
                self._closed = True
                cond.notify_all()
        elif getattr(self, "_closed", True):
            return
        else:
            self._closed = True
        stop = getattr(self, "_stop", None)
        if stop is not None:
            stop.set()
        # Unstick any worker spinning on a buffer-release gate so it can
        # drain its queue through to the shutdown sentinel.
        release = getattr(self, "_release", None)
        if release is not None:
            release[:] = np.iinfo(np.int64).max // 2
        # Wake the supervisor out of its blocking bell/queue wait, then
        # wait for it — after this no thread touches the pool's state.
        bell = getattr(self, "_bell", None)
        if bell is not None:
            try:
                bell.set()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        dq = getattr(self, "_done_queue", None)
        if dq is not None:
            try:
                dq.put(None)
            except Exception:  # noqa: BLE001 - queue may be half-built
                pass
        sup = getattr(self, "_supervisor", None)
        if (
            sup is not None and sup.is_alive()
            and sup is not threading.current_thread()
        ):
            sup.join(timeout=5.0)
        for q in getattr(self, "_job_queues", []):
            try:
                q.put(None)
            except Exception:  # noqa: BLE001 - queue may be half-built
                pass
        for w in getattr(self, "_workers", []):
            try:
                if w.pid is None:  # never started (start() failed earlier)
                    continue
                w.join(timeout=5.0)
                if w.is_alive():
                    w.terminate()
                    w.join(timeout=2.0)
                if w.is_alive():
                    w.kill()
                    w.join()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        for name in ("_shm_i", "_shm_f", "_shm_c", "_shm_t", "_shm_d"):
            shm = getattr(self, name, None)
            if shm is None:
                continue
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass  # already unlinked

    def __enter__(self) -> "MPRenderPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort if close() was forgotten
        try:
            self.close()
        except Exception:
            pass


def render_parallel_mp(
    renderer: ShearWarpRenderer,
    view: np.ndarray,
    n_procs: int | None = None,
    kernel: str | None = None,
    profile_period: int | None = None,
    stealing: bool | None = None,
    steal_chunk: int | None = None,
    trace: bool | None = None,
    timeout_s: float | None = None,
    max_retries: int | None = None,
    degrade_to_serial: bool | None = None,
    *,
    config: PoolConfig | None = None,
) -> MPRenderResult:
    """Render one frame with a transient worker pool.

    Uses the *new* algorithm's structure: contiguous intermediate-image
    partitions, profile-balanced via the pool's feedback loop when
    ``profile_period > 0``, reused across both phases with the
    boundary-pair ownership rule.  A barrier still separates the phases:
    however the partition is balanced, a worker's warp rows bilinearly
    sample the boundary scanline pair its neighbor composited, so the
    warp may only start once compositing is complete everywhere.

    One-shot convenience over :class:`MPRenderPool` — for animations
    (where a measured profile actually has a next frame to balance),
    keep a pool alive across frames instead.  Accepts either a
    :class:`PoolConfig` (``buffers`` is forced to 1: a single frame
    cannot pipeline) or the legacy keyword arguments, whose
    ``profile_period`` defaults to 0 here because a single frame can
    never benefit from its own profile.
    """
    legacy = {
        "n_procs": n_procs, "kernel": kernel,
        "profile_period": profile_period, "stealing": stealing,
        "steal_chunk": steal_chunk, "trace": trace, "timeout_s": timeout_s,
        "max_retries": max_retries, "degrade_to_serial": degrade_to_serial,
    }
    if config is None:
        given = {k: v for k, v in legacy.items() if v is not None}
        if given:
            _warn_legacy(given)
        given.setdefault("profile_period", 0)
        config = PoolConfig(buffers=1, **given)
    else:
        config = _config_from(config, legacy).replace(buffers=1)
    with MPRenderPool(renderer, config=config) as pool:
        return pool.render(view)
