"""Sharded multi-pool rendering with a sort-last merge tree.

:class:`ShardedRenderService` scales the renderer *across pools*: the
intermediate image is split into contiguous scanline shards, each shard
gets its own :class:`~repro.parallel.mp_backend.MPRenderPool` (or
thread pool), and the final image is reassembled through the explicit
tile-ownership map and binary merge tree of :mod:`repro.shard.merge`.
Every pool renders the *same* frame restricted to a
:class:`~repro.parallel.poolcore.FrameRegion` — its composite band
(owned scanlines plus the one ghost line each warp sample pair needs)
and its warp-ownership mask — so the union of the pools' disjoint
pixel sets is bit-identical to a single-pool render of the whole frame.

The service has no frame state machine of its own: ``submit_batch``
dispatches every frame to every pool, so a frame in flight lives in the
pools' ledgers (:class:`~repro.parallel.poolcore.PoolCore` — admission,
batching, pipelining, retry, degrade, idempotent failure) and
``result`` only gathers and merges.

It also runs the paper's section 4.2-4.3 feedback loop one level up,
with the pools' own :class:`~repro.parallel.poolcore.FramePlanner`
whose blocks are shards: the costs a profiled frame's pools measured —
CPU seconds per scanline, so a slowed shard's lines cost more — are
gathered over each shard's owned lines into one cross-shard profile
that re-balances the *shard boundaries themselves*, with the pools'
(axis, perm) invalidation rule and cadence: a batch is cut from the
profile valid when it was submitted; what it measures balances the next
message.  What is the fleet's own is the ghost line
(:func:`shard_regions`) and the tile ownership of the merge.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.recorder import RingReader, SpanRecorder
from ..obs.timeline import FrameTimeline
from ..obs.timeline import export_chrome_trace as _export_chrome_trace
from ..parallel import poolcore
from ..parallel.backend import BackendCapabilities, FrameSpec, as_frame_specs
from ..parallel.mp_backend import MPRenderPool
from ..parallel.poolcore import (
    FramePlanner,
    FrameRegion,
    MPPoolError,
    MPRenderResult,
    PoolClosed,
    PoolConfig,
    PoolCore,
    capacity_shapes,
)
from ..parallel.thread_backend import ThreadRenderPool
from ..render.image import IntermediateImage
from .merge import ShardFramebuffer, TileOwnershipMap, merge_framebuffers

__all__ = ["ShardedRenderService", "shard_regions"]

#: Test hook, ``poolcore.TEST_ROW_DELAY`` one level up: ``{shard:
#: (worker, seconds_per_row)}`` slows one worker of that shard's (mp)
#: pool, so a test can create the cross-shard imbalance the feedback
#: loop must converge away.  Read when a service is constructed.
TEST_SHARD_ROW_DELAY: dict[int, tuple[int, float]] = {}


def shard_regions(owner: np.ndarray, n_shards: int, v_lo: int,
                  v_hi: int) -> list[FrameRegion]:
    """Each shard's :class:`FrameRegion` from a fleet plan's line owner.

    Shard ``s`` owns the lines ``owner == s`` and composites them plus
    the *ghost* line below each — a pixel sourced from line ``v0``
    bilinearly samples ``(v0, v0 + 1)``, so the shard owning ``v0``
    needs ``v0 + 1`` even when the next shard owns it — clipped to the
    non-empty band ``[v_lo, v_hi)``.
    """
    regions = []
    for s in range(n_shards):
        owned = owner == s
        need = owned.copy()
        need[1:] |= owned[:-1]
        need[:v_lo] = need[v_hi:] = False
        idx = np.flatnonzero(need)
        lo, hi = (int(idx[0]), int(idx[-1]) + 1) if len(idx) else (v_lo, v_lo)
        regions.append(FrameRegion(lo, hi, owned))
    return regions


class ShardedRenderService:
    """N pools, one frame: scatter shard regions, gather, merge.

    Has the pool API and behaves like a pool at that seam —
    :meth:`submit_batch` has dispatched every frame when it returns,
    the pools render them in the background, pipelined frame to frame,
    and :meth:`result` gathers in any order — so the facade, the CLI,
    the movie pipeline and the render server drive a fleet exactly as
    they drive one pool.  It is constructed like one, ``(renderer,
    config)``: ``config.shards`` pools, each a clone of ``config`` with
    ``shards=1``.

    Fault isolation falls out of the pool supervision: a worker death
    inside shard ``s`` is recovered (or degraded) entirely inside pool
    ``s`` — sibling pools never restart, and the merged frame stays
    bit-identical because both the retry path and the serial-degrade
    path reproduce the shard's exact owned pixels.
    """

    def __init__(self, renderer, config: PoolConfig | None = None) -> None:
        self._closed = False
        self._pools: list = []
        self._fbs: list[ShardFramebuffer] = []
        if config is None:
            config = PoolConfig()
        self.renderer = renderer
        self.config = config
        self.n_shards = config.shards
        self.metrics = MetricsRegistry()
        self.metrics.gauge("shard/shards").set(self.n_shards)
        # The pools' planner, with shards for blocks: it consumes the
        # profiles the pools measure, so it schedules none of its own.
        self._planner = FramePlanner(renderer, self.n_shards, 0, self.metrics,
                                     "shard/reshard_invalidations")
        self._next_frame = 0
        # Dispatched, not yet gathered: fleet frame id -> (its shard
        # plan, its handle in each pool).
        self._frames: dict[int, tuple[dict, tuple[int, ...]]] = {}
        # Frames that failed for good, kept per id like the pools'
        # ledgers keep theirs: every result() re-raises the same error.
        self._failed: dict[int, MPPoolError] = {}

        self.trace = config.trace
        # The service's trace epoch predates every pool's, so rebasing a
        # pool span onto the service timebase can never go negative.
        self.trace_epoch = time.perf_counter()
        self.timelines: list[FrameTimeline] = []
        # What the merge framebuffers hold, and so what a view may need.
        self._caps = capacity_shapes(renderer.shape)
        backing = "shm" if config.backend == "mp" else "array"
        # A shard's pool is always a plain single-band pool.
        pcfg = config.replace(shards=1)
        try:
            for s in range(self.n_shards):
                self._pools.append(
                    self._open_pool(pcfg, TEST_SHARD_ROW_DELAY.get(s))
                )
                self._fbs.append(ShardFramebuffer(self._caps[1], backing=backing))
        except BaseException:
            self.close()
            raise
        self.n_procs = self.n_shards * pcfg.n_procs
        # Global trace track layout: shard s's workers + supervisor live
        # at [s * stride, s * stride + n_procs], the merge track after all.
        self._track_stride = pcfg.n_procs + 1
        self._rec: SpanRecorder | None = None
        if self.trace:
            self._rec = SpanRecorder.in_memory(epoch=self.trace_epoch)
            self._merge_reader = RingReader(
                self._rec.cursor, self._rec.records,
                pid=self.n_shards * self._track_stride,
            )

    def _open_pool(self, cfg: PoolConfig, delay: tuple[int, float] | None):
        """Construct one shard's pool, optionally with an injected delay:
        workers snapshot ``poolcore.TEST_ROW_DELAY`` when their pool is
        constructed, so setting it only around construction scopes it to
        this shard.  mp-only: the delay is a CPU burn, which on a thread
        would hold the GIL and slow every shard."""
        kind = ThreadRenderPool if cfg.backend == "thread" else MPRenderPool
        saved = poolcore.TEST_ROW_DELAY
        if delay is not None and cfg.backend == "mp":
            poolcore.TEST_ROW_DELAY = delay
        try:
            return kind(self.renderer, cfg)
        finally:
            poolcore.TEST_ROW_DELAY = saved

    @property
    def capabilities(self) -> BackendCapabilities:
        """What the fleet can do (the :class:`RenderBackend` struct)."""
        return BackendCapabilities(
            trace=self.trace,
            steal=self.config.stealing and self.config.n_procs > 1,
            profile=self.config.profile_period > 0,
            shard=self.n_shards > 1,
        )

    def submit_batch(self, frame_specs) -> list[int]:
        """Dispatch a batch of views / FrameSpecs; returns their frame
        ids.  The one way a frame enters the fleet.

        Every spec is admitted (a view over capacity is refused) before
        any is partitioned, so a refused batch leaves the shard profile
        as it was.  Then every spec's shard regions are cut from the
        shard profile valid now (a loop of :meth:`render` re-shards
        frame to frame, a batch does not), and each pool gets the whole
        batch as *one* ``submit_batch`` and pipelines it with no fleet
        in the loop.  The service assigns the regions, so a spec
        carrying one is rejected; whatever a pool refuses (a closed
        pool) raises from here and leaves no frame in a ledger.
        """
        specs = as_frame_specs(frame_specs)
        if any(s.region is not None for s in specs):
            raise ValueError(
                "ShardedRenderService assigns shard regions itself; "
                "submit() does not accept a region"
            )
        plans = [self._planner.admit(s.view, *self._caps, timestep=s.timestep)
                 for s in specs]
        regions = [shard_regions(self._planner.partition(p)["owner"],
                                 self.n_shards, p["v_lo"], p["v_hi"]) for p in plans]
        handles: list[list[int]] = []
        try:
            for s, pool in enumerate(self._pools):
                handles.append(pool.submit_batch([
                    FrameSpec(spec.view, spec.timestep, region[s])
                    for spec, region in zip(specs, regions)
                ]))
        except Exception:
            # A later pool refused what earlier ones accepted: gather
            # and drop those, or they sit in their ledgers for good.
            self._gather(handles)
            raise
        ids = list(range(self._next_frame, self._next_frame + len(specs)))
        self._next_frame += len(ids)
        # zip(*handles): per frame, its handle in each pool.
        self._frames.update(zip(ids, zip(plans, zip(*handles))))
        return ids

    def submit(self, view: np.ndarray, region=None,
               timestep: int | None = None) -> int:
        """Dispatch one frame — a one-spec :meth:`submit_batch`."""
        return self.submit_batch([FrameSpec(view, timestep, region)])[0]

    def _gather(self, handles: list[list[int]]):
        """Collect ``handles[s]`` from pool ``s`` — every one, also
        behind a failed one: a result nobody asks for stays in its
        ledger for good.  Returns the results and the first error."""
        results, failure = [], None
        for pool, issued in zip(self._pools, handles):
            for h in issued:
                try:
                    results.append(pool.result(h))
                except MPPoolError as exc:
                    failure = failure or exc
        return results, failure

    def result(self, frame_id: int) -> MPRenderResult:
        """Gather ``frame_id``'s shards, in any order, and merge them —
        or raise its typed error, the same object on every call."""
        if frame_id in self._failed:
            raise self._failed[frame_id]
        if frame_id not in self._frames:
            raise KeyError(f"unknown frame {frame_id}")
        if self._closed:  # the merge framebuffers are gone
            raise PoolClosed(f"fleet closed before frame {frame_id} was gathered")
        splan, handles = self._frames.pop(frame_id)
        results, failure = self._gather([[h] for h in handles])
        if failure is not None:
            self._failed[frame_id] = failure
            raise failure
        t0 = time.perf_counter()
        merged = self._merge(frame_id, splan, results)
        self.metrics.histogram("shard/merge_s").observe(time.perf_counter() - t0)
        self._stitch_profile(splan, results)
        if self.trace:
            self._collect_timeline(frame_id, results)
        self.metrics.histogram("shard/busy_spread").observe(merged.busy_spread)
        return merged

    # ``submit`` + ``result`` / ``submit_batch`` + ``result``: the pools'
    # own one-liners, which need nothing but those two methods.
    render = PoolCore.render
    render_animation = PoolCore.render_animation

    def _merge(self, frame: int, splan: dict, results) -> MPRenderResult:
        """Gather: merge-tree the finals, row-gather the intermediates."""
        fact = splan["fact"]
        n_v, n_u = fact.intermediate_shape
        own = splan["owner"]
        # Every line has exactly one owning shard, so the gather below
        # writes every row: no need to allocate-and-zero first.
        inter = IntermediateImage.over(np.empty((n_v, n_u), np.float32),
                                       np.empty((n_v, n_u), np.float32))
        for s, r in enumerate(results):
            rows = own == s
            inter.color[rows] = r.intermediate.color[rows]
            inter.opacity[rows] = r.intermediate.opacity[rows]
        # Built here, not with the plan: a final-image-sized map per
        # frame would otherwise sit in ``_frames`` for a whole batch.
        tiles = TileOwnershipMap(fact, own)
        t0 = self._rec.now() if self._rec is not None else 0.0
        for s, r in enumerate(results):
            self._fbs[s].load(r.final)
        final, merges = merge_framebuffers(self._fbs, tiles, fact.final_shape)
        if self._rec is not None:
            self._rec.span(frame, "merge", t0, self._rec.now())
        self.metrics.counter("shard/merges").inc(merges)
        busy = np.array(
            [
                float(r.busy_s.sum()) if r.busy_s is not None else 0.0
                for r in results
            ]
        )
        return MPRenderResult(
            final=final,
            intermediate=inter,
            fact=fact,
            n_procs=self.n_procs,
            boundaries=splan["boundaries"],
            profiled=all(r.profiled for r in results),
            busy_s=busy,
            steals=sum(r.steals for r in results),
            steal_rows=sum(r.steal_rows for r in results),
            retries=max(r.retries for r in results),
            degraded=any(r.degraded for r in results),
        )

    def _stitch_profile(self, splan: dict, results) -> None:
        """Gather one cross-shard cost profile from a profiled frame:
        each line's cost as its owning shard's pool measured it.

        A pool's costs are CPU seconds already, interference op counts
        cannot see included (a noisy neighbour,
        :data:`TEST_SHARD_ROW_DELAY`), so a slow shard's lines cost more
        and the next re-shard shrinks its band.  They cover the pool's
        composite band, which holds every line the shard owns, so the
        gather covers the frame's band exactly once.  Requires *every*
        owning shard to have profiled the frame: a degraded shard has no
        costs, so that frame does not feed back.
        """
        v_lo, v_hi = splan["v_lo"], splan["v_hi"]
        if v_hi <= v_lo:
            return
        own = splan["owner"][v_lo:v_hi]
        costs = np.empty(v_hi - v_lo)
        for s, r in enumerate(results):
            mine = np.flatnonzero(own == s)
            if not len(mine):
                continue  # shard owns only empty margins this frame
            if r.costs is None:
                return
            costs[mine] = r.costs[mine + v_lo - r.costs_v_lo]
        self._planner.install_profile(v_lo, costs, splan["key"])
        self.metrics.counter("shard/reshards").inc()

    # -- observability -------------------------------------------------------

    def _collect_timeline(self, frame: int, results) -> None:
        """One service-level timeline: pool tracks re-tagged, merge track.

        Pool spans are rebased from the pool's epoch to the service's
        (a nonnegative constant, so per-track ordering is preserved) and
        worker ids are shifted onto the global track layout.
        """
        tl = FrameTimeline(frame)
        for s, r in enumerate(results):
            if r.timeline is None:
                continue
            shift = self._pools[s].trace_epoch - self.trace_epoch
            off = s * self._track_stride
            for sp in r.timeline.spans:
                tl.spans.append(
                    replace(sp, pid=off + sp.pid, t0=sp.t0 + shift, t1=sp.t1 + shift)
                )
            for c in r.timeline.counters:
                tl.counters.append(replace(c, pid=off + c.pid))
        for rec in self._merge_reader.drain():
            tl.add(rec)
        tl.spans.sort(key=lambda sp: (sp.pid, sp.t0))
        self.timelines.append(tl)

    def fault_counters(self) -> dict[str, int]:
        """Recovery counters summed across the fleet (zeros when healthy)."""
        per_shard = self.shard_fault_counters()
        return {k: sum(c[k] for c in per_shard) for k in per_shard[0]}

    def shard_fault_counters(self) -> list[dict[str, int]]:
        """Per-shard recovery counters (fault-isolation observability)."""
        return [pool.fault_counters() for pool in self._pools]

    def export_chrome_trace(self, path: str, metadata: dict | None = None) -> None:
        """Write the fleet's frames as one Chrome trace JSON.

        Tracks: shard ``s``'s workers and supervisor, for each shard in
        order, then the service's own ``merge`` track last.
        """
        if not self.trace:
            raise RuntimeError("service was created without trace=True")
        meta = {
            "backend": "shard",
            "shards": self.n_shards,
            "n_procs": self.n_procs,
            "profile_period": self.config.profile_period,
            "stealing": self.config.stealing,
            "frames": len(self.timelines),
            "shard/merges": int(self.metrics.counter("shard/merges").value),
            "shard/reshards": int(self.metrics.counter("shard/reshards").value),
        }
        meta.update(self.fault_counters())
        if metadata:
            meta.update(metadata)
        _export_chrome_trace(path, self.timelines, metadata=meta)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Close every pool and release the shard framebuffers."""
        self._closed = True
        for owned in (*self._pools, *self._fbs):
            try:
                owned.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass

    def __enter__(self) -> "ShardedRenderService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort if close() was forgotten
        try:
            self.close()
        except Exception:
            pass
