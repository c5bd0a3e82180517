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

The service also runs the paper's section 4.2-4.3 feedback loop one
level up (:class:`ShardPlanner`): on profiled frames every pool ships
its calibrated per-scanline costs back, the service stitches them into
one cross-shard profile, and the *shard boundaries themselves* are
re-balanced with the same :func:`contiguous_partition` construction the
pools use for scanlines — with the same (axis, perm) invalidation rule
when a principal-axis switch makes the old profile meaningless.

Chaos knob: ``REPRO_SHARD_ROW_DELAY="shard:pid:sec[,shard:pid:sec]"``
slows one worker of one *shard* (process pools only — the delay is
baked into the pool's fork snapshot at construction), letting tests
create cross-shard imbalance that the shard-level feedback loop must
then converge away.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from ..core.partition import line_ownership
from ..core.profiling import ScanlineProfile
from ..obs.metrics import MetricsRegistry, busy_spread
from ..obs.recorder import RingReader, SpanRecorder
from ..obs.timeline import FrameTimeline
from ..obs.timeline import export_chrome_trace as _export_chrome_trace
from ..parallel import poolcore
from ..parallel.backend import BackendCapabilities, as_frame_specs
from ..parallel.mp_backend import MPRenderPool
from ..parallel.poolcore import (
    FrameRegion,
    MPPoolError,
    MPRenderResult,
    PoolConfig,
    capacity_shapes,
    profile_partition,
)
from ..parallel.thread_backend import ThreadRenderPool
from ..render.compositing import nonempty_scanline_bounds
from ..render.image import IntermediateImage
from .merge import ShardFramebuffer, TileOwnershipMap, merge_framebuffers

__all__ = ["ShardPlanner", "ShardedRenderService"]


def _shard_delays_from_env() -> dict[int, tuple[int, float]]:
    """Parse ``REPRO_SHARD_ROW_DELAY`` (``"shard:pid:sec_per_row,..."``)."""
    spec = os.environ.get("REPRO_SHARD_ROW_DELAY")
    if not spec:
        return {}
    out: dict[int, tuple[int, float]] = {}
    for part in spec.split(","):
        shard_s, pid_s, sec_s = part.split(":")
        out[int(shard_s)] = (int(pid_s), float(sec_s))
    return out


class ShardPlanner:
    """Shard-boundary planning: section 4.3 one level up.

    The same machinery :class:`~repro.parallel.poolcore.FramePlanner`
    applies to *scanlines within one pool* — profile-balanced contiguous
    partitioning, reuse of a previous frame's measured costs, and
    invalidation when the principal axis switches — applied to *shard
    boundaries across pools*.  Each pool then re-partitions its band
    into per-worker blocks with its own planner, so the two levels
    compose into the nested split of
    :func:`repro.core.partition.nested_contiguous_partition`.
    """

    def __init__(self, renderer, n_shards: int, metrics: MetricsRegistry) -> None:
        self.renderer = renderer
        self.n_shards = n_shards
        self.metrics = metrics
        self.profile: ScanlineProfile | None = None
        self.profile_key: tuple[int, tuple[int, int, int]] | None = None
        self._last_bounds: np.ndarray | None = None
        self._last_key: tuple[int, tuple[int, int, int]] | None = None

    def plan(self, view: np.ndarray, timestep: int | None = None) -> dict:
        """Shard boundaries, per-shard regions, and the pixel-owner map.

        ``timestep`` selects a time-varying renderer's encoding; like
        the pool-level planner, the shard profile's validity key stays
        ``(axis, perm)`` so cross-shard feedback predicts across
        timestep switches too.
        """
        fact = self.renderer.factorize_view(view)
        n_v, _ = fact.intermediate_shape
        rle = self.renderer.rle_for(fact, timestep=timestep)
        v_lo, v_hi = nonempty_scanline_bounds(rle, fact)
        key = (fact.axis, fact.perm)
        if self.profile is not None and self.profile_key != key:
            # Axis switch: the profile is in the old intermediate-image
            # coordinates and predicts nothing — fall back to a uniform
            # re-shard, exactly like the pool-level invalidation.
            self.profile = None
            self.metrics.counter("shard/reshard_invalidations").inc()
        bounds = profile_partition(self.profile, self.n_shards, v_lo, v_hi)
        if (
            self._last_bounds is not None
            and self._last_key == key
            and len(self._last_bounds) == len(bounds)
        ):
            self.metrics.histogram("shard/boundary_drift").observe(
                float(np.abs(bounds - self._last_bounds).mean())
            )
        self._last_bounds, self._last_key = bounds, key
        shard_owner = line_ownership(bounds, n_v)
        in_band = np.zeros(n_v, dtype=bool)
        in_band[v_lo:v_hi] = True
        regions = []
        for s in range(self.n_shards):
            owned = shard_owner == s
            # Ghost line: a pixel sourced from line v0 bilinearly samples
            # (v0, v0 + 1), so the shard owning v0 must also *composite*
            # v0 + 1 even when the next shard owns it.
            need = owned.copy()
            need[1:] |= owned[:-1]
            need &= in_band
            idx = np.flatnonzero(need)
            if len(idx):
                comp_lo, comp_hi = int(idx[0]), int(idx[-1]) + 1
            else:
                comp_lo = comp_hi = int(v_lo)
            regions.append(FrameRegion(comp_lo, comp_hi, owned))
        return {
            "fact": fact,
            "v_lo": int(v_lo),
            "v_hi": int(v_hi),
            "bounds": bounds,
            "shard_owner": shard_owner,
            "regions": regions,
            "tile_map": TileOwnershipMap(fact, shard_owner),
            "key": key,
        }

    def install(self, v_lo: int, costs: np.ndarray, key) -> None:
        """Adopt a stitched cross-shard profile; re-shards next frame."""
        self.profile = ScanlineProfile(v_lo, costs)
        self.profile_key = key
        self.metrics.counter("shard/reshards").inc()


class ShardedRenderService:
    """N pools, one frame: scatter shard regions, gather, merge.

    Duck-types the pool API (``render`` / ``render_animation`` /
    ``close`` / ``metrics`` / ``fault_counters`` /
    ``export_chrome_trace``), so the facade, the CLI and the render
    server drive a shard fleet exactly as they drive one pool — and it
    is constructed like one, ``ShardedRenderService(renderer, config)``:
    ``config.shards`` pools, each a clone of ``config`` with
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
        self._planner = ShardPlanner(renderer, self.n_shards, self.metrics)
        self._frame = 0
        # RenderBackend submit/result bookkeeping: queued specs render
        # lazily, in id order, when result() first needs them.
        self._next_submit = 0
        self._queued: dict[int, tuple[np.ndarray, int | None]] = {}
        self._ready: dict[int, MPRenderResult] = {}
        # Frames that failed for good, kept per id like the pools'
        # ledgers keep theirs: every result() re-raises the same error.
        self._failed: dict[int, MPPoolError] = {}

        self.trace = config.trace
        # The service's trace epoch predates every pool's, so rebasing a
        # pool span onto the service timebase can never go negative.
        self.trace_epoch = time.perf_counter()
        self.timelines: list[FrameTimeline] = []
        self._rec: SpanRecorder | None = None
        self._merge_reader: RingReader | None = None

        delays = _shard_delays_from_env()
        _, final_cap = capacity_shapes(renderer.shape)
        # A shard's pool is always a plain single-band pool.
        pcfg = config.replace(shards=1)
        try:
            for s in range(self.n_shards):
                self._pools.append(self._open_pool(pcfg, delays.get(s)))
                self._fbs.append(
                    ShardFramebuffer(
                        final_cap,
                        backing="shm" if pcfg.backend == "mp" else "array",
                    )
                )
        except BaseException:
            self.close()
            raise
        # Global trace track layout: shard s's workers + supervisor live
        # at [offset(s), offset(s) + n_procs], the merge track after all.
        self._pid_offset = []
        off = 0
        for pool in self._pools:
            self._pid_offset.append(off)
            off += pool.n_procs + 1
        self.n_procs = sum(p.n_procs for p in self._pools)
        if self.trace:
            self._rec = SpanRecorder.in_memory(epoch=self.trace_epoch)
            self._merge_reader = RingReader(
                self._rec.cursor, self._rec.records, pid=off
            )

    def _open_pool(self, cfg: PoolConfig, delay: tuple[int, float] | None):
        """Construct one shard's pool, optionally with an injected delay.

        Workers snapshot ``poolcore.TEST_ROW_DELAY`` when their pool is
        constructed, so setting it only around construction scopes the
        delay to this one shard.  The delay is a CPU burn, which on a
        thread would hold the GIL and slow every sibling shard too, so
        the per-shard delay is mp-only.
        """
        kind = ThreadRenderPool if cfg.backend == "thread" else MPRenderPool
        if delay is None or cfg.backend != "mp":
            return kind(self.renderer, cfg)
        saved = poolcore.TEST_ROW_DELAY
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

    def render(self, view: np.ndarray,
               timestep: int | None = None) -> MPRenderResult:
        """Render one frame across all shards and merge it."""
        return self._render_one(np.asarray(view, dtype=np.float64),
                                timestep=timestep)

    def submit(self, view: np.ndarray, region=None,
               timestep: int | None = None) -> int:
        """Queue one frame; returns its frame id (RenderBackend form).

        The service assigns each pool its own shard region, so a
        caller-supplied ``region`` is rejected.  Queued frames render
        *lazily and in id order* when :meth:`result` first needs them:
        the per-frame gather is what lets the service stitch a
        cross-shard profile and re-shard before the next frame, so
        out-of-order rendering would change the feedback sequence (and
        only that — pixels are partition-independent either way).
        """
        if region is not None:
            raise ValueError(
                "ShardedRenderService assigns shard regions itself; "
                "submit() does not accept a region"
            )
        frame_id = self._next_submit
        self._next_submit += 1
        self._queued[frame_id] = (
            np.asarray(view, dtype=np.float64), timestep
        )
        return frame_id

    def submit_batch(self, frame_specs) -> list[int]:
        """Queue a batch of views / FrameSpecs; returns their frame ids."""
        return [
            self.submit(s.view, s.region, timestep=s.timestep)
            for s in as_frame_specs(frame_specs)
        ]

    def result(self, frame_id: int) -> MPRenderResult:
        """Render every queued frame up to ``frame_id`` (in id order)
        and return ``frame_id``'s merged result — or raise its typed
        error, the same object on every call, as the pools do."""
        for fid in sorted(f for f in self._queued if f <= frame_id):
            view, timestep = self._queued.pop(fid)
            try:
                self._ready[fid] = self._render_one(view, timestep=timestep)
            except MPPoolError as exc:
                self._failed[fid] = exc
        if frame_id in self._failed:
            raise self._failed[frame_id]
        if frame_id not in self._ready:
            raise KeyError(f"unknown frame {frame_id}")
        return self._ready.pop(frame_id)

    def render_animation(self, views) -> list[MPRenderResult]:
        """Render a view sequence in lockstep across the shard fleet.

        Goes through the :class:`RenderBackend` submit/result pair;
        frames still render one at a time (see :meth:`submit`) so the
        shard-level feedback loop is preserved.
        """
        return [self.result(f) for f in self.submit_batch(views)]

    def _render_one(self, view: np.ndarray,
                    timestep: int | None = None) -> MPRenderResult:
        frame = self._frame
        self._frame += 1
        splan = self._planner.plan(view, timestep=timestep)
        # Scatter: every pool gets the same view, restricted to its
        # shard's region; pools run their workers concurrently.
        handles = [
            pool.submit(view, region=splan["regions"][s], timestep=timestep)
            for s, pool in enumerate(self._pools)
        ]
        # Collect every shard's handle, also behind a failed one: a
        # result nobody asks for stays in its pool's ledger for good.
        results, failure = [], None
        for pool, h in zip(self._pools, handles):
            try:
                results.append(pool.result(h))
            except MPPoolError as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        t0 = time.perf_counter()
        merged = self._merge(frame, splan, results)
        self.metrics.histogram("shard/merge_s").observe(time.perf_counter() - t0)
        self._stitch_profile(splan, results)
        if self.trace:
            self._collect_timeline(frame, results)
        spread = merged.busy_spread
        if spread is not None:
            self.metrics.histogram("shard/busy_spread").observe(spread)
        return merged

    def _merge(self, frame: int, splan: dict, results) -> MPRenderResult:
        """Gather: merge-tree the finals, row-gather the intermediates."""
        fact = splan["fact"]
        n_v, n_u = fact.intermediate_shape
        own = splan["shard_owner"]
        # Every line has exactly one owning shard, so the gather below
        # writes every row: no need to allocate-and-zero first.
        inter = IntermediateImage.over(np.empty((n_v, n_u), np.float32),
                                       np.empty((n_v, n_u), np.float32))
        for s, r in enumerate(results):
            rows = own == s
            inter.color[rows] = r.intermediate.color[rows]
            inter.opacity[rows] = r.intermediate.opacity[rows]
        t0 = self._rec.now() if self._rec is not None else 0.0
        for s, r in enumerate(results):
            self._fbs[s].load(r.final)
        final, merges = merge_framebuffers(
            self._fbs, splan["tile_map"], fact.final_shape
        )
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
            boundaries=splan["bounds"],
            profiled=all(r.profiled for r in results),
            busy_s=busy,
            steals=sum(r.steals for r in results),
            steal_rows=sum(r.steal_rows for r in results),
            retries=max(r.retries for r in results),
            degraded=any(r.degraded for r in results),
        )

    def _stitch_profile(self, splan: dict, results) -> None:
        """Assemble one cross-shard cost profile from a profiled frame.

        Each pool profiled per-scanline *op counts* only for scanlines
        inside its own composite band; stitching by shard ownership
        covers the global band exactly once.  The stitched slice of each
        shard is then calibrated into seconds by the shard's measured
        busy time (``busy_s / op_total`` — the shard's observed
        seconds-per-op rate).  Op counts alone are content-derived and
        identical no matter which pool composites a row, so they can
        never see *interference* — a shard slowed by a noisy neighbor,
        or by the ``REPRO_SHARD_ROW_DELAY`` chaos knob.  The busy
        calibration is what turns the profile into a prediction of
        wall-clock cost per shard, letting the next re-shard shrink a
        slow shard's band (section 4.2's measure-then-repartition loop,
        applied across pools).  Requires *every* owning shard to have
        profiled this frame — a degraded shard has no costs, so that
        frame simply doesn't feed back.
        """
        v_lo, v_hi = splan["v_lo"], splan["v_hi"]
        if v_hi <= v_lo:
            return
        own = splan["shard_owner"][v_lo:v_hi]
        full = np.zeros(v_hi - v_lo, dtype=np.float64)
        for s, r in enumerate(results):
            mask = own == s
            if not mask.any():
                continue  # shard owns only empty margins this frame
            if not r.profiled or r.degraded or r.costs is None:
                return
            idx = np.flatnonzero(mask) + v_lo
            rel = idx - r.costs_v_lo
            inside = (rel >= 0) & (rel < len(r.costs))
            vals = r.costs[rel[inside]].astype(np.float64)
            ops = vals.sum()
            if ops > 0 and r.busy_s is not None:
                busy = float(np.asarray(r.busy_s).sum())
                if busy > 0:
                    vals = vals * (busy / ops)
            full[idx[inside] - v_lo] = vals
        self._planner.install(v_lo, full, splan["key"])

    # -- observability -------------------------------------------------------

    def _collect_timeline(self, frame: int, results) -> None:
        """One service-level timeline: pool tracks re-tagged, merge track.

        Pool spans are rebased from the pool's epoch to the service's
        (the offset is the pool's construction delay, a nonnegative
        constant, so per-track ordering is preserved) and worker ids are
        shifted onto the global track layout.
        """
        tl = FrameTimeline(frame)
        for s, r in enumerate(results):
            if r.timeline is None:
                continue
            shift = self._pools[s].trace_epoch - self.trace_epoch
            off = self._pid_offset[s]
            for sp in r.timeline.spans:
                tl.spans.append(
                    replace(sp, pid=off + sp.pid, t0=sp.t0 + shift, t1=sp.t1 + shift)
                )
            for c in r.timeline.counters:
                tl.counters.append(replace(c, pid=off + c.pid))
        if self._merge_reader is not None:
            for rec in self._merge_reader.drain():
                tl.add(rec)
        tl.spans.sort(key=lambda sp: (sp.pid, sp.t0))
        self.timelines.append(tl)

    def fault_counters(self) -> dict[str, int]:
        """Recovery counters summed across the fleet (zeros when healthy)."""
        total: dict[str, int] = {}
        for pool in self._pools:
            for k, v in pool.fault_counters().items():
                total[k] = total.get(k, 0) + v
        return total

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
            "kernel": self.config.kernel,
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
        if self._closed:
            return
        self._closed = True
        for pool in self._pools:
            try:
                pool.close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        for fb in self._fbs:
            try:
                fb.close()
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
