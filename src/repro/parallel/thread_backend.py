"""No-copy threading backend for the render pool.

:class:`ThreadRenderPool` runs the same partitioned shear-warp frame as
:class:`~repro.parallel.mp_backend.MPRenderPool` — contiguous
profile-balanced scanline blocks, chunked task stealing, warp-follows-
composite ownership — but on *threads* instead of forked processes.
The compute-heavy block kernel spends its time inside numpy ufuncs,
which release the GIL, so threads genuinely overlap there; and a thread
pool pays none of the process pool's structural dispatch costs:

* **no fork** — workers are daemon threads sharing the renderer object
  directly (no copy-on-write snapshot to take or keep coherent);
* **no pickling** — a job is just an ``int`` frame id; plans, images
  and cost fragments are passed by reference under one lock;
* **no shared-memory churn** — each frame composites into a fresh
  private :class:`~repro.render.image.IntermediateImage` /
  :class:`~repro.render.image.FinalImage`, which then *becomes* the
  result (no copy-out, no re-zeroing, no buffer-release protocol).

Everything partition-shaped is literally shared with the MP backend —
:class:`~repro.parallel.mp_backend.FramePlanner`, the guided
claim/steal drain loop (``_composite_share``) and the cost-fragment
calibration are imported from ``mp_backend`` — so the two backends
cannot drift apart and their images are bit-identical to each other
and to the serial renderer.

Concurrency structure
---------------------
Workers receive frame ids through per-worker queues in identical order
and re-join at a shared :class:`threading.Barrier` between a frame's
composite and warp phases, so at most one frame is ever *in* its
composite phase at a time (a worker enters frame ``f+1``'s composite
only after passing frame ``f``'s barrier, which every sibling has then
reached too).  Claim cursors are therefore per-frame numpy arrays
guarded by one persistent lock per worker.  Warp rows are disjoint per
worker by construction.  Completion bookkeeping happens under the pool
condition; the worker that reports a frame's last block also finishes
it (profile install, timeline assembly, result hand-off) — there is no
supervisor thread.

Semantics differences from the MP pool, all inherent to threads:

* ``timeout_s`` is ignored — a thread cannot die silently (SIGKILL/OOM
  kills the whole process) and cannot be safely terminated, so there is
  nothing for a deadline to recover.  Worker *exceptions* are still
  caught, retried (``max_retries``), degraded to a serial render
  (``degrade_to_serial``) or surfaced as :class:`FrameFailed`.
* ``buffers`` is ignored — images are per-frame, so there is no buffer
  reuse to gate; pipelining depth is bounded only by how far submission
  runs ahead of :meth:`result` collection (each undelivered frame holds
  its two images in memory).
* ``fault_counters()["worker_restarts"]`` is always 0.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time

import numpy as np

from ..obs.metrics import MetricsRegistry, metrics_from_timelines
from ..obs.recorder import RingReader, SpanRecorder
from ..obs.timeline import FrameTimeline
from ..obs.timeline import export_chrome_trace as _export_chrome_trace
from ..render.fast import render_fast
from ..render.image import FinalImage, IntermediateImage
from ..render.serial import ShearWarpRenderer
from ..render.warp import warp_rows
from . import mp_backend as _mpb
from .backend import BackendCapabilities, as_frame_specs
from .mp_backend import (
    FrameFailed,
    FramePlanner,
    MPPoolError,
    MPRenderResult,
    PoolClosed,
    PoolConfig,
    PoolUnrecoverable,
    _apply_cost_fragments,
    _composite_share,
    _config_from,
    _warn_legacy,
)

__all__ = ["ThreadRenderPool", "render_parallel_threads"]


class ThreadRenderPool:
    """Persistent pool of render *threads* sharing the renderer in place.

    API-compatible with :class:`~repro.parallel.mp_backend.MPRenderPool`
    (``submit`` / ``submit_batch`` / ``render_animation`` / ``result`` /
    ``render`` / ``close`` / context manager), returning the same
    :class:`~repro.parallel.mp_backend.MPRenderResult` shape, so callers
    and benchmarks switch backends through ``PoolConfig(backend=...)``
    and the :func:`repro.open_pool` facade without touching anything
    else.  See the module docstring for the (small) semantic
    differences.
    """

    def __init__(
        self,
        renderer: ShearWarpRenderer,
        config: PoolConfig | None = None,
        **legacy,
    ) -> None:
        self._closed = False
        self._threads: list[threading.Thread] = []
        self._queues: list[queue_mod.SimpleQueue] = []
        self._cond = threading.Condition()
        self._broken: str | None = None

        cfg = _config_from(config, legacy)
        self.renderer = renderer
        self.config = cfg
        self.n_procs = cfg.n_procs
        self.kernel = cfg.kernel
        self.profile_period = cfg.profile_period
        self.stealing = cfg.stealing
        self.steal_chunk = cfg.steal_chunk
        self.trace = cfg.trace
        self.trace_capacity = cfg.trace_capacity
        self._steal_active = cfg.stealing and cfg.n_procs > 1

        self.metrics = MetricsRegistry()
        self._planner = FramePlanner(
            renderer, cfg.n_procs, cfg.profile_period, self.metrics
        )
        self.timelines: list[FrameTimeline] = []
        self._frame_obs: dict[int, FrameTimeline] = {}
        self._trace_epoch = time.perf_counter()
        self._recorders: list[SpanRecorder | None] = [None] * cfg.n_procs
        self._readers: list[RingReader] = []
        self._sup_rec: SpanRecorder | None = None
        self._sup_reader: RingReader | None = None
        if cfg.trace:
            for pid in range(cfg.n_procs):
                rec = SpanRecorder.in_memory(cfg.trace_capacity, self._trace_epoch)
                self._recorders[pid] = rec
                self._readers.append(RingReader(rec.cursor, rec.records, pid))
            self._sup_rec = SpanRecorder.in_memory(epoch=self._trace_epoch)
            self._sup_reader = RingReader(
                self._sup_rec.cursor, self._sup_rec.records, pid=cfg.n_procs
            )

        self._next_frame = 0
        self._inflight: dict[int, dict] = {}
        self._results: dict[int, MPRenderResult] = {}
        self._failed: dict[int, MPPoolError] = {}
        # One persistent lock per worker's claim cursors.  The barrier
        # keeps at most one frame in its composite phase at any moment,
        # so per-frame claim arrays + these per-worker locks give the
        # exact claim/steal protocol of the MP pool's shm cursor array.
        self._claim_locks = [threading.Lock() for _ in range(cfg.n_procs)]
        self._barrier = threading.Barrier(cfg.n_procs)
        self._queues = [queue_mod.SimpleQueue() for _ in range(cfg.n_procs)]
        self._threads = [
            threading.Thread(
                target=self._worker, args=(pid,),
                name=f"render-pool-{pid}", daemon=True,
            )
            for pid in range(cfg.n_procs)
        ]
        for t in self._threads:
            t.start()

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

    def submit(self, view: np.ndarray, region=None,
               timestep: int | None = None) -> int:
        """Dispatch one frame; returns its frame id (never blocks —
        per-frame images mean there is no buffer to wait for).
        ``region`` restricts the frame to one shard's band (see
        :class:`~repro.parallel.mp_backend.FrameRegion`); ``timestep``
        selects a time-varying renderer's encoding."""
        with self._cond:
            self._raise_if_unusable()
            t_d0 = self._sup_rec.now() if self._sup_rec is not None else 0.0
            plan = self._planner.plan(view, region=region, timestep=timestep)
            frame = self._claim_frame_locked(plan, batched=False)
            self._dispatch_locked(frame)
            self._sample_gauges_locked()
            if self._sup_rec is not None:
                self._sup_rec.span(frame, "dispatch", t_d0, self._sup_rec.now())
            return frame

    def submit_batch(self, frame_specs, regions=None) -> list[int]:
        """Dispatch a whole animation in one queue message per worker.

        ``frame_specs`` accepts bare views and/or
        :class:`~repro.parallel.backend.FrameSpec` items (the
        :class:`RenderBackend` batch form).  Planning is sequential and
        deterministic exactly as in the MP pool (the profile feedback
        loop crosses batch boundaries), so batched output is
        bit-identical to per-frame submission.
        """
        specs = as_frame_specs(frame_specs)
        if regions is None:
            regions = [None] * len(specs)
        with self._cond:
            self._raise_if_unusable()
            if not specs:
                return []
            t_d0 = self._sup_rec.now() if self._sup_rec is not None else 0.0
            frames = []
            for spec, region in zip(specs, regions):
                plan = self._planner.plan(spec.view,
                                          region=spec.region or region,
                                          timestep=spec.timestep)
                frame = self._claim_frame_locked(plan, batched=True)
                self._prepare_frame_locked(frame)
                frames.append(frame)
            for q in self._queues:
                q.put(list(frames))
            self.metrics.counter("pool/batch_frames").inc(len(frames))
            self._sample_gauges_locked()
            if self._sup_rec is not None:
                self._sup_rec.span(frames[0], "dispatch", t_d0,
                                   self._sup_rec.now())
            return frames

    def render_animation(self, views, regions=None) -> list[MPRenderResult]:
        """Render a sequence of views, returning results in order."""
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

    def render(self, view: np.ndarray) -> MPRenderResult:
        """Render one frame synchronously."""
        return self.result(self.submit(view))

    def result(self, frame: int) -> MPRenderResult:
        """Wait for ``frame`` and return its images (no copies — the
        per-frame images are handed over, not extracted from a shared
        buffer).  A failed frame's typed error re-raises on every call
        (idempotent, matching :meth:`MPRenderPool.result`)."""
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
                self._cond.wait(timeout=0.2)

    def _raise_if_unusable(self) -> None:
        if self._closed:
            raise PoolClosed("pool is closed")
        if self._broken is not None:
            raise PoolUnrecoverable(self._broken)

    def _claim_frame_locked(self, plan: dict, batched: bool) -> int:
        frame = self._next_frame
        self._next_frame += 1
        rec = {
            "done": 0,
            "errors": [],
            "costs": None,
            "busy": np.zeros(self.n_procs, dtype=np.float64),
            "steals": 0,
            "steal_rows": 0,
            "attempt": 0,
            "batched": batched,
            "img": None,
            "final": None,
            "claims": None,
        }
        rec.update(plan)
        self._inflight[frame] = rec
        return frame

    def _prepare_frame_locked(self, frame: int) -> None:
        """Fresh images + claim cursors for a (re-)dispatch of ``frame``."""
        rec = self._inflight[frame]
        fact = rec["fact"]
        rec["img"] = IntermediateImage(fact.intermediate_shape)
        rec["final"] = FinalImage(fact.final_shape)
        if self._steal_active:
            b = rec["boundaries"]
            claims = np.empty((self.n_procs, 2), dtype=np.int64)
            claims[:, 0] = b[:-1]
            claims[:, 1] = b[1:]
            rec["claims"] = claims
        rec["done"] = 0
        rec["errors"] = []
        rec["costs"] = None
        rec["busy"][:] = 0.0
        rec["steals"] = 0
        rec["steal_rows"] = 0

    def _dispatch_locked(self, frame: int) -> None:
        self._prepare_frame_locked(frame)
        for q in self._queues:
            q.put(frame)

    def _sample_gauges_locked(self) -> None:
        self.metrics.gauge("pool/queue_depth").set(len(self._inflight))

    # -- worker side ---------------------------------------------------------

    def _worker(self, pid: int) -> None:
        """Drain this worker's frame queue until the ``None`` sentinel."""
        rec_tr = self._recorders[pid]
        try:
            t_wait0 = 0.0 if rec_tr is None else rec_tr.now()
            while True:
                msg = self._queues[pid].get()
                if msg is None:
                    return
                batch = msg if isinstance(msg, list) else [msg]
                for frame in batch:
                    self._run_frame(pid, frame, rec_tr, t_wait0)
                    t_wait0 = 0.0 if rec_tr is None else rec_tr.now()
        except Exception as exc:  # noqa: BLE001 - never die silently
            with self._cond:
                self._broken = (
                    f"worker thread {pid} failed: {type(exc).__name__}: {exc}"
                )
                self._cond.notify_all()

    def _run_frame(self, pid: int, frame: int, rec_tr, t_wait0: float) -> None:
        """One frame's composite + warp on this worker's thread."""
        with self._cond:
            rec = self._inflight.get(frame)
        if rec is None:
            # Retired under us (pool closing mid-batch) — still pair up
            # with the siblings' barrier waits for this frame.
            self._barrier.wait()
            return
        fact = rec["fact"]
        boundaries = rec["boundaries"]
        v_lo, v_hi = int(boundaries[pid]), int(boundaries[pid + 1])
        img = rec["img"]
        final = rec["final"]
        claims = rec["claims"]
        profiled = rec["profiled"]
        if rec_tr is not None:
            rec_tr.span(frame, "wait", t_wait0, rec_tr.now())
        delay = _mpb._TEST_ROW_DELAY  # read live so tests can monkeypatch
        burn_per_row = delay[1] if delay is not None and delay[0] == pid else 0.0
        err: str | None = None
        frags: list[tuple[int, np.ndarray]] | None = None
        n_steals = n_steal_rows = 0
        t_comp = t_warp = 0.0
        tc0 = tb0 = 0.0
        # Per-thread CPU time: the exact analogue of the MP workers'
        # per-process clock, unpolluted by other threads' slices.
        t0 = time.thread_time()
        try:
            try:
                if rec_tr is not None:
                    td0 = rec_tr.now()
                rle = self.renderer.rle_for(fact, timestep=rec.get("timestep"))
                if rec_tr is not None:
                    tc0 = rec_tr.now()
                    rec_tr.span(frame, "decode", td0, tc0)
                frags, n_steals, n_steal_rows = _composite_share(
                    img, (v_lo, v_hi), claims, self._claim_locks, pid,
                    self.steal_chunk, rle, fact, self.kernel, profiled,
                    rec_tr, frame, burn_per_row,
                )
            finally:
                t_comp = time.thread_time() - t0
                if rec_tr is not None:
                    tb0 = rec_tr.now()
                    rec_tr.span(frame, "composite", tc0, tb0)
                # Reached even on error so no sibling deadlocks; a
                # thread cannot die without the whole process dying, so
                # (unlike the MP pool) every sibling always arrives.
                self._barrier.wait()
                if rec_tr is not None:
                    rec_tr.span(frame, "barrier", tb0, rec_tr.now())
            t1 = time.thread_time()
            if rec_tr is not None:
                tw0 = rec_tr.now()
            warp_rows(final, rec["rows_by_pid"][pid], img, fact,
                      line_owner=rec["owner"], pid=pid)
            t_warp = time.thread_time() - t1
            if rec_tr is not None:
                rec_tr.span(frame, "warp", tw0, rec_tr.now())
        except Exception as exc:  # noqa: BLE001 - surfaced to the caller
            err = f"{type(exc).__name__}: {exc}"
            frags = None

        with self._cond:
            rec = self._inflight.get(frame)
            if rec is None:
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
                self._finish_locked(frame)
            self._cond.notify_all()

    # -- completion (runs on the last-reporting worker's thread) -------------

    def _finish_locked(self, frame: int) -> None:
        rec = self._inflight[frame]
        timeline = self._collect_timeline_locked(frame)
        if rec["errors"]:
            msg = "; ".join(rec["errors"])
            if rec["attempt"] < self.config.max_retries:
                # Tail re-dispatch: the retry lands behind any frames
                # already queued, in the same order on every worker, so
                # barrier pairing is preserved.  Per-frame images make
                # the retry clean by construction.
                rec["attempt"] += 1
                self.metrics.counter("pool/frames_retried").inc()
                self._dispatch_locked(frame)
                return
            if self.config.degrade_to_serial:
                self._degrade_locked(frame)
                return
            del self._inflight[frame]
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
        info = self._inflight.pop(frame)
        self._results[frame] = MPRenderResult(
            final=info["final"],
            intermediate=info["img"],
            fact=info["fact"],
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

    def _degrade_locked(self, frame: int) -> None:
        rec = self._inflight.pop(frame)
        try:
            res = render_fast(self.renderer, rec["view"],
                              timestep=rec.get("timestep"))
        except Exception as exc:  # noqa: BLE001
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

    def _collect_timeline_locked(self, frame: int) -> FrameTimeline | None:
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
            self.metrics.gauge("trace/dropped_records").set(dropped)
        return self._frame_obs.pop(frame, None)

    # -- observability -------------------------------------------------------

    def fault_counters(self) -> dict[str, int]:
        """Recovery counters (``worker_restarts`` is always 0: threads
        cannot die without taking the whole process with them)."""
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
        """Write every completed frame's timeline as Chrome trace JSON."""
        if not self.trace:
            raise RuntimeError("pool was created without trace=True")
        meta = {
            "n_procs": self.n_procs,
            "kernel": self.kernel,
            "profile_period": self.profile_period,
            "stealing": self._steal_active,
            "steal_chunk": self.steal_chunk,
            "frames": len(self.timelines),
            "backend": "thread",
            "doorbell": False,
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
        """Stop the workers (after any already-queued frames) and wake
        every ``result`` waiter with :class:`PoolClosed`."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=10.0)

    def __enter__(self) -> "ThreadRenderPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort if close() was forgotten
        try:
            self.close()
        except Exception:
            pass


def render_parallel_threads(
    renderer: ShearWarpRenderer,
    view: np.ndarray,
    *,
    config: PoolConfig | None = None,
    **legacy,
) -> MPRenderResult:
    """Render one frame with a transient thread pool (convenience
    mirror of :func:`~repro.parallel.mp_backend.render_parallel_mp`)."""
    if config is None:
        given = {k: v for k, v in legacy.items() if v is not None}
        if given:
            _warn_legacy(given)
        legacy.setdefault("profile_period", 0)
        config = PoolConfig(**legacy)
    else:
        config = _config_from(config, legacy)
    with ThreadRenderPool(renderer, config=config) as pool:
        return pool.render(view)
