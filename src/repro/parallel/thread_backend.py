"""No-copy threading transport for the render pool.

:class:`ThreadRenderPool` is the *thread transport* of the pool core
(:mod:`repro.parallel.poolcore`): the same partitioned shear-warp frame
as :class:`~repro.parallel.mp_backend.MPRenderPool` — planning, guided
claim/steal compositing, the worker's frame body, completion
accounting and the retry → degrade → fail ledger are all the core's —
but on *threads* instead of forked processes.  The compute-heavy block
kernel spends its time inside numpy ufuncs, which release the GIL, so
threads genuinely overlap there; and a thread pool pays none of the
process pool's structural dispatch costs:

* **no fork** — workers are daemon threads sharing the renderer object
  directly (no copy-on-write snapshot to take or keep coherent);
* **no pickling** — a job is just an ``int`` frame id; plans, images
  and the profiled frame's cost row are the frame record's own objects,
  reached by reference;
* **no shared-memory churn** — each frame composites into a fresh
  private :class:`~repro.render.image.IntermediateImage` /
  :class:`~repro.render.image.FinalImage`, which then *becomes* the
  result (no copy-out, no re-zeroing, no buffer-release protocol).

Concurrency structure
---------------------
Workers receive frame ids through per-worker queues in identical order
and re-join at a shared :class:`threading.Barrier` between a frame's
composite and warp phases, so at most one frame is ever *in* its
composite phase at a time (a worker enters frame ``f+1``'s composite
only after passing frame ``f``'s barrier, which every sibling has then
reached too).  Claim cursors are therefore per-frame numpy arrays
guarded by one persistent lock per worker.  Warp rows are disjoint per
worker by construction.  Each worker reports its own completion under
the pool condition; the worker that reports a frame's last block also
finishes it (profile install, timeline assembly, result hand-off) —
there is no supervisor thread.

What differs from the process transport, all inherent to threads:

* ``timeout_s`` is ignored — a thread cannot die silently (SIGKILL/OOM
  kills the whole process) and cannot be safely terminated, so there is
  nothing for a deadline to recover.  Worker *exceptions* are still
  caught, retried (``max_retries``), degraded to a serial render
  (``degrade_to_serial``) or surfaced as :class:`FrameFailed` by the
  core.
* A retry is a plain tail re-dispatch: it lands behind any frames
  already queued, in the same order on every worker, so barrier pairing
  is preserved, and per-frame images make it clean by construction.
* Images are per-frame, so there is no buffer reuse to gate and
  ``submit`` never blocks; pipelining depth is bounded only by how far
  submission runs ahead of :meth:`~ThreadRenderPool.result` collection
  (each undelivered frame holds its two images in memory).
* ``fault_counters()["worker_restarts"]`` is always 0, and the
  ``TEST_FAULT`` injection hook is never armed.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time

import numpy as np

from ..obs.recorder import RingReader, SpanRecorder
from ..render.image import FinalImage, IntermediateImage
from ..render.serial import ShearWarpRenderer
from .poolcore import (
    PoolConfig,
    PoolCore,
    WorkerContext,
    run_frame,
    seed_claims,
    worker_burn_per_row,
)

__all__ = ["ThreadRenderPool"]


class ThreadRenderPool(PoolCore):
    """Persistent pool of render *threads* sharing the renderer in place.

    The same API as :class:`~repro.parallel.mp_backend.MPRenderPool`
    (``submit`` / ``submit_batch`` / ``render_animation`` / ``result`` /
    ``render`` / ``close`` / context manager, all inherited from
    :class:`~repro.parallel.poolcore.PoolCore`), returning the same
    :class:`~repro.parallel.poolcore.MPRenderResult` shape, so callers
    and benchmarks switch backends through ``PoolConfig(backend=...)``
    and the :func:`repro.open_pool` facade without touching anything
    else.  See the module docstring for the (small) semantic
    differences.
    """

    transport = "thread"

    def __init__(self, renderer: ShearWarpRenderer,
                 config: PoolConfig | None = None) -> None:
        self._threads: list[threading.Thread] = []
        self._queues: list[queue_mod.SimpleQueue] = []
        super().__init__(renderer, config)
        n = self.n_procs
        # One persistent lock per worker's claim cursors.  The barrier
        # keeps at most one frame in its composite phase at any moment,
        # so per-frame claim arrays + these per-worker locks give the
        # exact claim/steal protocol of the MP pool's shm cursor array.
        claim_locks = [threading.Lock() for _ in range(n)]
        self._barrier = threading.Barrier(n)
        self._queues = [queue_mod.SimpleQueue() for _ in range(n)]
        for pid in range(n):
            rec = None
            if self.trace:
                rec = SpanRecorder.in_memory(epoch=self.trace_epoch)
                self._readers.append(RingReader(rec.cursor, rec.records, pid))
            ctx = WorkerContext(
                pid=pid,
                renderer=renderer,
                steal_chunk=self.steal_chunk,
                claim_locks=claim_locks,
                barrier=self._barrier,
                # Per-thread CPU time: the exact analogue of the MP
                # workers' per-process clock, unpolluted by other
                # threads' slices.
                clock=time.thread_time,
                rec=rec,
                burn_per_row=worker_burn_per_row(pid),
            )
            self._threads.append(threading.Thread(
                target=self._worker, args=(ctx,),
                name=f"render-pool-{pid}", daemon=True,
            ))
        for t in self._threads:
            t.start()

    # -- transport seam ------------------------------------------------------

    def _send_locked(self, frames: list[int]) -> None:
        """Fresh images + claim cursors per frame, then one queue
        message (the frame ids) per worker."""
        for frame in frames:
            rec = self._inflight[frame]
            fact = rec["fact"]
            rec["img"] = IntermediateImage(fact.intermediate_shape)
            rec["final"] = FinalImage(fact.final_shape)
            rec["claims"] = None
            if self._steal_active:
                rec["claims"] = np.empty((self.n_procs, 2), dtype=np.int64)
                seed_claims(rec["claims"], rec["boundaries"])
        for q in self._queues:
            q.put(list(frames))

    def _take_images_locked(self, frame: int, rec: dict):
        """No copies — the per-frame images are handed over, not
        extracted from a shared buffer."""
        return rec["img"], rec["final"]

    # -- worker side ---------------------------------------------------------

    def _worker(self, ctx: WorkerContext) -> None:
        """Drain this worker's frame queue until the ``None`` sentinel."""
        rec_tr = ctx.rec
        try:
            t_wait0 = 0.0 if rec_tr is None else rec_tr.now()
            while True:
                batch = self._queues[ctx.pid].get()
                if batch is None:
                    return
                for frame in batch:
                    self._run_frame(ctx, frame, t_wait0)
                    t_wait0 = 0.0 if rec_tr is None else rec_tr.now()
        except Exception as exc:  # noqa: BLE001 - never die silently
            with self._cond:
                self._broken = (
                    f"worker thread {ctx.pid} failed: {type(exc).__name__}: {exc}"
                )
                self._cond.notify_all()

    def _run_frame(self, ctx: WorkerContext, frame: int, t_wait0: float) -> None:
        """One frame's composite + warp on this worker's thread."""
        with self._cond:
            rec = self._inflight.get(frame)
        if rec is None:
            # Retired under us (pool closing mid-batch) — still pair up
            # with the siblings' barrier waits for this frame.
            ctx.barrier.wait()
            return
        pid = ctx.pid
        if ctx.rec is not None:
            ctx.rec.span(frame, "wait", t_wait0, ctx.rec.now())
        boundaries = rec["boundaries"]
        outcome = run_frame(
            ctx, frame, rec["fact"],
            (int(boundaries[pid]), int(boundaries[pid + 1])),
            rec["owner"], rec["rows_by_pid"][pid], rec["costs"],
            rec.get("timestep"), rec["img"], rec["final"], rec["claims"],
        )
        with self._cond:
            self._worker_done_locked(frame, pid, *outcome)
            self._cond.notify_all()

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
