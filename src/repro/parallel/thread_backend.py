"""Fork-free threading transport for the render pool: the test transport.

:class:`ThreadRenderPool` is the *thread transport* of the pool core
(:mod:`repro.parallel.poolcore`): the same partitioned shear-warp frame
as :class:`~repro.parallel.mp_backend.MPRenderPool` — planning, the
worker's frame body, completion accounting and the retry → degrade →
fail ledger are all the core's — but on *threads* instead of forked
processes.  It is not offered to users (no CLI flag selects it): on a
2-vCPU host it takes 1.6× the serial time a frame on a batch and 2.5×
on a one-frame stream, a gap no pure-NumPy kernel change closed
(ROADMAP item 16).  It stays for two readers:

* the tests, which drive the shared ledger through it with no fork, no
  pickling and no shared memory — a fault hook or a monkeypatch is seen
  by every worker at once, and a hung test fails instead of leaving
  processes behind;
* the benchmark's baseline probe, ``open_pool(n_procs=2,
  backend="thread")``.

Its workers are daemon threads sharing the renderer object directly; a
job is just an ``int`` frame id; each frame composites into a fresh
private :class:`~repro.render.image.IntermediateImage` /
:class:`~repro.render.image.FinalImage`, which then *becomes* the
result (no copy-out, no re-zeroing, no buffer-release protocol).

Concurrency structure
---------------------
Workers receive frame ids through per-worker queues.  A banded frame
goes to every queue, in the same order on all, and its workers re-join
at a shared :class:`threading.Barrier` between its composite and warp
phases.  A solo frame goes to its owner's queue alone and never touches
the barrier.  Composite bands and warp rows are disjoint per worker by
construction.  Each worker reports its own completion under the pool
condition; the worker that reports a frame's last block also finishes
it (band-time install, timeline assembly, result hand-off) — there is no
supervisor thread.

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

from ..obs.recorder import RingReader, SpanRecorder
from ..render.image import FinalImage, IntermediateImage
from ..render.serial import ShearWarpRenderer
from .poolcore import (
    PoolConfig,
    PoolCore,
    WorkerContext,
    run_frame,
    worker_burn_per_row,
)

__all__ = ["ThreadRenderPool"]


class ThreadRenderPool(PoolCore):
    """Persistent pool of render *threads* sharing the renderer in place.

    The same API as :class:`~repro.parallel.mp_backend.MPRenderPool`
    (``submit`` / ``submit_batch`` / ``render_animation`` / ``result`` /
    ``render`` / ``close`` / context manager, all inherited from
    :class:`~repro.parallel.poolcore.PoolCore`), returning the same
    :class:`~repro.parallel.poolcore.MPRenderResult` shape; opened with
    ``PoolConfig(backend="thread")`` through :func:`repro.open_pool`.
    See the module docstring for the (small) semantic differences.
    """

    transport = "thread"

    def __init__(self, renderer: ShearWarpRenderer,
                 config: PoolConfig | None = None) -> None:
        self._threads: list[threading.Thread] = []
        self._queues: list[queue_mod.SimpleQueue] = []
        super().__init__(renderer, config)
        n = self.n_procs
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
        """Fresh images per frame, then one queue message — ``(frame
        id, solo)`` pairs of the frames dealt to it — per worker that
        was dealt any."""
        jobs: list[list[tuple[int, bool]]] = [[] for _ in self._queues]
        for frame in frames:
            rec = self._inflight[frame]
            fact = rec["fact"]
            rec["img"] = IntermediateImage(fact.intermediate_shape)
            rec["final"] = FinalImage(fact.final_shape)
            solo = rec["solo"] is not None
            for pid in self._workers_of(rec):
                jobs[pid].append((frame, solo))
        for q, mine in zip(self._queues, jobs):
            if mine:
                q.put(mine)

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
                for frame, solo in batch:
                    self._run_frame(ctx, frame, solo, t_wait0)
                    t_wait0 = 0.0 if rec_tr is None else rec_tr.now()
        except Exception as exc:  # noqa: BLE001 - never die silently
            with self._cond:
                self._broken = (
                    f"worker thread {ctx.pid} failed: {type(exc).__name__}: {exc}"
                )
                self._cond.notify_all()

    def _run_frame(self, ctx: WorkerContext, frame: int, solo: bool,
                   t_wait0: float) -> None:
        """One frame's composite + warp on this worker's thread."""
        with self._cond:
            rec = self._inflight.get(frame)
        if rec is None:
            # Retired under us (pool closing mid-batch) — still pair up
            # with the siblings' barrier waits for a banded frame.
            if not solo:
                ctx.barrier.wait()
            return
        pid = ctx.pid
        if ctx.rec is not None:
            ctx.rec.span(frame, "wait", t_wait0, ctx.rec.now())
        boundaries = rec["boundaries"]
        outcome = run_frame(
            ctx, frame, rec["fact"],
            (int(boundaries[pid]), int(boundaries[pid + 1])),
            rec["owner"], rec["rows_by_pid"][pid], rec.get("timestep"),
            rec["img"], rec["final"], solo,
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
