"""Real shared-address-space execution via ``multiprocessing``.

The event-driven model in :mod:`repro.memsim.execution` reproduces the
paper's 1997 platforms; this module runs the new algorithm for real on
a modern multicore host.  The GIL rules out threads for compute-bound
Python, so worker *processes* share the image buffers through
``multiprocessing.shared_memory`` — writes land in truly shared pages,
exactly the shared-address-space programming model of the paper.  The
read-only renderer state (classified volume, RLE encodings) reaches
workers for free through ``fork``.

:class:`MPRenderPool` is the *process transport* of the pool core
(:mod:`repro.parallel.poolcore`).  The core owns everything
backend-neutral — planning and the band-time feedback that balances
it (sections 4.2-4.3), the worker's composite → barrier → warp frame
body, and the frame ledger with its finish → retry → degrade → fail
state machine — and this module supplies what only forked workers over
shared memory need:

* **Persistent workers and two image buffers per worker.**  Fork,
  shared-memory setup and the first slice decodes are paid once.  A
  pool of ``n_procs`` workers keeps ``2 * n_procs`` buffers
  (:attr:`MPRenderPool.buffers`, derived, not a setting): a batch dealt
  solo into an idle pool gives worker ``w`` frames ``w, w + P, w + 2P,
  ...``, so each
  worker alternates between two buffers and the parent's copy-out and
  re-zeroing of one frame overlaps the worker's rendering of its next.
* **Batched dispatch and cross-frame pipelining.**  Each worker gets
  its jobs of a whole batch as *one* message on its own job pipe and
  runs frame to frame without re-synchronizing with the parent; a
  per-buffer *release cursor* in shared memory lets it start frame
  ``f`` the moment the parent has collected frame ``f - buffers``.  A
  message goes out once the buffer of its first frame is free; until
  then the core holds it in the parent, so ``submit`` never waits, the
  job pipes stay shallow however deep the callers queue, and a frame is
  partitioned from the newest band times.
* **The shm doorbell — the one way out.**  Nothing a worker reports is
  pickled: it writes its completion record (frame id, flags, busy
  times — all the feedback the next bands are cut from) into a small
  shared segment and rings a shared event, and the supervisor reads
  completion with a memory scan.  The same segment holds a fixed-size
  text slot per worker for the one variable-sized thing a worker can
  have to say, an exception's message.

Fault tolerance
---------------
The partitioned design only pays off when the runtime survives slow or
failed participants (the lesson of the paper's SVM experience, section
5, where uneven page-fault costs dominated the carefully balanced
compute).  The pool is therefore *self-healing*: a supervisor thread in
the parent watches the doorbell, polls worker sentinels and per-frame
deadlines every :data:`POLL_S` seconds, and on a fault — an OOM-killed
fork, a SIGKILLed or hung worker — stops the worker set, **respawns**
it against the existing shared-memory segments (fresh job pipes,
barrier and bell; rings re-zeroed) and
**resubmits** every lost frame, up to :attr:`PoolConfig.max_retries`
times.  A worker's job pipe has one reader, the worker, and the parent
waits on a full pipe only while the whole set lives and the oldest
frame has not expired (:func:`_write_job`), so a message larger than
the pipe cannot wedge the supervisor behind a dead or hung worker.  An
exception escaping a worker's kernel leaves the set intact and is
retried by re-dispatch — unless the workers already hold
a later frame assigned the same image buffer (the rest of its batch): a
retry queued behind it would reorder buffer reuse, so that failure
escalates to the same full recovery.  When retries are exhausted the
core degrades the frame to an in-parent serial render
(:attr:`PoolConfig.degrade_to_serial`) or fails it with a typed error
(:class:`FrameTimeout`, :class:`WorkerDied`, :class:`FrameFailed`), so
``result()`` never hangs.  Recovery is observable:
``pool/worker_restarts``, ``pool/frames_retried``,
``pool/degraded_frames`` counters and a ``pool/recovery_s`` histogram
in :attr:`MPRenderPool.metrics`, a ``recover`` span on the supervisor's
timeline track when tracing, and :attr:`MPRenderResult.retries` /
:attr:`MPRenderResult.degraded` per frame.

On a single-core host this still runs correctly (and is exercised by
the test suite); the wall-clock speedup study is
``examples/multicore_speedup.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import select
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from ..obs.recorder import RingReader, SpanRecorder, ring_bytes
from ..render.image import FinalImage, IntermediateImage
from ..render.serial import ShearWarpRenderer
from .poolcore import (
    FrameFailed,
    FrameRegion,
    FrameTimeout,
    MPPoolError,
    MPRenderResult,
    PoolClosed,
    PoolConfig,
    PoolCore,
    PoolUnrecoverable,
    WorkerContext,
    WorkerDied,
    armed_fault,
    capacity_shapes,
    run_frame,
    worker_burn_per_row,
)

__all__ = [
    "MPRenderPool",
    "MPRenderResult",
    "PoolConfig",
    "FrameRegion",
    "MPPoolError",
    "FrameFailed",
    "FrameTimeout",
    "WorkerDied",
    "PoolClosed",
    "PoolUnrecoverable",
    "POLL_S",
    "ERR_SLOT_BYTES",
    "ERR_TRUNCATED",
]

#: Supervisor cadence in seconds: how often worker sentinels and frame
#: deadlines are checked while no doorbell rings.  Completions wake the
#: supervisor immediately regardless.
POLL_S = 0.05


# -- doorbell layout ----------------------------------------------------------

#: Floats per doorbell completion cell: ``[frame, flags, t_comp,
#: t_warp]``.  Each cell is written by exactly one worker and read by
#: the parent, so no lock is needed; ``frame`` is stored *last* so a
#: parent that reads the frame id sees the rest of the record.
_CELL_FLOATS = 4

#: Cell flag bit: the worker raised on this frame, and its error slot
#: holds the exception's text.
_FLAG_ERROR = 1

#: Bytes of one worker's error slot (UTF-8, NUL-padded): room for an
#: exception's type and the head of its message.  A longer text is cut
#: on a character boundary and ends in :data:`ERR_TRUNCATED`.
ERR_SLOT_BYTES = 512
ERR_TRUNCATED = " ...[truncated]"


def _doorbell_dtype(n_procs: int, buffers: int) -> np.dtype:
    """The doorbell segment as one record (bytes last: the rest stays
    8-byte aligned).

    ``cells[buf, pid]`` is worker ``pid``'s completion record for the
    frame occupying image buffer ``buf`` and ``errors[buf, pid]`` the
    text behind its :data:`_FLAG_ERROR`; ``release[buf]`` is the last
    frame the parent has fully collected *and re-zeroed* out of that
    buffer — the cursor a worker gates on before writing frame
    ``release[buf] + buffers`` into it.
    """
    return np.dtype([
        ("cells", np.float64, (buffers, n_procs, _CELL_FLOATS)),
        ("release", np.int64, (buffers,)),
        ("errors", np.uint8, (buffers, n_procs, ERR_SLOT_BYTES)),
    ])


def _error_bytes(text: str) -> np.ndarray:
    """``text`` as one error slot's bytes (see :data:`ERR_SLOT_BYTES`)."""
    data = text.encode("utf-8", "replace")
    if len(data) > ERR_SLOT_BYTES:
        marker = ERR_TRUNCATED.encode("utf-8")
        head = data[:ERR_SLOT_BYTES - len(marker)]
        data = head.decode("utf-8", "ignore").encode("utf-8") + marker
    return np.frombuffer(data.ljust(ERR_SLOT_BYTES, b"\0"), np.uint8)


def _write_job(fd: int, batch, sentinels: list[int],
               deadline: float | None = None) -> bool:
    """Write one pickled job message to a worker's non-blocking pipe.

    Waits for room for as long as every worker of the set lives, and
    not past ``deadline`` (a ``time.monotonic()`` instant; ``None``
    waits without one).  A message can outgrow the pipe, and a worker
    only drains it between batches — never while it is dead or hung,
    nor while it waits at the barrier for a sibling that is — so a
    blocking write would wedge its caller, who holds the pool condition
    recovery needs.  Returns False once a worker has died (its pipe then
    raises ``EPIPE``, or its sentinel fires) or the deadline has passed:
    the recovery the health check runs re-sends the frames.
    """
    data = memoryview(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
    while data:
        try:
            data = data[os.write(fd, data):]
        except BlockingIOError:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            dead, room, _ = select.select(sentinels, [fd], [], wait)
            if dead or not room:
                return False
        except BrokenPipeError:
            return False
    return True


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


def _frame_planes(shm_i, shm_f, inter_cap, final_cap, buf: int,
                  fact) -> list[np.ndarray]:
    """Views of the four float32 planes ``fact``'s frame occupies in
    image buffer ``buf``: intermediate color and opacity, final color
    and alpha (each segment holds one pair of capacity-shaped planes
    per buffer; a frame uses their top-left corner)."""
    planes = []
    for shm, cap, (rows, cols) in (
        (shm_i, inter_cap, fact.intermediate_shape),
        (shm_f, final_cap, fact.final_shape),
    ):
        for plane in (0, 1):
            offset = (buf * 2 + plane) * cap[0] * cap[1] * 4
            planes.append(
                np.ndarray(cap, np.float32, buffer=shm.buf, offset=offset)[:rows, :cols]
            )
    return planes


# Serializes forks across pools.  With several pools alive, each pool's
# *supervisor thread* respawns workers after a fault, concurrently with
# other pools' spawns: a pool's pipe read ends, open in the parent from
# ``os.pipe()`` until its fork has happened, must not be inherited by
# another pool's workers forked in between (a stray reader keeps a dead
# worker's pipe open, so the parent's write waits instead of failing),
# and a fork must not snapshot another pool's multiprocessing-object
# creation mid-operation (the shared-heap and resource-tracker locks
# would stay held in the child).
_SPAWN_LOCK = threading.Lock()


def _worker_loop(pid: int, state: dict) -> None:
    """Composite and warp this worker's partition, frame after frame.

    A job-pipe message is ``None`` (shutdown) or a *batch* — a list of
    job tuples the worker runs back to back without returning to the
    pipe.  Between batched frames the worker re-synchronizes with the
    parent only through the per-buffer release cursor (so it never runs
    more than ``buffers`` frames ahead of collection) and, on a banded
    frame, the shared barrier between the frame's two phases.  ``state``
    is what the worker set shares (its pool's segments, pipes, barrier
    and renderer), handed over by the fork itself.
    """
    # Keep only our own read end: once we die, nobody can read our pipe
    # and the parent's write fails instead of waiting for us.
    pipes = state["job_pipes"]
    for q, (r, w) in enumerate(pipes):
        os.close(w)
        if q != pid:
            os.close(r)
    jobs = open(pipes[pid][0], "rb")
    shm_i, shm_f = state["shm_i"], state["shm_f"]
    inter_cap, final_cap = state["inter_cap"], state["final_cap"]
    n_procs: int = state["n_procs"]
    buffers: int = state["buffers"]
    layout = _doorbell_dtype(n_procs, buffers)
    record = np.ndarray((), layout, buffer=state["shm_d"].buf)
    cells, release, err_slots = (record[k] for k in layout.names)
    bell = state["bell"]
    shm_t = state["shm_t"]
    rec = (
        SpanRecorder.over(shm_t.buf, pid, epoch=state["trace_epoch"])
        if shm_t is not None else None
    )
    ctx = WorkerContext(
        pid=pid,
        renderer=state["renderer"],
        barrier=state["barrier"],
        clock=time.process_time,
        rec=rec,
        burn_per_row=worker_burn_per_row(pid),
        # The injected fault is armed only for generation 0: a worker
        # respawned by the supervisor must not re-trip it, so the
        # retried frame can demonstrate recovery.
        fault=armed_fault() if state["generation"] == 0 else None,
    )

    t_wait0 = 0.0 if rec is None else rec.now()
    while True:
        batch = pickle.load(jobs)
        if batch is None:
            return
        for (frame, buf, fact, v_lo, v_hi, owner, final_rows, timestep,
             solo) in batch:
            if rec is not None:
                rec.span(frame, "wait", t_wait0, rec.now())
            # Pipelining gate: frame f may enter buffer f % buffers only
            # once the parent has collected and re-zeroed frame f - buffers.
            _await_release(release, buf, frame, buffers, rec)
            color, opacity, fcolor, falpha = _frame_planes(
                shm_i, shm_f, inter_cap, final_cap, buf, fact
            )
            err, t_comp, t_warp = run_frame(
                ctx, frame, fact, (v_lo, v_hi), owner, final_rows, timestep,
                IntermediateImage.over(color, opacity),
                FinalImage.over(fcolor, falpha), solo,
            )
            # Completion is a shm write, not a pickle: the parent's
            # supervisor reads the cell when the bell rings — and, behind
            # the error flag, this worker's text slot.
            if err is not None:
                err_slots[buf, pid] = _error_bytes(err)
            cell = cells[buf, pid]
            cell[1] = 0 if err is None else _FLAG_ERROR
            cell[2] = t_comp
            cell[3] = t_warp
            cell[0] = frame  # written last: a reader seeing it sees the rest
            bell.set()
            # Within a batch there is no queue wait: the next frame's
            # wait span collapses to ~zero and any stall shows up as a
            # ``doorbell`` span instead.
            t_wait0 = 0.0 if rec is None else rec.now()


class MPRenderPool(PoolCore):
    """Persistent, self-healing pool of render workers sharing
    shared-memory images, two buffers per worker.

    Configure through one :class:`PoolConfig`::

        pool = MPRenderPool(renderer, PoolConfig(n_procs=4))

    (or ``repro.open_pool(renderer, n_procs=4)``).  See
    :class:`PoolConfig` for the meaning of every knob.

    A supervisor thread watches the completion doorbell, worker
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
        A :class:`PoolConfig` (default ``PoolConfig()``).
    """

    transport = "mp"

    def __init__(self, renderer: ShearWarpRenderer,
                 config: PoolConfig | None = None) -> None:
        # Teardown-critical state first, with inert defaults: close() /
        # __del__ must work on a pool whose construction died at *any*
        # later point (bad config, failed shm allocation, fork failure)
        # without AttributeErrors and without leaking shm segments.
        self._workers: list = []
        self._job_fds: list[int] = []  # write ends of the job pipes
        self._shm_i = self._shm_f = self._shm_t = None
        self._shm_d = None
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        super().__init__(renderer, config)
        if mp.get_start_method(allow_none=True) not in (None, "fork"):
            raise RuntimeError("MPRenderPool requires the fork start method")

        self.inter_cap, self.final_cap = capacity_shapes(renderer.shape)
        #: Shared image buffers, cycled across frames: frame ``f``
        #: renders in buffer ``f % buffers``, behind frame ``f - buffers``
        #: if that still holds it.  Two per worker, so a worker dealt
        #: every ``n_procs``-th frame of a batch alternates between two
        #: of its own, and a one-frame stream's frame ``n + 1`` never
        #: waits for frame ``n``.  Derived, not a setting.  An occupant's
        #: retirement re-zeroes what it wrote (``_release_locked``), so a
        #: released buffer is always clean.
        self.buffers = 2 * self.n_procs
        self._generation = 0
        self._health_due = 0.0

        try:
            self._construct()
        except BaseException:
            self.close()
            raise

    def _construct(self) -> None:
        """Fallible half of ``__init__``: shm segments, fork, bookkeeping."""
        inter_floats = self.buffers * 2 * self.inter_cap[0] * self.inter_cap[1]
        final_floats = self.buffers * 2 * self.final_cap[0] * self.final_cap[1]
        self._shm_i = shared_memory.SharedMemory(create=True, size=inter_floats * 4)
        self._shm_f = shared_memory.SharedMemory(create=True, size=final_floats * 4)
        # Zero through numpy views — never a full-size Python bytes object.
        np.ndarray((inter_floats,), np.float32, buffer=self._shm_i.buf).fill(0.0)
        np.ndarray((final_floats,), np.float32, buffer=self._shm_f.buf).fill(0.0)

        # Doorbell segment: everything the workers report — per-buffer
        # completion cells and error slots — plus the release cursors
        # they gate buffer reuse on (batched pipelining).
        layout = _doorbell_dtype(self.n_procs, self.buffers)
        self._shm_d = shared_memory.SharedMemory(create=True, size=layout.itemsize)
        record = np.ndarray((), layout, buffer=self._shm_d.buf)
        self._cells, self._release, self._err_slots = (
            record[k] for k in layout.names
        )
        self._cells.fill(0.0)
        self._cells[:, :, 0] = -1.0  # no frame has completed anywhere
        # Buffer b is born free for frame b: its gate target is b - buffers.
        self._release[:] = np.arange(self.buffers) - self.buffers
        self._last_complete_t = time.monotonic()

        # The span rings are allocated only when tracing so an untraced
        # pool carries no extra segment.
        if self.trace:
            self._shm_t = shared_memory.SharedMemory(
                create=True, size=self.n_procs * ring_bytes()
            )
            self._reset_trace_rings()

        self._spawn_workers(generation=0)
        self._supervisor = threading.Thread(
            target=self._supervise, name="mp-pool-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn_workers(self, generation: int) -> None:
        """Fork a worker set against the existing shared segments.

        Job pipes, barrier and bell are created fresh each generation:
        after a fault the old ones may hold stale jobs, wedged waiters
        or semaphores owned by dead processes, and rebuilding them is
        the only state-reset that needs no cooperation from the
        casualties.
        """
        ctx = mp.get_context("fork")
        with _SPAWN_LOCK:
            # Fresh bell per generation: a terminated worker's last ring
            # must not wake the supervisor into reading its half-written
            # cells (recovery zeroes them before the new set starts).
            self._bell = ctx.Event()
            # The barrier's state lives in a block of multiprocessing's
            # process-global shared heap.  The parent must keep the
            # object referenced while this generation's workers live:
            # dropping it would free the block back to the heap, and the
            # next ``ctx.Barrier`` — e.g. a second pool's — would reuse
            # the same shared memory, aliasing both pools' barrier state
            # and wedging their workers mid-frame.
            self._barrier = ctx.Barrier(self.n_procs)
            pipes = [os.pipe() for _ in range(self.n_procs)]
            self._job_fds = [w for _, w in pipes]
            for fd in self._job_fds:
                os.set_blocking(fd, False)  # see _write_job
            state = dict(
                renderer=self.renderer,
                job_pipes=pipes,
                barrier=self._barrier,
                shm_i=self._shm_i,
                shm_f=self._shm_f,
                inter_cap=self.inter_cap,
                final_cap=self.final_cap,
                n_procs=self.n_procs,
                buffers=self.buffers,
                shm_d=self._shm_d,
                bell=self._bell,
                shm_t=self._shm_t,
                trace_epoch=self.trace_epoch,
                generation=generation,
            )
            try:
                # Under fork, ``args`` reach the child in the fork
                # snapshot, unpickled, and ``start()`` drops the parent's
                # reference.
                self._workers = [
                    ctx.Process(target=_worker_loop, args=(pid, state), daemon=True)
                    for pid in range(self.n_procs)
                ]
                for w in self._workers:
                    w.start()
            finally:
                # Each read end is held by its worker alone.
                for r, _ in pipes:
                    os.close(r)

    def _reset_trace_rings(self) -> None:
        """Zero the span rings and restart the parent-side readers."""
        np.ndarray(
            (self._shm_t.size // 8,), np.float64, buffer=self._shm_t.buf
        ).fill(0.0)
        self._readers = [
            RingReader.over(self._shm_t.buf, pid) for pid in range(self.n_procs)
        ]

    # -- where frames render: the shared buffers ----------------------------

    def _sample_gauges_locked(self) -> None:
        """Also how many shared buffers are still occupied by unfinished
        frames."""
        super()._sample_gauges_locked()
        self.metrics.gauge("pool/buffer_occupancy").set(
            len({frame % self.buffers for frame in self._inflight})
        )

    def _can_start_locked(self, frame: int) -> bool:
        """A message goes out once the frame that had its first frame's
        buffer has retired.  Frames retire in order, so every frame up
        to ``frame - buffers`` has retired by then: every job a pipe
        still holds renders into a buffer already released to it, and no
        worker is gated on the parent — which writes the pipes with the
        pool condition held, and could not release anything while a
        write waited on a backlog."""
        return frame - self.buffers not in self._inflight

    def _send_locked(self, frames: list[int]) -> None:
        """One job-pipe message per worker holding its job for every
        frame of ``frames`` dealt to it (a one-frame list for ``submit``
        and retries); a worker dealt none gets no message.  Gives up
        once a worker has died or the oldest frame has expired: the
        frames stay marked sent, and the recovery the health check then
        runs re-sends them."""
        jobs = [self._prepare_frame_locked(frame) for frame in frames]
        sentinels = [w.sentinel for w in self._workers]
        deadline = self._expiry_locked()
        for pid, fd in enumerate(self._job_fds):
            mine = [per_pid[pid] for per_pid in jobs if pid in per_pid]
            if mine and not _write_job(fd, mine, sentinels, deadline):
                return

    def _prepare_frame_locked(self, frame: int) -> dict[int, tuple]:
        """Ready ``frame``'s buffer and build the jobs of the workers it
        is dealt to, by worker.

        Past the first frame of a message the buffer's last occupant
        may still be in flight.  Its *retirement* then zeroes the images
        (``_release_locked``) before the release cursor lets any worker
        in.
        """
        rec = self._inflight[frame]
        buf = frame % self.buffers
        fact = rec["fact"]
        boundaries = rec["boundaries"]
        if frame - self.buffers not in self._inflight:
            if rec["sent"]:
                # Re-dispatch into a free buffer: clear the lost
                # attempt's partial writes.
                self._zero_images_locked(buf, fact)
            self._cells[buf, :, 0] = -1.0
        rec["deadline"] = (
            time.monotonic() + self.config.timeout_s
            if self.config.timeout_s is not None else None
        )
        return {
            pid: (
                frame,
                buf,
                fact,
                int(boundaries[pid]),
                int(boundaries[pid + 1]),
                rec["owner"],
                rec["rows_by_pid"][pid],
                rec["timestep"],
                rec["solo"] is not None,
            )
            for pid in self._workers_of(rec)
        }

    def _take_images_locked(self, frame: int, rec: dict):
        """Copy a completed frame out of its shared buffer and retire it."""
        t0 = time.perf_counter()
        color, opacity, fcolor, falpha = (
            plane.copy() for plane in self._planes(frame % self.buffers, rec["fact"])
        )
        img = IntermediateImage.over(color, opacity)
        final = FinalImage.over(fcolor, falpha)
        self._release_locked(frame, rec)
        if self._inflight:
            # Workers are compositing later frames while the parent
            # copies this one out: the copy/zero time a per-frame
            # round-trip protocol would serialize is overlapped.
            self.metrics.counter("pool/pipeline_overlap_s").inc(
                time.perf_counter() - t0
            )
        return img, final

    def _planes(self, buf: int, fact) -> list[np.ndarray]:
        return _frame_planes(self._shm_i, self._shm_f, self.inter_cap,
                             self.final_cap, buf, fact)

    def _zero_images_locked(self, buf: int, fact) -> None:
        """Zero the image regions ``fact``'s frame writes in ``buf``.

        Outside those regions the buffer stays zero by induction: every
        retiring occupant cleans exactly what it wrote.
        """
        for plane in self._planes(buf, fact):
            plane.fill(0.0)

    def _release_locked(self, frame: int, rec: dict) -> None:
        """Release ``frame``'s buffer to its next occupant.

        Zeroes the regions the frame wrote, resets the buffer's
        completion cells, and only *then* bumps the release cursor — the
        cursor is the happens-before edge the gated worker spins on, so
        everything written here is visible before any worker touches the
        buffer.
        Also re-arms the progress clock the frame deadlines run on, and
        sends whatever message was held back for this buffer.
        """
        buf = frame % self.buffers
        if rec["sent"]:
            self._zero_images_locked(buf, rec["fact"])
        self._cells[buf, :, 0] = -1.0
        if self._release[buf] < frame:
            self._release[buf] = frame
        self._last_complete_t = time.monotonic()
        self._feed_locked()

    # -- supervision ---------------------------------------------------------

    def _raise_if_dead(self) -> None:
        sup = self._supervisor
        if sup is None or not sup.is_alive():
            raise PoolUnrecoverable("supervisor thread died")

    def _supervise(self) -> None:
        """Watch the doorbell, sentinels and deadlines; recover.

        Runs in a daemon thread for the pool's whole life.  Completions
        are handled the moment the bell rings; health (worker
        sentinels, per-frame deadlines) is checked at most every
        :data:`POLL_S` seconds so a busy pool pays a bounded supervision
        cost.

        The bell is cleared *before* the cells are read: a cell written
        after the read re-rings it, so no completion is ever missed.
        """
        while not self._stop.is_set():
            bell = self._bell
            bell.wait(POLL_S)
            bell.clear()
            with self._cond:
                if self._closed or self._stop.is_set():
                    return
                try:
                    self._process_doorbell_locked()
                    now = time.monotonic()
                    if now >= self._health_due:
                        self._health_due = now + POLL_S
                        self._check_health_locked()
                except Exception as exc:  # noqa: BLE001 - never die silently
                    self._broken = (
                        f"supervisor failure: {type(exc).__name__}: {exc}"
                    )
                finally:
                    self._cond.notify_all()
                if self._broken is not None:
                    return

    def _process_doorbell_locked(self) -> None:
        """Account frames whose completion cells are all filled in.

        Frames retire in frame order: scan from the oldest in-flight
        frame and stop at the first incomplete one — the cells of the
        workers it was dealt to — even when a sibling dealt a later solo
        frame has finished that one already.  Each such worker's cell
        (plus the text in its error slot, if it flags one) is handed to
        the core's accounting, whose last call finishes the frame.
        """
        while self._inflight:
            frame = min(self._inflight)
            buf = frame % self.buffers
            cells = self._cells[buf]
            pids = self._workers_of(self._inflight[frame])
            if not all(cells[pid, 0] == frame for pid in pids):
                return
            for pid in pids:
                _, flags, t_comp, t_warp = cells[pid]
                err = None
                if int(flags) & _FLAG_ERROR:
                    err = bytes(self._err_slots[buf, pid]).rstrip(b"\0").decode()
                self._worker_done_locked(frame, pid, err, t_comp, t_warp)
            if frame in self._inflight:
                return  # re-dispatched (retry/recovery) — wait afresh

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
        expiry = self._expiry_locked()
        expired = (
            [min(self._inflight)]
            if expiry is not None and time.monotonic() > expiry else []
        )
        if dead or expired:
            self._recover_locked(dead, expired)

    def _expiry_locked(self) -> float | None:
        """When the oldest in-flight frame expires (``None``: never)."""
        timeout = self.config.timeout_s
        if not self._inflight or timeout is None:
            return None
        deadline = self._inflight[min(self._inflight)].get("deadline")
        if deadline is None:
            return None
        return max(deadline, self._last_complete_t + timeout)

    def _retry_locked(self, frame: int, cause: str) -> None:
        """A worker raised but the set is intact: re-dispatch — the
        frame's buffer regions stay marked dirty, so the re-dispatch
        zeroes whatever was written — unless the workers already hold
        a later frame assigned the same buffer."""
        nxt = self._inflight.get(frame + self.buffers)
        if nxt is not None and nxt["sent"]:
            # A retry appended *behind* that frame's job would reorder
            # buffer reuse.  Escalate to full recovery instead: pipes
            # are rebuilt and every unfinished frame is re-dispatched in
            # order (finished frames are already materialized and are
            # not re-rendered).
            self._recover_locked([], [], cause=f"frame {frame}: {cause}")
        else:
            self._redispatch_locked(frame)

    def _recover_locked(self, dead: list[int], expired: list[int],
                        cause: str | None = None) -> None:
        """Rebuild the worker set and re-dispatch the lost frames.

        A dead or wedged worker poisons everything downstream of the
        shared barrier, so recovery stops the *whole* set: terminate
        all workers, rebuild pipes/barrier/bell, respawn against the
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
                w.close()  # its sentinel pipe
            except Exception:  # noqa: BLE001
                pass
        self.metrics.counter("pool/worker_restarts").inc(len(self._workers))
        self._workers = []
        self._close_job_pipes()
        # The old generation's completion cells are stale; the
        # re-dispatch below rebuilds them, and sends the held messages'
        # frames along with the lost ones.
        self._cells[:, :, 0] = -1.0
        self._held.clear()

        # Retire or retry every in-flight frame the workers had been
        # sent (a held one lost nothing and keeps its retries).
        for frame in sorted(self._inflight):
            if not self._inflight[frame]["sent"]:
                continue
            attempt = self._inflight[frame]["attempt"]
            if attempt < self.config.max_retries:
                self._count_retry_locked(frame)
                continue
            exc_type = FrameTimeout if frame in expired else WorkerDied
            self._exhausted_locked(frame, exc_type(
                f"frame {frame} lost ({cause}) after "
                f"{attempt} retr{'y' if attempt == 1 else 'ies'}"
            ))

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
                self._exhausted_locked(frame, PoolUnrecoverable(self._broken))
            return

        frames = sorted(self._inflight)
        self._dispatch_locked(frames)
        if self._sup_rec is not None:
            for frame in frames:
                self._sup_rec.span(frame, "recover", trec0, self._sup_rec.now())
        self.metrics.histogram("pool/recovery_s").observe(
            time.perf_counter() - t0
        )

    # -- teardown ------------------------------------------------------------

    def _close_job_pipes(self) -> None:
        for fd in self._job_fds:
            os.close(fd)
        self._job_fds = []

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
        # drain its pipe through to the shutdown sentinel.
        release = getattr(self, "_release", None)
        if release is not None:
            release[:] = np.iinfo(np.int64).max // 2
        # Wake the supervisor out of its bell wait, then wait for it —
        # after this no thread touches the pool's state.
        bell = getattr(self, "_bell", None)
        if bell is not None:
            try:
                bell.set()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        sup = getattr(self, "_supervisor", None)
        if (
            sup is not None and sup.is_alive()
            and sup is not threading.current_thread()
        ):
            sup.join(timeout=5.0)
        # A worker whose start() never ran has no sentinel and no exit.
        workers = [w for w in getattr(self, "_workers", []) if w.pid is not None]
        for fd in getattr(self, "_job_fds", []):
            try:  # returns at once if a worker of the set is dead
                _write_job(fd, None, [w.sentinel for w in workers])
            except OSError:
                pass

        def join_all(ws, timeout: float) -> list:
            # One deadline for the whole set, not one per worker: a
            # wedged set takes five seconds to close whatever its size.
            deadline = time.monotonic() + timeout
            for w in ws:
                try:
                    w.join(max(0.0, deadline - time.monotonic()))
                except Exception:  # noqa: BLE001 - teardown must not raise
                    pass
            return [w for w in ws if w.is_alive()]

        survivors = join_all(workers, 5.0)
        for w in survivors:
            try:
                w.terminate()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        for w in join_all(survivors, 2.0):
            try:
                w.kill()
                w.join()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        for w in workers:
            try:
                w.close()  # its sentinel pipe
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        if getattr(self, "_job_fds", None):
            self._close_job_pipes()
        for name in ("_shm_i", "_shm_f", "_shm_t", "_shm_d"):
            shm = getattr(self, name, None)
            if shm is None:
                continue
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass  # already unlinked
