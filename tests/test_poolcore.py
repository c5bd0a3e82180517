"""The pool core's frame ledger, driven by an in-process fake transport.

No fork, no worker threads: the fake transport parks dispatched frames
in a list and the test plays the workers itself — running the core's
real :func:`run_frame` body on a one-worker pool, or reporting an
outcome (an error, or a clean report with no pixels) in its place.  The
finish → retry → degrade → fail state machine is therefore stated once
here against a transport that cannot race; the same contract is run
over every real backend by ``tests/test_conformance.py``, and the mp and
thread suites cover what only their transports add (processes dying,
buffers, threads).
"""

import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.parallel.poolcore as poolcore
from repro.obs.metrics import MetricsRegistry
from repro.parallel.poolcore import (
    FrameFailed,
    FramePlanner,
    PoolClosed,
    PoolConfig,
    PoolCore,
    WorkerContext,
    run_frame,
)
from repro.render.image import FinalImage, IntermediateImage

from .conftest import assert_frames_identical, serial_refs


class _NoBarrier:
    def wait(self) -> None:
        pass


class FakePool(PoolCore):
    """Synchronous 'workers': dispatched frames wait in ``sent`` until
    the test calls :meth:`work` (the one worker of a one-worker pool)
    or reports them itself; ``messages`` logs every message the ledger
    sends."""

    transport = "fake"

    def __init__(self, renderer, config):
        super().__init__(renderer, config)
        self.sent: list[int] = []
        self.released: list[int] = []
        #: Per message sent, per frame: (frame, attempt, solo owner or
        #: None, profiled, the workers it was dealt to).
        self.messages: list[list[tuple]] = []
        #: Per message sent, the load it found out with the workers: how
        #: many frames sent before it were still in flight, and how many
        #: of them each worker had been dealt.
        self.loads: list[tuple[int, list[int]]] = []
        self.ctx = WorkerContext(
            pid=0, renderer=renderer, barrier=_NoBarrier(),
            clock=time.process_time,
        )

    def _send_locked(self, frames):
        out = [rec for f, rec in self._inflight.items()
               if rec["sent"] and f not in frames]
        self.loads.append((len(out), [
            sum(pid in self._workers_of(rec) for rec in out)
            for pid in range(self.n_procs)]))
        for frame in frames:
            rec = self._inflight[frame]
            rec["img"] = IntermediateImage(rec["fact"].intermediate_shape)
            rec["final"] = FinalImage(rec["fact"].final_shape)
        self.sent.extend(frames)
        self.messages.append([
            (f, self._inflight[f]["attempt"], self._inflight[f]["solo"],
             self._inflight[f]["profiled"],
             tuple(self._workers_of(self._inflight[f])))
            for f in frames
        ])

    def _take_images_locked(self, frame, rec):
        return rec["img"], rec["final"]

    def _release_locked(self, frame, rec):
        self.released.append(frame)

    def _retry_locked(self, frame, cause):
        self._redispatch_locked(frame)

    def close(self):
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def work(self, fail: str | None = None) -> int:
        """Play the worker for the oldest dispatched frame; ``fail``
        reports that error text instead of rendering."""
        assert self.n_procs == 1
        frame = self.sent.pop(0)
        with self._cond:
            rec = self._inflight[frame]
            b = rec["boundaries"]
            outcome = (fail, 0.0, 0.0) if fail else run_frame(
                self.ctx, frame, rec["fact"], (int(b[0]), int(b[1])),
                rec["owner"], rec["rows_by_pid"][0], rec["costs"],
                rec.get("timestep"), rec["img"], rec["final"],
            )
            self._worker_done_locked(frame, 0, *outcome)
            self._cond.notify_all()
        return frame


def _views(renderer, n=3):
    return [renderer.view_from_angles(20, 30 + 4 * i, 2 * i) for i in range(n)]


def _pool(renderer, **overrides):
    return FakePool(renderer, PoolConfig(n_procs=1, **overrides))


class TestLedger:
    def test_success_is_bit_identical_and_feeds_the_profile(self, renderer):
        views = _views(renderer)
        with _pool(renderer) as pool:
            frames = pool.submit_batch(views)
            assert pool.sent == frames == [0, 1, 2]
            for _ in frames:
                pool.work()
            results = [pool.result(f) for f in frames]
            assert pool._planner.profile is not None  # installed on finish
            assert pool.fault_counters() == {
                "worker_restarts": 0, "frames_retried": 0, "degraded_frames": 0,
            }
            assert pool.metrics.counter("pool/profiled_frames").value == 1
        for view, res in zip(views, results):
            assert_frames_identical([res], serial_refs(renderer, [view]))
            assert res.retries == 0 and not res.degraded
            assert res.busy_s.shape == (1,)
        # One request for the batch's one key, answered by its first frame.
        assert [res.profiled for res in results] == [True, False, False]
        assert [res.costs is not None for res in results] == [True, False, False]
        assert pool.released == []  # images were taken, not dropped

    def test_worker_error_retries_then_succeeds(self, renderer):
        view = _views(renderer, 1)[0]
        with _pool(renderer, max_retries=2, degrade_to_serial=False) as pool:
            frame = pool.submit(view)
            pool.work(fail="Boom: injected")
            assert pool.sent == [frame]  # re-dispatched, same id
            assert pool.fault_counters()["frames_retried"] == 1
            pool.work()
            res = pool.result(frame)
        assert_frames_identical([res], serial_refs(renderer, [view]))
        assert res.retries == 1 and not res.degraded

    def test_retries_exhausted_degrades_bit_identical(self, renderer):
        view = _views(renderer, 1)[0]
        with _pool(renderer, max_retries=1, degrade_to_serial=True) as pool:
            frame = pool.submit(view)
            pool.work(fail="Boom: first")
            pool.work(fail="Boom: second")
            assert pool.sent == [] and pool.released == [frame]
            res = pool.result(frame)
            assert pool.fault_counters() == {
                "worker_restarts": 0, "frames_retried": 1, "degraded_frames": 1,
            }
        assert_frames_identical([res], serial_refs(renderer, [view]))
        assert res.degraded and res.retries == 1
        assert res.busy_s is None and res.timeline is None

    def test_degrade_off_fails_typed_and_idempotent(self, renderer):
        views = _views(renderer, 2)
        with _pool(renderer, max_retries=0, degrade_to_serial=False) as pool:
            bad, good = pool.submit_batch(views)
            pool.work(fail="Boom: injected")
            pool.work()
            with pytest.raises(FrameFailed, match="worker 0: Boom: injected") as first:
                pool.result(bad)
            with pytest.raises(FrameFailed) as again:
                pool.result(bad)
            assert again.value is first.value  # the same error, every call
            assert pool.released == [bad]
            # The failure is the frame's own: its batch-mate is untouched.
            assert_frames_identical([pool.result(good)],
                                    serial_refs(renderer, [views[1]]))

    def test_unknown_frame_is_a_key_error(self, renderer):
        with _pool(renderer) as pool:
            with pytest.raises(KeyError):
                pool.result(7)
            frame = pool.submit(_views(renderer, 1)[0])
            pool.work()
            pool.result(frame)
            with pytest.raises(KeyError):  # delivered results are handed over once
                pool.result(frame)

    def test_results_collect_out_of_order(self, renderer):
        views = _views(renderer)
        with _pool(renderer) as pool:
            frames = [pool.submit(v) for v in views]
            for _ in frames:
                pool.work()
            got = {f: pool.result(f) for f in reversed(frames)}
        for view, frame in zip(views, frames):
            assert_frames_identical([got[frame]], serial_refs(renderer, [view]))

    def test_close_wakes_a_waiter_with_pool_closed(self, renderer):
        pool = _pool(renderer)
        frame = pool.submit(_views(renderer, 1)[0])  # never worked on
        caught = []

        def wait():
            try:
                pool.result(frame)
            except Exception as exc:  # noqa: BLE001 - asserted below
                caught.append(exc)

        waiter = threading.Thread(target=wait)
        waiter.start()
        time.sleep(0.05)
        pool.close()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert len(caught) == 1 and isinstance(caught[0], PoolClosed)
        with pytest.raises(PoolClosed):
            pool.submit(_views(renderer, 1)[0])

    def test_traced_frames_assemble_timelines(self, renderer, tmp_path):
        from repro.obs.recorder import RingReader, SpanRecorder

        with _pool(renderer, trace=True) as pool:
            rec = SpanRecorder.in_memory(epoch=pool.trace_epoch)
            pool.ctx.rec = rec
            pool._readers.append(RingReader(rec.cursor, rec.records, pid=0))
            frames = pool.submit_batch(_views(renderer, 2))
            for _ in frames:
                pool.work()
            results = [pool.result(f) for f in frames]
            pool.export_chrome_trace(str(tmp_path / "trace.json"))
        for res in results:
            phases = {s.phase for s in res.timeline.spans}
            assert {"decode", "composite", "barrier", "warp"} <= phases
        assert "dispatch" in {s.phase for s in results[0].timeline.spans}
        assert len(pool.timelines) == 2


class TwoSlotPool(FakePool):
    """A :class:`FakePool` with the process transport's admission rule,
    two buffers a worker: frame ``f`` can start once frame
    ``f - 2 * n_procs`` has left the pool."""

    def _can_start_locked(self, frame):
        return frame - 2 * self.n_procs not in self._inflight

    def _take_images_locked(self, frame, rec):
        self._feed_locked()
        return super()._take_images_locked(frame, rec)

    def _release_locked(self, frame, rec):
        super()._release_locked(frame, rec)
        self._feed_locked()


class TestHeldMessages:
    """Admission never waits: a message whose first frame cannot start
    is held in the parent and partitioned when it is sent — so a loop of
    ``submit`` calls pipelines *and* closes the feedback loop."""

    @staticmethod
    def _pool(renderer, **overrides):
        return TwoSlotPool(renderer, PoolConfig(n_procs=1, **overrides))

    def test_held_frame_is_partitioned_from_what_was_measured_meanwhile(
            self, renderer):
        views = _views(renderer, 4)
        with self._pool(renderer) as pool:
            frames = [pool.submit(v) for v in views]
            assert frames == [0, 1, 2, 3] and pool.sent == [0, 1]
            assert list(pool._held) == [[2], [3]]
            # Admitted (a record, a frame id) but not partitioned yet.
            assert "boundaries" not in pool._inflight[2]
            assert pool._planner.profile is None
            pool.work()  # frame 0 retires: its profile is installed ...
            assert pool.sent == [1, 2] and list(pool._held) == [[3]]
            measured = pool._planner.profile
            assert measured is not None  # ... before frame 2 was cut
            pool.work()
            pool.work()
            pool.work()
            results = [pool.result(f) for f in frames]
            assert not pool._held
            assert pool._planner.profile is measured  # nothing re-profiled
        assert [r.profiled for r in results] == [True, False, False, False]
        for view, res in zip(views, results):
            assert_frames_identical([res], serial_refs(renderer, [view]))

    def test_second_batch_waits_whole_behind_the_first(self, renderer):
        views = _views(renderer, 3)
        with self._pool(renderer) as pool:
            first = pool.submit_batch(views)
            second = pool.submit_batch(views[:2])
            assert pool.sent == first and list(pool._held) == [second]
            pool.work()
            assert pool.sent == [1, 2]  # frame 3 still waits for frame 1
            pool.work()
            assert pool.sent == [2, 3, 4]  # ... and takes frame 4 along
            for _ in range(3):
                pool.work()
            results = [pool.result(f) for f in first + second]
        for view, res in zip(views + views[:2], results):
            assert_frames_identical([res], serial_refs(renderer, [view]))

    def test_retry_goes_ahead_of_what_is_held(self, renderer):
        views = _views(renderer, 4)
        with self._pool(renderer, max_retries=1) as pool:
            frames = [pool.submit(v) for v in views]
            pool.work(fail="Boom: injected")
            # Frame 0 is still in flight, so frame 2 stays held behind
            # its retry; the held frames have used none of their retries.
            assert pool.sent == [1, 0] and list(pool._held) == [[2], [3]]
            assert pool.fault_counters()["frames_retried"] == 1
            pool.work()  # frame 1: frame 3 is not sent past frame 2
            assert pool.sent == [0] and list(pool._held) == [[2], [3]]
            pool.work()
            assert pool.sent == [2, 3]
            pool.work()
            pool.work()
            results = [pool.result(f) for f in frames]
        assert [r.retries for r in results] == [1, 0, 0, 0]
        for view, res in zip(views, results):
            assert_frames_identical([res], serial_refs(renderer, [view]))

    def test_refused_view_leaves_no_planner_state(self, renderer):
        """Admission reads nothing of the feedback loop: a batch refused
        for one view plans nothing and requests no profile for its mates."""
        good = _views(renderer, 1)[0]
        bad = good.copy()
        bad[:3, :3] *= 3.0  # upscales the image beyond capacity
        with self._pool(renderer) as pool:
            pool.inter_cap, pool.final_cap = poolcore.capacity_shapes(
                renderer.shape)
            with pytest.raises(RuntimeError, match="capacity"):
                pool.submit_batch([good, bad])
            planner = pool._planner
            assert planner._planned == 0 and not planner._outstanding
            assert not pool._inflight
            assert pool.submit(good) == 0


class TestCostRow:
    """A profiled frame's costs, written in place by the workers
    (``run_frame``) into the frame's one cost row: the calibration the
    partition is balanced on, on every transport."""

    @staticmethod
    def _open(renderer, transport):
        if transport == "fake":
            return _pool(renderer)
        return repro.open_pool(renderer, n_procs=2, backend=transport)

    @staticmethod
    def _render(pool, view):
        if isinstance(pool, FakePool):
            frame = pool.submit(view)
            pool.work()
            return pool.result(frame)
        return pool.render(view)

    @pytest.mark.parametrize("transport", ["mp", "thread", "fake"])
    def test_calibrated_costs_cover_the_band_and_outlive_the_buffer(
            self, renderer, transport, monkeypatch):
        # A slowed worker 0, so the workers' rows cost unlike amounts.
        # Every synchronous frame is profiled.
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.004))
        monkeypatch.setattr(poolcore, "PROFILE_REUSE", 1)
        views = _views(renderer)
        pool = self._open(renderer, transport)
        try:
            results = [self._render(pool, views[0])]
            first = results[0]
            installed = pool._planner.profile
            # Private copies, not views of the buffer's shared row —
            # which is unmapped by the time they are read again below.
            assert first.costs.flags.owndata and installed.costs.flags.owndata
            kept = first.costs.copy(), installed.costs.copy()
            # Two more profiled frames: on the process pool the second
            # of them renders in the buffer ``first`` was measured in.
            results += [self._render(pool, v) for v in views[1:]]
            assert np.array_equal(first.costs, kept[0])
            assert np.array_equal(installed.costs, kept[1])
        finally:
            pool.close()
        for res in results:
            v_lo, v_hi = int(res.boundaries[0]), int(res.boundaries[-1])
            assert res.profiled and res.costs_v_lo == v_lo
            assert res.costs.shape == (v_hi - v_lo,)
            assert np.isfinite(res.costs).all() and (res.costs >= 0).all()
            # Each worker's band is scaled to its compositing CPU time,
            # and its warp share adds its warp CPU time.
            assert np.isclose(res.costs.sum(), res.busy_s.sum())
        assert installed.v_lo == first.costs_v_lo
        assert np.array_equal(first.costs, kept[0])
        assert np.array_equal(installed.costs, kept[1])


class TestProfileRequests:
    """Which frames the planner marks profiled (section 4.2): a frame of a
    key with no profile, and one :data:`~poolcore.PROFILE_REUSE` frames
    after the key's last request — never while that request is still
    outstanding, so a batch, cut before any of its frames completes,
    asks once per key."""

    #: Two degrees a frame from 30: the principal axis switches once,
    #: near 45 degrees.
    SWITCH = [30 + 2 * i for i in range(20)]

    @staticmethod
    def _plan(planner, renderer, angles):
        return [planner.partition(planner.admit(renderer.view_from_angles(20, ry, 0)))
                for ry in angles]

    @staticmethod
    def _profiled(plans):
        return {i for i, p in enumerate(plans) if p["profiled"]}

    @staticmethod
    def _planner(renderer):
        return FramePlanner(renderer, 2, MetricsRegistry())

    @staticmethod
    def _batch_on_the_fake_transport(renderer, angles):
        with _pool(renderer) as pool:
            frames = pool.submit_batch(
                [renderer.view_from_angles(20, ry, 0) for ry in angles])
            for _ in frames:
                pool.work()
            results = [pool.result(f) for f in frames]
        return results, {i for i, r in enumerate(results) if r.profiled}

    def test_batch_profiles_one_frame_per_key(self, renderer):
        angles = [10 + i for i in range(20)]
        plans = self._plan(self._planner(renderer), renderer, angles)
        assert len({p["key"] for p in plans}) == 1
        assert self._profiled(plans) == {0}
        assert self._batch_on_the_fake_transport(renderer, angles)[1] == {0}

    def test_axis_switch_adds_its_first_frame_only(self, renderer):
        plans = self._plan(self._planner(renderer), renderer, self.SWITCH)
        keys = [p["key"] for p in plans]
        first_new = next(i for i, k in enumerate(keys) if k != keys[0])
        assert len(set(keys)) == 2
        assert self._profiled(plans) == {0, first_new}
        results, profiled = self._batch_on_the_fake_transport(renderer, self.SWITCH)
        assert [(r.fact.axis, r.fact.perm) for r in results] == keys
        assert profiled == {0, first_new}

    def test_installed_profile_leaves_only_the_schedule(self, renderer):
        """Installed as soon as measured, a key's profile is reused for
        PROFILE_REUSE frames, then requested afresh."""
        planner = self._planner(renderer)
        plans = []
        for ry in range(10, 22):
            plan = self._plan(planner, renderer, [ry])[0]
            if plan["profiled"]:
                planner.install_profile(plan["v_lo"],
                                        np.ones(plan["v_hi"] - plan["v_lo"]),
                                        plan["key"])
            plans.append(plan)
        assert self._profiled(plans) == {0, 5, 10}
        # The profile is gone again after an axis switch: asked for once.
        plans = self._plan(planner, renderer, [60, 61, 62])
        assert self._profiled(plans) == {0}

    def test_a_lost_profile_is_asked_for_by_the_next_frame(self, renderer):
        """A request whose frame fails or degrades is dropped, reuse
        clock and all: the next frame of the key asks again, although
        the key's old profile has not aged PROFILE_REUSE frames since."""
        planner = self._planner(renderer)
        first = self._plan(planner, renderer, [10])[0]
        planner.install_profile(first["v_lo"], np.ones(first["v_hi"] - first["v_lo"]),
                                first["key"])
        plans = self._plan(planner, renderer, [11, 12, 13, 14, 15, 16])
        assert self._profiled(plans) == {4}  # frame 5: the profile is stale
        plans = self._plan(planner, renderer, [17])
        assert self._profiled(plans) == set()  # still outstanding
        planner.drop_request(first["key"])  # frame 5 was lost
        plans = self._plan(planner, renderer, [18, 19])
        assert self._profiled(plans) == {0}

    def test_synchronous_render_profiles_frame_zero_and_every_fifth(
            self, renderer):
        with _pool(renderer) as pool:
            profiled = set()
            for i in range(12):
                frame = pool.submit(renderer.view_from_angles(20, 10 + i, 0))
                pool.work()
                if pool.result(frame).profiled:
                    profiled.add(i)
        assert profiled == {0, 5, 10}

    @settings(max_examples=20, deadline=None)
    @given(reuse=st.integers(1, 7), n=st.integers(1, 16))
    def test_one_key_stream_profiles_every_reuse_th_frame(self, renderer,
                                                          reuse, n):
        saved = poolcore.PROFILE_REUSE
        poolcore.PROFILE_REUSE = reuse
        try:
            with _pool(renderer) as pool:
                profiled = set()
                for i in range(n):
                    frame = pool.submit(renderer.view_from_angles(20, 10 + 0.5 * i, 0))
                    pool.sent.pop(0)
                    with pool._cond:  # a clean report: no pixels needed
                        pool._worker_done_locked(frame, 0, None, 0.0, 0.0)
                    if pool.result(frame).profiled:
                        profiled.add(i)
        finally:
            poolcore.PROFILE_REUSE = saved
        assert profiled == set(range(0, n, reuse))


class TestRequestRule:
    """The request rule as invariants over random traffic on the fake
    transport with the process pool's two-slot admission: batches of
    one to four frames on either of two principal axes, each frame
    reported done or failed as it reaches the worker, and retries that
    run out into a degraded or failed frame."""

    #: ``ry`` of a view on each of two principal axes.
    AXES = (10.0, 60.0)

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(st.one_of(
            st.tuples(st.just("submit"), st.integers(1, 4), st.integers(0, 1)),
            st.tuples(st.just("report"), st.booleans()),
        ), min_size=1, max_size=30),
        degrade=st.booleans(),
        retries=st.integers(0, 1),
        reuse=st.integers(1, 4),
    )
    def test_invariants(self, renderer, ops, degrade, retries, reuse):
        saved = poolcore.PROFILE_REUSE
        poolcore.PROFILE_REUSE = reuse
        try:
            self._drive(renderer, ops, degrade, retries)
        finally:
            poolcore.PROFILE_REUSE = saved

    def _drive(self, renderer, ops, degrade, retries):
        pool = TwoSlotPool(renderer, PoolConfig(
            n_procs=1, max_retries=retries, degrade_to_serial=degrade))
        planner = pool._planner
        partition, drop_request = planner.partition, planner.drop_request
        planned: dict[int, bool] = {}  # frame -> profiled, as first cut
        released: set = set()  # keys whose profiled frame was lost

        def spy_partition(plan, solo=None):
            (frame,) = [f for f, rec in pool._inflight.items() if rec is plan]
            key = plan["key"]
            fresh = key not in planner._outstanding and (
                planner.profile is None or planner.profile_key != key)
            partition(plan, solo)
            # A retry adds no request: every frame is cut once.
            assert frame not in planned
            planned[frame] = plan["profiled"]
            # Neither a profile nor a request: this frame asks.
            assert plan["profiled"] or not fresh
            # A lost profile is asked for again by the next frame of its key.
            assert plan["profiled"] or key not in released
            released.discard(key)

        def spy_drop_request(key):
            drop_request(key)
            released.add(key)

        planner.partition, planner.drop_request = spy_partition, spy_drop_request
        step = 0
        with pool:
            for op in ops:
                if op[0] == "submit":
                    ry = self.AXES[op[2]]
                    pool.submit_batch([renderer.view_from_angles(20, ry + 0.1 * (step + i), 0)
                                       for i in range(op[1])])
                    step += op[1]
                elif pool.sent:
                    frame = pool.sent.pop(0)
                    # The process pool turns a failure whose slot already
                    # holds a later frame into a full recovery, which this
                    # fake does not model: such a frame reports done.
                    later = pool._inflight.get(frame + 2)
                    fail = op[1] and not (later and later["sent"])
                    with pool._cond:
                        pool._worker_done_locked(
                            frame, 0, "Boom: injected" if fail else None,
                            0.0, 0.0)
                # At most one outstanding request per key, in the ledger.
                keys = [rec["key"] for rec in pool._inflight.values()
                        if rec.get("profiled")]
                assert len(keys) == len(set(keys))
                assert set(keys) == planner._outstanding
            while pool.sent:
                frame = pool.sent.pop(0)
                with pool._cond:
                    pool._worker_done_locked(frame, 0, None, 0.0, 0.0)
            assert not pool._inflight and not pool._held
            assert set(planned) == set(range(step))
            for frame in range(step):
                try:
                    res = pool.result(frame)
                except FrameFailed:
                    assert not degrade
                    continue
                assert res.profiled == (planned[frame] and not res.degraded)


class TestDealingRule:
    """Which workers a frame goes to, as invariants over random traffic
    on the fake transport with the process pool's admission: pools of
    one to four workers, messages of one to six frames, every frame
    reported by the workers it was dealt to (the last of them failing
    now and then), recoveries that re-send everything in flight as one
    message, and retries that run out into a degraded or failed frame.
    On a pool of two or more, a frame is solo iff it is not a retry
    and its message's length plus the frames already out with the
    workers is at least ``n_procs``; its owner is the least-loaded
    worker at that moment (ties to the lowest pid), whose load then
    grows by one.  Everything else is banded over all workers.  On an
    idle pool that is frame ``k`` to worker ``k % n_procs``."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_procs=st.integers(1, 4),
        ops=st.lists(st.one_of(
            st.tuples(st.just("submit"), st.integers(1, 6)),
            st.tuples(st.just("report"), st.booleans()),
            st.tuples(st.just("recover")),
        ), min_size=1, max_size=25),
        retries=st.integers(0, 2),
        degrade=st.booleans(),
    )
    def test_invariants(self, renderer, n_procs, ops, retries, degrade):
        pool = TwoSlotPool(renderer, PoolConfig(
            n_procs=n_procs, max_retries=retries, degrade_to_serial=degrade))
        planner = pool._planner
        partition = planner.partition

        def spy_partition(plan, solo=None):
            asked = set(planner._outstanding)
            partition(plan, solo)
            if solo is not None:
                # A solo frame takes no profile request.
                assert not plan["profiled"] and planner._outstanding == asked
            return plan

        planner.partition = spy_partition
        step = 0
        with pool:
            for op in ops:
                if op[0] == "submit":
                    # Alternate frames on two principal axes.
                    pool.submit_batch([renderer.view_from_angles(
                        20, (10.0, 60.0)[i % 2] + 0.1 * i, 0)
                        for i in range(step, step + op[1])])
                    step += op[1]
                elif op[0] == "recover":
                    self._recover(pool)
                elif pool.sent:
                    self._report(pool, pool.sent.pop(0), fail=op[1])
            while pool.sent:
                self._report(pool, pool.sent.pop(0), fail=False)
            assert not pool._inflight and not pool._held
            outcome = {}
            for frame in range(step):
                try:
                    outcome[frame] = not pool.result(frame).degraded
                except FrameFailed:
                    assert not degrade
                    outcome[frame] = False
            solo_frames = pool.metrics.counter("pool/solo_frames").value
        last = {}
        assert len(pool.loads) == len(pool.messages)
        for message, (out, load) in zip(pool.messages, pool.loads):
            deal = len(message) + out >= n_procs > 1
            idle = not out and not any(a for _, a, *_ in message)
            for k, (frame, attempt, solo, profiled, dealt) in enumerate(message):
                # The least-loaded worker, which then holds one more;
                # banded below n_procs frames in flight and on every
                # retry.
                owner = None
                if deal and not attempt:
                    owner = min(range(n_procs), key=load.__getitem__)
                    load[owner] += 1
                assert solo == owner
                if idle:
                    # An idle pool's batch deals frame k to k % n_procs.
                    assert solo == (k % n_procs if deal else None)
                assert dealt == ((solo,) if solo is not None
                                 else tuple(range(n_procs)))
                assert not (solo is not None and profiled)
                last[frame] = solo
        # Every attempt of every frame went out in exactly one message.
        attempts = Counter((f, a) for m in pool.messages for f, a, *_ in m)
        assert set(attempts.values()) <= {1}
        assert {f for f, _ in attempts} == set(range(step))
        assert solo_frames == sum(
            last[f] is not None for f, ok in outcome.items() if ok)

    @pytest.mark.parametrize("n_procs", [2, 4])
    def test_one_frame_messages_deal_by_load(self, renderer, n_procs):
        """One-frame messages: the first meets an idle pool and is
        banded, and so is each one that finds fewer than ``n_procs - 1``
        frames out; from then on each goes solo to the least-loaded
        worker (a banded frame loads every worker alike), not round
        robin; a solo frame's retry is re-cut banded."""
        views = _views(renderer, 2 * n_procs)
        everyone = tuple(range(n_procs))
        pool = TwoSlotPool(renderer, PoolConfig(n_procs=n_procs, max_retries=1))
        with pool:
            first = pool.submit(views[0])
            assert pool.messages == [[(first, 0, None, True, everyone)]]
            frames = [first] + [pool.submit(v) for v in views[1:-1]]
            owners = [None] * (n_procs - 1) + list(range(n_procs))
            assert pool.messages == [
                [(f, 0, w, f == first, everyone if w is None else (w,))]
                for f, w in zip(frames, owners)]
            # Worker 1's frame retires: it is now the least loaded.
            self._report(pool, frames[n_procs], fail=False)
            last = pool.submit(views[-1])
            assert pool.messages[-1] == [(last, 0, 1, False, (1,))]
            self._report(pool, last, fail=True)
            assert pool.messages[-1] == [(last, 1, None, False, everyone)]
            for frame in frames + [last]:
                if frame in pool._inflight:
                    self._report(pool, frame, fail=False)
            results = [pool.result(f) for f in frames + [last]]
            assert pool.metrics.counter("pool/solo_frames").value == n_procs
        assert [r.retries for r in results] == [0] * (2 * n_procs - 1) + [1]

    @staticmethod
    def _report(pool, frame, fail):
        """Every worker ``frame`` was dealt to reports it — the last one
        raising when ``fail`` — and only the last report settles it."""
        with pool._cond:
            rec = pool._inflight[frame]
            attempt = rec["attempt"]
            dealt = list(pool._workers_of(rec))
            for i, pid in enumerate(dealt):
                last = i == len(dealt) - 1
                pool._worker_done_locked(
                    frame, pid, "Boom: injected" if fail and last else None,
                    0.0, 0.0)
                if not last:
                    assert pool._inflight[frame]["done"] == i + 1
            again = pool._inflight.get(frame)
            assert again is None or again["attempt"] == attempt + 1

    @staticmethod
    def _recover(pool):
        """What the process transport's recovery does to the ledger:
        every frame the workers held is retried (or runs out of
        retries), and everything still in flight goes out again — held
        messages included — as one message in frame order."""
        with pool._cond:
            pool._held.clear()
            pool.sent.clear()
            for frame in sorted(pool._inflight):
                rec = pool._inflight[frame]
                if not rec["sent"]:
                    continue
                if rec["attempt"] < pool.config.max_retries:
                    pool._count_retry_locked(frame)
                else:
                    pool._exhausted_locked(frame, FrameFailed("lost"))
            pool._dispatch_locked(sorted(pool._inflight))
