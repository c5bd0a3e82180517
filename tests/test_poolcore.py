"""The pool core's frame ledger, driven by an in-process fake transport.

No fork, no worker threads: the fake transport parks dispatched frames
in a list and the test plays the one worker itself — running the core's
real :func:`run_frame` body, or reporting an error in its place.  The
finish → retry → degrade → fail state machine is therefore stated once
here, not once per backend; the mp and thread suites only cover what
their transports add (processes dying, buffers, threads).
"""

import threading
import time

import numpy as np
import pytest

import repro
import repro.parallel.poolcore as poolcore
from repro.datasets import mri_brain
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
from repro.render import ShearWarpRenderer
from repro.render.fast import render_fast
from repro.render.image import FinalImage, IntermediateImage
from repro.volume import mri_transfer_function


class _NoBarrier:
    def wait(self) -> None:
        pass


class FakePool(PoolCore):
    """One synchronous 'worker': dispatched frames wait in ``sent``
    until the test calls :meth:`work`."""

    transport = "fake"

    def __init__(self, renderer, config):
        super().__init__(renderer, config)
        assert self.n_procs == 1
        self.sent: list[int] = []
        self.released: list[int] = []
        self.ctx = WorkerContext(
            pid=0, renderer=renderer, steal_chunk=self.steal_chunk,
            claim_locks=[],
            barrier=_NoBarrier(), clock=time.process_time,
        )

    def _send_locked(self, frames):
        for frame in frames:
            rec = self._inflight[frame]
            rec["img"] = IntermediateImage(rec["fact"].intermediate_shape)
            rec["final"] = FinalImage(rec["fact"].final_shape)
        self.sent.extend(frames)

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
        frame = self.sent.pop(0)
        with self._cond:
            rec = self._inflight[frame]
            b = rec["boundaries"]
            outcome = (fail, 0.0, 0.0, 0, 0) if fail else run_frame(
                self.ctx, frame, rec["fact"], (int(b[0]), int(b[1])),
                rec["owner"], rec["rows_by_pid"][0], rec["costs"],
                rec.get("timestep"), rec["img"], rec["final"], None,
            )
            self._worker_done_locked(frame, 0, *outcome)
            self._cond.notify_all()
        return frame


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())


def _views(renderer, n=3):
    return [renderer.view_from_angles(20, 30 + 4 * i, 2 * i) for i in range(n)]


def _pool(renderer, **overrides):
    return FakePool(renderer, PoolConfig(n_procs=1, **overrides))


def _assert_identical(res, ref):
    assert np.array_equal(res.final.color, ref.final.color)
    assert np.array_equal(res.final.alpha, ref.final.alpha)
    assert np.array_equal(res.intermediate.color, ref.intermediate.color)
    assert np.array_equal(res.intermediate.opacity, ref.intermediate.opacity)


class TestLedger:
    def test_success_is_bit_identical_and_feeds_the_profile(self, renderer):
        views = _views(renderer)
        with _pool(renderer, profile_period=1) as pool:
            frames = pool.submit_batch(views)
            assert pool.sent == frames == [0, 1, 2]
            for _ in frames:
                pool.work()
            results = [pool.result(f) for f in frames]
            assert pool._planner.profile is not None  # installed on finish
            assert pool.fault_counters() == {
                "worker_restarts": 0, "frames_retried": 0, "degraded_frames": 0,
            }
        for view, res in zip(views, results):
            _assert_identical(res, render_fast(renderer, view))
            assert res.retries == 0 and not res.degraded
            assert res.profiled and res.costs is not None
            assert res.busy_s.shape == (1,)
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
        _assert_identical(res, render_fast(renderer, view))
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
        _assert_identical(res, render_fast(renderer, view))
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
            _assert_identical(pool.result(good), render_fast(renderer, views[1]))

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
        with _pool(renderer, profile_period=0) as pool:
            frames = [pool.submit(v) for v in views]
            for _ in frames:
                pool.work()
            got = {f: pool.result(f) for f in reversed(frames)}
        for view, frame in zip(views, frames):
            _assert_identical(got[frame], render_fast(renderer, view))

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
    """A :class:`FakePool` with the process transport's admission rule:
    frame ``f`` can start once frame ``f - 2`` has left the pool."""

    def _can_start_locked(self, frame):
        return frame - 2 not in self._inflight

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
        with self._pool(renderer, profile_period=5) as pool:
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
            _assert_identical(res, render_fast(renderer, view))

    def test_second_batch_waits_whole_behind_the_first(self, renderer):
        views = _views(renderer, 3)
        with self._pool(renderer, profile_period=0) as pool:
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
            _assert_identical(res, render_fast(renderer, view))

    def test_retry_goes_ahead_of_what_is_held(self, renderer):
        views = _views(renderer, 4)
        with self._pool(renderer, max_retries=1, profile_period=0) as pool:
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
            _assert_identical(res, render_fast(renderer, view))

    def test_refused_view_leaves_no_planner_state(self, renderer):
        """Admission reads nothing of the feedback loop: a batch refused
        for one view does not advance the schedule for its mates."""
        good = _views(renderer, 1)[0]
        bad = good.copy()
        bad[:3, :3] *= 3.0  # upscales the image beyond capacity
        with self._pool(renderer, profile_period=5) as pool:
            pool.inter_cap, pool.final_cap = poolcore.capacity_shapes(
                renderer.shape)
            with pytest.raises(RuntimeError, match="capacity"):
                pool.submit_batch([good, bad])
            assert pool._planner.schedule.frame == 0 and not pool._inflight
            assert pool.submit(good) == 0


class TestCostRow:
    """A profiled frame's costs, written in place by the workers
    (``run_frame``) into the frame's one cost row: the calibration the
    partition is balanced on, on every transport."""

    @staticmethod
    def _open(renderer, transport):
        if transport == "fake":
            return _pool(renderer, profile_period=1)
        return repro.open_pool(renderer, n_procs=2, backend=transport,
                               profile_period=1)

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
        # A 2-row grain and a slowed worker 0: worker 1 turns thief, so
        # rows are costed by a worker whose static block they are not in.
        monkeypatch.setattr(poolcore, "DEFAULT_STEAL_CHUNK", 2)
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.004))
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
        if transport != "fake":
            assert any(res.steals for res in results)
        summed = 0
        for res in results:
            v_lo, v_hi = int(res.boundaries[0]), int(res.boundaries[-1])
            assert res.profiled and res.costs_v_lo == v_lo
            assert res.costs.shape == (v_hi - v_lo,)
            assert np.isfinite(res.costs).all() and (res.costs >= 0).all()
            if res.steal_rows < np.diff(res.boundaries).min():
                # Nobody lost a whole block, so every worker composited:
                # its chunks are scaled to its compositing CPU time, and
                # its warp share adds its warp CPU time.
                assert np.isclose(res.costs.sum(), res.busy_s.sum())
                summed += 1
        assert summed
        assert installed.v_lo == first.costs_v_lo
        assert np.array_equal(first.costs, kept[0])
        assert np.array_equal(installed.costs, kept[1])


class TestProfileRequests:
    """Which frames the planner marks profiled (section 4.2): one in
    ``profile_period``, plus one per missing profile — not every frame
    planned while the requested profile is still in flight."""

    @staticmethod
    def _plan(planner, renderer, angles):
        return [planner.partition(planner.admit(renderer.view_from_angles(20, ry, 0)))
                for ry in angles]

    @staticmethod
    def _profiled(plans):
        return {i for i, p in enumerate(plans) if p["profiled"]}

    @staticmethod
    def _planner(renderer, period=5):
        return FramePlanner(renderer, 2, period, MetricsRegistry())

    def test_batch_profiles_one_frame_per_period(self, renderer):
        plans = self._plan(self._planner(renderer), renderer,
                           [10 + i for i in range(20)])
        assert len({p["key"] for p in plans}) == 1
        assert self._profiled(plans) == {0, 5, 10, 15}

    def test_axis_switch_adds_its_first_frame_only(self, renderer):
        # 2 degrees a frame from 30: the principal axis switches once,
        # near 45 degrees, between two of the schedule's frames.
        plans = self._plan(self._planner(renderer), renderer,
                           [30 + 2 * i for i in range(20)])
        keys = [p["key"] for p in plans]
        first_new = next(i for i, k in enumerate(keys) if k != keys[0])
        assert first_new % 5 != 0 and len(set(keys)) == 2
        assert self._profiled(plans) == {0, 5, 10, 15, first_new}

    def test_installed_profile_leaves_only_the_schedule(self, renderer):
        planner = self._planner(renderer)
        first = self._plan(planner, renderer, [10])[0]
        assert first["profiled"]
        planner.install_profile(
            first["v_lo"], np.ones(first["v_hi"] - first["v_lo"]), first["key"])
        plans = [first] + self._plan(planner, renderer,
                                     [11 + i for i in range(11)])
        assert self._profiled(plans) == {0, 5, 10}
        # The profile is gone again after an axis switch: asked for once.
        plans = self._plan(planner, renderer, [60, 61, 62])
        assert self._profiled(plans) == {0}

    def test_synchronous_render_profiles_frame_zero_and_every_fifth(
            self, renderer):
        with _pool(renderer, profile_period=5) as pool:
            profiled = set()
            for i in range(12):
                frame = pool.submit(renderer.view_from_angles(20, 10 + i, 0))
                pool.work()
                if pool.result(frame).profiled:
                    profiled.add(i)
        assert profiled == {0, 5, 10}
