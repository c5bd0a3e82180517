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
        #: None, the workers it was dealt to).
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
                rec["owner"], rec["rows_by_pid"][0], rec.get("timestep"),
                rec["img"], rec["final"],
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
            # Installed on finish: the last frame's band times.
            installed = pool._planner.profile
            assert pool.fault_counters() == {
                "worker_restarts": 0, "frames_retried": 0, "degraded_frames": 0,
            }
        for view, res in zip(views, results):
            assert_frames_identical([res], serial_refs(renderer, [view]))
            assert res.retries == 0 and not res.degraded
            assert res.busy_s.shape == (1,)
            # Every frame reports its band times: one worker, one band.
            assert np.isclose(res.costs.sum(), res.busy_s.sum())
            assert np.all(res.costs == res.costs[0])
        assert installed.v_lo == results[-1].costs_v_lo
        assert np.array_equal(installed.costs, results[-1].costs)
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
            pool.work()  # frame 0 retires: its band times are installed ...
            assert pool.sent == [1, 2] and list(pool._held) == [[3]]
            measured = pool._planner.profile
            assert measured is not None  # ... before frame 2 was cut
            pool.work()
            pool.work()
            pool.work()
            results = [pool.result(f) for f in frames]
            assert not pool._held
        # Each retired frame installed its own band times in turn.
        assert np.array_equal(measured.costs, results[0].costs)
        assert np.array_equal(pool._planner.profile.costs, results[3].costs)
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
        for one view plans nothing for its mates."""
        good = _views(renderer, 1)[0]
        bad = good.copy()
        bad[:3, :3] *= 3.0  # upscales the image beyond capacity
        with self._pool(renderer) as pool:
            pool.inter_cap, pool.final_cap = poolcore.capacity_shapes(
                renderer.shape)
            with pytest.raises(RuntimeError, match="capacity"):
                pool.submit_batch([good, bad])
            planner = pool._planner
            assert planner.profile is None and planner.profile_key is None
            assert not pool._inflight
            assert pool.submit(good) == 0


class TestCostRow:
    """A frame's band-time profile, built by the ledger from its
    workers' busy seconds: reported with every frame, on every
    transport, and the profile the next banded frame is cut from."""

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
            self, renderer, transport, monkeypatch, banded):
        # A slowed worker 0, so the workers' rows cost unlike amounts.
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.004))
        views = _views(renderer)
        pool = self._open(renderer, transport)
        try:
            results = [self._render(pool, views[0])]
            first = results[0]
            installed = pool._planner.profile
            assert installed.costs is first.costs
            kept = first.costs.copy()
            # Two more frames: on the process pool the second of them
            # renders in the buffer ``first`` was measured in.
            results += [self._render(pool, v) for v in views[1:]]
            assert np.array_equal(first.costs, kept)
            assert np.array_equal(installed.costs, kept)
        finally:
            pool.close()
        for res in results:
            b = res.boundaries
            assert res.costs_v_lo == int(b[0])
            assert res.costs.shape == (int(b[-1] - b[0]),)
            assert np.isfinite(res.costs).all() and (res.costs >= 0).all()
            # Each worker's busy time, spread evenly over its band.
            for pid, (lo, hi) in enumerate(zip(b[:-1] - b[0], b[1:] - b[0])):
                assert np.allclose(res.costs[lo:hi], res.busy_s[pid] / (hi - lo))
            assert np.isclose(res.costs.sum(), res.busy_s.sum())
        assert installed.v_lo == first.costs_v_lo


def test_the_slowed_worker_hook_burns_cpu_time():
    """``TEST_ROW_DELAY`` promises CPU seconds, the clock band time
    balances on: a spin that sleeps would show as wall time only."""
    t0 = time.process_time()
    poolcore._burn(0.05)
    assert time.process_time() - t0 >= 0.05


def _cut_from(boundaries, busy):
    """The next frame's cut over the same band, balanced by the band
    times ``busy`` measured on ``boundaries``."""
    profile = FramePlanner.band_time_profile(boundaries, busy)
    return poolcore.profile_partition(
        profile, len(boundaries) - 1, int(boundaries[0]), int(boundaries[-1]))


@st.composite
def _bands(draw, min_rows=1):
    """``(boundaries, busy)``: a cut of a band into one to six blocks
    (some may be empty) and a busy time per block, zero on an empty one
    (a worker with no rows only decodes)."""
    n = draw(st.integers(1, 6))
    v_lo = draw(st.integers(0, 40))
    rows = draw(st.integers(min_rows, 120))
    inner = sorted(draw(st.lists(st.integers(0, rows), min_size=n - 1,
                                 max_size=n - 1)))
    boundaries = np.array([0, *inner, rows], dtype=np.int64) + v_lo
    busy = np.array(draw(st.lists(st.floats(0.0, 0.5), min_size=n,
                                  max_size=n)))
    busy[np.diff(boundaries) == 0] = 0.0
    return boundaries, busy


class TestBandTimeProfile:
    """The balancer as properties: the profile a frame's band times
    make, and the cut the next frame gets from it."""

    @settings(max_examples=200, deadline=None)
    @given(band=_bands())
    def test_covers_the_band_once_and_sums_to_busy(self, band):
        boundaries, busy = band
        profile = FramePlanner.band_time_profile(boundaries, busy)
        assert profile.v_lo == boundaries[0] and profile.v_hi == boundaries[-1]
        assert np.isclose(profile.total, busy.sum())
        widths = np.diff(boundaries)
        # One value per block, on exactly that block's rows.
        assert np.array_equal(profile.costs, np.repeat(
            busy / np.maximum(widths, 1), widths))

    @settings(max_examples=200, deadline=None)
    @given(band=_bands())
    def test_the_next_cut_is_monotone_inside_the_band(self, band):
        boundaries, busy = band
        cut = _cut_from(boundaries, busy)
        assert len(cut) == len(boundaries)
        assert cut[0] == boundaries[0] and cut[-1] == boundaries[-1]
        assert np.all(np.diff(cut) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), v_lo=st.integers(0, 40),
           rows=st.integers(1, 120), ticks=st.integers(1, 1000))
    def test_equal_time_per_row_gives_back_the_same_cut(self, n, v_lo, rows,
                                                        ticks):
        """Stable under a constant profile: a cut that band time made,
        fed equal time per row, comes back unchanged.  The per-row time
        is a multiple of 2**-10 s, so every product and quotient is
        exact and the test checks the rule, not the rounding."""
        per_row = ticks / 1024
        flat = FramePlanner.band_time_profile(
            np.array([v_lo, v_lo + rows]), np.array([per_row * rows]))
        cut = poolcore.profile_partition(flat, n, v_lo, v_lo + rows)
        again = _cut_from(cut, per_row * np.diff(cut))
        assert np.array_equal(again, cut)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), v_lo=st.integers(0, 40),
           rows=st.integers(1, 120), per_row=st.floats(1e-6, 1.0))
    def test_from_no_profile_equal_time_per_row_gives_back_the_same_cut(
            self, n, v_lo, rows, per_row):
        """A key's first cut, made with no profile, is the one equal
        time per row makes: fed back equal time per row — in any
        seconds, rounding and all — it comes back unchanged (one tie
        rule for both cuts)."""
        cut = poolcore.profile_partition(None, n, v_lo, v_lo + rows)
        again = _cut_from(cut, per_row * np.diff(cut))
        assert np.array_equal(again, cut)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 6), v_lo=st.integers(0, 40),
           rows=st.integers(12, 120), data=st.data())
    def test_a_slower_worker_never_gets_a_wider_band(self, n, v_lo, rows,
                                                     data):
        """From the flat cut a key starts with, the worker whose time
        per row is the highest — a heavy band or a slow processor —
        gets no more rows next frame."""
        cut = poolcore.profile_partition(None, n, v_lo, v_lo + rows)
        widths = np.diff(cut)
        per_row = np.array(data.draw(st.lists(
            st.floats(0.01, 1.0), min_size=n, max_size=n)))
        slow = data.draw(st.integers(0, n - 1))
        per_row[slow] = per_row.max() * data.draw(st.floats(1.01, 4.0))
        again = _cut_from(cut, per_row * widths)
        assert np.diff(again)[slow] <= widths[slow]


class TestDealingRule:
    """Which workers a frame goes to, as invariants over random traffic
    on the fake transport with the process pool's admission: pools of
    one to four workers, messages of one to six frames, every frame
    reported by the workers it was dealt to (the last of them failing
    now and then), recoveries that re-send everything in flight as one
    message, and retries that run out into a degraded or failed frame.
    On a pool of two or more, a frame is solo iff it is not a retry;
    its owner is the least-loaded worker at that moment (ties to the
    lowest pid), whose load then grows by one.  Every retry is banded
    over all workers.  On an idle pool that is frame ``k`` to worker
    ``k % n_procs``."""

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
            deal = n_procs > 1
            idle = not out and not any(a for _, a, *_ in message)
            for k, (frame, attempt, solo, dealt) in enumerate(message):
                # The least-loaded worker, which then holds one more;
                # banded on every retry.
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
                last[frame] = solo
        # Every attempt of every frame went out in exactly one message.
        attempts = Counter((f, a) for m in pool.messages for f, a, *_ in m)
        assert set(attempts.values()) <= {1}
        assert {f for f, _ in attempts} == set(range(step))
        assert solo_frames == sum(
            last[f] is not None for f, ok in outcome.items() if ok)

    @pytest.mark.parametrize("n_procs", [2, 4])
    def test_one_frame_messages_deal_by_load(self, renderer, n_procs):
        """A one-frame message into the idle pool goes solo to worker 0,
        and each next one to the least-loaded worker, not round robin;
        a solo frame's retry is re-cut banded over all of them."""
        views = _views(renderer, n_procs + 1)
        everyone = tuple(range(n_procs))
        pool = TwoSlotPool(renderer, PoolConfig(n_procs=n_procs, max_retries=1))
        with pool:
            frames = [pool.submit(v) for v in views[:-1]]
            assert pool.messages == [[(f, 0, w, (w,))]
                                     for w, f in enumerate(frames)]
            # Worker 1's frame retires: it is now the least loaded.
            self._report(pool, frames[1], fail=False)
            last = pool.submit(views[-1])
            assert pool.messages[-1] == [(last, 0, 1, (1,))]
            self._report(pool, last, fail=True)
            assert pool.messages[-1] == [(last, 1, None, everyone)]
            for frame in frames:
                if frame in pool._inflight:
                    self._report(pool, frame, fail=False)
            self._report(pool, last, fail=False)
            results = [pool.result(f) for f in frames + [last]]
            assert pool.metrics.counter("pool/solo_frames").value == n_procs
        assert [r.retries for r in results] == [0] * n_procs + [1]

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
