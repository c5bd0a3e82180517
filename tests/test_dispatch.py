"""Batched submission, pipelining and the shm doorbell (MP backend).

Batched and per-frame submission must produce bit-identical images and
work counters to the serial reference and to each other — the
partitions and the pixels may never depend on *how* frames reach the
workers.  Plus the fault half: a worker killed mid-batch must be
recovered with only the unfinished frames re-dispatched.
"""

import math
import threading

import numpy as np
import pytest

import repro
import repro.parallel.poolcore as poolcore
from repro.datasets import mri_brain
from repro.parallel.mp_backend import MPRenderPool
from repro.parallel.poolcore import PoolConfig
from repro.render import ShearWarpRenderer
from repro.render.fast import render_fast
from repro.volume import mri_transfer_function


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())


def _views(renderer, n=5):
    return [renderer.view_from_angles(20, 30 + 4 * i, 2 * i) for i in range(n)]


def _assert_identical(res, refs):
    assert len(res) == len(refs)
    for ref, got in zip(refs, res):
        assert np.array_equal(got.final.color, ref.final.color)
        assert np.array_equal(got.final.alpha, ref.final.alpha)
        assert np.array_equal(got.intermediate.color, ref.intermediate.color)
        assert np.array_equal(got.intermediate.opacity, ref.intermediate.opacity)


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("stealing", [True, False])
    def test_batched_matches_serial(self, renderer, stealing):
        """submit_batch == serial, stealing on/off, profile feedback
        loop on."""
        views = _views(renderer)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, stealing=stealing, profile_period=2)
        with MPRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
        _assert_identical(res, refs)

    def test_batched_matches_perframe_protocol(self, renderer):
        """One batch message == per-frame submit / result pairs."""
        views = _views(renderer)
        cfg = PoolConfig(n_procs=2, profile_period=2)
        with MPRenderPool(renderer, config=cfg) as pool:
            batched = [pool.result(f) for f in pool.submit_batch(views)]
        with MPRenderPool(renderer, config=cfg) as pool:
            handles = [pool.submit(v) for v in views]
            perframe = [pool.result(h) for h in handles]
        # Pixels must agree exactly.  Partition *boundaries* may not:
        # the profile feedback loop calibrates per-row costs with
        # measured CPU time, so band splits after a profiled frame are
        # run-dependent — which is precisely why the images themselves
        # being identical is the invariant worth asserting.
        _assert_identical(batched, perframe)

    def test_batch_deeper_than_buffers(self, renderer):
        """A batch far deeper than the buffer ring streams correctly
        (release-cursor gating + deferred claim seeding)."""
        views = _views(renderer, 8)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, profile_period=3)
        with MPRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
        _assert_identical(res, refs)

    @pytest.mark.parametrize("backend", ["mp", "thread"])
    def test_batch_profiles_once_per_period_not_every_frame(self, renderer,
                                                            backend):
        """A batch is planned before any of its frames completes; the
        profile it lacks is requested once (and once more at the axis
        switch), not on every frame behind the first."""
        views = [renderer.view_from_angles(20, 30 + 2 * i, 0) for i in range(20)]
        refs = [render_fast(renderer, v) for v in views]
        with repro.open_pool(renderer, n_procs=2, backend=backend,
                             profile_period=5) as pool:
            res = pool.render_animation(views)
        _assert_identical(res, refs)
        switches = sum(a.fact.axis != b.fact.axis for a, b in zip(res, res[1:]))
        assert switches == 1
        assert res[0].profiled
        assert sum(r.profiled for r in res) <= math.ceil(20 / 5) + switches + 1

    def test_batch_frames_counter_and_metadata(self, renderer, tmp_path):
        views = _views(renderer, 4)
        cfg = PoolConfig(n_procs=2, trace=True)
        with MPRenderPool(renderer, config=cfg) as pool:
            pool.render_animation(views)
            assert pool.metrics.counter("pool/batch_frames").value == 4
            path = tmp_path / "trace.json"
            pool.export_chrome_trace(str(path))
        import json

        meta = json.loads(path.read_text())["otherData"]
        assert meta["batch_frames"] == 4
        assert meta["backend"] == "mp"
        assert "doorbell" not in meta

    def test_empty_batch(self, renderer):
        with MPRenderPool(renderer, config=PoolConfig(n_procs=2)) as pool:
            assert pool.submit_batch([]) == []
            assert pool.render_animation([]) == []

    def test_perframe_submit_counts_no_batch_frames(self, renderer):
        views = _views(renderer, 3)
        refs = [render_fast(renderer, v) for v in views]
        with MPRenderPool(renderer, config=PoolConfig(n_procs=2)) as pool:
            res = [pool.result(h) for h in [pool.submit(v) for v in views]]
            assert pool.metrics.counter("pool/batch_frames").value == 0
        _assert_identical(res, refs)

    @pytest.mark.parametrize("backend", ["mp", "thread"])
    def test_back_to_back_submits_collected_in_reverse(self, renderer,
                                                       backend):
        """``submit`` is a one-frame batch: it never waits for a buffer.
        On mp the third and fourth frames are held in the parent until
        the frame two ahead of each retires — whatever the order the
        caller collects in."""
        views = _views(renderer, 4)
        refs = [render_fast(renderer, v) for v in views]
        with repro.open_pool(renderer, n_procs=2, backend=backend) as pool:
            handles = [pool.submit(v) for v in views]
            assert handles == [0, 1, 2, 3]
            got = {h: pool.result(h) for h in reversed(handles)}
        _assert_identical([got[h] for h in handles], refs)

    @pytest.mark.parametrize("how", ["submit", "batch_of_one", "killed"])
    def test_deep_perframe_submission_never_wedges_on_a_full_job_pipe(
            self, renderer, monkeypatch, how):
        """Far more one-frame messages than a worker's job pipe holds
        (40 at 64^3), submitted with nothing collected.  The parent
        writes a pipe with the pool condition held and a gated worker
        reads nothing until a release that needs that condition, so
        what cannot start yet has to wait in the parent — also when
        worker 0 is SIGKILLed on frame 1 with 198 frames behind it,
        where a blocked write would keep the supervisor from ever
        seeing the death."""
        if how == "killed":
            monkeypatch.setattr(poolcore, "TEST_FAULT",
                                (0, 1, "kill", "composite"))
        views = [renderer.view_from_angles(20, 30 + 0.4 * i, 0)
                 for i in range(200)]
        done, counters = [], {}

        def run():
            cfg = PoolConfig(n_procs=2, degrade_to_serial=False)
            with MPRenderPool(renderer, cfg) as pool:
                if how == "batch_of_one":
                    handles = [pool.submit_batch([v])[0] for v in views]
                else:
                    handles = [pool.submit(v) for v in views]
                done.extend(pool.result(h) for h in handles)
                counters.update(pool.fault_counters())

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120.0)
        assert not worker.is_alive()
        assert len(done) == len(views)
        _assert_identical(done[-2:], [render_fast(renderer, v) for v in views[-2:]])
        if how == "killed":
            assert counters["worker_restarts"] == 2
            # Only what the workers had been sent was lost and retried:
            # frame 1 and — frame 2 goes out when frame 0 retires —
            # whichever of those two was with them; the 197 held frames
            # lost nothing.
            assert counters["frames_retried"] == 2
            assert done[1].retries == 1
            assert not any(r.retries for r in done[3:])
        else:
            assert counters["worker_restarts"] == 0


class TestMidBatchFaults:
    def test_kill_mid_batch_redispatches_only_unfinished(self, renderer,
                                                         monkeypatch):
        """Worker 0 is SIGKILLed compositing frame 2 of a 6-frame batch.

        Frames the parent has already collected must not be re-rendered;
        the unfinished tail is re-dispatched once and everything comes
        back bit-identical.  Frame 0 is always collected by kill time
        (worker 0 rang it before even entering frame 1).  Frame 1 is
        *usually* collected too, but the surviving worker may still be
        inside frame 1's warp when the supervisor stops the set — its
        doorbell not yet rung — in which case retrying frame 1 is the
        correct behaviour, not a double render.
        """
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 2, "kill", "composite"))
        views = _views(renderer, 6)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, max_retries=2, degrade_to_serial=False)
        with MPRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
            fc = pool.fault_counters()
        _assert_identical(res, refs)
        assert fc["worker_restarts"] >= 2  # the whole set is respawned
        assert fc["degraded_frames"] == 0
        # The unfinished frames (2..5, plus frame 1 iff its doorbell
        # hadn't been absorbed) were retried — never collected ones.
        assert 4 <= fc["frames_retried"] <= 5
        assert res[0].retries == 0
        assert res[1].retries <= 1
        assert all(r.retries == 1 for r in res[2:])

    def test_raise_mid_batch_recovers_bit_identical(self, renderer,
                                                    monkeypatch):
        """A worker exception mid-batch escalates to pool recovery (the
        retry may not queue behind the rest of the batch) and still
        produces identical frames."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (1, 1, "raise", "composite"))
        views = _views(renderer, 5)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, max_retries=2, degrade_to_serial=False)
        with MPRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
            fc = pool.fault_counters()
        _assert_identical(res, refs)
        assert fc["frames_retried"] >= 1
        assert res[0].retries == 0


class TestDispatchObservability:
    def test_dispatch_and_doorbell_spans_recorded(self, renderer):
        views = _views(renderer, 4)
        cfg = PoolConfig(n_procs=2, trace=True)
        with MPRenderPool(renderer, config=cfg) as pool:
            pool.render_animation(views)
            phases = set()
            for tl in pool.timelines:
                phases.update(s.phase for s in tl.spans)
        assert "dispatch" in phases
        # doorbell spans appear only when a worker actually outruns the
        # parent's collection; don't require them, but the phase must be
        # recordable (PHASES registration) — exercised by _await_release
        # whenever the gate blocks.

    def test_pipeline_overlap_metric(self, renderer):
        views = _views(renderer, 6)
        with MPRenderPool(renderer, config=PoolConfig(n_procs=2)) as pool:
            pool.render_animation(views)
            overlap = pool.metrics.counter("pool/pipeline_overlap_s").value
        assert overlap >= 0.0  # > 0 whenever collection overlapped work
