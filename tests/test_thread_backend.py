"""The threading backend: no fork, no pickling, no copies — same pixels.

:class:`ThreadRenderPool` must be bit-identical to the serial renderer
(and therefore to the MP pool) across stealing, and batched vs
per-frame submission, and must keep the MP pool's error contract
(retry / degrade / FrameFailed) without any process machinery.
"""

import threading

import numpy as np
import pytest

import repro
import repro.parallel.poolcore as poolcore
from repro.datasets import mri_brain
from repro.parallel.poolcore import FrameFailed, PoolClosed, PoolConfig
from repro.parallel.thread_backend import ThreadRenderPool
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


class TestBitIdentity:
    @pytest.mark.parametrize("stealing", [True, False])
    def test_matches_serial(self, renderer, stealing):
        views = _views(renderer)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, stealing=stealing, profile_period=2)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
        _assert_identical(res, refs)
        assert all(r.n_procs == 2 for r in res)
        assert all(r.busy_s is not None and (r.busy_s >= 0).all() for r in res)

    def test_batched_matches_perframe(self, renderer):
        views = _views(renderer)
        cfg = PoolConfig(n_procs=2, profile_period=2)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            batched = [pool.result(f) for f in pool.submit_batch(views)]
        with ThreadRenderPool(renderer, config=cfg) as pool:
            handles = [pool.submit(v) for v in views]
            perframe = [pool.result(h) for h in handles]
        _assert_identical(batched, perframe)

    def test_forced_steals_stay_identical(self, renderer, monkeypatch):
        """Slow worker 0 down so worker 1 must steal; pixels unchanged."""
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.003))
        # Read by the pool when it is built: 2-row chunks can be stolen.
        monkeypatch.setattr(poolcore, "DEFAULT_STEAL_CHUNK", 2)
        views = _views(renderer, 3)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, stealing=True)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
        _assert_identical(res, refs)
        assert sum(r.steals for r in res) > 0

    def test_module_level_helper(self, renderer):
        view = renderer.view_from_angles(25, 40, 5)
        ref = render_fast(renderer, view)
        res = repro.render_frame(renderer, view,
                                 config=PoolConfig(n_procs=2, backend="thread"))
        assert np.array_equal(res.final.color, ref.final.color)
        assert np.array_equal(res.final.alpha, ref.final.alpha)

    def test_facade_dispatch(self, renderer):
        """repro.open_pool(backend="thread") returns the thread pool and
        renders the same pixels."""
        view = renderer.view_from_angles(25, 40, 5)
        ref = render_fast(renderer, view)
        with repro.open_pool(renderer, n_procs=2, backend="thread") as pool:
            assert isinstance(pool, ThreadRenderPool)
            res = pool.render(view)
        assert np.array_equal(res.final.color, ref.final.color)


def _flaky_composite(fail_frames, fire_once=True):
    """A composite_range wrapper raising for chosen frames (thread-safe)."""
    real = poolcore.composite_range
    lock = threading.Lock()
    fired: set[int] = set()

    def flaky(img, lo, hi, rle, fact, profiled, rec, frame):
        with lock:
            if frame in fail_frames and (not fire_once or frame not in fired):
                fired.add(frame)
                raise RuntimeError("injected composite failure")
        return real(img, lo, hi, rle, fact, profiled, rec, frame)

    return flaky


class TestErrorContract:
    def test_retry_recovers_bit_identical(self, renderer, monkeypatch):
        monkeypatch.setattr(poolcore, "composite_range", _flaky_composite({1}))
        views = _views(renderer, 4)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, max_retries=2, degrade_to_serial=False)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
            fc = pool.fault_counters()
        _assert_identical(res, refs)
        assert fc["frames_retried"] == 1
        assert fc["worker_restarts"] == 0  # threads never die silently
        assert res[1].retries == 1
        assert res[0].retries == 0

    def test_degrade_to_serial(self, renderer, monkeypatch):
        monkeypatch.setattr(
            poolcore, "composite_range", _flaky_composite({1}, fire_once=False)
        )
        views = _views(renderer, 3)
        refs = [render_fast(renderer, v) for v in views]
        cfg = PoolConfig(n_procs=2, max_retries=0, degrade_to_serial=True)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
            fc = pool.fault_counters()
        # Degraded frame is rendered serially in render_fast — which is
        # the reference — so even the failure path is bit-identical.
        _assert_identical(res, refs)
        assert res[1].degraded is True
        assert res[0].degraded is False and res[2].degraded is False
        assert fc["degraded_frames"] == 1

    def test_frame_failed_surfaces(self, renderer, monkeypatch):
        monkeypatch.setattr(
            poolcore, "composite_range", _flaky_composite({1}, fire_once=False)
        )
        views = _views(renderer, 3)
        cfg = PoolConfig(n_procs=2, max_retries=0, degrade_to_serial=False)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            frames = pool.submit_batch(views)
            assert pool.result(frames[0]).n_procs == 2
            with pytest.raises(FrameFailed):
                pool.result(frames[1])
            # The failure is isolated: the rest of the batch still lands.
            assert pool.result(frames[2]).n_procs == 2


class TestLifecycleAndObs:
    def test_closed_pool_raises(self, renderer):
        pool = ThreadRenderPool(renderer, config=PoolConfig(n_procs=2))
        pool.close()
        with pytest.raises(PoolClosed):
            pool.submit(renderer.view_from_angles(20, 30, 0))
        pool.close()  # idempotent

    def test_unknown_frame(self, renderer):
        with ThreadRenderPool(renderer, config=PoolConfig(n_procs=2)) as pool:
            with pytest.raises(KeyError):
                pool.result(99)

    def test_trace_and_chrome_export(self, renderer, tmp_path):
        views = _views(renderer, 4)
        cfg = PoolConfig(n_procs=2, trace=True)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
            assert pool.metrics.counter("pool/batch_frames").value == 4
            assert len(pool.timelines) == 4
            phases = set()
            for tl in pool.timelines:
                phases.update(s.phase for s in tl.spans)
            assert {"composite", "warp", "barrier", "dispatch"} <= phases
            path = tmp_path / "trace.json"
            pool.export_chrome_trace(str(path))
        assert all(r.timeline is not None for r in res)
        import json

        meta = json.loads(path.read_text())["otherData"]
        assert meta["backend"] == "thread"
        assert "doorbell" not in meta
        assert meta["batch_frames"] == 4
