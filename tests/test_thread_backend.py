"""The threading backend: no fork, no pickling, no copies — same pixels.

:class:`ThreadRenderPool` must be bit-identical to the serial renderer
(and therefore to the MP pool) with one worker and two, and batched vs
per-frame submission, and must keep the MP pool's error contract
(retry / degrade / FrameFailed) without any process machinery.
"""

import pytest

import repro
from repro.parallel.poolcore import FrameFailed, PoolConfig
from repro.parallel.thread_backend import ThreadRenderPool
from repro.render.fast import render_fast

from .conftest import assert_frames_identical, fail_composite, serial_refs


def _views(renderer, n=5):
    return [renderer.view_from_angles(20, 30 + 4 * i, 2 * i) for i in range(n)]


class TestBitIdentity:
    @pytest.mark.parametrize("two_workers", [True, False])
    def test_matches_serial(self, renderer, two_workers):
        """Two workers, and one."""
        views = _views(renderer)
        refs = serial_refs(renderer, views)
        n_procs = 2 if two_workers else 1
        with ThreadRenderPool(renderer, config=PoolConfig(n_procs=n_procs)) as pool:
            res = pool.render_animation(views)
        assert_frames_identical(res, refs)
        assert all(r.n_procs == n_procs for r in res)
        assert all(r.busy_s is not None and (r.busy_s >= 0).all() for r in res)

    def test_batched_matches_perframe(self, renderer):
        views = _views(renderer)
        cfg = PoolConfig(n_procs=2)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            batched = [pool.result(f) for f in pool.submit_batch(views)]
        with ThreadRenderPool(renderer, config=cfg) as pool:
            handles = [pool.submit(v) for v in views]
            perframe = [pool.result(h) for h in handles]
        assert_frames_identical(batched, perframe)

    def test_module_level_helper(self, renderer):
        view = renderer.view_from_angles(25, 40, 5)
        ref = render_fast(renderer, view)
        with repro.open_pool(renderer, PoolConfig(n_procs=2,
                                                  backend="thread")) as pool:
            res = pool.render(view)
        assert_frames_identical([res], [ref])

    def test_facade_dispatch(self, renderer):
        """repro.open_pool(backend="thread") returns the thread pool and
        renders the same pixels."""
        view = renderer.view_from_angles(25, 40, 5)
        ref = render_fast(renderer, view)
        with repro.open_pool(renderer, n_procs=2, backend="thread") as pool:
            assert isinstance(pool, ThreadRenderPool)
            res = pool.render(view)
        assert_frames_identical([res], [ref])


class TestErrorContract:
    def test_retry_recovers_bit_identical(self, renderer, monkeypatch,
                                          tmp_path):
        fail_composite(monkeypatch, tmp_path / "fired", frame=1)
        views = _views(renderer, 4)
        refs = serial_refs(renderer, views)
        cfg = PoolConfig(n_procs=2, max_retries=2, degrade_to_serial=False)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
            fc = pool.fault_counters()
        assert_frames_identical(res, refs)
        assert fc["frames_retried"] == 1
        assert fc["worker_restarts"] == 0  # threads never die silently
        assert res[1].retries == 1
        assert res[0].retries == 0

    def test_degrade_to_serial(self, renderer, monkeypatch, tmp_path):
        fail_composite(monkeypatch, tmp_path / "fired", frame=1, once=False)
        views = _views(renderer, 3)
        refs = serial_refs(renderer, views)
        cfg = PoolConfig(n_procs=2, max_retries=0, degrade_to_serial=True)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            res = pool.render_animation(views)
            fc = pool.fault_counters()
        # Degraded frame is rendered serially in render_fast — which is
        # the reference — so even the failure path is bit-identical.
        assert_frames_identical(res, refs)
        assert res[1].degraded is True
        assert res[0].degraded is False and res[2].degraded is False
        assert fc["degraded_frames"] == 1

    def test_frame_failed_surfaces(self, renderer, monkeypatch, tmp_path):
        fail_composite(monkeypatch, tmp_path / "fired", frame=1, once=False)
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
            # Dealt whole to the workers: no barrier to wait at.
            assert {"composite", "warp", "dispatch"} <= phases
            assert "barrier" not in phases
            path = tmp_path / "trace.json"
            pool.export_chrome_trace(str(path))
        assert all(r.timeline is not None for r in res)
        import json

        meta = json.loads(path.read_text())["otherData"]
        assert meta["backend"] == "thread"
        assert "doorbell" not in meta
        assert meta["batch_frames"] == 4
        assert meta["solo_frames"] == 4
