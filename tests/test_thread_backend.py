"""The thread transport's own behaviour: the fork-free test transport.

Bit-identity and the result contract of :class:`ThreadRenderPool` are
``tests/test_conformance.py``'s (its ``thread2`` entry).  Here: what
only threads do — no worker is ever respawned, a retry runs on the
same threads, and a trace names its transport.
"""

from repro.parallel.poolcore import PoolConfig
from repro.parallel.thread_backend import ThreadRenderPool

from .conftest import fail_composite


def _views(renderer, n=5):
    return [renderer.view_from_angles(20, 30 + 4 * i, 2 * i) for i in range(n)]


class TestLifecycleAndObs:
    def test_a_raise_is_retried_on_the_same_threads(self, renderer,
                                                    monkeypatch, tmp_path):
        """A worker that raised is not replaced: the one retry runs on
        the threads that failed it, and nothing counts a restart."""
        fail_composite(monkeypatch, tmp_path / "fired", frame=1)
        cfg = PoolConfig(n_procs=2, max_retries=2, degrade_to_serial=False)
        with ThreadRenderPool(renderer, config=cfg) as pool:
            threads = list(pool._threads)
            res = pool.render_animation(_views(renderer, 4))
            fc = pool.fault_counters()
            assert pool._threads == threads
            assert all(t.is_alive() for t in threads)
        assert fc["frames_retried"] == 1
        assert fc["worker_restarts"] == 0
        assert [r.retries for r in res] == [0, 1, 0, 0]
        assert not any(t.is_alive() for t in threads)

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
