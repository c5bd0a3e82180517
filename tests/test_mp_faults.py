"""Fault-injection tests for the self-healing multiprocessing pool.

Each test arms the deterministic fault hook (``poolcore.TEST_FAULT``,
monkeypatched before the pool is built — it reaches the workers through
fork) to kill, hang or blow up one worker at one phase of one frame,
then asserts the supervisor recovers the animation with
images bit-identical to the serial reference and the recovery counters
telling the truth.  The typed-error and :class:`PoolConfig` API
contracts of the redesign are covered here too.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.parallel.poolcore as poolcore
from repro.parallel.mp_backend import (
    ERR_SLOT_BYTES,
    ERR_TRUNCATED,
    MPRenderPool,
)
from repro.parallel.poolcore import (
    FrameFailed,
    FrameTimeout,
    PoolClosed,
    PoolConfig,
    PoolUnrecoverable,
    WorkerDied,
)

from .conftest import assert_frames_identical, open_fds, serial_refs


def _views(renderer, n):
    return [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(n)]


def _animate(renderer, views, **pool_kwargs):
    with repro.open_pool(renderer, **pool_kwargs) as pool:
        handles = [pool.submit(v) for v in views]
        results = [pool.result(h) for h in handles]
        counters = pool.fault_counters()
    return results, counters


def _render_loop(renderer, views, **pool_kwargs):
    """``render()`` one view at a time: every frame meets an idle pool,
    so every frame goes whole to worker 0."""
    with repro.open_pool(renderer, **pool_kwargs) as pool:
        results = [pool.render(v) for v in views]
        counters = pool.fault_counters()
    return results, counters


class TestFaultInjection:
    """Kill/hang/raise one worker at each phase; the animation survives."""

    # A render() loop meets an idle pool with every frame, so frame 4
    # goes whole to worker 0, and its retry is banded over both workers.
    # (Pipelined submits would deal frame 4 to whichever worker holds
    # fewer frames.)
    @pytest.mark.parametrize("phase", poolcore.FAULT_PHASES)
    def test_kill_recovers_bit_identical(self, renderer, monkeypatch, phase):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 4, "kill", phase))
        views = _views(renderer, 6)
        results, counters = _render_loop(renderer, views, n_procs=2)
        assert_frames_identical(results, serial_refs(renderer, views))
        assert counters["worker_restarts"] >= 2  # the whole set respawned
        assert counters["frames_retried"] >= 1
        assert counters["degraded_frames"] == 0
        assert results[4].retries >= 1
        # The retry is banded: both workers report busy time, a solo
        # frame's other worker none.
        assert (results[4].busy_s > 0).all()
        assert not any(r.degraded for r in results)

    @pytest.mark.parametrize("phase", poolcore.FAULT_PHASES)
    def test_raise_retries_bit_identical(self, renderer, monkeypatch, phase):
        """An exception leaves the worker set intact: retry, no respawn."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 4, "raise", phase))
        views = _views(renderer, 6)
        results, counters = _render_loop(renderer, views, n_procs=2)
        assert_frames_identical(results, serial_refs(renderer, views))
        assert counters["frames_retried"] >= 1
        assert counters["worker_restarts"] == 0
        assert results[4].retries >= 1

    def test_kill_on_the_first_frame_of_an_unprofiled_pool(self, renderer,
                                                           monkeypatch):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        views = _views(renderer, 3)
        results, counters = _animate(renderer, views, n_procs=2)
        assert_frames_identical(results, serial_refs(renderer, views))
        assert counters["worker_restarts"] >= 2

    def test_hang_caught_by_timeout(self, renderer, monkeypatch):
        """A silently hung worker trips the frame deadline, not a hang."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "hang", "composite"))
        views = _views(renderer, 3)
        results, counters = _animate(renderer, views, n_procs=2, timeout_s=1.0)
        assert_frames_identical(results, serial_refs(renderer, views))
        assert counters["worker_restarts"] >= 2
        assert counters["frames_retried"] >= 1

    def test_real_sigkill_mid_animation(self, renderer, monkeypatch):
        """The acceptance scenario: SIGKILL a live worker mid-animation."""
        import os
        import signal

        # Slow worker 0 down so frames are still in flight when the
        # signal lands.
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.005))
        views = _views(renderer, 6)
        with repro.open_pool(renderer, n_procs=2) as pool:
            shm_names = [pool._shm_i.name, pool._shm_f.name]
            handles = [pool.submit(v) for v in views]
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            results = [pool.result(h) for h in handles]
            counters = pool.fault_counters()
        assert_frames_identical(results, serial_refs(renderer, views))
        assert counters["worker_restarts"] >= 1
        # No shm leak: recovery reused the segments, close unlinked them.
        from multiprocessing import shared_memory as sm
        for name in shm_names:
            with pytest.raises(FileNotFoundError):
                sm.SharedMemory(name=name)

    def test_traced_pool_records_recovery(self, renderer, monkeypatch,
                                          tmp_path):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        views = _views(renderer, 3)
        with repro.open_pool(renderer, n_procs=2, trace=True) as pool:
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
            path = tmp_path / "fault_trace.json"
            pool.export_chrome_trace(str(path))
            assert pool.metrics.histogram("pool/recovery_s").count >= 1
        assert_frames_identical(results, serial_refs(renderer, views))
        from repro.obs import load_chrome_trace, validate_chrome_trace
        trace = load_chrome_trace(str(path))
        assert validate_chrome_trace(trace) == []
        meta = trace["otherData"]
        assert int(meta["worker_restarts"]) >= 2
        assert int(meta["frames_retried"]) >= 1
        # The retried frame carries the supervisor's recover span.
        recovered = [r for r in results if r.retries]
        assert recovered and any(
            s.phase == "recover"
            for r in recovered if r.timeline is not None
            for s in r.timeline.spans
        )


#: A worker is killed (or hangs, under a frame deadline) in frame 1 —
#: a one-frame message sent once frame 0 is collected, into an idle
#: pool, and cut banded over both workers as a retry is (the script
#: patches the cut as ``conftest.banded`` does, for frame 1 alone) —
#: just as a 150-frame message (dealt solo: 75 jobs, about
#: 90 KB pickled, a worker, well past a 64 KB pipe) goes out behind it.
#: Run in a subprocess with a watchdog, so that a pool that wedges fails
#: the test (exit status 3, its workers killed so that its shared memory
#: is reclaimed) instead of wedging the suite.
_FAULT_UNDER_A_LARGE_BATCH = """
import os
import sys
import threading
import numpy as np
import repro.parallel.poolcore as poolcore
from repro.datasets import mri_brain
from repro.parallel.mp_backend import MPRenderPool
from repro.parallel.poolcore import PoolConfig
from repro.render import ShearWarpRenderer
from repro.render.fast import render_fast
from repro.volume import mri_transfer_function

r = ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())
pid, kind = int(sys.argv[1]), sys.argv[2]
poolcore.TEST_FAULT = (pid, 1, kind, "composite")
views = [r.view_from_angles(20, 30 + 0.5 * i, 0) for i in range(152)]
cut = poolcore.FramePlanner.cut
poolcore.FramePlanner.cut = lambda planner, plan, solo=None: cut(
    planner, plan, None if np.array_equal(plan["view"], views[1]) else solo)
pool = MPRenderPool(r, PoolConfig(
    n_procs=2, timeout_s=0.5 if kind == "hang" else None))
results = []

def run():
    results.append(pool.result(pool.submit_batch(views[:1])[0]))
    ids = pool.submit_batch(views[1:2]) + pool.submit_batch(views[2:])
    results.extend(pool.result(i) for i in ids)

watched = threading.Thread(target=run, daemon=True)
watched.start()
watched.join(60)
if watched.is_alive():
    for w in pool._workers:
        w.kill()
    os._exit(3)
restarts = pool.fault_counters()["worker_restarts"]
pool.close()
identical = 0
for view, res in zip(views, results):
    ref = render_fast(r, view)
    identical += bool(np.array_equal(res.final.color, ref.final.color)
                      and np.array_equal(res.final.alpha, ref.final.alpha))
print(identical, restarts)
"""


@pytest.mark.parametrize("worker, kind", [
    pytest.param(0, "kill", id="0"),
    pytest.param(1, "kill", id="1"),
    pytest.param(0, "hang", id="hang"),
])
def test_worker_killed_under_a_message_larger_than_its_pipe(worker, kind):
    """The supervisor writes job pipes with the pool condition held.  A
    message that outgrows the pipe must not wait on a dead worker — nor
    on its sibling, wedged at the barrier the dead one never reaches —
    or recovery, which needs that condition, never runs.  A hung worker
    never dies, so that wait ends at the oldest frame's deadline, after
    which the health check recovers the set."""
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-c", _FAULT_UNDER_A_LARGE_BATCH, str(worker), kind],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:  # even the watchdog is stuck
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode != 3, f"the pool hung behind a full job pipe ({kind} fault)"
    assert proc.returncode == 0, err
    identical, restarts = map(int, out.split())
    assert identical == 152
    assert restarts >= 1


def _warp_raising(monkeypatch, on_call=None, message="injected warp failure",
                  worker=0):
    """Patch the warp so ``worker`` raises — on its ``on_call``-th call
    only (each worker warps once per frame attempt it is dealt: call
    ``k + 1`` is frame ``k`` of a one-frame stream on worker 0, call
    ``k + 1`` frame ``2k + worker`` of a batch into an idle two-worker
    pool), or on every call.  The patch reaches process workers
    through fork, each with its own call count; a ``TEST_FAULT`` raise
    would re-trip on the retry, which runs on the same generation."""
    real = poolcore.warp_rows
    calls = {"n": 0}

    def flaky(*args, pid, **kwargs):
        if pid == worker:
            calls["n"] += 1
            if on_call is None or calls["n"] == on_call:
                raise RuntimeError(message)
        return real(*args, pid=pid, **kwargs)

    monkeypatch.setattr(poolcore, "warp_rows", flaky)


class TestRetryRule:
    """What a worker exception costs is decided from the ledger at the
    moment of failure: re-dispatch, unless the workers already hold a
    later frame assigned the failed frame's buffer."""

    def test_frames_held_in_the_parent_do_not_escalate(self, renderer,
                                                       monkeypatch):
        """Six pipelined ``submit``s, the first raises once: frames 4
        and 5 — frame 0's buffer and the next — wait in the parent, not
        with the workers, so the retry goes out ahead of them and
        nobody is restarted."""
        views = _views(renderer, 6)
        _warp_raising(monkeypatch, on_call=1)
        with repro.open_pool(renderer, n_procs=2,
                             degrade_to_serial=False) as pool:
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
            counters = pool.fault_counters()
        assert_frames_identical(results, serial_refs(renderer, views))
        assert counters == {
            "worker_restarts": 0, "frames_retried": 1, "degraded_frames": 0,
        }
        assert [r.retries for r in results] == [1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("how", ["submit", "batch_of_one", "last_of_four"])
    def test_nothing_behind_it_in_its_buffer_is_a_plain_redispatch(
            self, renderer, monkeypatch, how):
        views = _views(renderer, 4 if how == "last_of_four" else 1)
        # A lone frame goes to worker 0; of the batch of four, worker 1
        # warps frames 1 and 3.
        if how == "last_of_four":
            _warp_raising(monkeypatch, on_call=2, worker=1)
        else:
            _warp_raising(monkeypatch, on_call=1)
        with repro.open_pool(renderer, n_procs=2,
                             degrade_to_serial=False) as pool:
            if how == "submit":
                handles = [pool.submit(views[0])]
            else:
                handles = pool.submit_batch(views)
            results = [pool.result(h) for h in handles]
            counters = pool.fault_counters()
        assert_frames_identical(results, serial_refs(renderer, views))
        assert counters == {
            "worker_restarts": 0, "frames_retried": 1, "degraded_frames": 0,
        }
        assert [r.retries for r in results] == [0] * (len(views) - 1) + [1]


class TestRespawnFailure:
    @pytest.mark.parametrize("degrade", [True, False], ids=["degrade", "fail"])
    def test_held_frames_are_settled_when_the_respawn_fails(
            self, renderer, monkeypatch, degrade):
        """Worker 0 dies on frame 0 of six pipelined ``submit``s and no
        new worker set can be forked.  Every frame in flight is settled
        — frames 4 and 5, still held in the parent behind the pool's
        four buffers and never partitioned, too: bit-identical and
        degraded, or failed with a typed error.  None is lost to a
        ``KeyError`` in the supervisor."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        spawn = MPRenderPool._spawn_workers

        def spawn_once(self, generation):
            if generation >= 1:
                raise OSError("injected respawn failure")
            spawn(self, generation)

        monkeypatch.setattr(MPRenderPool, "_spawn_workers", spawn_once)
        views = _views(renderer, 6)
        with repro.open_pool(renderer, n_procs=2,
                             degrade_to_serial=degrade) as pool:
            handles = [pool.submit(v) for v in views]
            if degrade:
                results = [pool.result(h) for h in handles]
            else:
                for h in handles:
                    with pytest.raises(PoolUnrecoverable, match="respawn"):
                        pool.result(h)
            broken = pool._broken
        assert broken.startswith("worker respawn failed: OSError")
        if degrade:
            assert_frames_identical(results, serial_refs(renderer, views))
            assert all(r.degraded for r in results)
            assert [r.boundaries is None for r in results] == [
                False, False, False, False, True, True]


class TestForkSafeRespawn:
    def test_a_parent_thread_holding_the_renderer_locks_cannot_wedge_it(
            self, renderer, monkeypatch):
        """Worker 0 dies on frame 0, and while the supervisor forks the
        new worker set another parent thread holds the renderer's
        residency lock and the frame's slice-cache lock — the locks a
        worker takes on every frame.  The children get fresh ones, so
        the retried frame renders bit-identically, before the deadline
        that would otherwise have caught a wedged worker."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        view = renderer.view_from_angles(20, 30, 0)
        rle = renderer.rle_for(renderer.factorize_view(view))
        held, release = threading.Event(), threading.Event()

        def hold():
            with renderer._resident_lock, rle.slice_cache._lock:
                held.set()
                release.wait(60.0)

        holder = threading.Thread(target=hold)
        spawn = MPRenderPool._spawn_workers

        def spawn_while_held(self, generation):
            if generation >= 1 and not held.is_set():
                holder.start()
                held.wait()
            spawn(self, generation)

        monkeypatch.setattr(MPRenderPool, "_spawn_workers", spawn_while_held)
        timeout_s = 10.0
        try:
            with repro.open_pool(renderer, n_procs=2, timeout_s=timeout_s,
                                 max_retries=1, degrade_to_serial=False) as pool:
                t0 = time.monotonic()
                res = pool.result(pool.submit(view))
                elapsed = time.monotonic() - t0
                restarts = pool.fault_counters()["worker_restarts"]
        finally:
            release.set()
            if held.is_set():
                holder.join()
        assert held.is_set() and restarts == 2
        assert res.retries == 1 and not res.degraded
        assert elapsed < timeout_s
        assert_frames_identical([res], serial_refs(renderer, [view]))


class TestTypedErrors:
    @pytest.mark.parametrize("backend", ["mp", "thread"])
    def test_long_worker_error_is_cut_to_its_slot(self, renderer, monkeypatch,
                                                  backend):
        """A process worker's exception text travels in a fixed-size
        slot: type name and head of the message survive, the cut falls
        on a character boundary and is marked.  A thread hands the
        string over whole."""
        message = "\u00e9" * 1000  # two bytes each; the cut lands mid-character
        _warp_raising(monkeypatch, message=message)
        with repro.open_pool(renderer, n_procs=2, backend=backend,
                             max_retries=0, degrade_to_serial=False) as pool:
            frame = pool.submit(renderer.view_from_angles(20, 30, 0))
            with pytest.raises(FrameFailed) as failed:
                pool.result(frame)
        text = str(failed.value)
        head = "worker 0: RuntimeError: " + "\u00e9" * 100
        assert text.startswith(head)
        if backend == "thread":
            assert text == "worker 0: RuntimeError: " + message
        else:
            assert text.endswith(ERR_TRUNCATED)
            slot = text.removeprefix("worker 0: ").encode("utf-8")
            assert ERR_SLOT_BYTES - 1 <= len(slot) <= ERR_SLOT_BYTES

    def test_worker_death_raises_typed_error(self, renderer, monkeypatch):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        with repro.open_pool(renderer, n_procs=2,
                             max_retries=0, degrade_to_serial=False) as pool:
            frame = pool.submit(renderer.view_from_angles(20, 30, 0))
            with pytest.raises(WorkerDied):
                pool.result(frame)
            with pytest.raises(WorkerDied):
                pool.result(frame)  # sticky: same typed error on re-poll
            # The pool stays usable after the failure.
            view = renderer.view_from_angles(20, 33, 0)
            res = pool.render(view)
            assert_frames_identical([res], serial_refs(renderer, [view]))

    def test_timeout_raises_frame_timeout(self, renderer, monkeypatch):
        """result() never blocks past timeout_s: typed error, not a hang."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "hang", "composite"))
        with repro.open_pool(renderer, n_procs=2,
                             timeout_s=0.5, max_retries=0,
                             degrade_to_serial=False) as pool:
            frame = pool.submit(renderer.view_from_angles(20, 30, 0))
            with pytest.raises(FrameTimeout):
                pool.result(frame)

    def test_degrades_to_serial_bit_identical(self, renderer, monkeypatch):
        """Retries exhausted -> in-parent serial render, same pixels."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2, max_retries=0) as pool:
            res = pool.render(view)
            counters = pool.fault_counters()
        assert res.degraded
        assert counters["degraded_frames"] == 1
        assert_frames_identical([res], serial_refs(renderer, [view]))

    def test_close_wakes_result_waiter_with_pool_closed(self, renderer,
                                                        monkeypatch):
        """The old deadlock: close() during an in-flight result() — on a
        wedged worker set, which ``close()`` stops under one deadline
        for the whole set (it joined each worker in turn once, five
        seconds apiece)."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "hang", "composite"))
        pool = repro.open_pool(renderer, n_procs=4)
        frame = pool.submit(renderer.view_from_angles(20, 30, 0))
        caught = []

        def waiter():
            try:
                pool.result(frame)
            except BaseException as exc:  # noqa: BLE001
                caught.append(exc)

        t = threading.Thread(target=waiter)
        t.start()
        t.join(0.3)  # let it block on the hung frame
        assert t.is_alive()
        t0 = time.monotonic()
        pool.close()
        assert time.monotonic() - t0 < 8.0
        t.join(10.0)
        assert not t.is_alive()
        assert caught and isinstance(caught[0], PoolClosed)


class TestNoLeaks:
    def test_fault_recovery_leaks_no_shm(self, renderer, monkeypatch):
        """Recovery respawns against the same segments; close unlinks
        every one of them even after a mid-animation worker death (of
        worker 1, which frame 1 is dealt to while worker 0 holds frame 0)."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (1, 1, "kill", "composite"))
        views = _views(renderer, 3)
        pool = repro.open_pool(renderer, n_procs=2, trace=True)
        names = [pool._shm_i.name, pool._shm_f.name,
                 pool._shm_d.name, pool._shm_t.name]
        handles = [pool.submit(v) for v in views]
        results = [pool.result(h) for h in handles]
        assert pool.fault_counters()["worker_restarts"] >= 2
        pool.close()
        assert_frames_identical(results, serial_refs(renderer, views))
        from multiprocessing import shared_memory as sm
        for name in names:
            with pytest.raises(FileNotFoundError):
                sm.SharedMemory(name=name)

    def test_closed_pool_holds_no_fds(self, renderer, monkeypatch):
        """``close()`` gives back every descriptor the pool opened —
        its workers' sentinel pipes included, for the generation a
        recovery replaced and for the last one — even while something
        (a traceback, a caller) still references the pool object."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        before = open_fds()
        pool = repro.open_pool(renderer, n_procs=2)
        pool.render(renderer.view_from_angles(20, 30, 0))
        assert pool.fault_counters()["worker_restarts"] >= 2
        pool.close()
        assert open_fds() == before


class TestPoolConfig:
    def test_validation_lives_on_the_config(self):
        with pytest.raises(ValueError, match="worker"):
            PoolConfig(n_procs=0)
        with pytest.raises(ValueError, match="timeout_s"):
            PoolConfig(timeout_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            PoolConfig(max_retries=-1)

    def test_replace_revalidates(self):
        cfg = PoolConfig(n_procs=2)
        assert cfg.replace(n_procs=4).n_procs == 4
        with pytest.raises(ValueError):
            cfg.replace(n_procs=0)

    def test_frozen(self):
        with pytest.raises(Exception):
            PoolConfig().n_procs = 3  # frozen dataclass

    def test_open_pool_overrides_build_the_same_config(self, renderer):
        """``open_pool``'s keyword overrides build exactly the config
        they name."""
        with repro.open_pool(renderer, n_procs=2, max_retries=1,
                             degrade_to_serial=False) as pool:
            assert pool.config == PoolConfig(n_procs=2, max_retries=1,
                                             degrade_to_serial=False)

    def test_config_and_kwargs_is_an_error(self, renderer):
        with pytest.raises(TypeError):
            MPRenderPool(renderer, n_procs=2, config=PoolConfig())

    def test_open_pool_overrides_are_validated(self, renderer):
        # The config's own validation, reached through the facade.
        with pytest.raises(ValueError):
            repro.open_pool(renderer, n_procs=0)

    def test_kernel_is_not_an_option(self, renderer):
        """Every pool composites with the block kernel: neither the
        config nor the facade takes a kernel."""
        with pytest.raises(TypeError, match="kernel"):
            PoolConfig(kernel="block")
        with pytest.raises(TypeError, match="kernel"):
            repro.open_pool(renderer, kernel="block")

    def test_one_shot_accepts_config(self, renderer):
        """One frame is ``open_pool`` plus ``render``, configured the
        same way as an animation."""
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, config=PoolConfig(n_procs=2)) as pool:
            res = pool.render(view)
        assert res.n_procs == 2
        assert_frames_identical([res], serial_refs(renderer, [view]))


class TestFacade:
    def test_top_level_exports(self):
        assert repro.PoolConfig is PoolConfig
        assert repro.MPRenderPool is MPRenderPool
        assert repro.WorkerDied is WorkerDied

    def test_render_frame(self, renderer):
        """A frame through the facade's overrides: ``open_pool`` plus
        ``render`` (the one-shot helper is gone)."""
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2) as pool:
            res = pool.render(view)
        assert_frames_identical([res], serial_refs(renderer, [view]))
        assert not hasattr(repro, "render_frame")

    def test_open_pool_with_overrides(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        cfg = PoolConfig(n_procs=2)
        with repro.open_pool(renderer, cfg, max_retries=1) as pool:
            assert pool.config == cfg.replace(max_retries=1)
            assert pool.n_procs == 2
            res = pool.render(view)
        assert_frames_identical([res], serial_refs(renderer, [view]))
