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
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.parallel.poolcore as poolcore
from repro.datasets import mri_brain
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
    WorkerDied,
)
from repro.render import ShearWarpRenderer
from repro.volume import mri_transfer_function

from .conftest import open_fds


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())


def _views(renderer, n):
    return [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(n)]


def _animate(renderer, views, **pool_kwargs):
    with repro.open_pool(renderer, **pool_kwargs) as pool:
        handles = [pool.submit(v) for v in views]
        results = [pool.result(h) for h in handles]
        counters = pool.fault_counters()
    return results, counters


def _assert_bit_identical(renderer, views, results):
    for view, res in zip(views, results):
        ref = renderer.render(view)
        assert np.array_equal(res.final.color, ref.final.color)
        assert np.array_equal(res.final.alpha, ref.final.alpha)


class TestFaultInjection:
    """Kill/hang/raise one worker at each phase; the animation survives."""

    # profile_period=2 makes the schedule profile frames 0 and 2 however
    # the four submits interleave with completions, so the "profile"
    # phase fault armed on frame 2 always has a frame to hit.
    @pytest.mark.parametrize("phase", poolcore.FAULT_PHASES)
    def test_kill_recovers_bit_identical(self, renderer, monkeypatch, phase):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 2, "kill", phase))
        views = _views(renderer, 4)
        results, counters = _animate(renderer, views, n_procs=2,
                                     profile_period=2)
        _assert_bit_identical(renderer, views, results)
        assert counters["worker_restarts"] >= 2  # the whole set respawned
        assert counters["frames_retried"] >= 1
        assert counters["degraded_frames"] == 0
        assert results[2].retries >= 1
        assert not any(r.degraded for r in results)

    @pytest.mark.parametrize("phase", poolcore.FAULT_PHASES)
    def test_raise_retries_bit_identical(self, renderer, monkeypatch, phase):
        """An exception leaves the worker set intact: retry, no respawn."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (1, 2, "raise", phase))
        views = _views(renderer, 4)
        results, counters = _animate(renderer, views, n_procs=2,
                                     profile_period=2)
        _assert_bit_identical(renderer, views, results)
        assert counters["frames_retried"] >= 1
        assert counters["worker_restarts"] == 0
        assert results[2].retries >= 1

    def test_kill_on_the_first_frame_of_an_unprofiled_pool(self, renderer,
                                                           monkeypatch):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        views = _views(renderer, 3)
        results, counters = _animate(renderer, views, n_procs=2,
                                     profile_period=0)
        _assert_bit_identical(renderer, views, results)
        assert counters["worker_restarts"] >= 2

    def test_hang_caught_by_timeout(self, renderer, monkeypatch):
        """A silently hung worker trips the frame deadline, not a hang."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "hang", "composite"))
        views = _views(renderer, 3)
        results, counters = _animate(renderer, views, n_procs=2,
                                     profile_period=0, timeout_s=1.0)
        _assert_bit_identical(renderer, views, results)
        assert counters["worker_restarts"] >= 2
        assert counters["frames_retried"] >= 1

    def test_real_sigkill_mid_animation(self, renderer, monkeypatch):
        """The acceptance scenario: SIGKILL a live worker mid-animation."""
        import os
        import signal

        # Slow worker 0 down so frames are still in flight when the
        # signal lands (same knob the stealing tests use).
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.005))
        views = _views(renderer, 6)
        with repro.open_pool(renderer, n_procs=2, profile_period=0) as pool:
            shm_names = [pool._shm_i.name, pool._shm_f.name]
            handles = [pool.submit(v) for v in views]
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            results = [pool.result(h) for h in handles]
            counters = pool.fault_counters()
        _assert_bit_identical(renderer, views, results)
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
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             trace=True) as pool:
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
            path = tmp_path / "fault_trace.json"
            pool.export_chrome_trace(str(path))
            assert pool.metrics.histogram("pool/recovery_s").count >= 1
        _assert_bit_identical(renderer, views, results)
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


#: A worker is killed (or hangs, under a frame deadline) in frame 1 just
#: as a 150-frame message (about 170 KB pickled, well past a 64 KB pipe)
#: goes out behind it.  Run in a subprocess with a watchdog, so that a
#: pool that wedges fails the test (exit status 3, its workers killed so
#: that its shared memory is reclaimed) instead of wedging the suite.
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
pool = MPRenderPool(r, PoolConfig(
    n_procs=2, timeout_s=0.5 if kind == "hang" else None))
results = []

def run():
    ids = pool.submit_batch(views[:2]) + pool.submit_batch(views[2:])
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


def _warp_raising(monkeypatch, on_call=None, message="injected warp failure"):
    """Patch the warp so worker 1 raises — on its ``on_call``-th call
    only (each worker warps once per frame attempt, so call ``k + 1`` is
    frame ``k``), or on every call.  The patch reaches process workers
    through fork, each with its own call count; a ``TEST_FAULT`` raise
    would re-trip on the retry, which runs on the same generation."""
    real = poolcore.warp_rows
    calls = {"n": 0}

    def flaky(*args, pid, **kwargs):
        if pid == 1:
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
        """Four pipelined ``submit``s, the first raises once: frames 2
        and 3 wait in the parent, not with the workers, so the retry
        goes out ahead of them and nobody is restarted."""
        views = _views(renderer, 4)
        _warp_raising(monkeypatch, on_call=1)
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             degrade_to_serial=False) as pool:
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
            counters = pool.fault_counters()
        _assert_bit_identical(renderer, views, results)
        assert counters == {
            "worker_restarts": 0, "frames_retried": 1, "degraded_frames": 0,
        }
        assert [r.retries for r in results] == [1, 0, 0, 0]

    @pytest.mark.parametrize("how", ["submit", "batch_of_one", "last_of_four"])
    def test_nothing_behind_it_in_its_buffer_is_a_plain_redispatch(
            self, renderer, monkeypatch, how):
        views = _views(renderer, 4 if how == "last_of_four" else 1)
        _warp_raising(monkeypatch, on_call=len(views))
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             degrade_to_serial=False) as pool:
            if how == "submit":
                handles = [pool.submit(views[0])]
            else:
                handles = pool.submit_batch(views)
            results = [pool.result(h) for h in handles]
            counters = pool.fault_counters()
        _assert_bit_identical(renderer, views, results)
        assert counters == {
            "worker_restarts": 0, "frames_retried": 1, "degraded_frames": 0,
        }
        assert [r.retries for r in results] == [0] * (len(views) - 1) + [1]


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
        head = "worker 1: RuntimeError: " + "\u00e9" * 100
        assert text.startswith(head)
        if backend == "thread":
            assert text == "worker 1: RuntimeError: " + message
        else:
            assert text.endswith(ERR_TRUNCATED)
            slot = text.removeprefix("worker 1: ").encode("utf-8")
            assert ERR_SLOT_BYTES - 1 <= len(slot) <= ERR_SLOT_BYTES

    def test_worker_death_raises_typed_error(self, renderer, monkeypatch):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             max_retries=0, degrade_to_serial=False) as pool:
            frame = pool.submit(renderer.view_from_angles(20, 30, 0))
            with pytest.raises(WorkerDied):
                pool.result(frame)
            with pytest.raises(WorkerDied):
                pool.result(frame)  # sticky: same typed error on re-poll
            # The pool stays usable after the failure.
            view = renderer.view_from_angles(20, 33, 0)
            res = pool.render(view)
            ref = renderer.render(view)
            assert np.array_equal(res.final.color, ref.final.color)

    def test_timeout_raises_frame_timeout(self, renderer, monkeypatch):
        """result() never blocks past timeout_s: typed error, not a hang."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "hang", "composite"))
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             timeout_s=0.5, max_retries=0,
                             degrade_to_serial=False) as pool:
            frame = pool.submit(renderer.view_from_angles(20, 30, 0))
            with pytest.raises(FrameTimeout):
                pool.result(frame)

    def test_degrades_to_serial_bit_identical(self, renderer, monkeypatch):
        """Retries exhausted -> in-parent serial render, same pixels."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             max_retries=0) as pool:
            res = pool.render(view)
            counters = pool.fault_counters()
        assert res.degraded
        assert counters["degraded_frames"] == 1
        ref = renderer.render(view)
        assert np.array_equal(res.final.color, ref.final.color)
        assert np.array_equal(res.final.alpha, ref.final.alpha)

    def test_close_wakes_result_waiter_with_pool_closed(self, renderer,
                                                        monkeypatch):
        """The old deadlock: close() during an in-flight result()."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "hang", "composite"))
        pool = repro.open_pool(renderer, n_procs=2, profile_period=0)
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
        pool.close()
        t.join(10.0)
        assert not t.is_alive()
        assert caught and isinstance(caught[0], PoolClosed)

    def test_submit_on_closed_pool_raises(self, renderer):
        pool = repro.open_pool(renderer, n_procs=1)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.submit(renderer.view_from_angles(20, 30, 0))


class TestNoLeaks:
    def test_fault_recovery_leaks_no_shm(self, renderer, monkeypatch):
        """Recovery respawns against the same segments; close unlinks
        every one of them even after a mid-animation worker death."""
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 1, "kill", "composite"))
        views = _views(renderer, 3)
        pool = repro.open_pool(renderer, n_procs=2, profile_period=0, trace=True)
        names = [pool._shm_i.name, pool._shm_f.name,
                 pool._shm_c.name, pool._shm_t.name]
        handles = [pool.submit(v) for v in views]
        results = [pool.result(h) for h in handles]
        assert pool.fault_counters()["worker_restarts"] >= 2
        pool.close()
        _assert_bit_identical(renderer, views, results)
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
        pool = repro.open_pool(renderer, n_procs=2, profile_period=0)
        pool.render(renderer.view_from_angles(20, 30, 0))
        assert pool.fault_counters()["worker_restarts"] >= 2
        pool.close()
        assert open_fds() == before


class TestPoolConfig:
    def test_validation_lives_on_the_config(self):
        with pytest.raises(ValueError, match="worker"):
            PoolConfig(n_procs=0)
        with pytest.raises(ValueError, match="profile_period"):
            PoolConfig(profile_period=-1)
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

    def test_legacy_kwargs_build_the_same_config(self, renderer):
        """What used to be per-call pool kwargs are ``open_pool``
        overrides now, and build exactly the config they name."""
        with repro.open_pool(renderer, n_procs=2, profile_period=0,
                             stealing=False) as pool:
            assert pool.config == PoolConfig(n_procs=2, profile_period=0,
                                             stealing=False)

    def test_config_and_kwargs_is_an_error(self, renderer):
        with pytest.raises(TypeError):
            MPRenderPool(renderer, n_procs=2, config=PoolConfig())

    def test_legacy_validation_still_raises(self, renderer):
        # Same errors the pre-config pool raised from __init__.
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
        view = renderer.view_from_angles(20, 30, 0)
        ref = renderer.render(view)
        res = repro.render_frame(renderer, view, config=PoolConfig(n_procs=2))
        assert res.n_procs == 2
        assert np.array_equal(res.final.color, ref.final.color)


class TestFacade:
    def test_top_level_exports(self):
        assert repro.PoolConfig is PoolConfig
        assert repro.MPRenderPool is MPRenderPool
        assert repro.WorkerDied is WorkerDied

    def test_render_frame(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        ref = renderer.render(view)
        res = repro.render_frame(renderer, view, n_procs=2)
        assert np.array_equal(res.final.color, ref.final.color)

    def test_open_pool_with_overrides(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        cfg = PoolConfig(n_procs=2, profile_period=0)
        with repro.open_pool(renderer, cfg, stealing=False) as pool:
            assert pool.config == cfg.replace(stealing=False)
            assert pool.n_procs == 2
            res = pool.render(view)
        ref = renderer.render(view)
        assert np.array_equal(res.final.color, ref.final.color)
