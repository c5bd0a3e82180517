"""Fault-injection tests for the self-healing multiprocessing pool.

Each test arms the deterministic fault hook (``poolcore.TEST_FAULT``, the
monkeypatch twin of the ``REPRO_MP_FAULT`` env knob — it reaches the
workers through fork) to kill, hang or blow up one worker at one phase
of one frame, then asserts the supervisor recovers the animation with
images bit-identical to the serial reference and the recovery counters
telling the truth.  The typed-error and :class:`PoolConfig` API
contracts of the redesign are covered here too.
"""

import threading

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

    @pytest.mark.parametrize("kernel", poolcore.COMPOSITE_KERNELS)
    def test_kill_recovery_on_both_kernels(self, renderer, monkeypatch,
                                           kernel):
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 0, "kill", "composite"))
        views = _views(renderer, 3)
        results, counters = _animate(renderer, views, n_procs=2,
                                     kernel=kernel, profile_period=0)
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


class TestPoolConfig:
    def test_validation_lives_on_the_config(self):
        with pytest.raises(ValueError, match="worker"):
            PoolConfig(n_procs=0)
        with pytest.raises(ValueError, match="kernel"):
            PoolConfig(kernel="simd")
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
        with repro.open_pool(renderer, n_procs=2, kernel="scanline",
                             profile_period=0, stealing=False) as pool:
            assert pool.config == PoolConfig(n_procs=2, kernel="scanline",
                                             profile_period=0, stealing=False)

    def test_config_and_kwargs_is_an_error(self, renderer):
        with pytest.raises(TypeError):
            MPRenderPool(renderer, n_procs=2, config=PoolConfig())

    def test_legacy_validation_still_raises(self, renderer):
        # Same errors the pre-config pool raised from __init__.
        with pytest.raises(ValueError):
            repro.open_pool(renderer, n_procs=0)
        with pytest.raises(ValueError):
            repro.open_pool(renderer, kernel="nope")

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
        with repro.open_pool(renderer, cfg, kernel="scanline") as pool:
            assert pool.kernel == "scanline"
            assert pool.n_procs == 2
            res = pool.render(view)
        ref = renderer.render(view)
        assert np.array_equal(res.final.color, ref.final.color)


class TestFaultEnvParsing:
    def test_parses_full_spec(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_FAULT", "1:3:hang:warp")
        assert poolcore.fault_from_env() == (1, 3, "hang", "warp")

    def test_phase_defaults_to_composite(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_FAULT", "0:0:kill")
        assert poolcore.fault_from_env() == (0, 0, "kill", "composite")

    def test_rejects_bad_kind_and_phase(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_FAULT", "0:0:explode")
        with pytest.raises(ValueError):
            poolcore.fault_from_env()
        monkeypatch.setenv("REPRO_MP_FAULT", "0:0:kill:teleport")
        with pytest.raises(ValueError):
            poolcore.fault_from_env()

    def test_absent_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_FAULT", raising=False)
        assert poolcore.fault_from_env() is None
