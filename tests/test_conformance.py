"""The one frame contract, stated once over the ``RenderBackend`` seam.

Partitioning, dealing, band-time feedback, sharding and recovery change only
*which* worker composites and warps a scanline, never a pixel.  A pool
deals every fresh frame whole to one worker and bands only a retry; the
``banded`` fixture cuts whole streams as a retry is cut, so bands are
held to the same frames.  So
every backend — each entry of :data:`BACKENDS` — must return frames
bit-identical to the serial fast path (:func:`assert_frames_identical`:
all four planes and the factorization axis), however the frames reach
it and whatever fails on the way, and must keep one result contract:
out-of-order collection, sticky typed errors, ``KeyError`` for a frame
it does not hold, ``PoolClosed`` once closed — driven from any thread,
with result planes that are the caller's own.  A new backend joins by
adding one entry to :data:`BACKENDS`; what only one transport does
(the doorbell, job pipes, respawns, the fake transport's ledger) is
tested beside that transport.
"""

import asyncio
import itertools
import threading
import time

import numpy as np
import pytest

import repro
import repro.parallel.poolcore as poolcore
from repro.datasets import beating_heart
from repro.movie import MoviePipeline, TimeVaryingRenderer, movie_frame_specs
from repro.parallel import FrameSpec, PoolConfig, RenderBackend
from repro.parallel.poolcore import FrameFailed, PoolClosed
from repro.serve import RenderClient, RenderServer, ServeConfig, response_frames
from repro.shard import ShardedRenderService
from repro.volume import mri_transfer_function

from .conftest import assert_frames_identical, fail_composite, serial_refs

#: Every backend shape the suite holds to the contract, as the config
#: :func:`repro.open_pool` (and a :class:`ServeConfig`) builds it from:
#: the mp pools and fleets a user opens (``--procs``, ``--shards``; a
#: fleet of two-worker pools deals solo inside each shard), and the
#: thread transport in the shape the benchmark's baseline probe opens.
BACKENDS = {
    "mp1": PoolConfig(n_procs=1),
    "mp2": PoolConfig(n_procs=2),
    "mp4": PoolConfig(n_procs=4),
    "thread2": PoolConfig(n_procs=2, backend="thread"),
    "fleet-mp1": PoolConfig(n_procs=1, shards=2),
    "fleet-mp2": PoolConfig(n_procs=2, shards=2),
}

#: The entries that are shard fleets, whose merge is their own state.
FLEETS = {name: cfg for name, cfg in BACKENDS.items() if cfg.shards > 1}

#: The entries whose pools have two or more workers to deal a frame to.
SPLITTABLE = {name: cfg for name, cfg in BACKENDS.items() if cfg.n_procs > 1}

#: ``(rx, ry, rz)`` of a rotation that crosses the principal-axis
#: switch at ry = 45 degrees, then the degenerate views: on the tie
#: itself, on the double tie, and a hair off a principal axis — where
#: the parent and the workers must still agree on the factorization.
ANGLES = [(20, 30 + 6 * i, 2 * i) for i in range(6)] + [
    (0, 45, 0), (45, 45, 0), (0, 1e-6, 0),
]


@pytest.fixture(scope="module")
def heart():
    return TimeVaryingRenderer(beating_heart((20, 20, 16), timesteps=3),
                               mri_transfer_function())


@pytest.fixture(params=list(BACKENDS.values()), ids=list(BACKENDS))
def config(request):
    return request.param


def _views(renderer, angles=ANGLES):
    return [renderer.view_from_angles(*a) for a in angles]


def _solo_frames(pool) -> int:
    """``pool/solo_frames`` of a pool, summed over a fleet's pools."""
    return sum(int(p.metrics.counter("pool/solo_frames").value)
               for p in getattr(pool, "_pools", [pool]))


def _dealt_solo(config, n_frames: int) -> int:
    """Solo frames a message of ``n_frames`` makes: a pool of two or
    more workers deals every fresh frame whole, and a fleet hands every
    shard's pool the whole message."""
    return n_frames * config.shards if config.n_procs > 1 else 0


class TestFrames:
    """Frames equal the serial reference, however they reach the pool:
    a batch dealt whole ("solo") to the workers, the same views one
    frame at a time, or cut banded over all workers as a retry is."""

    def test_a_batch_deeper_than_the_buffers_across_an_axis_switch(
            self, renderer, config):
        views = _views(renderer)
        refs = serial_refs(renderer, views)
        assert len({r.fact.axis for r in refs}) > 1
        with repro.open_pool(renderer, config) as pool:
            assert isinstance(pool, RenderBackend)
            # Deeper than the process pool's shared image buffers.
            assert len(views) > getattr(pool, "buffers", 0)
            # Every other view goes bare: ``as_frame_specs`` wraps it.
            ids = pool.submit_batch([FrameSpec(v) if i % 2 else v
                                     for i, v in enumerate(views)])
            got = {f: pool.result(f) for f in reversed(ids)}
            # A collected frame is gone; so is one never submitted.
            for frame in (ids[0], max(ids) + 100):
                with pytest.raises(KeyError):
                    pool.result(frame)
            assert pool.submit_batch([]) == []
            assert pool.render_animation([]) == []
            assert _solo_frames(pool) == _dealt_solo(config, len(views))
        assert_frames_identical([got[f] for f in ids], refs)

    def test_the_same_views_as_a_one_frame_stream(self, renderer, config):
        views = _views(renderer)
        with repro.open_pool(renderer, config) as pool:
            results = [pool.render(v) for v in views]
            assert _solo_frames(pool) == _dealt_solo(config, len(views))
        assert_frames_identical(results, serial_refs(renderer, views))

    def test_profiled_frames(self, renderer, config, banded):
        """Every banded frame carries its band-time profile, and a
        stream cut from it stays bit-identical (a fleet reports its
        pools')."""
        views = _views(renderer, ANGLES[:4])
        with repro.open_pool(renderer, config) as pool:
            results = [pool.render(v) for v in views]
            pools = getattr(pool, "_pools", [pool])
            assert all(p._planner.profile is not None for p in pools)
        if config.shards == 1:
            for r in results:
                assert r.costs_v_lo == r.boundaries[0]
                assert np.isclose(r.costs.sum(), r.busy_s.sum())
        assert_frames_identical(results, serial_refs(renderer, views))

    def test_a_slowed_worker_sheds_rows_by_profile(
            self, renderer, config, monkeypatch, banded):
        """No pool steals: what moves rows off a slowed worker 0 is band
        time.  On a banded one-frame stream, worker 0's band in the frame cut
        from the first frame's band times is shorter than in the same
        pool unslowed (in every shard's pool of a fleet), and the frames
        stay bit-identical."""
        views = _views(renderer, ANGLES[:3])
        refs = serial_refs(renderer, views)
        cuts: dict[int, list] = {}
        real_cut = poolcore.FramePlanner.cut

        def cut(planner, plan, solo=None):
            plan = real_cut(planner, plan, solo)
            cuts.setdefault(id(planner), []).append(plan["boundaries"])
            return plan

        monkeypatch.setattr(poolcore.FramePlanner, "cut", cut)

        def worker0_rows(delay):
            monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", delay)
            cuts.clear()
            with repro.open_pool(renderer, config) as pool:
                results = [pool.render(v) for v in views]
                planners = [id(p._planner) for p in getattr(pool, "_pools", [pool])]
            assert_frames_identical(results, refs)
            assert all(r.steals == r.steal_rows == 0 for r in results)
            return [int(np.diff(cuts[p][1])[0]) for p in planners]

        slowed = worker0_rows((0, 0.01))
        if config.n_procs > 1:
            unslowed = worker0_rows(None)
            assert all(s < u for s, u in zip(slowed, unslowed)), (slowed, unslowed)

    def test_timesteps(self, heart, config):
        """A batch, then a stream cut from band times: the moving wedge
        churns the profile between frames without moving a pixel."""
        specs = movie_frame_specs(heart, 4, step_y=8.0)
        with repro.open_pool(heart, config) as pool:
            batch = [pool.result(f) for f in pool.submit_batch(specs)]
            stream = [pool.render(s.view, timestep=s.timestep)
                      for s in reversed(specs)]
        assert all(r.busy_s is not None and not r.degraded for r in stream)
        refs = serial_refs(heart, specs)
        assert_frames_identical(batch, refs)
        assert_frames_identical(stream, refs[::-1])

    def test_movie_pipeline(self, heart, config, tmp_path):
        specs = movie_frame_specs(heart, 5)
        with repro.open_pool(heart, config) as pool:
            MoviePipeline(pool, str(tmp_path), fmt="npz").run(specs)
        for i, ref in enumerate(serial_refs(heart, specs)):
            with np.load(tmp_path / f"frame_{i:04d}.npz") as z:
                assert np.array_equal(z["color"], ref.final.color)
                assert np.array_equal(z["alpha"], ref.final.alpha)

    def test_render_server(self, renderer, config):
        """A reply carries only the final planes: those, bit for bit."""
        server = RenderServer(ServeConfig(pool=config),
                              renderer_factory=lambda *identity: renderer)
        request = {"op": "animate", "frames": 4, "rx": 20.0, "ry": 36.0,
                   "rz": 0.0, "ry_step": 4.0}

        async def body():
            async with server:
                client = await RenderClient.connect(*server.address)
                try:
                    return await client.request(request)
                finally:
                    await client.close()

        resp = asyncio.run(asyncio.wait_for(body(), 60.0))
        assert resp["status"] == "ok", resp
        views = _views(renderer, [(20, 36 + 4 * i, 0) for i in range(4)])
        frames = response_frames(resp)
        assert len(frames) == len(views)
        for (color, alpha), ref in zip(frames, serial_refs(renderer, views)):
            assert np.array_equal(color, ref.final.color)
            assert np.array_equal(alpha, ref.final.alpha)


class TestResultContract:
    """Failures stay with their frame, typed, and never cost a pixel."""

    def test_a_failed_attempt_is_retried(self, renderer, config, monkeypatch,
                                         tmp_path):
        fail_composite(monkeypatch, tmp_path / "fired", frame=1)
        views = _views(renderer, ANGLES[:4])
        with repro.open_pool(renderer, config, max_retries=2,
                             degrade_to_serial=False) as pool:
            results = pool.render_animation(views)
            assert pool.fault_counters()["frames_retried"] >= 1
        assert_frames_identical(results, serial_refs(renderer, views))
        assert results[0].retries == 0 and results[1].retries >= 1
        assert not any(r.degraded for r in results)

    def test_exhausted_retries_degrade_to_serial(self, renderer, config,
                                                 monkeypatch, tmp_path):
        fail_composite(monkeypatch, tmp_path / "fired", frame=1, once=False)
        views = _views(renderer, ANGLES[:3])
        with repro.open_pool(renderer, config, max_retries=0) as pool:
            results = pool.render_animation(views)
            degraded = pool.fault_counters()["degraded_frames"]
        assert_frames_identical(results, serial_refs(renderer, views))
        assert [r.degraded for r in results] == [False, True, False]
        # Once in each pool: a fleet's shard pools each degrade their part.
        assert degraded == config.shards

    def test_a_failed_frame_raises_its_own_sticky_error(
            self, renderer, config, monkeypatch, tmp_path):
        fail_composite(monkeypatch, tmp_path / "fired", frame=1, once=False)
        views = _views(renderer, ANGLES[:3])
        with repro.open_pool(renderer, config, max_retries=0,
                             degrade_to_serial=False) as pool:
            ids = pool.submit_batch(views)
            last = pool.result(ids[2])
            with pytest.raises(FrameFailed) as failed:
                pool.result(ids[1])
            with pytest.raises(FrameFailed) as again:
                pool.result(ids[1])
            assert again.value is failed.value
            first = pool.result(ids[0])
        assert_frames_identical([first, last],
                                serial_refs(renderer, views[::2]))

    def test_close_refuses_work_and_wakes_a_waiter(self, renderer, config,
                                                   monkeypatch, tmp_path):
        """A ``result()`` blocked on a frame the workers are holding
        raises ``PoolClosed`` when another thread closes the pool.  The
        workers let the frame go once the waiter has its error — or
        half a second into the close on a fleet, whose waiter, refused
        by the first pool, still gathers the frame's other shards."""
        held = tmp_path / "released"
        real = poolcore.composite_range

        def holding(*args):
            deadline = time.monotonic() + 30.0
            while not held.exists() and time.monotonic() < deadline:
                time.sleep(0.005)
            return real(*args)

        monkeypatch.setattr(poolcore, "composite_range", holding)
        pool = repro.open_pool(renderer, config)
        frame = pool.submit(renderer.view_from_angles(20, 30, 0))
        caught = []

        def waiter():
            try:
                pool.result(frame)
            except Exception as exc:  # noqa: BLE001 - the test reads it
                caught.append(exc)

        def release():
            t.join(0.5)
            held.touch()

        t = threading.Thread(target=waiter)
        t.start()
        t.join(0.05)
        assert t.is_alive()
        releaser = threading.Thread(target=release)
        releaser.start()
        pool.close()
        t.join(10.0)
        releaser.join()
        assert not t.is_alive()
        assert len(caught) == 1 and isinstance(caught[0], PoolClosed)
        with pytest.raises(PoolClosed):
            pool.submit_batch(_views(renderer, ANGLES[:2]))
        pool.close()  # idempotent


class TestAnyThread:
    """``submit_batch``, ``result`` and ``close`` are safe from any
    thread, and what a result holds is the caller's own."""

    def test_two_threads_drive_one_backend(self, renderer, config):
        """Two threads stream one frame at a time, in opposite orders,
        while a third submits and collects a batch of the same views."""
        views = _views(renderer)
        refs = serial_refs(renderer, views)
        start = threading.Barrier(3)
        streams: dict[str, list] = {}

        def stream(name, order):
            start.wait(10.0)
            streams[name] = [pool.render(views[i]) for i in order]

        orders = {"forward": range(len(views)),
                  "backward": range(len(views) - 1, -1, -1)}
        with repro.open_pool(renderer, config) as pool:
            threads = [threading.Thread(target=stream, args=item)
                       for item in orders.items()]
            for t in threads:
                t.start()
            start.wait(10.0)
            batch = pool.render_animation(views)
            for t in threads:
                t.join(60.0)
        assert not any(t.is_alive() for t in threads)
        assert_frames_identical(batch, refs)
        for name, order in orders.items():
            assert_frames_identical(streams[name], [refs[i] for i in order])

    def test_result_planes_are_the_callers(self, renderer, config):
        """Writable, owning their data, and sharing no memory with one
        another — still so once the backend is closed."""
        views = _views(renderer, ANGLES[:3])
        with repro.open_pool(renderer, config) as pool:
            results = pool.render_animation(views[:2]) + [pool.render(views[2])]
        planes = [a for r in results for a in (
            r.intermediate.color, r.intermediate.opacity,
            r.final.color, r.final.alpha)]
        assert all(a.flags.writeable and a.flags.owndata for a in planes)
        assert not any(np.shares_memory(a, b)
                       for a, b in itertools.combinations(planes, 2))
        assert_frames_identical(results, serial_refs(renderer, views))


@pytest.mark.parametrize("config", list(SPLITTABLE.values()),
                         ids=list(SPLITTABLE))
def test_a_lone_frame_goes_whole_and_its_retry_is_banded(
        renderer, config, monkeypatch, tmp_path):
    """Each frame of a one-frame stream is dealt whole to one worker,
    and a retried frame is banded over all of them; the frames are the
    serial reference's all the same."""
    fail_composite(monkeypatch, tmp_path / "fired", frame=1)
    views = _views(renderer, ANGLES[:4])
    with repro.open_pool(renderer, config, max_retries=2,
                         degrade_to_serial=False) as pool:
        results = [pool.render(v) for v in views]
        retried = pool.fault_counters()["frames_retried"]
        solo = _solo_frames(pool)
    assert_frames_identical(results, serial_refs(renderer, views))
    # Every pool frame went solo but the one retried (in one shard's
    # pool of a fleet).
    assert retried == 1 and solo == len(views) * config.shards - 1
    if config.shards == 1:
        blocks = [np.count_nonzero(np.diff(r.boundaries)) for r in results]
        assert blocks == [1, config.n_procs, 1, 1]


@pytest.mark.parametrize("config", list(FLEETS.values()), ids=list(FLEETS))
def test_a_fleet_merges_one_frame_at_a_time(renderer, config, monkeypatch):
    """The merge framebuffers are the fleet's: thread A is held inside
    the merge while thread B gathers its frame, and B enters the merge
    only after A has left it."""
    a_inside, b_inside, b_gathered = (threading.Event() for _ in range(3))
    release = threading.Event()
    merging: list[str] = []
    overlaps: list[int] = []
    real_merge = ShardedRenderService._merge
    real_gather = ShardedRenderService._gather

    def merge(svc, *args):
        name = threading.current_thread().name
        merging.append(name)
        overlaps.append(len(merging))
        (a_inside if name == "A" else b_inside).set()
        if name == "A":
            assert release.wait(30.0)
        try:
            return real_merge(svc, *args)
        finally:
            merging.remove(name)

    def gather(svc, handles):
        out = real_gather(svc, handles)
        if threading.current_thread().name == "B":
            b_gathered.set()
        return out

    monkeypatch.setattr(ShardedRenderService, "_merge", merge)
    monkeypatch.setattr(ShardedRenderService, "_gather", gather)
    views = _views(renderer, ANGLES[:2])
    got = {}
    with repro.open_pool(renderer, config) as fleet:
        ids = fleet.submit_batch(views)
        threads = [threading.Thread(name=name, target=lambda f=frame: got.update(
            {f: fleet.result(f)})) for name, frame in zip("AB", ids)]
        threads[0].start()
        assert a_inside.wait(30.0)
        threads[1].start()
        assert b_gathered.wait(30.0)
        b_entered_while_a_inside = b_inside.wait(0.3)
        release.set()
        for t in threads:
            t.join(30.0)
    assert not b_entered_while_a_inside
    assert overlaps == [1, 1]
    assert_frames_identical([got[f] for f in ids], serial_refs(renderer, views))
