"""Tests for the sharded multi-pool render service.

The contract under test is the one the merge tree is built on: for any
shard count, backend and stealing mode, the merged frame is
bit-identical to the serial renderer — including while one shard's
worker set is being killed and recovered, and while the shard-level
feedback loop is moving the shard boundaries between frames.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.parallel.poolcore as poolcore
import repro.shard.service as shard_service
from repro.core.partition import line_ownership
from repro.datasets import mri_brain
from repro.obs.metrics import MetricsRegistry
from repro.parallel.poolcore import FramePlanner, PoolConfig
from repro.render import ShearWarpRenderer
from repro.render.image import FinalImage, IntermediateImage
from repro.render.warp import pixel_source_rows, warp_rows
from repro.shard import ShardedRenderService, TileOwnershipMap, merge_schedule
from repro.shard.service import shard_regions
from repro.volume import mri_transfer_function


@pytest.fixture(scope="module")
def renderer():
    return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())


def _views(renderer, n):
    return [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(n)]


def _assert_bit_identical(renderer, views, results):
    for view, res in zip(views, results):
        ref = renderer.render(view)
        assert np.array_equal(res.final.color, ref.final.color)
        assert np.array_equal(res.final.alpha, ref.final.alpha)


class TestBitIdentity:
    """Merged output == serial output, across the configuration matrix."""

    @pytest.mark.parametrize(
        "backend,shards,stealing",
        [
            ("mp", 1, True),
            ("mp", 2, True),
            ("mp", 4, False),
            ("thread", 2, False),
            ("thread", 4, True),
        ],
    )
    def test_matrix(self, renderer, backend, shards, stealing):
        views = _views(renderer, 3)
        cfg = PoolConfig(n_procs=2, shards=shards, stealing=stealing,
                         backend=backend, profile_period=2)
        with ShardedRenderService(renderer, cfg) as svc:
            results = svc.render_animation(views)
            merges = svc.metrics.counter("shard/merges").value
        _assert_bit_identical(renderer, views, results)
        # A binary merge tree over N shards does N - 1 merges per frame.
        assert merges == (shards - 1) * len(views)

    def test_intermediate_matches_serial(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        ref = renderer.render(view)
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, profile_period=0)
        ) as svc:
            res = svc.render(view)
        assert np.array_equal(res.intermediate.color, ref.intermediate.color)
        assert np.array_equal(res.intermediate.opacity, ref.intermediate.opacity)

    def test_result_shape_matches_pool_result(self, renderer):
        """The merged result duck-types a single pool's MPRenderResult."""
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, profile_period=2)
        ) as svc:
            res = svc.render(renderer.view_from_angles(20, 30, 0))
            assert svc.n_procs == 4
        assert res.n_procs == 4
        assert len(res.busy_s) == 2  # one busy total per shard
        assert not res.degraded and res.retries == 0


class TestShardConfig:
    """``PoolConfig(shards=N)`` is the one way to ask for a fleet."""

    def test_validation(self):
        with pytest.raises(ValueError, match="shard"):
            PoolConfig(shards=0)

    def test_config_and_overrides_is_an_error(self, renderer):
        """The service is constructed like a pool: a config, no kwargs."""
        with pytest.raises(TypeError, match="n_procs"):
            ShardedRenderService(renderer, PoolConfig(shards=2), n_procs=2)

    def test_pool_config_strips_shards(self, renderer):
        cfg = PoolConfig(shards=3, n_procs=1, backend="thread")
        with ShardedRenderService(renderer, cfg) as svc:
            assert svc.config == cfg
            assert [p.config for p in svc._pools] == [cfg.replace(shards=1)] * 3


class TestMergeSchedule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
    def test_every_shard_merges_into_root_exactly_once(self, n):
        steps = [s for rnd in merge_schedule(n) for s in rnd]
        assert len(steps) == n - 1
        # Each non-root shard appears as a source exactly once...
        assert sorted(src for _, src, _ in steps) == list(range(1, n))
        # ...and the subtrees merged into the root tile [1, n) exactly:
        # every shard's owned pixels reach framebuffer 0 exactly once.
        root = sorted(
            s for dst, src, span in steps if dst == 0
            for s in range(src, src + span)
        )
        assert root == list(range(1, n))

    def test_rounds_are_logarithmic(self):
        # Distance between partners doubles per round: ceil(log2(n)) rounds.
        rounds = merge_schedule(8)
        assert len(rounds) == 3
        gaps = [src - dst for rnd in rounds for dst, src, _ in rnd]
        assert gaps == [1, 1, 1, 1, 2, 2, 4]
        # Steps within one round touch disjoint framebuffers.
        for rnd in rounds:
            touched = [i for dst, src, _ in rnd for i in (dst, src)]
            assert len(touched) == len(set(touched))


class TestFacade:
    def test_open_pool_dispatches_on_shards(self, renderer):
        with repro.open_pool(renderer, n_procs=2, shards=2) as svc:
            assert isinstance(svc, ShardedRenderService)
            view = renderer.view_from_angles(20, 30, 0)
            res = svc.render(view)
        ref = renderer.render(view)
        assert np.array_equal(res.final.color, ref.final.color)

    def test_render_frame_with_shards(self, renderer):
        view = renderer.view_from_angles(20, 30, 0)
        ref = renderer.render(view)
        res = repro.render_frame(renderer, view, n_procs=2, shards=2)
        assert np.array_equal(res.final.color, ref.final.color)

    def test_top_level_exports(self):
        assert repro.ShardedRenderService is ShardedRenderService


class TestReshardFeedback:
    """The section 4.2-4.3 loop one level up: profiles move shard bounds."""

    def test_profiled_frames_reshard(self, renderer):
        views = _views(renderer, 4)
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, profile_period=2)
        ) as svc:
            results = svc.render_animation(views)
            reshards = svc.metrics.counter("shard/reshards").value
            assert svc._planner.profile is not None
        _assert_bit_identical(renderer, views, results)
        # profile_period=2 over 4 frames -> profiled frames 0 and 2 both
        # stitched a cross-shard profile back into the shard planner.
        assert reshards == 2

    def test_axis_switch_invalidates_shard_profile(self, renderer):
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, profile_period=1)
        ) as svc:
            svc.render(renderer.view_from_angles(5, 5, 0))    # axis A
            svc.render(renderer.view_from_angles(85, 5, 0))   # axis flip
            inval = svc.metrics.counter("shard/reshard_invalidations").value
        assert inval >= 1

    def test_busy_feedback_shrinks_a_slowed_shard(self, renderer,
                                                  monkeypatch):
        """Injected interference on shard 0: a pool's cost row is CPU
        seconds, the injected burn included, so the gathered profile
        sees it — the re-shard shrinks the slowed shard's band."""
        monkeypatch.setattr(shard_service, "TEST_SHARD_ROW_DELAY",
                            {0: (0, 0.005)})
        views = _views(renderer, 4)
        with ShardedRenderService(
            renderer,
            PoolConfig(n_procs=2, shards=2, stealing=False, profile_period=2),
        ) as svc:
            results = [svc.render(v) for v in views]

        def mid_fraction(res):
            lo, mid, hi = (int(res.boundaries[i]) for i in (0, 1, 2))
            return (mid - lo) / max(1, hi - lo)

        # Frame 0 runs on the uniform split; the re-shard it feeds back
        # must hand the slowed shard a smaller band for the rest of the
        # animation.
        assert mid_fraction(results[-1]) < mid_fraction(results[0]) - 0.1
        _assert_bit_identical(renderer, views, results)

    def test_installed_profile_is_the_pools_costs_gathered(self, renderer):
        """No second calibration: every line of the fleet's profile is
        exactly the cost its owning shard's pool measured."""
        got = {}
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=3, profile_period=1)
        ) as svc:
            for s, pool in enumerate(svc._pools):
                def spy(handle, real=pool.result, s=s):
                    got[s] = real(handle)
                    return got[s]
                pool.result = spy
            res = svc.render(renderer.view_from_angles(20, 30, 0))
            profile = svc._planner.profile
        owner = line_ownership(res.boundaries, res.fact.intermediate_shape[0])
        v_lo, v_hi = int(res.boundaries[0]), int(res.boundaries[-1])
        want = [got[owner[v]].costs[v - got[owner[v]].costs_v_lo]
                for v in range(v_lo, v_hi)]
        assert profile.v_lo == v_lo
        assert np.array_equal(profile.costs, want)

    def test_bit_identical_under_injected_shard_delay(self, renderer,
                                                      monkeypatch):
        """The test hook slows one shard; pixels must not change."""
        monkeypatch.setattr(shard_service, "TEST_SHARD_ROW_DELAY",
                            {0: (0, 0.002)})
        views = _views(renderer, 3)
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, profile_period=2)
        ) as svc:
            results = svc.render_animation(views)
        _assert_bit_identical(renderer, views, results)


def _ledgers(svc):
    """(frames in flight, finished results) of every shard pool's
    ledger, each read atomically."""
    out = []
    for pool in svc._pools:
        with pool._cond:
            out.append((len(pool._inflight), len(pool._results)))
    return out


@pytest.mark.parametrize("backend", ["mp", "thread"])
def test_submit_batch_dispatches(renderer, backend):
    """``submit_batch`` hands every frame to every shard's pool before
    it returns — one pool batch per fleet batch — and the pools finish
    them with nobody calling ``result()``."""
    views = _views(renderer, 4)
    with repro.open_pool(renderer, n_procs=1, shards=2, backend=backend,
                         profile_period=2) as svc:
        ids = svc.submit_batch(views)
        assert [a + b for a, b in _ledgers(svc)] == [len(views)] * 2
        deadline = time.monotonic() + 60.0
        while _ledgers(svc) != [(0, len(views))] * 2:
            assert time.monotonic() < deadline, _ledgers(svc)
            time.sleep(0.01)
        assert svc.metrics.counter("shard/merges").value == 0
        for pool in svc._pools:
            assert pool.metrics.counter("pool/batch_frames").value == len(views)
        results = [svc.result(f) for f in ids]
        assert _ledgers(svc) == [(0, 0)] * 2
    _assert_bit_identical(renderer, views, results)


class TestDispatchSemantics:
    """What a fleet inherits from the ledgers it sits on."""

    def test_out_of_order_result_gathers_only_its_own_frame(self, renderer):
        views = _views(renderer, 3)
        with repro.open_pool(renderer, n_procs=1, shards=2,
                             profile_period=0) as svc:
            ids = svc.submit_batch(views)
            last = svc.result(ids[2])
            # One frame merged; the earlier ids are still the pools'.
            assert svc.metrics.counter("shard/merges").value == 1
            assert set(svc._frames) == {ids[0], ids[1]}
            results = [svc.result(ids[0]), svc.result(ids[1]), last]
            with pytest.raises(KeyError):
                svc.result(ids[2])  # consumed
        _assert_bit_identical(renderer, views, results)

    def test_a_batch_is_cut_from_the_profile_valid_at_submit(
            self, renderer, monkeypatch):
        """The pools' cadence one level up: every frame of a batch
        carries the boundaries of the profile valid when it went out;
        what the batch measured moves the *next* batch's (a loop of
        ``render()`` moves them frame to frame — see
        ``test_busy_feedback_shrinks_a_slowed_shard``)."""
        monkeypatch.setattr(shard_service, "TEST_SHARD_ROW_DELAY",
                            {0: (0, 0.005)})
        views = [renderer.view_from_angles(20, 30, 0)] * 3
        with ShardedRenderService(
            renderer,
            PoolConfig(n_procs=2, shards=2, stealing=False, profile_period=1),
        ) as svc:
            first = svc.render_animation(views)
            second = svc.render_animation(views)
        for batch in (first, second):
            assert all(np.array_equal(r.boundaries, batch[0].boundaries)
                       for r in batch)
        # Shard 0 is slowed: the first batch's profile shrinks its band.
        assert second[0].boundaries[1] < first[0].boundaries[1]
        _assert_bit_identical(renderer, views, first + second)

    def test_a_refused_batch_strands_nothing(self, renderer):
        """A spec the fleet or a pool refuses part-way through a batch
        leaves no frame of that batch in any ledger."""
        views = _views(renderer, 3)
        scaled = views[1].copy()
        scaled[:3, :3] *= 3.0  # beyond the pools' image capacity
        with repro.open_pool(renderer, n_procs=1, shards=2,
                             profile_period=0) as svc:
            with pytest.raises(ValueError, match="region"):
                svc.submit_batch([views[0],
                                  repro.FrameSpec(views[1], region=object()),
                                  views[2]])
            with pytest.raises(RuntimeError, match="capacity"):
                svc.submit_batch([views[0], scaled, views[2]])
            assert _ledgers(svc) == [(0, 0)] * 2 and not svc._frames
            results = svc.render_animation(views)
        _assert_bit_identical(renderer, views, results)

    def test_a_batch_refused_at_admission_leaves_the_shard_planner_alone(
            self, renderer):
        """Every spec is admitted before any is partitioned: a batch with
        an over-capacity view changes neither the shard profile nor its
        key, even when the batch opens with an axis switch that would
        have invalidated the profile."""
        first = renderer.view_from_angles(5, 5, 0)
        flipped = renderer.view_from_angles(85, 5, 0)  # another principal axis
        scaled = first.copy()
        scaled[:3, :3] *= 3.0  # beyond the fleet's image capacity
        with repro.open_pool(renderer, n_procs=1, shards=2,
                             profile_period=1) as svc:
            svc.render(first)
            planner = svc._planner
            profile, key = planner.profile, planner.profile_key
            assert profile is not None
            with pytest.raises(RuntimeError, match="capacity"):
                svc.submit_batch([flipped, scaled])
            assert planner.profile is profile and planner.profile_key == key
            # The pools schedule profiling; the fleet's planner has no
            # schedule a refused batch could have advanced.
            assert planner.schedule is None
            assert svc.metrics.counter("shard/reshard_invalidations").value == 0
            assert _ledgers(svc) == [(0, 0)] * 2 and not svc._frames

    def test_a_later_pool_refusing_drops_what_earlier_pools_took(
            self, renderer):
        views = _views(renderer, 3)
        with repro.open_pool(renderer, n_procs=1, shards=2,
                             profile_period=0) as svc:
            svc._pools[1].close()
            with pytest.raises(repro.PoolClosed):
                svc.submit_batch(views)
            assert _ledgers(svc) == [(0, 0)] * 2 and not svc._frames
            assert (svc._pools[0].metrics.counter("pool/batch_frames").value
                    == len(views))

    def test_result_on_a_closed_fleet_is_typed(self, renderer):
        svc = repro.open_pool(renderer, n_procs=1, shards=2,
                              backend="thread", profile_period=0)
        ids = svc.submit_batch(_views(renderer, 2))
        svc.close()
        with pytest.raises(repro.PoolClosed):
            svc.result(ids[0])


class TestShardPlanning:
    """What the fleet decides on its own — each shard's region (owned
    lines plus ghost lines) and the tile ownership of the merge — over
    random views, shard counts and installed profiles."""

    @settings(max_examples=60)
    @given(rx=st.integers(-90, 90), ry=st.integers(-180, 180),
           n=st.integers(1, 5), seed=st.integers(0, 2**16), uniform=st.booleans())
    def test_regions_and_tiles(self, renderer, rx, ry, n, seed, uniform):
        planner = FramePlanner(renderer, n, 0, MetricsRegistry())
        plan = planner.admit(renderer.view_from_angles(rx, ry, 0))
        v_lo, v_hi = plan["v_lo"], plan["v_hi"]
        if not uniform:
            costs = np.random.default_rng(seed).random(v_hi - v_lo)
            planner.install_profile(v_lo, costs, plan["key"])
        owner = planner.partition(plan)["owner"]
        regions = shard_regions(owner, n, v_lo, v_hi)

        # The owned masks partition the lines: one owner each.
        owned = np.array([r.owned for r in regions])
        assert (owned.sum(axis=0) == 1).all()
        for r in regions:
            # The composite band: owned lines plus the ghost line below
            # each, clipped to the non-empty band.
            need = {w for v in np.flatnonzero(r.owned) for w in (v, v + 1)}
            need &= set(range(v_lo, v_hi))
            if need:
                assert (r.comp_lo, r.comp_hi) == (min(need), max(need) + 1)
            else:
                assert r.comp_lo == r.comp_hi

        # Tile ownership: every pixel with a source line has exactly one
        # owning shard, and that shard's warp writes exactly its tiles.
        fact = plan["fact"]
        tiles = TileOwnershipMap(fact, owner)
        _, valid = pixel_source_rows(fact.final_shape, fact.intermediate_shape, fact)
        assert ((tiles.pixel_owner >= 0) == valid).all()
        ones = np.ones(fact.intermediate_shape, np.float32)
        img = IntermediateImage.over(ones, ones.copy())
        for s, r in enumerate(regions):
            final = FinalImage(fact.final_shape)
            warp_rows(final, np.arange(fact.final_shape[0]), img, fact,
                      line_owner=np.where(r.owned, 0, -1), pid=0)
            assert ((final.alpha != 0) == (tiles.pixel_owner == s)).all()


class TestShardFaultIsolation:
    """Kill one shard's worker mid-animation: siblings never restart."""

    def test_sigkill_one_shard_worker(self, renderer, monkeypatch):
        # Slow shard 1 down so frames are still in flight when the
        # signal lands (the same knob the single-pool kill test uses).
        # The delay and frame count give the animation a wall clock of
        # a second or more, so the early kill cannot race completion.
        monkeypatch.setattr(shard_service, "TEST_SHARD_ROW_DELAY",
                            {1: (0, 0.01)})
        views = _views(renderer, 8)
        results = []
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, profile_period=0)
        ) as svc:
            t = threading.Thread(
                target=lambda: results.extend(svc.render_animation(views))
            )
            t.start()
            time.sleep(0.25)
            os.kill(svc._pools[1]._workers[0].pid, signal.SIGKILL)
            t.join(90.0)
            assert not t.is_alive()
            per_shard = svc.shard_fault_counters()
            total = svc.fault_counters()
        _assert_bit_identical(renderer, views, results)
        # The kill was recovered entirely inside shard 1's pool.
        assert per_shard[1]["worker_restarts"] >= 1
        assert per_shard[0]["worker_restarts"] == 0
        assert total["worker_restarts"] == per_shard[1]["worker_restarts"]

    def test_concurrent_recovery_in_every_shard(self, renderer, monkeypatch):
        # Arm the deterministic fault hook before the pools fork: worker
        # 0 of *every* shard SIGKILLs itself at frame 1, so both
        # supervisors respawn their worker sets at the same time.  The
        # respawns stage worker state in the module-global ``_G`` before
        # forking; without the spawn lock the two recoveries could
        # interleave and fork one pool's workers against the other
        # pool's queues and barrier (an intermittent cross-pool wedge).
        monkeypatch.setattr(poolcore, "TEST_FAULT", (0, 1, "kill", "composite"))
        views = _views(renderer, 4)
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, profile_period=2)
        ) as svc:
            results = svc.render_animation(views)
            per_shard = svc.shard_fault_counters()
        _assert_bit_identical(renderer, views, results)
        assert all(c["worker_restarts"] >= 1 for c in per_shard)


class TestFailedFrame:
    """A frame one shard cannot render fails alone, and stays failed."""

    @pytest.mark.parametrize("backend", ["mp", "thread"])
    def test_result_reraises_the_same_error_and_strands_nothing(
            self, renderer, monkeypatch, backend):
        from repro.parallel.poolcore import FrameFailed
        from repro.render.compositing import nonempty_scanline_bounds

        real = poolcore.composite_range

        def flaky(img, lo, hi, rle, fact, profiled, rec, frame):
            # Frame 1's lowest non-empty scanline is shard 0's: only
            # that pool fails; its sibling renders its half of frame 1.
            if frame == 1 and lo == nonempty_scanline_bounds(rle, fact)[0]:
                raise RuntimeError("injected composite failure")
            return real(img, lo, hi, rle, fact, profiled, rec, frame)

        monkeypatch.setattr(poolcore, "composite_range", flaky)
        views = _views(renderer, 3)
        with repro.open_pool(renderer, n_procs=2, shards=2, backend=backend,
                             max_retries=0, degrade_to_serial=False) as svc:
            ids = svc.submit_batch(views)
            with pytest.raises(FrameFailed, match="injected") as first:
                svc.result(ids[1])
            with pytest.raises(FrameFailed) as again:
                svc.result(ids[1])
            assert again.value is first.value
            good = [svc.result(ids[0]), svc.result(ids[2])]
            for pool in svc._pools:
                assert not pool._inflight and not pool._results
        _assert_bit_identical(renderer, [views[0], views[2]], good)


class TestTrace:
    def test_shard_trace_exports_and_validates(self, renderer, tmp_path):
        views = _views(renderer, 2)
        with ShardedRenderService(
            renderer,
            PoolConfig(n_procs=2, shards=2, profile_period=2, trace=True),
        ) as svc:
            results = svc.render_animation(views)
            merge_track = sum(p.n_procs + 1 for p in svc._pools)
            path = tmp_path / "shard_trace.json"
            svc.export_chrome_trace(str(path), metadata={"note": "test"})
        _assert_bit_identical(renderer, views, results)
        from repro.obs import load_chrome_trace, validate_chrome_trace
        trace = load_chrome_trace(str(path))
        assert validate_chrome_trace(trace) == []
        meta = trace["otherData"]
        assert meta["backend"] == "shard"
        assert int(meta["shards"]) == 2
        assert int(meta["shard/merges"]) >= 1
        assert meta["note"] == "test"
        # Merge spans live on their own track, above every pool's.
        merge_spans = [
            ev for ev in trace["traceEvents"]
            if ev.get("name") == "merge" and ev.get("ph") == "X"
        ]
        assert merge_spans
        assert all(ev["tid"] == merge_track for ev in merge_spans)

    def test_untraced_service_refuses_export(self, renderer, tmp_path):
        with ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2)
        ) as svc:
            with pytest.raises(RuntimeError, match="trace"):
                svc.export_chrome_trace(str(tmp_path / "x.json"))


class TestNoLeaks:
    def test_close_unlinks_framebuffers_and_pools(self, renderer):
        svc = ShardedRenderService(
            renderer, PoolConfig(n_procs=2, shards=2, backend="mp")
        )
        names = [fb._shm.name for fb in svc._fbs]
        names += [p._shm_i.name for p in svc._pools]
        svc.render(renderer.view_from_angles(20, 30, 0))
        svc.close()
        svc.close()  # idempotent
        from multiprocessing import shared_memory as sm
        for name in names:
            with pytest.raises(FileNotFoundError):
                sm.SharedMemory(name=name)


class TestMultiPoolBarrierRegression:
    """Two live mp pools must not alias barrier state (use-after-free).

    Constructing a second pool while the first is rendering used to
    reuse the first barrier's freed shared-heap block, wedging both
    pools' workers mid-frame.  Six lockstep frames across two pools
    reproduce the original hang within a few runs if the parent ever
    drops its barrier reference.
    """

    def test_two_pools_in_lockstep(self, renderer):
        views = _views(renderer, 6)
        cfg = PoolConfig(n_procs=2, shards=2, stealing=False,
                         profile_period=2)
        with ShardedRenderService(renderer, cfg) as svc:
            results = svc.render_animation(views)
        _assert_bit_identical(renderer, views, results)
