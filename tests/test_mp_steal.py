"""Tests for chunked task stealing in the MP render pool (paper §4.4).

Stealing moves *who composites which scanlines*, never what gets
composited — so the invariant under test throughout is bit-identity
against the purely static pool, with the dynamic behaviour (steal
counts, busy-time rebalancing, observability counters) layered on top
via the deterministic imbalance-injection hook.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
import repro.parallel.mp_backend as mpb
import repro.parallel.poolcore as poolcore
from repro.datasets import density_wedge
from repro.render import ShearWarpRenderer
from repro.volume import mri_transfer_function


@pytest.fixture(scope="module")
def renderer():
    # The skewed-load phantom: the worst case for a uniform contiguous
    # split, hence the input where stealing has real work to move.
    return ShearWarpRenderer(density_wedge((24, 24, 16)), mri_transfer_function())


@pytest.fixture
def fine_grain(monkeypatch):
    """Let 2-row chunks be claimed and stolen.  The grain is a measured
    constant, read by a pool when it is built — so this must be in
    effect before the pool under test is opened."""
    monkeypatch.setattr(poolcore, "DEFAULT_STEAL_CHUNK", 2)


def _render_pool(renderer, view, **kwargs):
    with repro.open_pool(renderer, **kwargs) as pool:
        return pool.render(view)


def _assert_same_images(res, ref):
    assert np.array_equal(res.final.color, ref.final.color)
    assert np.array_equal(res.final.alpha, ref.final.alpha)
    assert np.array_equal(res.intermediate.color, ref.intermediate.color)
    assert np.array_equal(res.intermediate.opacity, ref.intermediate.opacity)


def _claim_bound(n: int, grain: int) -> int:
    """Kernel calls an owner alone may need for ``n`` rows."""
    return max(1, math.floor(math.log2(n / grain)) + 1)


class TestGuidedClaims:
    """The claim/steal cursor protocol, driven in-process: guided
    halving down to two grains, then everything that is left."""

    @given(
        sizes=st.lists(st.integers(0, 200), min_size=1, max_size=5),
        grain=st.integers(1, 16),
        data=st.data(),
    )
    def test_every_row_handed_out_exactly_once(self, sizes, grain, data):
        """Any interleaving of owners claiming and thieves stealing
        covers every row of every band exactly once, each chunk no
        smaller than ``min(grain, remaining)`` and leaving its victim
        either nothing or at least a grain."""
        n = len(sizes)
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        claims = np.stack([bounds[:-1], bounds[1:]], axis=1).astype(np.int64)
        locks = [threading.Lock() for _ in range(n)]
        seen = np.zeros(int(bounds[-1]), dtype=np.int64)
        # An owner turns thief only once its own block is drained, and
        # stops for good when a steal finds nothing — as the workers do.
        state = ["own"] * n
        while any(s != "done" for s in state):
            pid = data.draw(st.sampled_from(
                [p for p in range(n) if state[p] != "done"]))
            if state[pid] == "own":
                victim = pid
                rem = int(claims[pid, 1] - claims[pid, 0])
                got = poolcore.claim_own_chunk(claims, locks[pid], pid, grain)
                if got is None:
                    assert rem == 0
                    state[pid] = "steal"
                    continue
            else:
                before = claims.copy()
                got = poolcore.steal_victim_chunk(claims, locks, pid, grain)
                if got is None:
                    others = np.delete(before, pid, axis=0)
                    assert (others[:, 1] <= others[:, 0]).all()
                    state[pid] = "done"
                    continue
                victim = int(np.nonzero((before != claims).any(axis=1))[0][0])
                rem = int(before[victim, 1] - before[victim, 0])
                assert victim != pid and got[1] == before[victim, 1]
            lo, hi = got
            assert hi - lo >= min(grain, rem) and hi - lo <= rem
            left = int(claims[victim, 1] - claims[victim, 0])
            assert left == rem - (hi - lo) and (left == 0 or left >= grain)
            seen[lo:hi] += 1
        assert (seen == 1).all()
        assert (claims[:, 0] == claims[:, 1]).all()

    @given(n=st.integers(1, 5000), grain=st.integers(1, 64))
    def test_owner_alone_drains_in_log_many_claims(self, n, grain):
        claims = np.array([[0, n]], dtype=np.int64)
        lock = threading.Lock()
        calls, nxt = 0, 0
        while (got := poolcore.claim_own_chunk(claims, lock, 0, grain)) is not None:
            assert got[0] == nxt  # head-first, contiguous
            nxt = got[1]
            calls += 1
        assert nxt == n
        assert calls <= _claim_bound(n, grain)
        if n < 2 * grain:
            assert calls == 1  # a band under two grains is never split

    def test_hundred_row_band_is_four_calls_none_under_the_grain(self):
        claims = np.array([[0, 100]], dtype=np.int64)
        lock = threading.Lock()
        got = []
        while (c := poolcore.claim_own_chunk(claims, lock, 0, 8)) is not None:
            got.append(c[1] - c[0])
        assert got == [50, 25, 13, 12]

    def test_thief_takes_half_of_the_tail(self):
        claims = np.array([[10, 110], [200, 200]], dtype=np.int64)
        locks = [threading.Lock(), threading.Lock()]
        assert poolcore.steal_victim_chunk(claims, locks, 1, 8) == (60, 110)
        assert poolcore.steal_victim_chunk(claims, locks, 1, 8) == (35, 60)
        # Below two grains nothing is split: a 9-row tail goes whole.
        claims[0] = (0, 9)
        assert poolcore.steal_victim_chunk(claims, locks, 1, 8) == (0, 9)
        assert poolcore.steal_victim_chunk(claims, locks, 1, 8) is None


class TestStealBitIdentity:
    def test_stealing_bit_identical_to_static_pool(self, renderer,
                                                   monkeypatch, fine_grain):
        """Static pool vs. stealing pool under forced steals: every pixel
        of both images must match exactly."""
        view = renderer.view_from_angles(20, 30, 0)
        ref = _render_pool(renderer, view, n_procs=3, stealing=False,
                           profile_period=0)
        assert ref.steals == 0 and ref.steal_rows == 0
        # Slow worker 0 down so its siblings actually turn thief (the
        # hook reaches the workers through fork, so set it pre-pool).
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.002))
        res = _render_pool(renderer, view, n_procs=3, stealing=True,
                           profile_period=0)
        _assert_same_images(res, ref)

    def test_stealing_bit_identical_with_profile_loop(self, renderer,
                                                      fine_grain):
        """Profiled frames ship per-chunk cost fragments; a short
        animation with the feedback loop active must stay bit-identical
        to the static profiled pool frame by frame."""
        views = [renderer.view_from_angles(20, 30 + 4 * i, 0) for i in range(4)]
        for stealing in (False, True):
            with repro.open_pool(renderer, n_procs=2, profile_period=2,
                                 stealing=stealing) as pool:
                frames = [pool.submit(v) for v in views]
                results = [pool.result(f) for f in frames]
            if stealing:
                for got, want in zip(results, static):
                    assert np.array_equal(got.final.color, want.final.color)
                    assert np.array_equal(got.final.alpha, want.final.alpha)
                # The feedback loop actually ran (first frame profiled,
                # later frames partitioned from the measured profile).
                assert results[0].profiled
                assert not results[-1].profiled
            else:
                static = results


class TestForcedImbalance:
    def test_steals_happen_and_rebalance_busy_time(self, renderer, monkeypatch,
                                                   fine_grain):
        """With one worker slowed 4 ms/row, the thief must take work
        (steals > 0) and the slow worker's busy time must drop."""
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.004))
        view = renderer.view_from_angles(20, 30, 0)
        ref = _render_pool(renderer, view, n_procs=2, stealing=False,
                           profile_period=0, trace=True)
        res = _render_pool(renderer, view, n_procs=2, stealing=True,
                           profile_period=0, trace=True)
        assert res.steals > 0
        assert res.steal_rows >= res.steals
        # The slow worker sheds rows to the thief: its busy time (the
        # frame's critical path) must come down, and with it the spread.
        assert max(res.busy_s) < max(ref.busy_s)
        assert res.busy_spread < ref.busy_spread
        assert np.array_equal(res.final.color, ref.final.color)

    def test_default_grain_steals_whole_grains_on_tall_bands(self, monkeypatch):
        """At the default grain only a band of two grains or more can
        be split: on one, a slowed owner still sheds work, in chunks no
        smaller than the grain, and the pixels do not notice."""
        grain = poolcore.DEFAULT_STEAL_CHUNK
        # Sized from the constant, so re-measuring the grain never
        # re-dimensions the phantom: two bands of two grains each, plus
        # a margin for the empty rim the partition trims off.
        tall = ShearWarpRenderer(density_wedge((32, 2 * (2 * grain + 24), 16)),
                                 mri_transfer_function())
        view = tall.view_from_angles(20, 30, 0)
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.001))
        ref = _render_pool(tall, view, n_procs=2, stealing=False,
                           profile_period=0)
        res = _render_pool(tall, view, n_procs=2, profile_period=0)
        assert (np.diff(res.boundaries) >= 2 * grain).all()
        assert res.steals > 0
        assert res.steal_rows >= res.steals * grain
        _assert_same_images(res, ref)

    def test_steal_counters_flow_through_trace(self, renderer, monkeypatch,
                                               fine_grain):
        """The steals/steal_rows the result reports must equal what the
        workers recorded into the span rings, and a steal span must be
        present in the timeline."""
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.004))
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2, stealing=True,
                             profile_period=0, trace=True) as pool:
            res = pool.render(view)
            metrics = pool.metrics
        assert res.steals > 0
        totals = res.timeline.counter_totals()
        assert totals["steals"] == res.steals
        assert totals["steal_rows"] == res.steal_rows
        assert "steal" in res.timeline.phase_seconds()
        # Pool-level counters aggregate the same numbers.
        assert metrics.counter("pool/steals").value == res.steals
        assert metrics.counter("pool/steal_rows").value == res.steal_rows


class TestStealDisabled:
    def test_disabled_pool_records_zero_steal_events(self, renderer, monkeypatch):
        """stealing=False must leave no steal trace anywhere, even under
        imbalance: no claim segment, no counters, no spans."""
        monkeypatch.setattr(poolcore, "TEST_ROW_DELAY", (0, 0.002))
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=2, stealing=False,
                             profile_period=0, trace=True) as pool:
            assert pool._shm_c is None
            res = pool.render(view)
        assert res.steals == 0 and res.steal_rows == 0
        totals = res.timeline.counter_totals()
        assert "steals" not in totals and "steal_rows" not in totals
        assert "steal" not in res.timeline.phase_seconds()

    def test_single_worker_pool_never_steals(self, renderer):
        """One worker has no victim: the claim machinery is skipped
        entirely (no shm segment) even with stealing=True."""
        view = renderer.view_from_angles(20, 30, 0)
        with repro.open_pool(renderer, n_procs=1, stealing=True) as pool:
            assert pool._shm_c is None
            res = pool.render(view)
        assert res.steals == 0


class TestStealValidation:
    def test_steal_chunk_is_not_an_option(self, renderer):
        """The grain is ``poolcore.DEFAULT_STEAL_CHUNK``; neither the
        config nor the facade takes one."""
        with pytest.raises(TypeError, match="steal_chunk"):
            repro.PoolConfig(steal_chunk=8)
        with pytest.raises(TypeError, match="steal_chunk"):
            repro.open_pool(renderer, steal_chunk=2)

    def test_render_parallel_mp_passes_stealing_through(self, renderer,
                                                        monkeypatch):
        view = renderer.view_from_angles(20, 30, 0)
        ref = repro.render_frame(renderer, view, n_procs=2, stealing=False)
        monkeypatch.setattr(poolcore, "DEFAULT_STEAL_CHUNK", 1)
        res = repro.render_frame(renderer, view, n_procs=2, stealing=True)
        assert np.array_equal(res.final.color, ref.final.color)


class TestClaimShmTeardown:
    def test_failed_init_unlinks_claim_segment(self, renderer, monkeypatch):
        """Construction dying *after* the claim-cursor segment is
        allocated must unlink it along with the image segments."""
        real = mpb.shared_memory.SharedMemory
        made = []
        calls = {"n": 0}

        class Flaky:
            def __new__(cls, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 4:  # shm_i, shm_f, shm_c, then boom
                    raise OSError("injected shm allocation failure")
                seg = real(*args, **kwargs)
                made.append(seg.name)
                return seg

        monkeypatch.setattr(mpb.shared_memory, "SharedMemory", Flaky)
        with pytest.raises(OSError, match="injected"):
            repro.open_pool(renderer, n_procs=2, stealing=True, trace=True)
        assert len(made) == 3
        monkeypatch.undo()
        from multiprocessing import shared_memory as sm
        for name in made:
            with pytest.raises(FileNotFoundError):
                sm.SharedMemory(name=name)
