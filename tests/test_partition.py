"""Tests for the partitioning strategies (old and new schemes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    contiguous_partition,
    interleaved_chunks,
    line_ownership,
    nested_contiguous_partition,
    partition_sizes,
    round_robin_tiles,
    uniform_contiguous_partition,
)


class TestInterleavedChunks:
    def test_chunks_cover_range_exactly_once(self):
        chunks = interleaved_chunks(5, 50, 4, 3)
        covered = sorted(
            v for proc in chunks for (lo, hi) in proc for v in range(lo, hi)
        )
        assert covered == list(range(5, 50))

    def test_round_robin_assignment(self):
        chunks = interleaved_chunks(0, 24, 4, 3)
        assert chunks[0][0] == (0, 4)
        assert chunks[1][0] == (4, 8)
        assert chunks[2][0] == (8, 12)
        assert chunks[0][1] == (12, 16)

    def test_ragged_tail(self):
        chunks = interleaved_chunks(0, 10, 4, 2)
        all_chunks = [c for proc in chunks for c in proc]
        assert (8, 10) in all_chunks

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            interleaved_chunks(0, 10, 0, 2)
        with pytest.raises(ValueError):
            interleaved_chunks(0, 10, 4, 0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 200), chunk=st.integers(1, 16), procs=st.integers(1, 32))
    def test_load_spread_property(self, n, chunk, procs):
        """No processor gets more than one chunk above its fair share."""
        chunks = interleaved_chunks(0, n, chunk, procs)
        counts = [sum(hi - lo for lo, hi in proc) for proc in chunks]
        assert sum(counts) == n
        assert max(counts) - min(counts) <= chunk


class TestTiles:
    def test_tiles_cover_image(self):
        tiles = round_robin_tiles((33, 17), 8, 4)
        seen = np.zeros((33, 17), dtype=int)
        for proc in tiles:
            for (y0, y1, x0, x1) in proc:
                seen[y0:y1, x0:x1] += 1
        assert np.all(seen == 1)

    def test_round_robin_balance(self):
        tiles = round_robin_tiles((64, 64), 16, 4)
        counts = [len(p) for p in tiles]
        assert max(counts) - min(counts) <= 1

    def test_invalid_tile(self):
        with pytest.raises(ValueError):
            round_robin_tiles((8, 8), 0, 2)


class TestContiguousPartition:
    def test_uniform_profile_gives_even_split(self):
        bounds = contiguous_partition(np.ones(100), 4)
        assert list(bounds) == [0, 25, 50, 75, 100]

    def test_skewed_profile_balances_cost(self):
        # All the cost in the second half: first processors get many
        # cheap lines, later ones few expensive ones.
        profile = np.concatenate([np.full(50, 1.0), np.full(50, 9.0)])
        bounds = contiguous_partition(profile, 2)
        cum = np.cumsum(profile)
        half = cum[-1] / 2
        split = bounds[1]
        # Split within one scanline of the ideal half-cost point.
        ideal = np.searchsorted(cum, half)
        assert abs(split - ideal) <= 1

    def test_v_lo_offset(self):
        bounds = contiguous_partition(np.ones(10), 2, v_lo=100)
        assert bounds[0] == 100 and bounds[-1] == 110

    def test_zero_profile_falls_back_to_uniform(self):
        bounds = contiguous_partition(np.zeros(12), 3)
        assert list(bounds) == [0, 4, 8, 12]

    def test_empty_profile(self):
        bounds = contiguous_partition(np.zeros(0), 3, v_lo=7)
        assert np.all(bounds == 7)

    def test_no_processor_starved_when_enough_lines(self):
        rng = np.random.default_rng(0)
        profile = rng.random(64) ** 4  # highly skewed
        bounds = contiguous_partition(profile, 8)
        assert np.all(partition_sizes(bounds) >= 1)

    def test_invalid_procs(self):
        with pytest.raises(ValueError):
            contiguous_partition(np.ones(10), 0)

    def test_all_cost_in_last_line_no_starvation(self):
        # Regression: with the whole cost in the final scanline the
        # cumulative sum hits every cut target only at the last line, so
        # the unclamped searchsorted boundaries all landed on n and the
        # trailing processors got empty partitions.
        profile = np.zeros(10)
        profile[-1] = 100.0
        bounds = contiguous_partition(profile, 4)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert np.all(partition_sizes(bounds) >= 1)

    def test_all_cost_in_last_line_with_offset(self):
        profile = np.zeros(6)
        profile[-1] = 1.0
        bounds = contiguous_partition(profile, 3, v_lo=40)
        assert bounds[0] == 40 and bounds[-1] == 46
        assert np.all(partition_sizes(bounds) >= 1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        procs=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    def test_never_starves_property(self, n, procs, seed):
        """Whenever there are at least as many lines as processors, every
        processor gets at least one line — for *any* non-negative profile,
        including ones with all the cost concentrated at either end."""
        rng = np.random.default_rng(seed)
        profile = rng.random(n)
        profile[rng.random(n) < 0.7] = 0.0  # mostly-zero, highly skewed
        bounds = contiguous_partition(profile, procs)
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) >= 0)
        if n >= procs:
            assert np.all(partition_sizes(bounds) >= 1)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(8, 300),
        procs=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    def test_balance_property(self, n, procs, seed):
        """Each partition's cost is within one max-scanline of fair share."""
        rng = np.random.default_rng(seed)
        profile = rng.random(n) + 0.01
        bounds = contiguous_partition(profile, procs)
        assert bounds[0] == 0 and bounds[-1] == n
        assert np.all(np.diff(bounds) >= 0)
        total = profile.sum()
        fair = total / procs
        for p in range(procs):
            cost = profile[bounds[p]:bounds[p + 1]].sum()
            assert cost <= fair + profile.max() + 1e-9

    def test_monotone_boundaries(self):
        profile = np.zeros(20)
        profile[0] = 100.0  # all the work in one line
        bounds = contiguous_partition(profile, 5)
        assert np.all(np.diff(bounds) >= 0)

    def test_float_costs_not_truncated(self):
        # Calibrated profiles are fractional seconds.  An int cast would
        # zero them all and silently fall back to the uniform split; the
        # skewed fractional profile below must move the boundary.
        profile = np.full(10, 0.1)
        profile[5:] = 0.9
        bounds = contiguous_partition(profile, 2)
        assert bounds[1] > 5  # not the uniform split point
        # Same split whether a cost arrives as int or equal-valued float.
        ints = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        assert np.array_equal(
            contiguous_partition(ints, 3),
            contiguous_partition(ints.astype(np.float64), 3),
        )

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 80), procs=st.integers(1, 8),
           cost=st.floats(1e-9, 1e3))
    def test_equal_costs_split_as_ones_at_any_scale(self, n, procs, cost):
        """Equal measured seconds that are not exact in binary sum with
        rounding; that rounding must not decide a tie."""
        assert np.array_equal(contiguous_partition(np.full(n, cost), procs),
                              contiguous_partition(np.ones(n), procs))

    def test_nan_cost_rejected(self):
        profile = np.ones(10)
        profile[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            contiguous_partition(profile, 2)


class TestNestedPartition:
    """Two-level shard -> scanline split: the shard service's planner."""

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 128),
        n_shards=st.integers(1, 6),
        n_inner=st.integers(1, 4),
        v_lo=st.integers(0, 50),
        seed=st.integers(0, 1000),
    )
    def test_two_level_split_is_a_cover(self, n, n_shards, n_inner, v_lo,
                                        seed):
        """The composed split covers ``[v_lo, v_lo + n)`` exactly once,
        shard cells nest inside their shard, and whenever there are
        enough scanlines to go around no shard is empty."""
        rng = np.random.default_rng(seed)
        profile = rng.random(n)
        profile[rng.random(n) < 0.5] = 0.0  # skewed, mostly-zero
        outer, inner = nested_contiguous_partition(
            profile, n_shards, n_inner, v_lo=v_lo
        )
        assert outer[0] == v_lo and outer[-1] == v_lo + n
        assert np.all(np.diff(outer) >= 0)
        assert len(inner) == n_shards
        covered = []
        for s in range(n_shards):
            cell = inner[s]
            # Inner boundaries tile exactly the shard's slice.
            assert cell[0] == outer[s] and cell[-1] == outer[s + 1]
            assert np.all(np.diff(cell) >= 0)
            for b in range(n_inner):
                covered.extend(range(int(cell[b]), int(cell[b + 1])))
        # Every scanline lands in exactly one (shard, block) cell.
        assert sorted(covered) == list(range(v_lo, v_lo + n))
        if n >= n_shards:
            assert np.all(partition_sizes(outer) >= 1)  # no empty shard

    def test_fractional_shard_costs_balance(self):
        # All-float profile with the mass at the end: the first shard
        # gets many cheap lines, not half the count.
        profile = np.concatenate([np.full(40, 0.01), np.full(8, 1.0)])
        outer, _ = nested_contiguous_partition(profile, 2, 2)
        assert outer[1] > 30


class TestUniformPartition:
    def test_even_split(self):
        bounds = uniform_contiguous_partition(0, 100, 4)
        assert list(bounds) == [0, 25, 50, 75, 100]

    def test_rounding(self):
        bounds = uniform_contiguous_partition(0, 10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert np.all(np.diff(bounds) >= 3)


class TestLineOwnership:
    def test_interior_lines_owned_by_partition(self):
        bounds = np.array([10, 20, 30, 40])
        owner = line_ownership(bounds, 50)
        assert owner[15] == 0
        assert owner[25] == 1
        assert owner[35] == 2

    def test_boundary_pair_goes_to_smaller_partition(self):
        # Partition 0 has 10 lines, partition 1 has 4: the pair at the
        # boundary (lines 19, 20) belongs to partition 1.
        bounds = np.array([10, 20, 24])
        owner = line_ownership(bounds, 30)
        assert owner[19] == 1
        # Reversed sizes: pair goes to partition 0.
        bounds = np.array([10, 14, 24])
        owner = line_ownership(bounds, 30)
        assert owner[13] == 0

    def test_margins_spread_contiguously(self):
        bounds = np.array([40, 50, 60])
        owner = line_ownership(bounds, 100)
        # Top margin [0, 40) split between the 2 procs in order.
        assert owner[0] == 0
        assert owner[39] == 1
        assert np.all(np.diff(owner[:40]) >= 0)
        # Bottom margin [60, 100) likewise.
        assert owner[60] == 0
        assert owner[99] == 1

    def test_every_line_has_owner(self):
        bounds = np.array([5, 9, 13, 20])
        owner = line_ownership(bounds, 25)
        assert owner.min() >= 0
        assert owner.max() <= 2

    @settings(max_examples=30, deadline=None)
    @given(n_procs=st.integers(1, 8), seed=st.integers(0, 100))
    def test_ownership_total_coverage(self, n_procs, seed):
        rng = np.random.default_rng(seed)
        n_v = 64
        inner = np.sort(rng.choice(np.arange(5, 60), size=n_procs - 1, replace=False)) if n_procs > 1 else np.array([], dtype=int)
        bounds = np.concatenate([[5], inner, [60]]).astype(np.int64)
        owner = line_ownership(bounds, n_v)
        assert len(owner) == n_v
        assert set(np.unique(owner)) <= set(range(n_procs))
