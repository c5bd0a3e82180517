"""Tests for the event-driven task-stealing scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.schedule import ProcSchedule, ScheduleResult, Unit, schedule


def units(costs, start=0):
    return [Unit(uid=start + i, cost=float(c)) for i, c in enumerate(costs)]


class TestBasics:
    def test_single_proc_executes_in_order(self):
        res = schedule([units([3, 1, 2])], allow_stealing=False)
        assert res.procs[0].executed == [0, 1, 2]
        assert res.procs[0].busy == 6.0
        assert res.makespan == 6.0

    def test_no_stealing_makespan_is_max_queue(self):
        res = schedule([units([10]), units([1], start=1)], allow_stealing=False)
        assert res.makespan == 10.0
        assert res.wait_time(1) == 9.0

    def test_every_unit_executed_exactly_once(self):
        q = [units([2, 3, 4]), units([1], start=3), units([5, 5], start=4)]
        res = schedule(q, steal_chunk=1, steal_cost=0.5)
        executed = sorted(u for p in res.procs for u in p.executed)
        assert executed == list(range(6))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            schedule([])
        with pytest.raises(ValueError):
            schedule([units([1])], steal_chunk=0)


class TestStealing:
    def test_idle_proc_steals(self):
        # Proc 1 has nothing; it should steal from proc 0's tail.
        q = [units([1] * 10), []]
        res = schedule(q, steal_chunk=2, steal_cost=0.1)
        assert res.procs[1].steals >= 1
        assert len(res.procs[1].executed) > 0

    def test_stealing_improves_makespan(self):
        q = [units([1] * 20), []]
        with_steal = schedule(q, steal_chunk=2, steal_cost=0.1)
        without = schedule([units([1] * 20), []], allow_stealing=False)
        assert with_steal.makespan < without.makespan

    def test_steal_overhead_charged(self):
        q = [units([1] * 10), []]
        res = schedule(q, steal_chunk=2, steal_cost=5.0)
        assert res.procs[1].steal_overhead >= 5.0
        # Victim pays lock contention too.
        assert res.procs[0].steal_overhead > 0

    def test_fine_grain_stealing_costs_more_sync(self):
        """Paper section 4.4: single-unit steals blow up sync overhead."""
        q1 = [units([1] * 64), [], [], []]
        fine = schedule([list(x) for x in q1], steal_chunk=1, steal_cost=10.0)
        q2 = [units([1] * 64), [], [], []]
        coarse = schedule([list(x) for x in q2], steal_chunk=8, steal_cost=10.0)
        fine_sync = sum(p.steal_overhead for p in fine.procs)
        coarse_sync = sum(p.steal_overhead for p in coarse.procs)
        assert fine_sync > 2 * coarse_sync

    def test_terminates_with_many_idle_procs(self):
        """Regression: steal ping-pong must not livelock."""
        q = [units([5, 5]), [], [], [], [], [], [], []]
        res = schedule(q, steal_chunk=4, steal_cost=1.0)
        assert sorted(u for p in res.procs for u in p.executed) == [0, 1]

    def test_busy_vs_cost_split(self):
        """Unit.cost drives timing; Unit.busy is what's reported."""
        q = [[Unit(0, cost=10.0, busy=4.0)], []]
        res = schedule(q, allow_stealing=False)
        assert res.procs[0].busy == 4.0
        assert res.makespan == 10.0

    @settings(max_examples=40, deadline=None)
    @given(
        n_units=st.integers(1, 60),
        n_procs=st.integers(1, 8),
        chunk=st.integers(1, 8),
        seed=st.integers(0, 99),
    )
    def test_conservation_property(self, n_units, n_procs, chunk, seed):
        """All units run exactly once; busy sums to total cost."""
        import numpy as np

        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.5, 10.0, n_units)
        queues = [[] for _ in range(n_procs)]
        for i, c in enumerate(costs):
            queues[i % n_procs].append(Unit(i, float(c)))
        res = schedule(queues, steal_chunk=chunk, steal_cost=1.0)
        executed = sorted(u for p in res.procs for u in p.executed)
        assert executed == list(range(n_units))
        assert sum(p.busy for p in res.procs) == pytest.approx(costs.sum())
        # Makespan at least the critical path lower bounds.
        assert res.makespan >= costs.max() - 1e-9
        assert res.makespan >= costs.sum() / n_procs - 1e-9

    def test_imbalance_metric(self):
        res = schedule([units([4]), units([4], start=1)], allow_stealing=False)
        assert res.imbalance() == pytest.approx(1.0)
