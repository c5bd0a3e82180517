"""Tests for trace-stream building and replay plumbing."""

import numpy as np
import pytest

from repro.core.frame import TaskRecord
from repro.memsim.address import AddressSpace
from repro.memsim.coherence import CoherentSystem
from repro.memsim.machine import ccnuma_sim
from repro.memsim.schedule import ProcSchedule, ScheduleResult
from repro.memsim.trace import build_streams, replay_interleaved, stream_page_sets
from repro.render import WorkCounters


def task(uid, segments):
    return TaskRecord(uid=uid, phase="composite", pid0=0, cost=1.0,
                      counters=WorkCounters(), trace=segments)


def sched_with(executed_lists):
    procs = [ProcSchedule(pid=i, executed=list(e)) for i, e in enumerate(executed_lists)]
    return ScheduleResult(procs=procs, makespan=1.0)


@pytest.fixture
def addr():
    return AddressSpace.layout({"r": 100000})


class TestBuildStreams:
    def test_task_order_without_keys(self, addr):
        tasks = {
            1: task(1, [(0, [("r", 0, 4, False)])]),
            2: task(2, [(0, [("r", 100, 4, True)])]),
        }
        streams = build_streams(tasks, sched_with([[2, 1]]), addr)
        base = addr.bases["r"]
        assert streams[0] == [(base + 100, 4, True), (base + 0, 4, False)]

    def test_slice_major_interleave(self, addr):
        """With key_order, all tasks' slice-k segments come before k+1."""
        tasks = {
            1: task(1, [(5, [("r", 0, 4, False)]), (6, [("r", 8, 4, False)])]),
            2: task(2, [(5, [("r", 16, 4, False)]), (6, [("r", 24, 4, False)])]),
        }
        streams = build_streams(tasks, sched_with([[1, 2]]), addr, key_order=(5, 6))
        base = addr.bases["r"]
        offsets = [s - base for (s, _, _) in streams[0]]
        assert offsets == [0, 16, 8, 24]  # slice 5 of both, then slice 6

    def test_missing_segments_skipped(self, addr):
        tasks = {1: task(1, [(5, [("r", 0, 4, False)])])}
        streams = build_streams(tasks, sched_with([[1]]), addr, key_order=(4, 5, 6))
        assert len(streams[0]) == 1

    def test_empty_proc_stream(self, addr):
        tasks = {1: task(1, [(0, [("r", 0, 4, False)])])}
        streams = build_streams(tasks, sched_with([[1], []]), addr)
        assert streams[1] == []


class TestReplay:
    def test_round_robin_consumes_everything(self, addr):
        system = CoherentSystem(2, ccnuma_sim().scaled(0.001), addr)
        streams = [
            [(addr.bases["r"], 64, False)] * 3,
            [(addr.bases["r"] + 4096, 64, True)] * 5,
        ]
        replay_interleaved(system, streams)
        assert system.stats.refs[0] == 3 * 16
        assert system.stats.refs[1] == 5 * 16


class TestPageSets:
    def test_page_footprints(self):
        streams = [[(0, 100, False), (4000, 200, True)]]
        reads, writes = stream_page_sets(streams, page_bytes=4096)
        assert reads[0] == {0: 100}
        # The write spans the page boundary: 96 bytes on page 0, 104 on 1.
        assert writes[0] == {0: 96, 1: 104}

    def test_bytes_accumulate(self):
        streams = [[(0, 10, False), (16, 10, False)]]
        reads, _ = stream_page_sets(streams, page_bytes=4096)
        assert reads[0] == {0: 20}

    def test_per_proc_separation(self):
        streams = [[(0, 8, True)], [(8192, 8, True)]]
        _, writes = stream_page_sets(streams, page_bytes=4096)
        assert writes[0] == {0: 8}
        assert writes[1] == {2: 8}
