"""Shared test configuration: a deterministic, deadline-free hypothesis
profile (property tests drive real renders, whose duration varies with
host load), and the leak guard every test runs under."""

import multiprocessing
import os
import threading
import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def open_fds() -> set[int]:
    """This process's open file descriptors, less the one the listing
    itself opened: that one is closed again by the time ``listdir``
    returns, so it is the entry ``fstat`` no longer finds."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:  # no /proc on this platform
        return set()
    fds = set()
    for fd in map(int, names):
        try:
            os.fstat(fd)
        except OSError:
            continue
        fds.add(fd)
    return fds


def _live_resources() -> dict[str, set]:
    """What a pool, a fleet or a server must give back when it closes."""
    try:
        shm = set(os.listdir("/dev/shm"))
    except OSError:  # no /dev/shm on this platform
        shm = set()
    return {
        "shm segments": shm,
        "open fds": open_fds(),
        # active_children() also reaps the children that have exited.
        "child processes": {p.pid for p in multiprocessing.active_children()},
        "non-daemon threads": {
            t.ident for t in threading.enumerate() if not t.daemon
        },
    }


@pytest.fixture(scope="session", autouse=True)
def process_wide_multiprocessing_state():
    """Create up front the two things the first process pool of a
    session would otherwise open mid-test and keep for good: the
    shared-memory resource tracker (one pipe to its process) and the
    first arena of multiprocessing's shared heap, where every pool's
    barrier lives (one file mapping, never given back).  They belong to
    the process, not to a pool, so ``no_leaks`` must find them open."""
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    multiprocessing.get_context("fork").Barrier(1)


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test leaves the ``/dev/shm`` segments, open file
    descriptors, child processes and non-daemon threads it found (the
    segments and children are what ``benchmarks/e2e/run.py`` checks
    per subprocess, per test).  No fixture of wider scope owns a pool —
    the module-scoped ones hold renderers only — so the comparison is
    exact.  A closing pool's workers may still be exiting when the test
    returns, hence the bounded wait before anything counts as leaked."""
    before = _live_resources()
    yield
    deadline = time.monotonic() + 5.0
    while (after := _live_resources()) != before and time.monotonic() < deadline:
        time.sleep(0.02)
    leaked = {k: sorted(after[k] ^ before[k]) for k in before
              if after[k] != before[k]}
    assert not leaked, f"test changed the live resources: {leaked}"
