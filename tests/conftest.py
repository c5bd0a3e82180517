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


def _live_resources() -> dict[str, set]:
    """What a pool, a fleet or a server must give back when it closes."""
    try:
        shm = set(os.listdir("/dev/shm"))
    except OSError:  # no /dev/shm on this platform
        shm = set()
    return {
        "shm segments": shm,
        # active_children() also reaps the children that have exited.
        "child processes": {p.pid for p in multiprocessing.active_children()},
        "non-daemon threads": {
            t.ident for t in threading.enumerate() if not t.daemon
        },
    }


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test leaves the ``/dev/shm`` segments, child processes and
    non-daemon threads it found (what ``benchmarks/e2e/run.py`` checks
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
