"""Shared test configuration: a deterministic, deadline-free hypothesis
profile (property tests drive real renders, whose duration varies with
host load), the leak guard every test runs under, and what every
backend is held to: the serial reference frames, the one frame-identity
assertion, a compositing failure that reaches any transport, and
frames cut banded as a retry is."""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import repro.parallel.poolcore as poolcore
from repro.datasets import mri_brain
from repro.parallel import as_frame_specs
from repro.render import ShearWarpRenderer
from repro.render.fast import render_fast
from repro.volume import mri_transfer_function

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="module")
def renderer():
    """The small MRI phantom the pool tests render (a module's own
    ``renderer`` fixture overrides it)."""
    return ShearWarpRenderer(mri_brain((20, 20, 16)), mri_transfer_function())


@pytest.fixture
def banded(monkeypatch):
    """Every frame a pool deals goes out banded over all of its workers,
    cut as a retry is cut, whatever worker the ledger dealt it to.  A
    pool deals each fresh frame whole and bands only a retry, so a test
    of what bands do — the barrier, band-time feedback, a fault under a
    band — makes a stream of them this way."""
    cut = poolcore.FramePlanner.cut
    monkeypatch.setattr(poolcore.FramePlanner, "cut",
                        lambda planner, plan, solo=None: cut(planner, plan))


def serial_refs(renderer, frames) -> list:
    """The serial fast path's render of each view or ``FrameSpec``: the
    reference every backend's frames are compared with."""
    return [render_fast(renderer, s.view, timestep=s.timestep)
            for s in as_frame_specs(frames)]


def assert_frames_identical(results, refs) -> None:
    """Every frame in ``results`` is its reference bit for bit: the same
    factorization axis, and all four planes — intermediate color and
    opacity, final color and alpha — equal in shape and in every value.
    The references come from :func:`repro.render.fast.render_fast`,
    itself checked exactly against the renderer's own ``render``."""
    assert len(results) == len(refs)
    for i, (got, ref) in enumerate(zip(results, refs)):
        assert got.fact.axis == ref.fact.axis, i
        for a, b in ((got.intermediate.color, ref.intermediate.color),
                     (got.intermediate.opacity, ref.intermediate.opacity),
                     (got.final.color, ref.final.color),
                     (got.final.alpha, ref.final.alpha)):
            assert a.shape == b.shape, i
            assert np.array_equal(a, b), i


def _first_time(marker) -> bool:
    """True for the one caller, in whatever process, that creates
    ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def fail_composite(monkeypatch, marker, frame, once=True):
    """Make compositing raise on ``frame``: on its first attempt only
    (``once``), or on every one.  Forked workers inherit the patch."""
    real = poolcore.composite_range

    def flaky(img, lo, hi, rle, fact, f):
        if f == frame and (not once or _first_time(marker)):
            raise RuntimeError("injected composite failure")
        return real(img, lo, hi, rle, fact, f)

    monkeypatch.setattr(poolcore, "composite_range", flaky)


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
