"""Shared experiment harness: datasets -> frames -> simulated timings.

Every figure benchmark needs the same pipeline: build a renderer for a
(proxy-scaled) paper data set, record animation frames with one of the
two parallel algorithms, and simulate them on a (cache-scaled) machine.
Frame recording is the expensive step and depends only on
(dataset, scale, algorithm, P, frame index, task-size knobs), so results
are memoized process-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.frame import ParallelFrame
from ..core.new_renderer import DEFAULT_STEAL_CHUNK, NewParallelShearWarp
from ..core.old_renderer import DEFAULT_CHUNK, DEFAULT_TILE, OldParallelShearWarp
from ..core.profiling import ProfileSchedule
from ..memsim.execution import FrameReport, simulate_animation
from ..memsim.machine import MACHINES, MachineConfig, cache_scale_for
from ..render.serial import ShearWarpRenderer, renderer_for

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_ELONGATE",
    "DEFAULT_VIEW",
    "ROTATION_STEP",
    "get_renderer",
    "record_frames",
    "steady_frame",
    "machine_for",
    "simulate",
    "speedup_curve",
]

#: Default proxy scale for experiments (3/16 of paper resolution).
DEFAULT_SCALE = 0.1875
#: Elongation of the scanline (y) axis (see datasets.registry).  The
#: default is isotropic: elongation would shrink the gap between the old
#: algorithm's plane-sized working set and the new algorithm's per-
#: processor block, which is the separation the paper's results ride on.
DEFAULT_ELONGATE = 1.0
#: Base viewing angles (degrees) — an oblique view exercising shear.
DEFAULT_VIEW = (20.0, 30.0, 0.0)
#: Animation step between frames (degrees about y), as in the paper's
#: small-angle rotation sequences.
ROTATION_STEP = 3.0


@lru_cache(maxsize=16)
def get_renderer(
    dataset: str, scale: float = DEFAULT_SCALE, elongate: float = DEFAULT_ELONGATE
) -> ShearWarpRenderer:
    """Renderer (classification + RLE done once) for a paper data set,
    memoized process-wide (:func:`~repro.render.serial.renderer_for`)."""
    return renderer_for(dataset, scale, elongate=elongate)


def _views(renderer: ShearWarpRenderer, n_frames: int) -> list[np.ndarray]:
    rx, ry, rz = DEFAULT_VIEW
    return [
        renderer.view_from_angles(rx, ry + i * ROTATION_STEP, rz)
        for i in range(n_frames)
    ]


@lru_cache(maxsize=256)
def record_frames(
    dataset: str,
    algorithm: str,
    n_procs: int,
    n_frames: int = 3,
    scale: float = DEFAULT_SCALE,
    chunk: int = DEFAULT_CHUNK,
    tile: int = DEFAULT_TILE,
    steal_chunk: int = DEFAULT_STEAL_CHUNK,
    profile_period: int = 5,
    mem_per_line_touch: float | None = None,
) -> tuple[ParallelFrame, ...]:
    """Record ``n_frames`` animation frames with one parallel algorithm.

    ``mem_per_line_touch`` tunes the new algorithm's profile the way
    running natively on a machine would (its profile measures elapsed
    time there); pass the target machine's coefficient.
    """
    renderer = get_renderer(dataset, scale)
    views = _views(renderer, n_frames)
    if algorithm == "old":
        factory = OldParallelShearWarp(renderer, n_procs, chunk=chunk, tile=tile)
        return tuple(factory.render_frame(v) for v in views)
    if algorithm == "new":
        kw = {}
        if mem_per_line_touch is not None:
            kw["mem_per_line_touch"] = mem_per_line_touch
        factory = NewParallelShearWarp(
            renderer, n_procs, steal_chunk=steal_chunk,
            profile_schedule=ProfileSchedule(period=profile_period), **kw,
        )
        return tuple(factory.render_frame(v) for v in views)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def steady_frame(
    dataset: str, algorithm: str, n_procs: int, scale: float = DEFAULT_SCALE, **kw
) -> ParallelFrame:
    """A steady-state frame: the last of a short animation."""
    return record_frames(dataset, algorithm, n_procs, scale=scale, **kw)[-1]


def machine_for(name: str, scale: float = DEFAULT_SCALE) -> MachineConfig:
    """Machine preset with caches scaled to match the proxy volumes."""
    return MACHINES[name]().scaled(cache_scale_for(scale))


_SIM_CACHE: dict[tuple, FrameReport] = {}


def simulate(
    dataset: str,
    algorithm: str,
    machine_name: str,
    n_procs: int,
    scale: float = DEFAULT_SCALE,
    **kw,
) -> FrameReport:
    """Steady-state animation timing on one machine (last-frame report).

    Simulates a short animation so cache/directory state is warm — the
    inter-frame sharing is where the old algorithm's phase-interface
    communication becomes visible (see ``simulate_animation``).
    """
    key = (dataset, algorithm, machine_name, n_procs, scale, tuple(sorted(kw.items())))
    if key not in _SIM_CACHE:
        machine = machine_for(machine_name, scale)
        kw.setdefault("mem_per_line_touch", machine.mem_per_line_touch)
        frames = record_frames(dataset, algorithm, n_procs, scale=scale, **kw)
        _SIM_CACHE[key] = simulate_animation(list(frames), machine)
    return _SIM_CACHE[key]


@dataclass
class SpeedupPoint:
    n_procs: int
    time: float
    speedup: float
    report: FrameReport


def speedup_curve(
    dataset: str,
    algorithm: str,
    machine_name: str,
    procs: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    scale: float = DEFAULT_SCALE,
    **kw,
) -> list[SpeedupPoint]:
    """Self-relative speedups T(1)/T(P) on one machine."""
    machine = machine_for(machine_name, scale)
    procs = tuple(p for p in procs if p <= machine.max_procs)
    base = None
    out: list[SpeedupPoint] = []
    for p in procs:
        report = simulate(dataset, algorithm, machine_name, p, scale=scale, **kw)
        if base is None:
            base = simulate(dataset, algorithm, machine_name, 1, scale=scale, **kw).total_time
        out.append(
            SpeedupPoint(
                n_procs=p,
                time=report.total_time,
                speedup=base / report.total_time if report.total_time else 0.0,
                report=report,
            )
        )
    return out
