"""Ablation: profiling period k (section 4.2).

Profiling every frame costs 10-15 % extra compositing; profiling rarely
risks stale predictions as the viewpoint rotates away.  The paper
refreshes every ~15 degrees.  Sweep the period over a longer animation
and report the averaged frame time.

This runs the simulator's renderer (``repro.core``), which keeps the
paper's per-scanline profile and its period for the figures.  The native
pools profile no frame: they cut each banded frame from the band times
of the one before (EXPERIMENTS.md "PR 38").
"""

from __future__ import annotations

import numpy as np

from common import HEADLINE, SCALE, emit, machine_for, one_round

from repro.analysis.breakdown import format_table
from repro.analysis.harness import DEFAULT_VIEW, ROTATION_STEP, get_renderer
from repro.core import NewParallelShearWarp, ProfileSchedule
from repro.memsim.execution import simulate_animation

N_PROCS = 8
N_FRAMES = 8
PERIODS = (1, 2, 5, 100)


def run() -> str:
    renderer = get_renderer(HEADLINE, SCALE)
    machine = machine_for("simulator", SCALE)
    rx, ry, rz = DEFAULT_VIEW
    views = [renderer.view_from_angles(rx, ry + i * ROTATION_STEP, rz)
             for i in range(N_FRAMES)]
    headers = ["period", "profiled_frames", "mean_busy", "last_total"]
    rows = []
    for period in PERIODS:
        new = NewParallelShearWarp(
            renderer, N_PROCS, profile_schedule=ProfileSchedule(period=period),
            mem_per_line_touch=machine.mem_per_line_touch,
        )
        frames = [new.render_frame(v) for v in views]
        rep = simulate_animation(frames, machine)
        busy = np.mean([f.composite_cost_total for f in frames])
        rows.append((period, sum(f.profiled for f in frames), busy, rep.total_time))
    table = format_table(headers, rows, width=16)
    table += "\n(period 1: every frame pays the 12% profiling tax; large period: stale partitions)"
    return emit("ablation_profile_period", table)


test_ablation_profile_period = one_round(run)

if __name__ == "__main__":
    run()
