"""Ablation: stealing granularity (section 4.4).

The paper initially stole single scanlines and saw ~10x the old
algorithm's synchronization overhead, then switched to chunks.  Sweep
the steal-chunk size for the new renderer and report total steal/lock
overhead and frame time.

This runs the simulator's renderer (``repro.core``), which keeps the
paper's stealing and per-scanline profile for the figures.  The native
pools neither steal nor profile: each worker composites its band in one
call, and band times balance the bands (EXPERIMENTS.md "PR 33" and
"PR 38").
"""

from __future__ import annotations

from common import HEADLINE, SCALE, emit, machine_for, one_round, record_frames

from repro.analysis.breakdown import format_table
from repro.memsim.execution import simulate_animation

N_PROCS = 16
CHUNKS = (1, 2, 4, 8)


def run() -> str:
    machine = machine_for("simulator", SCALE)
    headers = ["steal_chunk", "steals", "steal_cycles", "total_time"]
    rows = []
    for chunk in CHUNKS:
        frames = record_frames(HEADLINE, "new", N_PROCS, scale=SCALE,
                               steal_chunk=chunk,
                               mem_per_line_touch=machine.mem_per_line_touch)
        rep = simulate_animation(list(frames), machine)
        steals = sum(p.steals for p in rep.composite.sched.procs)
        rows.append((chunk, steals, float(rep.composite.steal.sum()),
                     rep.total_time))
    table = format_table(headers, rows, width=14)
    return emit("ablation_steal_chunk", table)


test_ablation_steal_chunk = one_round(run)

if __name__ == "__main__":
    run()
