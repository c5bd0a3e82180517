"""Ablation: the OLD renderer's chunk size (section 3.1).

The task size trades spatial locality (big chunks) against load balance
(small chunks); the paper determines it empirically per configuration.
Sweep it and report time, miss rate and imbalance.
"""

from __future__ import annotations

from common import HEADLINE, SCALE, emit, machine_for, one_round, record_frames

from repro.analysis.breakdown import combined_stats, format_table
from repro.memsim.execution import simulate_animation

N_PROCS = 16
CHUNKS = (1, 2, 4, 8, 16)


def run() -> str:
    machine = machine_for("simulator", SCALE)
    headers = ["chunk", "total_time", "miss%", "sync%"]
    rows = []
    for chunk in CHUNKS:
        frames = record_frames(HEADLINE, "old", N_PROCS, scale=SCALE, chunk=chunk)
        rep = simulate_animation(list(frames), machine)
        stats = combined_stats(rep)
        rows.append((chunk, rep.total_time,
                     100 * stats.miss_rate(include_cold=False),
                     100 * rep.fractions()["sync"]))
    table = format_table(headers, rows, width=14)
    return emit("ablation_chunk_size", table)


test_ablation_chunk_size = one_round(run)

if __name__ == "__main__":
    run()
