"""Ablation: what the identical cross-phase partition buys (section 4.1).

Isolates the paper's core claim by comparing the warp phase alone:
the old scheme (round-robin final-image tiles, reading intermediate
lines composited by other processors) vs the new scheme (each processor
warps its own partition).  Reports warp-phase misses and stall cycles.
"""

from __future__ import annotations

from common import HEADLINE, SCALE, emit, machine_for, one_round, record_frames

from repro.analysis.breakdown import format_table
from repro.memsim.execution import simulate_animation

N_PROCS = 16


def run() -> str:
    machine = machine_for("simulator", SCALE)
    headers = ["algorithm", "warp_true", "warp_repl", "warp_stall", "warp_busy"]
    rows = []
    for alg in ("old", "new"):
        frames = record_frames(
            HEADLINE, alg, N_PROCS, scale=SCALE,
            mem_per_line_touch=machine.mem_per_line_touch if alg == "new" else None,
        )
        rep = simulate_animation(list(frames), machine)
        st = rep.warp.stats
        rows.append((
            alg,
            sum(st.misses[p]["true"] for p in range(N_PROCS)),
            sum(st.misses[p]["replacement"] for p in range(N_PROCS)),
            float(rep.warp.mem.sum()),
            float(rep.warp.busy.sum()),
        ))
    table = format_table(headers, rows, width=13)
    return emit("ablation_warp_partition", table)


test_ablation_warp_partition = one_round(run)

if __name__ == "__main__":
    run()
