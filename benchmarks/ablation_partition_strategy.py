"""Ablation: what each ingredient of the new algorithm contributes.

Four variants of the contiguous-partition renderer, isolating the
paper's design decisions (sections 4.2-4.4):

* uniform partition, no stealing   — contiguity alone;
* uniform partition + stealing     — stealing fixes static imbalance;
* profiled partition, no stealing  — prediction alone;
* profiled partition + stealing    — the paper's full algorithm.
"""

from __future__ import annotations

from common import HEADLINE, SCALE, emit, machine_for, one_round

from repro.analysis.breakdown import format_table
from repro.analysis.harness import DEFAULT_VIEW, ROTATION_STEP, get_renderer
from repro.core import NewParallelShearWarp
from repro.memsim.execution import simulate_animation

N_PROCS = 16
VARIANTS = (
    ("uniform", False),
    ("uniform", True),
    ("profile", False),
    ("profile", True),
)


def run() -> str:
    renderer = get_renderer(HEADLINE, SCALE)
    machine = machine_for("simulator", SCALE)
    rx, ry, rz = DEFAULT_VIEW
    views = [renderer.view_from_angles(rx, ry + i * ROTATION_STEP, rz)
             for i in range(3)]
    headers = ["partition", "stealing", "total_time", "sync%", "steals"]
    rows = []
    for partition, stealing in VARIANTS:
        new = NewParallelShearWarp(
            renderer, N_PROCS, partition=partition, stealing=stealing,
            mem_per_line_touch=machine.mem_per_line_touch,
        )
        frames = [new.render_frame(v) for v in views]
        rep = simulate_animation(frames, machine)
        rows.append((partition, str(stealing), rep.total_time,
                     100 * rep.fractions()["sync"],
                     sum(p.steals for p in rep.composite.sched.procs)))
    table = format_table(headers, rows, width=13)
    return emit("ablation_partition_strategy", table)


test_ablation_partition_strategy = one_round(run)

if __name__ == "__main__":
    run()
