"""Figure 8: miss breakdown vs cache-line size (OLD, 32 processors).

The parallel shear warper keeps the serial algorithm's spatial
locality: every miss class drops as lines grow to 256 bytes, and false
sharing never takes over (section 3.4.3) — DASH's 16-byte lines are why
it suffers the highest miss rates.
"""

from __future__ import annotations

from common import HEADLINE, SCALE, emit, machine_for, one_round, record_frames

from repro.analysis.breakdown import format_table
from repro.analysis.workingset import line_size_sweep
from repro.memsim.execution import simulate_animation

N_PROCS = 32
LINES = (16, 32, 64, 128, 256)


def run() -> str:
    machine = machine_for("simulator", SCALE)
    frames = record_frames(HEADLINE, "old", N_PROCS, scale=SCALE)
    pts = line_size_sweep(frames, machine, lines=LINES)
    headers = ["line_B", "true%", "false%", "repl%", "total%"]
    rows = [
        (s.value, s.breakdown["true"], s.breakdown["false"],
         s.breakdown["replacement"], s.miss_rate)
        for s in pts
    ]
    table = format_table(headers, rows)
    return emit("fig08_old_linesize", table)


test_fig08 = one_round(run)

if __name__ == "__main__":
    run()
