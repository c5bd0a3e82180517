"""The paper's methodological arc: climbing down the tool hierarchy.

Section by section, the paper uses increasingly detailed tools until the
bottleneck is identifiable:

1. coarse time breakdown (Pixie + timers): "memory time dominates";
2. hardware counters (Origin2000): miss counts, but no classes;
3. the simulator: miss *classification* — true sharing at the
   compositing/warp interface — which finally points at the algorithm.

This example replays that narrative on one workload.

Run:  python examples/tool_hierarchy.py
"""

from __future__ import annotations

from repro.analysis.breakdown import combined_stats, miss_breakdown
from repro.analysis.harness import DEFAULT_SCALE, machine_for, record_frames
from repro.memsim.execution import simulate_animation
from repro.memsim.perfcounters import sample_counters

N_PROCS = 16
DATASET = "mri512"


def main() -> None:
    machine = machine_for("origin2000", DEFAULT_SCALE)
    frames = record_frames(DATASET, "old", N_PROCS, scale=DEFAULT_SCALE)
    report = simulate_animation(list(frames), machine)

    print("LEVEL 1 - coarse execution-time breakdown (Pixie + timing calls)")
    f = report.fractions()
    print(f"  busy {100 * f['busy']:.0f}%  memory {100 * f['memory']:.0f}%  "
          f"sync {100 * f['sync']:.0f}%")
    print("  -> conclusion: the memory system dominates the decline.  But why?\n")

    print("LEVEL 2 - hardware performance counters (R10000-style)")
    print(sample_counters(report).summary())
    print()

    print("LEVEL 3 - detailed simulation (miss classification)")
    mb = miss_breakdown(report)
    stats = combined_stats(report)
    print(f"  true sharing {mb['true']:.2f}%  false sharing {mb['false']:.2f}%  "
          f"replacement {mb['replacement']:.2f}% of references")
    print(f"  {100 * stats.remote_fraction():.0f}% of misses satisfied remotely")
    wt = report.warp.stats
    warp_true = sum(wt.misses[p]["true"] for p in range(N_PROCS))
    print(f"  warp-phase true-sharing misses: {warp_true} — processors read "
          "intermediate-image lines other processors composited")
    print("  -> conclusion: restructure the partitioning so each processor "
          "warps what it composited (the paper's new algorithm).")


if __name__ == "__main__":
    main()
