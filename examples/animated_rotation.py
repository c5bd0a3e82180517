"""Animation: the paper's target scenario — rotating viewpoints.

Renders a rotation sequence with the NEW parallel algorithm, showing
the profile-driven partitioning adapt across frames, and estimates the
frame rate each modeled platform would achieve at full 511x511x333
resolution (cycles scale with the voxel count, n^3).

Run:  python examples/animated_rotation.py [n_frames]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.analysis.harness import DEFAULT_SCALE, get_renderer, machine_for
from repro.core import NewParallelShearWarp, ProfileSchedule
from repro.datasets import PAPER_DATASETS
from repro.memsim.execution import simulate_animation


def main(n_frames: int = 6) -> None:
    dataset = "mri512"
    scale = DEFAULT_SCALE
    renderer = get_renderer(dataset, scale)
    print(f"Proxy volume {renderer.shape} for the paper's "
          f"{PAPER_DATASETS[dataset].paper_shape} MRI brain\n")

    n_procs = 16
    new = NewParallelShearWarp(
        renderer, n_procs,
        profile_schedule=ProfileSchedule.from_rotation(degrees_per_frame=3.0),
    )
    print(f"Rendering {n_frames} frames, 3 deg/frame, {n_procs} processors "
          f"(profile refresh every {new.schedule.period} frames = ~15 deg)...")
    frames = []
    for i in range(n_frames):
        view = renderer.view_from_angles(20, 30 + 3 * i, 0)
        t0 = time.perf_counter()
        frame = new.render_frame(view)
        frames.append(frame)
        sizes = np.diff(frame.boundaries)
        print(f"  frame {i}: {'profiled,' if frame.profiled else 'predicted,'} "
              f"partitions {sizes.min()}-{sizes.max()} lines, "
              f"{time.perf_counter() - t0:.2f}s host time")

    print("\nSteady-state frame times on the modeled platforms")
    print("(cycles scaled n^3 back to full 511x511x333 resolution):")
    voxel_ratio = (1.0 / scale) ** 3
    for name in ("challenge", "origin2000", "simulator"):
        machine = machine_for(name, scale)
        if n_procs > machine.max_procs:
            continue
        rep = simulate_animation(frames, machine)
        full_cycles = rep.total_time * voxel_ratio
        seconds = machine.cycles_to_seconds(full_cycles)
        print(f"  {machine.name:12s} {n_procs} procs: "
              f"{seconds:6.2f} s/frame  ({1 / seconds:5.2f} fps)")
    print("\n(paper: ~1 s/frame serial at 256^3 on a 150 MHz machine; "
          "interactive rates need ~10-15 fps)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 6)
