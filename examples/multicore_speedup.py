"""Real shared-memory parallel rendering on this machine.

Runs the new algorithm's partitioning with actual worker processes
sharing the image buffers through multiprocessing.shared_memory, and
measures wall-clock time vs worker count — both as a sequence of
one-shot renders (fork + setup every frame, how the backend used to
work) and through a persistent :class:`MPRenderPool` rendering a short
animation, where fork, shared-memory setup and slice decoding are paid
once.  Every worker composites with the vectorized block kernel, the
same one the serial ``render_fast`` baseline uses; images are checked
bit for bit against the per-scanline reference renderer.

(On a single-core host the parallel runs add process overhead without
speedup — the 1997-platform results come from the simulator, not from
this demo.)

The final section turns on the paper's profile feedback loop
(``profile_period``): frames marked by the schedule measure per-scanline
costs, and following frames split the intermediate image so each worker
gets equal *measured* work instead of equal scanline counts — same
images, tighter per-worker busy times on lopsided views.

Run:  python examples/multicore_speedup.py [size] [--profile-period K]
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

import repro
from repro.datasets import mri_brain
from repro.render import ShearWarpRenderer
from repro.render.fast import render_fast
from repro.volume import mri_transfer_function

N_FRAMES = 8  # animation length for the pooled runs


def main(size: int = 64, profile_period: int = 4) -> None:
    cores = os.cpu_count() or 1
    print(f"Host has {cores} core(s).")
    volume = mri_brain((size, size, int(size * 0.65)))
    renderer = ShearWarpRenderer(volume, mri_transfer_function())
    views = [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(N_FRAMES)]
    view = views[0]
    # One config describes the whole study; each run varies one knob.
    base = repro.PoolConfig(profile_period=0)

    ref = renderer.render(view)
    render_fast(renderer, view)  # warm the slice cache, as the pools do
    t0 = time.perf_counter()
    render_fast(renderer, view)
    serial = time.perf_counter() - t0
    print(f"serial render_fast: {serial * 1e3:7.1f} ms/frame")

    print("\none-shot renders (fork + shared-memory setup every frame):")
    for workers in (1, 2, 4):
        t0 = time.perf_counter()
        res = repro.render_frame(renderer, view,
                                 config=base.replace(n_procs=workers))
        dt = time.perf_counter() - t0
        ok = np.array_equal(res.final.color, ref.final.color)
        print(f"  {workers} worker(s): {dt * 1e3:7.1f} ms/frame  "
              f"speedup {serial / dt:5.2f}x  image {'OK' if ok else 'MISMATCH'}")

    print(f"\npersistent pool, {N_FRAMES}-frame animation (setup amortized, "
          "segments double-buffered, uniform split):")
    for workers in (1, 2, 4):
        with repro.open_pool(renderer,
                             config=base.replace(n_procs=workers)) as pool:
            pool.render(views[0])  # warm up: fork + first slice decodes
            t0 = time.perf_counter()
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
            dt = (time.perf_counter() - t0) / N_FRAMES
        ok = np.array_equal(results[0].final.color, ref.final.color)
        print(f"  {workers} worker(s): {dt * 1e3:7.1f} ms/frame  "
              f"speedup {serial / dt:5.2f}x  image {'OK' if ok else 'MISMATCH'}")

    print(f"\nsame pool with the profile feedback loop "
          f"(re-profile every {profile_period} frames):")
    for workers in (2, 4):
        with repro.open_pool(
            renderer,
            config=base.replace(n_procs=workers,
                                profile_period=profile_period),
        ) as pool:
            pool.render(views[0])  # warm up (also measures frame 0's profile)
            t0 = time.perf_counter()
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
            dt = (time.perf_counter() - t0) / N_FRAMES
        ok = np.array_equal(results[0].final.color, ref.final.color)
        # Spread of per-worker busy times on the last frame: the load
        # balance the profile-sized partitions buy.
        busy = results[-1].busy_s
        spread = (busy.max() - busy.min()) / busy.mean() if busy.mean() else 0.0
        print(f"  {workers} worker(s): {dt * 1e3:7.1f} ms/frame  "
              f"speedup {serial / dt:5.2f}x  busy spread {spread:5.2f}  "
              f"image {'OK' if ok else 'MISMATCH'}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("size", nargs="?", type=int, default=64)
    parser.add_argument("--profile-period", type=int, default=4,
                        help="re-profile every K frames in the adaptive run")
    args = parser.parse_args()
    main(args.size, args.profile_period)
