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

A pool deals every fresh frame whole to one worker: its workers buy
throughput (frames side by side), not one frame's latency.  Only a
retried frame is split into the paper's bands.  The final section
renders frame by frame, the shape a one-frame request has, and prints
how many frames went whole to one worker.

Run:  python examples/multicore_speedup.py [size]
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


def main(size: int = 64) -> None:
    cores = os.cpu_count() or 1
    print(f"Host has {cores} core(s).")
    volume = mri_brain((size, size, int(size * 0.65)))
    renderer = ShearWarpRenderer(volume, mri_transfer_function())
    views = [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(N_FRAMES)]
    view = views[0]

    ref = renderer.render(view)
    render_fast(renderer, view)  # warm the slice cache, as the pools do
    t0 = time.perf_counter()
    render_fast(renderer, view)
    serial = time.perf_counter() - t0
    print(f"serial render_fast: {serial * 1e3:7.1f} ms/frame")

    print("\none-shot renders (fork + shared-memory setup every frame):")
    for workers in (1, 2, 4):
        t0 = time.perf_counter()
        with repro.open_pool(renderer, n_procs=workers) as pool:
            res = pool.render(view)
        dt = time.perf_counter() - t0
        ok = np.array_equal(res.final.color, ref.final.color)
        print(f"  {workers} worker(s): {dt * 1e3:7.1f} ms/frame  "
              f"speedup {serial / dt:5.2f}x  image {'OK' if ok else 'MISMATCH'}")

    print(f"\npersistent pool, {N_FRAMES}-frame animation as one batch "
          "(setup amortized, each frame dealt whole to one worker, "
          "two image segments a worker):")
    for workers in (1, 2, 4):
        with repro.open_pool(renderer, n_procs=workers) as pool:
            pool.render(views[0])  # warm up: fork, slice decodes, a profile
            t0 = time.perf_counter()
            results = pool.render_animation(views)
            dt = (time.perf_counter() - t0) / N_FRAMES
        ok = np.array_equal(results[0].final.color, ref.final.color)
        print(f"  {workers} worker(s): {dt * 1e3:7.1f} ms/frame  "
              f"speedup {serial / dt:5.2f}x  image {'OK' if ok else 'MISMATCH'}")

    print("\nsame pool frame by frame (each frame dealt whole to one "
          "worker):")
    for workers in (2, 4):
        with repro.open_pool(renderer, n_procs=workers) as pool:
            pool.render(views[0])  # warm up
            solo0 = pool.metrics.counter("pool/solo_frames").value
            t0 = time.perf_counter()
            results = [pool.render(v) for v in views]
            dt = (time.perf_counter() - t0) / N_FRAMES
            solo = pool.metrics.counter("pool/solo_frames").value - solo0
        ok = np.array_equal(results[0].final.color, ref.final.color)
        print(f"  {workers} worker(s): {dt * 1e3:7.1f} ms/frame  "
              f"speedup {serial / dt:5.2f}x  solo {int(solo)}/{N_FRAMES}  "
              f"image {'OK' if ok else 'MISMATCH'}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("size", nargs="?", type=int, default=64)
    args = parser.parse_args()
    main(args.size)
