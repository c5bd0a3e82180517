"""Quickstart: render a synthetic MRI brain with the shear-warp renderer.

Shows the minimal pipeline: phantom volume -> transfer function ->
renderer -> one frame from an oblique viewpoint, plus a crude ASCII
rendering of the result so you can *see* it — and the same frame again
through the real multiprocessing backend via the top-level facade
(``repro.PoolConfig`` + ``repro.open_pool``), bit-identical.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

import repro
from repro.datasets import mri_brain
from repro.render import ShearWarpRenderer, WorkCounters
from repro.volume import mri_transfer_function


def ascii_image(image: np.ndarray, width: int = 70) -> str:
    """Downsample a float image to ASCII luminance art."""
    ny, nx = image.shape
    step = max(1, nx // width)
    rows = []
    ramp = " .:-=+*#%@"
    for y in range(0, ny, 2 * step):
        row = image[y : y + 2 * step, :]
        cells = [
            row[:, x : x + step].mean() for x in range(0, nx, step)
        ]
        peak = image.max() or 1.0
        rows.append("".join(ramp[min(9, int(9 * c / peak))] for c in cells))
    return "\n".join(rows)


def main() -> None:
    print("Generating a 96x96x64 synthetic MRI brain...")
    volume = mri_brain((96, 96, 64))

    print("Classifying + run-length encoding (once per volume)...")
    t0 = time.perf_counter()
    renderer = ShearWarpRenderer(volume, mri_transfer_function())
    print(f"  done in {time.perf_counter() - t0:.2f}s; "
          f"{renderer.classified.transparent_fraction:.0%} of voxels transparent "
          f"(paper: 70-95% for medical data)")
    for axis, rle in renderer.rle_by_axis.items():
        print(f"  axis {axis}: RLE compresses {rle.compression_ratio:.1f}x")

    print("\nRendering one frame (20deg, 30deg oblique view)...")
    view = renderer.view_from_angles(20, 30, 0)
    counters = WorkCounters()
    t0 = time.perf_counter()
    result = renderer.render(view, counters=counters)
    dt = time.perf_counter() - t0
    print(f"  {dt:.2f}s: intermediate {result.intermediate.shape}, "
          f"final {result.final.shape}")
    print(f"  {counters.resample_ops} resamples, "
          f"{counters.pixels_skipped} pixels skipped by early termination, "
          f"{counters.warp_pixels} final pixels warped")

    print("\nSame frame through the parallel backend (2 worker processes)...")
    cfg = repro.PoolConfig(n_procs=2)
    t0 = time.perf_counter()
    with repro.open_pool(renderer, config=cfg) as pool:
        par = pool.render(view)
    dt = time.perf_counter() - t0
    same = np.array_equal(par.final.color, result.final.color)
    print(f"  {dt:.2f}s: image {'bit-identical to serial' if same else 'MISMATCH'}")

    print("\nFinal image:")
    print(ascii_image(result.final.color))


if __name__ == "__main__":
    main()
