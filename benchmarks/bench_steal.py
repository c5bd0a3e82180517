"""Chunked task stealing vs static partitioning in the real worker pool.

The paper's section 4.4 layers *dynamic* chunked task stealing on top of
the static profile-balanced partition: the profile predicts most of the
load, and stealing mops up whatever the prediction missed — an occluder
that moved, a processor slowed by interference.  This benchmark measures
that claim on the real ``multiprocessing`` backend under *injected*
interference: worker 0 is slowed by a deterministic CPU burn per
scanline it composites (the ``TEST_ROW_DELAY`` hook, the same knob the
test suite uses), a disturbance no static profile can predict because it
depends on which worker gets the rows, not on the rows themselves.

A short rotation animation over the skewed ``density_wedge`` phantom is
rendered three ways through :class:`repro.parallel.MPRenderPool`:

* ``uniform``   — uniform split, no profile, no stealing;
* ``profiled``  — the section 4.2-4.3 profile feedback loop, no stealing;
* ``stealing``  — the same feedback loop plus chunked task stealing.

Reported per mode: wall-clock per frame, per-worker busy-time spread
``(max - min) / mean`` (frame 0 excluded — it is profile-less by
construction), total steals and stolen scanlines, and bit-identity of
all three modes' images (scheduling moves work between workers, never
changes the arithmetic).

The grain is explicit (``--chunk``, default 8 — what ``BENCH_steal.json``
was measured with), not the pool's ``DEFAULT_STEAL_CHUNK``: that default
is sized to a kernel call's fixed cost, at which this phantom's ~20-row
bands are never split and nothing can be stolen.  This benchmark
measures the stealing *mechanism* under injected interference, not the
default configuration.

Results are published as ``BENCH_steal.json`` at the repository root.
The non-smoke run fails unless stealing both actually happened
(``steals > 0``) and beat the profiled-only busy spread — the profile
cannot see the injected interference, the thief can.

Run:  python benchmarks/bench_steal.py [--smoke] [--procs N]
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Stopwatch, host_cpu_info, save_bench_json  # noqa: E402

import repro  # noqa: E402
import repro.parallel.poolcore as poolcore  # noqa: E402
from repro.datasets import density_wedge  # noqa: E402
from repro.render import ShearWarpRenderer  # noqa: E402
from repro.volume import mri_transfer_function  # noqa: E402

SHAPE = (48, 48, 32)
SMOKE_SHAPE = (24, 24, 16)
PROFILE_PERIOD = 4
#: Scanlines per claim/steal ``BENCH_steal.json`` was measured with.
STEAL_CHUNK = 8
#: CPU seconds burned per scanline composited by worker 0 — large enough
#: to dominate the phantom's own skew, so the rebalancing we measure is
#: unambiguously the thief's doing.
ROW_DELAY_S = 0.002
SMOKE_ROW_DELAY_S = 0.001

MODES = {
    "uniform": dict(profile_period=0, stealing=False),
    "profiled": dict(profile_period=PROFILE_PERIOD, stealing=False),
    "stealing": dict(profile_period=PROFILE_PERIOD, stealing=True),
}


def run_animation(
    renderer: ShearWarpRenderer,
    views: list[np.ndarray],
    n_procs: int,
    steal_chunk: int,
    **pool_kwargs,
) -> dict:
    """Render the animation once; return timings, spreads and images."""
    with repro.open_pool(renderer, n_procs=n_procs, steal_chunk=steal_chunk,
                         **pool_kwargs) as pool:
        pool.render(views[0])  # warm up fork + first slice decodes
        with Stopwatch() as sw:
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
        wall = sw.seconds

    spreads = [res.busy_spread for res in results[1:]  # frame 0 has no profile
               if res.busy_s is not None and res.busy_s.mean() > 0]
    return {
        "wall_s": wall,
        "ms_per_frame": wall / len(views) * 1e3,
        "busy_spread_mean": float(np.mean(spreads)),
        "busy_spread_per_frame": [round(s, 4) for s in spreads],
        "steals": sum(r.steals for r in results),
        "steal_rows": sum(r.steal_rows for r in results),
        "images": [(r.final.color, r.final.alpha) for r in results],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small volume, short animation (CI smoke test)")
    parser.add_argument("--procs", type=int, default=4)
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--chunk", type=int, default=STEAL_CHUNK,
                        help="fewest scanlines per claim/steal")
    args = parser.parse_args(argv)

    shape = SMOKE_SHAPE if args.smoke else SHAPE
    n_frames = args.frames if args.frames else (4 if args.smoke else 10)
    delay = SMOKE_ROW_DELAY_S if args.smoke else ROW_DELAY_S
    chunk = 2 if args.smoke else args.chunk  # few scanlines at smoke size
    renderer = ShearWarpRenderer(density_wedge(shape), mri_transfer_function())
    views = [renderer.view_from_angles(18, 8 + 2.5 * i, 0) for i in range(n_frames)]

    # Slow worker 0 down for *every* mode: the hook reaches the workers
    # through fork, so it must be set before each pool is constructed.
    poolcore.TEST_ROW_DELAY = (0, delay)
    try:
        rows = {
            mode: run_animation(renderer, views, args.procs, chunk, **kwargs)
            for mode, kwargs in MODES.items()
        }
    finally:
        poolcore.TEST_ROW_DELAY = None

    images = {mode: row.pop("images") for mode, row in rows.items()}
    exact = all(
        np.array_equal(cu, cs) and np.array_equal(au, as_)
        for other in ("profiled", "stealing")
        for (cu, au), (cs, as_) in zip(images["uniform"], images[other])
    )
    stole = rows["stealing"]["steals"] > 0
    improved = (rows["stealing"]["busy_spread_mean"]
                < rows["profiled"]["busy_spread_mean"])

    report = {
        "benchmark": "steal",
        "smoke": args.smoke,
        **host_cpu_info(),
        "phantom": {"name": "density_wedge", "shape": list(shape)},
        "n_procs": args.procs,
        "n_frames": n_frames,
        "profile_period": PROFILE_PERIOD,
        "steal_chunk": chunk,
        "injected_row_delay_s": delay,
        "modes": {
            mode: {k: round(v, 4) if isinstance(v, float) else v
                   for k, v in row.items()}
            for mode, row in rows.items()
        },
        "exact_equal": exact,
        "stealing_happened": stole,
        "spread_improved_vs_profiled": improved,
    }

    print(f"density_wedge {shape}, {args.procs} workers, {n_frames} frames, "
          f"worker 0 slowed {delay * 1e3:.1f} ms/row, chunk {chunk}:")
    for mode, row in rows.items():
        print(f"  {mode:9s}: {row['ms_per_frame']:7.1f} ms/frame, "
              f"busy spread (max-min)/mean = {row['busy_spread_mean']:.3f}, "
              f"steals {row['steals']} ({row['steal_rows']} rows)")
    print(f"  images bit-identical across modes: {exact}; "
          f"steals happened: {stole}; spread beat profiled-only: {improved}")

    out_path = save_bench_json("steal", report)
    print(f"wrote {out_path}")

    ok = exact and (args.smoke or (stole and improved))
    if args.smoke:
        # Smoke still requires the thief to have fired at least once —
        # that is the CI signal that the dynamic path is alive.
        ok &= stole
    if not ok:
        print("FAILED: bit-identity / steals>0 / spread criterion not met",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
