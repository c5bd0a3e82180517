"""Cost of a fault: recovery latency and post-kill bit-identity.

The supervised pool (worker sentinels, per-frame deadlines, frame retry)
must bring an animation through a worker death with the same images.
One measurement on the real multiprocessing backend: a short animation
rendered healthy, then again with a deterministic SIGKILL injected into
one worker mid-animation (the ``poolcore.TEST_FAULT`` hook, the
monkeypatch twin of ``REPRO_MP_FAULT``).  Reported: total wall clock vs
healthy, the supervisor's measured ``pool/recovery_s`` (terminate +
respawn + re-dispatch), restart/retry counters, and bit-identity of
every frame against the healthy run.

(The cost of supervision on the *healthy* path used to be measured here
by parking the health checks behind a configurable poll interval; the
reading was an order of magnitude inside this host's noise and the
interval is now a constant, so that arm is gone — ``bench_e2e``'s
``anim_overhead_32`` is where a supervision tax would show.)

Results are published as ``BENCH_faults.json`` at the repository root.
The run fails if recovery did not actually happen, or if any recovered
frame's image differs.

Run:  python benchmarks/bench_faults.py [--smoke] [--procs N]
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
from repro.datasets import mri_brain  # noqa: E402
from repro.render import ShearWarpRenderer  # noqa: E402
from repro.volume import mri_transfer_function  # noqa: E402

SHAPE = (48, 48, 32)
SMOKE_SHAPE = (24, 24, 16)


def animate(renderer, views, n_procs: int) -> dict:
    """Render the animation once; return wall time, images, counters."""
    with repro.open_pool(renderer, n_procs=n_procs, profile_period=0) as pool:
        pool.render(views[0])  # warm up fork + first slice decodes
        with Stopwatch() as sw:
            handles = [pool.submit(v) for v in views]
            results = [pool.result(h) for h in handles]
        counters = pool.fault_counters()
        recovery = pool.metrics.snapshot()["histograms"].get("pool/recovery_s")
    return {
        "wall_s": sw.seconds,
        "images": [(r.final.color, r.final.alpha) for r in results],
        "retries": [r.retries for r in results],
        "degraded": [r.degraded for r in results],
        "counters": counters,
        "recovery_s": recovery,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small volume, short animation (CI smoke test)")
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args(argv)

    shape = SMOKE_SHAPE if args.smoke else SHAPE
    n_frames = args.frames if args.frames else (4 if args.smoke else 12)
    renderer = ShearWarpRenderer(mri_brain(shape), mri_transfer_function())
    views = [renderer.view_from_angles(20, 30 + 3 * i, 0)
             for i in range(n_frames)]

    # Recovery latency: kill worker 0 mid-animation (frame 1), compare
    # against an unfaulted run of the identical animation.
    healthy = animate(renderer, views, args.procs)
    poolcore.TEST_FAULT = (0, 1, "kill", "composite")
    try:
        faulted = animate(renderer, views, args.procs)
    finally:
        poolcore.TEST_FAULT = None

    exact = all(
        np.array_equal(hc, fc) and np.array_equal(ha, fa)
        for (hc, ha), (fc, fa) in zip(healthy["images"], faulted["images"])
    )
    recovered = (faulted["counters"]["worker_restarts"] >= 1
                 and sum(faulted["retries"]) >= 1
                 and not any(faulted["degraded"]))
    recovery_hist = faulted["recovery_s"]

    report = {
        "benchmark": "faults",
        "smoke": args.smoke,
        **host_cpu_info(),
        "phantom": {"name": "mri_brain", "shape": list(shape)},
        "n_procs": args.procs,
        "n_frames": n_frames,
        "faulted": {
            "wall_s": round(faulted["wall_s"], 4),
            "healthy_wall_s": round(healthy["wall_s"], 4),
            "recovery_s": recovery_hist,
            "counters": faulted["counters"],
            "frame_retries": faulted["retries"],
        },
        "exact_equal_after_recovery": exact,
        "recovered": recovered,
    }

    print(f"mri_brain {shape}, {args.procs} workers, {n_frames} frames:")
    rec_mean = (recovery_hist or {}).get("mean", 0.0)
    print(f"  faulted: {faulted['wall_s']:.3f} s wall "
          f"(healthy {healthy['wall_s']:.3f} s), recovery "
          f"{rec_mean * 1e3:.1f} ms, counters {faulted['counters']}")
    print(f"  images bit-identical after recovery: {exact}; "
          f"recovered without degradation: {recovered}")

    out_path = save_bench_json("faults", report)
    print(f"wrote {out_path}")

    if not (exact and recovered):
        print("FAILED: recovery / bit-identity criterion not met",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
