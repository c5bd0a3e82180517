"""Sharded multi-pool rendering: merge-tree overhead and re-shard convergence.

Two questions about the shard layer, measured on the real backends:

1. **What does the distributed framebuffer cost?**  The same animation
   is rendered with 1, 2 and 4 shards and the per-frame wall clock is
   broken down into worker busy time, sort-last merge time (the masked
   copies through the shard framebuffers, straight off the service's
   ``shard/merge_s`` histogram) and residual dispatch/gather overhead.
   Bit-identity across all shard counts is asserted — the merge tree is
   pure plumbing and must never touch a pixel value.

2. **Does the shard-level feedback loop converge interference away?**
   One worker of shard 0 is slowed by a deterministic per-row CPU burn
   (``REPRO_SHARD_ROW_DELAY`` — the shard-scoped twin of the stealing
   benchmark's knob).  Per-scanline op counts are content-derived and
   cannot see this, but the service calibrates each shard's stitched
   profile slice by the shard's *measured busy seconds*, so the next
   re-shard hands the slow shard a smaller band.  Reported: cross-shard
   busy spread ``(max - min) / mean`` before feedback (frame 0, uniform
   shard split) and after (every later frame), with and without the
   feedback loop; the run fails unless feedback drops the spread.

Honesty: this host runs the whole fleet on however many CPUs it
actually has (``host_cpu_info`` / ``multi_core_host`` in the report).
On a single-CPU host shards add overhead rather than speed — the
numbers published here are the *overhead* and *balance* measurements,
which are meaningful on any host; end-to-end speedup claims are not
made unless ``multi_core_host`` is true.

Results are published as ``BENCH_shard.json`` at the repository root.

Run:  python benchmarks/bench_shard.py [--smoke] [--procs N]
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Stopwatch, host_cpu_info, save_bench_json  # noqa: E402

import repro  # noqa: E402
from repro.datasets import density_wedge  # noqa: E402
from repro.parallel.poolcore import PoolConfig  # noqa: E402
from repro.render import ShearWarpRenderer  # noqa: E402
from repro.shard import ShardConfig  # noqa: E402
from repro.volume import mri_transfer_function  # noqa: E402

SHAPE = (48, 48, 32)
SMOKE_SHAPE = (24, 24, 16)
PROFILE_PERIOD = 2
#: CPU seconds burned per scanline composited by shard 0's worker 0 in
#: the convergence experiment — large enough to dominate the phantom's
#: own per-row cost, so the spread we measure is the interference.
ROW_DELAY_S = 0.004
SMOKE_ROW_DELAY_S = 0.003


def run_fleet(renderer, views, *, shards, n_procs, profile_period,
              warmup=True) -> dict:
    """Render the animation through one shard fleet; return measurements."""
    # A ShardConfig opens the shard service even for the 1-shard row,
    # so every row pays (and reports) the same gather/merge plumbing.
    cfg = ShardConfig(shards=shards, pool=PoolConfig(
        n_procs=n_procs, stealing=False, profile_period=profile_period))
    with repro.open_pool(renderer, cfg) as svc:
        if warmup:
            svc.render(views[0])  # fork + first slice decodes off the clock
        with Stopwatch() as sw:
            results = svc.render_animation(views)
        wall = sw.seconds
        merge_h = svc.metrics.histogram("shard/merge_s")
        # The warmup frame also merged: take the timed frames' share.
        merge_per_frame = merge_h.total / merge_h.count if merge_h.count else 0.0
        merges = int(svc.metrics.counter("shard/merges").value)
        reshards = int(svc.metrics.counter("shard/reshards").value)

    n = len(views)
    busy = [float(np.asarray(r.busy_s).sum()) for r in results]
    spreads = [float(r.busy_spread) for r in results
               if r.busy_s is not None and np.asarray(r.busy_s).mean() > 0]
    frac0 = [
        float(int(r.boundaries[1]) - int(r.boundaries[0]))
        / max(1, int(r.boundaries[-1]) - int(r.boundaries[0]))
        for r in results
    ]
    return {
        "ms_per_frame": wall / n * 1e3,
        "busy_ms_per_frame": float(np.mean(busy)) * 1e3,
        "merge_ms_per_frame": merge_per_frame * 1e3,
        "dispatch_ms_per_frame": max(
            0.0, (wall / n - np.mean(busy) - merge_per_frame) * 1e3
        ),
        "merges_per_frame": merges / (n + (1 if warmup else 0)),
        "reshards": reshards,
        "shard_busy_spread_per_frame": [round(s, 4) for s in spreads],
        "shard0_band_fraction_per_frame": [round(f, 4) for f in frac0],
        "images": [(r.final.color, r.final.alpha) for r in results],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small volume, short animation (CI smoke test)")
    parser.add_argument("--procs", type=int, default=2,
                        help="workers per shard pool")
    parser.add_argument("--frames", type=int, default=None)
    args = parser.parse_args(argv)

    shape = SMOKE_SHAPE if args.smoke else SHAPE
    n_frames = args.frames if args.frames else (6 if args.smoke else 10)
    delay = SMOKE_ROW_DELAY_S if args.smoke else ROW_DELAY_S
    renderer = ShearWarpRenderer(density_wedge(shape), mri_transfer_function())
    views = [renderer.view_from_angles(18, 8 + 2.5 * i, 0)
             for i in range(n_frames)]

    # -- experiment 1: merge overhead breakdown across shard counts ------
    os.environ.pop("REPRO_SHARD_ROW_DELAY", None)
    overhead = {}
    for shards in (1, 2, 4):
        row = run_fleet(renderer, views, shards=shards, n_procs=args.procs,
                        profile_period=PROFILE_PERIOD)
        overhead[shards] = row
    images = {s: row.pop("images") for s, row in overhead.items()}
    exact = all(
        np.array_equal(c1, cs) and np.array_equal(a1, as_)
        for s in (2, 4)
        for (c1, a1), (cs, as_) in zip(images[1], images[s])
    )

    # -- experiment 2: interference convergence via busy feedback --------
    os.environ["REPRO_SHARD_ROW_DELAY"] = f"0:0:{delay}"
    try:
        # No warmup: frame 0 *is* the "before feedback" measurement
        # (uniform shard split, profile not yet stitched).
        no_fb = run_fleet(renderer, views, shards=2, n_procs=args.procs,
                          profile_period=0, warmup=False)
        fb = run_fleet(renderer, views, shards=2, n_procs=args.procs,
                       profile_period=PROFILE_PERIOD, warmup=False)
    finally:
        del os.environ["REPRO_SHARD_ROW_DELAY"]
    fb_images, no_fb_images = fb.pop("images"), no_fb.pop("images")
    exact_interfered = all(
        np.array_equal(ca, cb) and np.array_equal(aa, ab)
        for (ca, aa), (cb, ab) in zip(fb_images, no_fb_images)
    )
    # Frame 0 is excluded on both sides: its busy time is dominated by
    # the first RLE slice decodes, which pad every shard about equally
    # and mask the interference.  "Before" is the warm uniform-shard
    # steady state (the no-feedback run — feedback's own frame 0 runs on
    # the same uniform split); "after" is the feedback run's trailing
    # half, i.e. the re-sharded steady state after convergence.
    tail = max(2, (n_frames - 1) // 2)
    spread_before = float(np.mean(no_fb["shard_busy_spread_per_frame"][1:]))
    spread_after = float(np.mean(fb["shard_busy_spread_per_frame"][-tail:]))
    converged = spread_after < spread_before

    report = {
        "benchmark": "shard",
        "smoke": args.smoke,
        **host_cpu_info(),
        "phantom": {"name": "density_wedge", "shape": list(shape)},
        "procs_per_shard": args.procs,
        "n_frames": n_frames,
        "profile_period": PROFILE_PERIOD,
        "merge_overhead_by_shards": {
            str(s): {k: round(v, 4) if isinstance(v, float) else v
                     for k, v in row.items()}
            for s, row in overhead.items()
        },
        "interference": {
            "injected_row_delay_s": delay,
            "injected_on": "shard 0, worker 0",
            "spread_before_feedback": round(spread_before, 4),
            "spread_after_feedback": round(spread_after, 4),
            "feedback": {k: v for k, v in fb.items()},
            "no_feedback": {k: v for k, v in no_fb.items()},
        },
        "exact_equal_across_shard_counts": exact,
        "exact_equal_under_interference": exact_interfered,
        "spread_converged": converged,
    }

    print(f"density_wedge {shape}, {args.procs} procs/shard, "
          f"{n_frames} frames:")
    for s, row in overhead.items():
        print(f"  shards={s}: {row['ms_per_frame']:7.1f} ms/frame "
              f"(busy {row['busy_ms_per_frame']:.1f}, "
              f"merge {row['merge_ms_per_frame']:.2f}, "
              f"dispatch {row['dispatch_ms_per_frame']:.1f}); "
              f"{row['merges_per_frame']:.0f} merges/frame")
    print(f"  interference ({delay * 1e3:.0f} ms/row on shard 0): spread "
          f"{spread_before:.3f} before feedback -> {spread_after:.3f} after; "
          f"shard 0 band {fb['shard0_band_fraction_per_frame'][0]:.2f} -> "
          f"{fb['shard0_band_fraction_per_frame'][-1]:.2f}")
    print(f"  bit-identical across shard counts: {exact}; "
          f"under interference: {exact_interfered}; "
          f"spread converged: {converged}")

    out_path = save_bench_json("shard", report)
    print(f"wrote {out_path}")

    if not (exact and exact_interfered and converged):
        print("FAILED: bit-identity / spread-convergence criterion not met",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
