"""Compositing-kernel benchmark: scanline vs block vs fast, serial and parallel.

Unlike the ``fig*`` benchmarks (simulated 1997 machines), this measures
*wall-clock* time on the current host — the perf trajectory of the real
execution path.  Three serial configurations composite one frame:

* ``scanline`` — the instrumented per-scanline reference kernel;
* ``block``    — the vectorized block kernel over the whole frame;
* ``fast``     — ``composite_frame_fast`` (the degenerate whole-frame
  block call, kept separate to catch wiring regressions);

then the parallel backends render a short animation at 1-4 workers with
both kernels and four ways of driving a pool:

* ``oneshot``  — ``repro.render_frame``: fork + setup every frame (the
  worst case);
* ``perframe`` — persistent mp pool, explicit per-frame ``submit`` /
  ``result`` pairs (one queue message per worker per frame);
* ``batched``  — ``render_animation``: one queue message per worker for
  the whole animation, cross-frame pipelining;
* ``threaded`` — the no-copy thread pool (``backend="thread"``), batched.

A traced pass splits the per-frame dispatch *tax* (wait + barrier +
doorbell + parent dispatch span time) out of the block-kernel runs so
the overhead the batching work attacks is measured, not inferred.  The
report carries two headline booleans: ``parallel_beats_serial_1proc``
(a 1-worker pooled/threaded frame costs no more than the serial block
composite) and ``parallel_beats_serial`` (some >= 2-worker config beats
serial outright — only reachable on a multi-core host, see
``host_cpus_available``).  Results land in ``BENCH_kernel.json`` at the
repository root.

Run:  python benchmarks/bench_kernel.py [--smoke] [--reps N]
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import best_of, host_cpu_info, save_bench_json  # noqa: E402

import repro  # noqa: E402
from repro.datasets import ct_head, mri_brain  # noqa: E402
from repro.render import (  # noqa: E402
    IntermediateImage,
    ShearWarpRenderer,
    composite_image_scanline,
    composite_scanline_block,
)
from repro.render.fast import composite_frame_fast  # noqa: E402
from repro.volume import ct_transfer_function, mri_transfer_function  # noqa: E402

#: The default MRI proxy of the acceptance criterion: 64^3-class volume
#: with the paper's 0.65 z-elongation (matches examples/multicore_speedup).
MRI_SHAPE = (64, 64, 42)
CT_SHAPE = (64, 64, 64)
SMOKE_MRI_SHAPE = (28, 28, 20)
SMOKE_CT_SHAPE = (24, 24, 24)

#: Span phases that are dispatch tax rather than compute: queue waits,
#: the inter-phase barrier, buffer-release gate spins, and the parent's
#: plan+enqueue work.
OVERHEAD_PHASES = ("wait", "barrier", "doorbell", "dispatch")


def bench_serial(renderer: ShearWarpRenderer, view: np.ndarray, reps: int) -> dict:
    fact = renderer.factorize_view(view)
    rle = renderer.rle_for(fact)
    n_v = fact.intermediate_shape[0]

    def run_scanline() -> IntermediateImage:
        img = IntermediateImage(fact.intermediate_shape)
        for v in range(n_v):
            composite_image_scanline(img, v, rle, fact)
        return img

    def run_block() -> IntermediateImage:
        img = IntermediateImage(fact.intermediate_shape)
        composite_scanline_block(img, 0, n_v, rle, fact)
        return img

    def run_fast() -> IntermediateImage:
        img = IntermediateImage(fact.intermediate_shape)
        composite_frame_fast(img, rle, fact)
        return img

    ref = run_scanline()
    got = run_block()  # also warms the decoded-slice cache
    exact = bool(
        np.array_equal(ref.opacity, got.opacity)
        and np.array_equal(ref.color, got.color)
    )
    times = {
        "scanline": best_of(run_scanline, reps),
        "block": best_of(run_block, reps),
        "fast": best_of(run_fast, reps),
    }
    return {
        "composite_ms": {k: round(v * 1e3, 3) for k, v in times.items()},
        "block_speedup_vs_scanline": round(times["scanline"] / times["block"], 2),
        "exact_equal": exact,
    }


def _perframe_animation(pool, views) -> None:
    handles = [pool.submit(v) for v in views]
    for h in handles:
        pool.result(h)


def bench_parallel(
    renderer: ShearWarpRenderer,
    views: list[np.ndarray],
    procs: tuple[int, ...],
    reps: int,
) -> dict:
    out: dict = {}
    for n in procs:
        out[str(n)] = {}
        for kernel in ("scanline", "block"):
            oneshot = best_of(
                lambda: repro.render_frame(renderer, views[0], n_procs=n,
                                           kernel=kernel),
                reps,
            )
            with repro.open_pool(renderer, n_procs=n, kernel=kernel) as pool:
                pool.render(views[0])  # warm up fork + decodes
                # Per-frame submit/result pairs: a queue message per
                # worker per frame.
                perframe = best_of(
                    lambda: _perframe_animation(pool, views), reps
                ) / len(views)
                # One batch per worker for the whole animation.
                batched = best_of(
                    lambda: pool.render_animation(views), reps
                ) / len(views)
            # The no-copy thread pool, batched.
            with repro.open_pool(renderer, n_procs=n, kernel=kernel,
                                 backend="thread") as pool:
                pool.render(views[0])
                threaded = best_of(
                    lambda: pool.render_animation(views), reps
                ) / len(views)
            out[str(n)][kernel] = {
                "oneshot_ms": round(oneshot * 1e3, 3),
                "pooled_ms_per_frame": round(perframe * 1e3, 3),
                "batched_ms_per_frame": round(batched * 1e3, 3),
                "threaded_ms_per_frame": round(threaded * 1e3, 3),
            }
    return out


def _traced_overhead(pool, run, views) -> dict:
    """Per-frame dispatch-tax split of one traced animation run."""
    pool.render(views[0])  # warm up; frame 0's spans are discarded below
    warm_frames = len(pool.timelines)
    run()
    timelines = pool.timelines[warm_frames:]
    n = max(1, len(timelines))
    totals: dict[str, float] = {}
    for tl in timelines:
        for phase, s in tl.phase_seconds().items():
            totals[phase] = totals.get(phase, 0.0) + s
    overhead = sum(totals.get(p, 0.0) for p in OVERHEAD_PHASES)
    return {
        "overhead_ms_per_frame": round(overhead / n * 1e3, 3),
        "composite_ms_per_frame": round(totals.get("composite", 0.0) / n * 1e3, 3),
        "phases_ms_per_frame": {
            p: round(totals.get(p, 0.0) / n * 1e3, 3) for p in OVERHEAD_PHASES
        },
    }


def bench_dispatch_overhead(
    renderer: ShearWarpRenderer, views: list[np.ndarray], n: int
) -> dict:
    """Span-measured dispatch tax, per-frame vs batched, block kernel.

    The arithmetic difference ``pooled_ms_per_frame - serial block
    composite_ms`` says overhead exists; the spans say where it goes.
    Traced pools run separately from the timed ones so ring recording
    never pollutes the headline timings.
    """
    out: dict = {}
    with repro.open_pool(renderer, n_procs=n, trace=True) as pool:
        out["perframe"] = _traced_overhead(
            pool, lambda: _perframe_animation(pool, views), views
        )
    with repro.open_pool(renderer, n_procs=n, trace=True) as pool:
        out["batched"] = _traced_overhead(
            pool, lambda: pool.render_animation(views), views
        )
    with repro.open_pool(renderer, n_procs=n, trace=True,
                         backend="thread") as pool:
        out["threaded"] = _traced_overhead(
            pool, lambda: pool.render_animation(views), views
        )
    pf = out["perframe"]["overhead_ms_per_frame"]
    ba = out["batched"]["overhead_ms_per_frame"]
    out["reduction_x"] = round(pf / ba, 2) if ba > 0 else float("inf")
    # The pure dispatch span (queue round-trips + worker wake-up) is the
    # cost batching actually attacks; wait/barrier also land in the
    # aggregate above but are dominated by CPU timesharing when the host
    # has fewer cores than workers, so report the component separately.
    pf_d = out["perframe"]["phases_ms_per_frame"]["dispatch"]
    ba_d = out["batched"]["phases_ms_per_frame"]["dispatch"]
    out["dispatch_reduction_x"] = (
        round(pf_d / ba_d, 2) if ba_d > 0 else float("inf")
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small volumes, minimal reps (CI smoke test)")
    parser.add_argument("--reps", type=int, default=None,
                        help="timing repetitions (best-of)")
    args = parser.parse_args(argv)

    reps = args.reps if args.reps is not None else (1 if args.smoke else 3)
    procs = (1, 2) if args.smoke else (1, 2, 4)
    n_anim = 2 if args.smoke else 6
    datasets = {
        "mri_brain": (mri_brain, SMOKE_MRI_SHAPE if args.smoke else MRI_SHAPE,
                      mri_transfer_function()),
        "ct_head": (ct_head, SMOKE_CT_SHAPE if args.smoke else CT_SHAPE,
                    ct_transfer_function()),
    }

    report: dict = {
        "benchmark": "kernel",
        "smoke": args.smoke,
        **host_cpu_info(),
        "datasets": {},
    }
    multi_core = report["host_cpus_available"] >= 2
    ok = True
    beats_1proc = False
    beats_serial = False
    for name, (factory, shape, tf) in datasets.items():
        renderer = ShearWarpRenderer(factory(shape), tf)
        views = [renderer.view_from_angles(20, 30 + 3 * i, 0) for i in range(n_anim)]
        serial = bench_serial(renderer, views[0], reps)
        par = bench_parallel(renderer, views, procs, reps)
        overhead = bench_dispatch_overhead(renderer, views, max(procs))
        report["datasets"][name] = {
            "shape": list(shape),
            "serial": serial,
            "mp": par,
            "dispatch_overhead": overhead,
        }

        serial_block = serial["composite_ms"]["block"]
        c = serial["composite_ms"]
        print(f"{name} {shape}: composite scanline {c['scanline']:.1f} ms, "
              f"block {c['block']:.1f} ms "
              f"({serial['block_speedup_vs_scanline']:.1f}x), "
              f"fast {c['fast']:.1f} ms, "
              f"exact_equal={serial['exact_equal']}")
        for n in procs:
            row = par[str(n)]["block"]
            print(f"  {n} proc(s) block: one-shot {row['oneshot_ms']:.1f} ms; "
                  f"per-frame {row['pooled_ms_per_frame']:.1f}, "
                  f"batched {row['batched_ms_per_frame']:.1f}, "
                  f"threaded {row['threaded_ms_per_frame']:.1f} ms/frame "
                  f"(serial block {serial_block:.1f} ms)")
            best = min(row["batched_ms_per_frame"], row["threaded_ms_per_frame"])
            if n == 1 and best <= serial_block:
                beats_1proc = True
            if n >= 2 and best < serial_block:
                beats_serial = True
        print(f"  dispatch tax at {max(procs)} procs (block, span-split): "
              f"per-frame {overhead['perframe']['overhead_ms_per_frame']:.2f} ms"
              f" -> batched {overhead['batched']['overhead_ms_per_frame']:.2f} ms"
              f" ({overhead['reduction_x']}x lower), "
              f"threaded {overhead['threaded']['overhead_ms_per_frame']:.2f} ms; "
              f"dispatch span alone {overhead['dispatch_reduction_x']}x lower")
        ok &= serial["exact_equal"]
        if not args.smoke and name == "mri_brain":
            ok &= serial["block_speedup_vs_scanline"] >= 3.0

    report["parallel_beats_serial_1proc"] = beats_1proc
    # Only claimable where >= 2 workers can actually run concurrently.
    report["parallel_beats_serial"] = beats_serial
    report["multi_core_host"] = multi_core
    print(f"\nparallel_beats_serial_1proc={beats_1proc}  "
          f"parallel_beats_serial={beats_serial}  "
          f"(host: {report['host_cpus']} cpus, "
          f"{report['host_cpus_available']} available)")

    out_path = save_bench_json("kernel", report)
    print(f"wrote {out_path}")
    if not ok:
        print("FAILED: exact-equality or speedup criterion not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
