"""Latency to the first frame of a batch, against a one-frame stream.

Usage::

    python benchmarks/tools/first_frame.py [--procs P] [--frames N]
                                           [--laps L] [--scales 1.0,0.25]

A pool deals a batch of at least ``n_procs`` frames whole ("solo") to
its workers, which buys frames per second with latency: the first frame
of a batch takes about one serial render instead of a banded frame's
share of it.  This prints that cost.  For the default pool
(``repro.open_pool(renderer, n_procs=P)``) over the mri128 phantom at
each scale (1.0 is 128^3, 0.25 is 32^3) it gives the median over
``L`` laps of:

``serial_ms``
    ``render_fast`` of one view, the single-threaded reference;
``batch_first_ms``
    from ``submit_batch`` of an ``N``-view rotation to its first
    ``result`` — solo dealt whenever ``N >= P > 1``;
``batch_ms_per_frame``
    the whole batch, submit to last result, over its frames;
``stream_p50_ms``
    ``render`` of one view at a time — the latency a one-frame request
    (a serve miss) sees.  Each frame is dealt whole to one worker.

Under each row, ``solo`` says how many of the timed frames of each kind
(``batch``: the two batch columns, ``stream``: the stream column) the
pool dealt whole (its ``pool/solo_frames`` counter), so the dealing is
on the page.

Every pool frame is compared with ``render_fast`` of its view, all four
planes bit for bit; a differing frame makes the exit status 1.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.datasets import load  # noqa: E402
from repro.render import ShearWarpRenderer  # noqa: E402
from repro.render.fast import render_fast  # noqa: E402
from repro.volume import mri_transfer_function  # noqa: E402
from repro.volume.volume import ClassifiedVolume  # noqa: E402

COLUMNS = ("serial_ms", "batch_first_ms", "batch_ms_per_frame",
           "stream_p50_ms")


def _same(res, ref) -> bool:
    return all(np.array_equal(a, b) for a, b in (
        (res.intermediate.color, ref.intermediate.color),
        (res.intermediate.opacity, ref.intermediate.opacity),
        (res.final.color, ref.final.color),
        (res.final.alpha, ref.final.alpha),
    ))


def measure(scale: float, procs: int, frames: int,
            laps: int) -> tuple[dict, dict, int]:
    """The medians of :data:`COLUMNS` at ``scale``; how many of the timed
    ``batch`` and ``stream`` frames went solo; and how many pool frames
    differed from ``render_fast``."""
    classified = ClassifiedVolume.classify(load("mri128", scale),
                                           mri_transfer_function())
    renderer = ShearWarpRenderer.from_classified(classified)
    views = [renderer.view_from_angles(20.0, 15.0 + i, 0.0)
             for i in range(frames)]
    refs = [render_fast(renderer, v) for v in views]
    cols: dict[str, list[float]] = {c: [] for c in COLUMNS}
    solo = {"batch": 0, "stream": 0}
    bad = 0
    with repro.open_pool(renderer, n_procs=procs) as pool:
        dealt = pool.metrics.counter("pool/solo_frames")
        pool.render_animation(views)  # warm-up: slice caches, a profile
        for _ in range(laps):
            t0 = time.perf_counter()
            render_fast(renderer, views[0])
            cols["serial_ms"].append((time.perf_counter() - t0) * 1e3)

            before = dealt.value
            t0 = time.perf_counter()
            ids = pool.submit_batch(views)
            got = [pool.result(ids[0])]
            cols["batch_first_ms"].append((time.perf_counter() - t0) * 1e3)
            got += [pool.result(f) for f in ids[1:]]
            cols["batch_ms_per_frame"].append(
                (time.perf_counter() - t0) * 1e3 / frames)
            bad += sum(not _same(r, ref) for r, ref in zip(got, refs))
            solo["batch"] += int(dealt.value - before)

            before = dealt.value
            stream = []
            for view, ref in zip(views, refs):
                t0 = time.perf_counter()
                res = pool.render(view)
                stream.append((time.perf_counter() - t0) * 1e3)
                bad += not _same(res, ref)
            cols["stream_p50_ms"].append(statistics.median(stream))
            solo["stream"] += int(dealt.value - before)
    return {c: statistics.median(v) for c, v in cols.items()}, solo, bad


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--procs", type=int, default=2)
    ap.add_argument("--frames", type=int, default=20)
    ap.add_argument("--laps", type=int, default=5)
    ap.add_argument("--scales", default="1.0,0.25",
                    help="comma-separated mri128 scales (1.0 is 128^3)")
    args = ap.parse_args(argv)
    if min(args.procs, args.frames, args.laps) < 1:
        ap.error("--procs, --frames and --laps must be >= 1")
    print(f"{'scale':>6s} " + " ".join(f"{c:>19s}" for c in COLUMNS))
    bad = 0
    for scale in (float(s) for s in args.scales.split(",")):
        row, solo, wrong = measure(scale, args.procs, args.frames, args.laps)
        bad += wrong
        print(f"{scale:6.3g} " + " ".join(f"{row[c]:19.2f}" for c in COLUMNS))
        timed = args.frames * args.laps
        print("  solo: " + "  ".join(f"{kind} {n}/{timed}"
                                     for kind, n in solo.items()))
    print(f"frames differing from render_fast: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
