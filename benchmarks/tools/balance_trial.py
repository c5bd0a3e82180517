"""Interleaved trial of a pool's band balancer on one-frame streams.

Usage::

    python benchmarks/tools/balance_trial.py REF [--pairs N] [--frames F]
        [--procs 2,4] [--datasets mri128,density_wedge,beating_heart]
        [--slow S] [--scale X] [--no-uniform] [--out FILE]

A pool deals every fresh frame whole to one worker and bands — splits
over all of its workers — only a retry, so each run cuts every frame
of a one-frame ``render()`` stream as a retry is cut (a patch of
``FramePlanner.cut`` inside the run's own subprocess): a stream of
bands, each balanced by the band times of the one before, which is
where a balancer of the bands shows.  ``REF`` (a commit, branch or tag
of this repository) is exported, its committed files as ``git archive`` gives
them, into a temporary directory.  Each run is one subprocess on one
side's tree: an mp pool of ``P`` workers renders ``F`` frames at 1
degree per frame, one at a time, after three untimed warm-up frames.
The arms are

``ref``
    REF's tree;
``change``
    this checkout's working tree;
``uniform``
    this checkout with ``poolcore.profile_partition`` patched to
    ``uniform_contiguous_partition`` inside the run's own subprocess:
    uniform bands, whatever the pool measures (left out with
    ``--no-uniform``).

A cell is (``P``, dataset, plain or slowed), where "slowed" arms
``poolcore.TEST_ROW_DELAY = (1, S)``: worker 1 busy-waits ``S`` seconds
per scanline it composites (most of that wait is not CPU time, so a
balancer fed CPU seconds sees only part of it).  The datasets are the mri128 phantom at
128^3, a 128x128x96 ``density_wedge`` (its load ramps steeply along one
axis) and a 96x96x64 four-timestep ``beating_heart`` (frame ``i`` shows
timestep ``i % 4``).  Pair ``k`` runs every arm once per cell, in an
order that rotates with ``k``.  Per run it records ``frame_ms_p50`` /
``frame_ms_p90`` (wall milliseconds of a ``render()`` call),
``cpu_ms_per_frame`` (user + system CPU of the run's process and its
workers) and ``busy_spread`` (the mean over frames of
``(max - min) / mean`` of the workers' busy seconds).  Every frame is
compared with ``render_fast`` of its view, all four planes bit for bit;
a differing frame makes the exit status 1.

Per cell it prints each arm's median [q1, q3] per metric and, for
``change`` against each other arm, the pairs in which ``change`` was
better (lower).  ``--out`` keeps every run as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
METRICS = ("frame_ms_p50", "frame_ms_p90", "cpu_ms_per_frame", "busy_spread")
DATASETS = ("mri128", "density_wedge", "beating_heart")
#: Untimed frames before each timed stream: fork, slice caches and a
#: first set of band times are in place before the clock starts.
WARMUP = 3


def export(ref: str, repo: Path, dest: Path) -> None:
    """Write the committed tree of ``ref`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=repo,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def quartiles(values) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def pairs_won(change, other) -> int:
    """Pairs in which ``change`` was strictly lower than ``other``."""
    return sum(c < o for c, o in zip(change, other))


# -- one run, in its own subprocess on one side's tree ------------------------


def _renderer(dataset: str, scale: float):
    from repro.datasets import density_wedge, load
    from repro.movie import beating_heart_renderer
    from repro.render import ShearWarpRenderer
    from repro.volume import mri_transfer_function
    from repro.volume.volume import ClassifiedVolume

    if dataset == "mri128":
        return ShearWarpRenderer.from_classified(ClassifiedVolume.classify(
            load("mri128", scale), mri_transfer_function()))
    if dataset == "density_wedge":
        shape = tuple(max(8, round(d * scale)) for d in (128, 128, 96))
        return ShearWarpRenderer(density_wedge(shape), mri_transfer_function())
    if dataset == "beating_heart":
        return beating_heart_renderer(2.0 * scale, timesteps=4)
    raise ValueError(f"unknown dataset {dataset!r}")


def child(cell: dict) -> dict:
    """Render ``cell``'s stream with the ``repro`` on ``sys.path``."""
    import multiprocessing
    import os
    import time

    import numpy as np

    import repro
    import repro.parallel.poolcore as poolcore
    from repro.core.partition import uniform_contiguous_partition
    from repro.render.fast import render_fast

    def tree_cpu_s() -> float:
        pids = [os.getpid()] + [p.pid for p in multiprocessing.active_children()]
        ticks = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    renderer = _renderer(cell["dataset"], cell["scale"])
    steps = getattr(renderer, "n_timesteps", 1)
    frames = [(renderer.view_from_angles(20.0, 5.0 + i, 0.0),
               i % steps if steps > 1 else None)
              for i in range(cell["frames"])]
    refs = [render_fast(renderer, v, timestep=t) for v, t in frames]
    if cell["uniform"]:
        poolcore.profile_partition = (
            lambda profile, n, v_lo, v_hi: uniform_contiguous_partition(v_lo, v_hi, n))
    if cell["slow"]:
        poolcore.TEST_ROW_DELAY = (1, cell["slow"])
    cut = poolcore.FramePlanner.cut  # every frame banded, as a retry is
    poolcore.FramePlanner.cut = lambda planner, plan, solo=None: cut(planner, plan)
    wall, spreads, bad = [], [], 0
    with repro.open_pool(renderer, n_procs=cell["procs"]) as pool:
        for v, t in frames[:1] * WARMUP:
            pool.render(v, timestep=t)
        cpu0 = tree_cpu_s()
        for (v, t), ref in zip(frames, refs):
            t0 = time.perf_counter()
            res = pool.render(v, timestep=t)
            wall.append((time.perf_counter() - t0) * 1e3)
            spreads.append(float(res.busy_spread))
            bad += not all(np.array_equal(a, b) for a, b in (
                (res.intermediate.color, ref.intermediate.color),
                (res.intermediate.opacity, ref.intermediate.opacity),
                (res.final.color, ref.final.color),
                (res.final.alpha, ref.final.alpha)))
        cpu = tree_cpu_s() - cpu0
    p50, p90 = np.percentile(wall, [50, 90])
    return {"frame_ms_p50": float(p50), "frame_ms_p90": float(p90),
            "cpu_ms_per_frame": cpu * 1e3 / len(frames),
            "busy_spread": statistics.mean(spreads), "differing": bad}


def run_once(root: Path, cell: dict) -> dict:
    """One run of ``cell`` on the tree at ``root``, in a subprocess."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "sys.path.insert(0, sys.argv[2]); import balance_trial as b; "
            "print(json.dumps(b.child(json.loads(sys.argv[3]))))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(Path(__file__).parent),
         json.dumps(cell)], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"run of {cell} on {root} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the trial ---------------------------------------------------------------


def cells(procs, datasets, slow, frames, scale) -> list[dict]:
    """Every (P, dataset, plain or slowed) cell, as the run's settings."""
    return [dict(procs=p, dataset=d, slow=s, frames=frames, scale=scale)
            for p in procs for d in datasets for s in (0.0, slow)]


def cell_name(cell: dict) -> str:
    """``P=2 mri128 slowed`` and the like."""
    return (f"P={cell['procs']} {cell['dataset']} "
            + ("slowed" if cell["slow"] else "plain"))


def report(cell_runs: dict, arms: list[str], pairs: int) -> None:
    """Each cell's medians [q1, q3] and ``change``'s pairs won."""
    others = [a for a in arms if a != "change"]
    for name, runs in cell_runs.items():
        print(f"\n{name}: {pairs} pairs")
        print(f"{'metric':17s} " + " ".join(f"{a + ' median [q1, q3]':>28s}"
                                             for a in arms)
              + "".join(f"  won vs {o}" for o in others))
        for m in METRICS:
            cols = []
            for a in arms:
                med, q1, q3 = quartiles([r[m] for r in runs[a]])
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            won = [pairs_won([r[m] for r in runs["change"]],
                             [r[m] for r in runs[o]]) for o in others]
            print(f"{m:17s} " + " ".join(f"{c:>28s}" for c in cols)
                  + "".join(f"  {w:>{len(o) + 4}d}/{pairs}"
                            for w, o in zip(won, others)))


def main(argv: list[str], root: Path = ROOT) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="commit, branch or tag to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--frames", type=int, default=40)
    ap.add_argument("--procs", default="2,4")
    ap.add_argument("--datasets", default=",".join(DATASETS))
    ap.add_argument("--slow", type=float, default=2e-4,
                    help="CPU seconds per row worker 1 burns in a slowed cell")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="size of every dataset against its default")
    ap.add_argument("--no-uniform", action="store_true",
                    help="leave out the uniform arm")
    ap.add_argument("--out", help="JSON file to keep every run in")
    args = ap.parse_args(argv)
    procs = [int(p) for p in args.procs.split(",")]
    datasets = args.datasets.split(",")
    if min(args.pairs, args.frames, *procs) < 1 or args.slow <= 0:
        ap.error("--pairs, --frames and --procs must be >= 1, --slow > 0")
    if not set(datasets) <= set(DATASETS):
        ap.error(f"--datasets: choose from {', '.join(DATASETS)}")
    arms = ["ref", "change"] + ([] if args.no_uniform else ["uniform"])
    todo = cells(procs, datasets, args.slow, args.frames, args.scale)

    with tempfile.TemporaryDirectory(prefix="trial-") as tmp:
        ref_root = Path(tmp) / "ref"
        export(args.ref, root, ref_root)
        trees = {"ref": ref_root, "change": root, "uniform": root}
        cell_runs = {cell_name(c): {a: [] for a in arms} for c in todo}
        for k in range(args.pairs):
            order = arms[k % len(arms):] + arms[:k % len(arms)]
            for cell in todo:
                for arm in order:
                    run = run_once(trees[arm], {**cell, "uniform": arm == "uniform"})
                    cell_runs[cell_name(cell)][arm].append(run)
            print(f"pair {k + 1}/{args.pairs} ({' '.join(order)}) done",
                  flush=True)

    print(f"\nref {args.ref} vs this checkout: one-frame mp streams of "
          f"{args.frames} frames, slowed = worker 1 at {args.slow:g} s/row")
    report(cell_runs, arms, args.pairs)
    differing = sum(r["differing"] for runs in cell_runs.values()
                    for arm in runs.values() for r in arm)
    print(f"\nframes differing from render_fast: {differing}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"ref": args.ref, "args": vars(args), "cells": cell_runs},
            indent=1) + "\n")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
