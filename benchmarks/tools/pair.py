"""Interleaved reference/change pairs of one benchmark workload.

Usage::

    python benchmarks/tools/pair.py REF --workload W --pairs N [--seed S] [--out DIR]

``REF`` (a commit, branch or tag of this repository) is exported — its
committed files, as ``git archive`` gives them — into a temporary
directory; the change side is this checkout's working tree.  Pair *k*
runs ``benchmarks/e2e/run.py --workload W --seed S+k`` once on each side,
each in its own subprocess, and alternates which side goes first (the
second run of a pair tends to set up slower).  Then, for every
end-to-end metric of ``BENCHMARK.json``, it prints each side's median
[q1, q3], the change's median delta against the reference's quartile
distance, a seeded bootstrap 95 % interval on that delta (pairs
resampled whole), the two-sided sign-test p-value of the per-pair
differences (ties dropped) and the pairs the change won; then each
side's ``setup_s`` median over the runs it made first in their pair and
over those it made second (the order effect); last, the verdict of this checkout's ``run.py compare`` on the two sets of runs.  The summaries,
the metric list and the verdict are ``run.py``'s own (its ``summarize``,
``E2E`` and ``compare_main``).  ``--out`` keeps the two reports
(``ref.json``, ``change.json``) in the ``run.py --out`` shape, so
``run.py compare`` can be re-run on them.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import math
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUNNER = Path("benchmarks") / "e2e" / "run.py"
#: Bootstrap resamples behind each interval.
BOOTSTRAP = 2000


def sign_test(diffs) -> float:
    """Two-sided sign-test p-value of paired differences, ties dropped:
    the chance of a split at least this lopsided if either side wins a
    pair with probability 1/2 (1.0 when every pair ties)."""
    up = sum(d > 0 for d in diffs)
    down = sum(d < 0 for d in diffs)
    n = up + down
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(up, down) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def bootstrap_delta(ref, change, seed: int,
                    samples: int = BOOTSTRAP) -> tuple[float, float]:
    """Percentile 95 % interval of ``median(change) - median(ref)``,
    resampling whole pairs with ``random.Random(seed)``."""
    rng = random.Random(seed)
    n = len(ref)
    deltas = sorted(
        statistics.median(change[i] for i in idx)
        - statistics.median(ref[i] for i in idx)
        for idx in ([rng.randrange(n) for _ in range(n)] for _ in range(samples))
    )
    return deltas[int(0.025 * samples)], deltas[math.ceil(0.975 * samples) - 1]


def order_medians(values, firsts) -> tuple:
    """Medians of ``values`` over the runs that went first in their pair
    and over those that went second (``None`` where there are none)."""
    out = []
    for first in (True, False):
        picked = [v for v, f in zip(values, firsts) if f == first]
        out.append(statistics.median(picked) if picked else None)
    return tuple(out)


def export(ref: str, repo: Path, dest: Path) -> None:
    """Write the committed tree of ``ref`` into ``dest``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=repo,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int, out: Path) -> dict:
    """One ``run.py --workload`` run on the tree at ``root``: its result."""
    cmd = [sys.executable, str(root / RUNNER), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    # Exit status 1 means failed frames, which the result counts.
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not out.exists():
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    (run,) = json.loads(out.read_text())["workloads"][workload]["runs"]
    return run


def load_runner(root: Path):
    """``run.py`` of the tree at ``root``, imported as a module."""
    spec = importlib.util.spec_from_file_location("bench_run", root / RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str], root: Path = ROOT) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="commit, branch or tag to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=200,
                    help="pair k runs seed + k on both sides")
    ap.add_argument("--out", help="directory to keep ref.json / change.json in")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    runner = load_runner(root)

    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        tmp = Path(tmp)
        ref_root = tmp / "ref"
        export(args.ref, root, ref_root)
        sides = {"ref": ref_root, "change": root}
        runs: dict[str, list[dict]] = {"ref": [], "change": []}
        went_first: dict[str, list[bool]] = {"ref": [], "change": []}
        for k in range(args.pairs):
            order = ["ref", "change"] if k % 2 == 0 else ["change", "ref"]
            for side in order:
                runs[side].append(run_once(
                    sides[side], args.workload, args.seed + k,
                    tmp / f"{side}-{k}.json"))
                went_first[side].append(side == order[0])
            print(f"pair {k + 1}/{args.pairs} (seed {args.seed + k}, "
                  f"{order[0]} first) done", flush=True)

        out = Path(args.out) if args.out else tmp
        out.mkdir(parents=True, exist_ok=True)
        summaries = {}
        for side, side_runs in runs.items():
            summaries[side] = runner.summarize(side_runs)
            (out / f"{side}.json").write_text(json.dumps({"workloads": {
                args.workload: {"runs": side_runs, "summary": summaries[side]},
            }}, indent=1) + "\n")

        print(f"\n{args.workload}: {args.pairs} pairs, ref {args.ref} "
              "vs this checkout")
        print(f"{'metric':17s} {'ref median [q1, q3]':>30s} "
              f"{'change median [q1, q3]':>30s} {'delta':>9s} "
              f"{'ref q3-q1':>9s} {'delta 95% CI':>22s} {'sign p':>7s}  won")
        for name, m in runner.E2E.items():
            a, b = summaries["ref"][name], summaries["change"][name]
            ref = [r["metrics"][name] for r in runs["ref"]]
            change = [c["metrics"][name] for c in runs["change"]]
            sign = 1.0 if m["better"] == "lower" else -1.0
            won = sum(sign * (c - r) < 0 for r, c in zip(ref, change))
            lo, hi = bootstrap_delta(ref, change, args.seed)
            p = sign_test([c - r for r, c in zip(ref, change)])
            cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                     for s in (a, b)]
            interval = f"[{lo:.4g}, {hi:.4g}]"
            print(f"{name:17s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{b['median'] - a['median']:9.4g} {a['q3'] - a['q1']:9.4g}"
                  f" {interval:>22s} {p:7.3g}  {won}/{args.pairs}")
        failed = [sum(r["failed"] for r in runs[s]) for s in ("ref", "change")]
        print(f"frames failed: ref {failed[0]}, change {failed[1]}")
        split = [
            side + " " + " / ".join(
                "-" if m is None else f"{m:.4g}" for m in order_medians(
                    [r["metrics"]["setup_s"] for r in runs[side]],
                    went_first[side]))
            for side in ("ref", "change")
        ]
        print("setup_s median by run order (first / second in its pair): "
              + ", ".join(split) + "\n")

        worse = runner.compare_main([str(out / "ref.json"),
                                     str(out / "change.json")])
        print("compare: " + ("a metric is worse than its bound" if worse
                             else "no metric worse than its bound"))
        return worse


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
