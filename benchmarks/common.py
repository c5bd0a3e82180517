"""Shared infrastructure for the figure-reproduction benchmarks.

Every ``fig*.py`` module reproduces one figure of the paper's evaluation:
it builds the figure's workload through :mod:`repro.analysis.harness`
(memoized, so related figures share rendered frames), prints the same
rows/series the paper plots, and archives the table under
``benchmarks/results/``.

Run one figure directly (``python benchmarks/fig04_old_speedups.py``) or
the whole suite (``pytest benchmarks/ --benchmark-only``).  Absolute
numbers come from simulated 1997 machines driven by proxy-scaled
volumes; the *shapes* are what reproduce the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
import sys

# Allow `python benchmarks/figXX.py` from any cwd.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.analysis.breakdown import format_table, miss_breakdown  # noqa: E402
from repro.analysis.harness import (  # noqa: E402
    DEFAULT_SCALE,
    machine_for,
    record_frames,
    simulate,
    speedup_curve,
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Processor counts for speedup figures (paper: up to 32 on DASH and the
#: simulator, 16 on Challenge/Origin2000).
PROCS = (1, 2, 4, 8, 16, 32)
#: Default proxy scale (see EXPERIMENTS.md for the scaling rules).
SCALE = DEFAULT_SCALE
#: The paper's headline input: the 511x511x333 MRI brain.
HEADLINE = "mri512"
#: The three MRI resolutions of Figures 6/12/13/20.
MRI_SETS = ("mri128", "mri256", "mri512")


def save_result(name: str, text: str) -> None:
    """Archive a figure's table under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")


def emit(name: str, text: str) -> str:
    """Print and archive a figure's output; returns the text."""
    print(text)
    save_result(name, text)
    return text


def speedup_table(
    dataset: str, machines: tuple[str, ...], algorithms: tuple[str, ...],
    procs: tuple[int, ...] = PROCS, scale: float = SCALE,
) -> str:
    """Rows of P x (machine, algorithm) self-relative speedups."""
    curves = {}
    for m in machines:
        for alg in algorithms:
            pts = speedup_curve(dataset, alg, m, procs=procs, scale=scale)
            curves[(m, alg)] = {p.n_procs: p.speedup for p in pts}
    headers = ["P"] + [f"{m}/{a}" for m in machines for a in algorithms]
    rows = []
    for p in procs:
        row = [p]
        for m in machines:
            for a in algorithms:
                row.append(curves[(m, a)].get(p, float("nan")))
        rows.append(tuple(row))
    return format_table(headers, rows, width=14)


def breakdown_table(
    dataset: str, machine: str, algorithm: str,
    procs: tuple[int, ...], scale: float = SCALE,
) -> str:
    """Rows of P x (busy%, memory%, sync%) — the stacked bars of Fig 5/14."""
    headers = ["P", "busy%", "memory%", "sync%"]
    rows = []
    for p in procs:
        if p > machine_for(machine, scale).max_procs:
            continue
        rep = simulate(dataset, algorithm, machine, p, scale=scale)
        f = rep.fractions()
        rows.append((p, 100 * f["busy"], 100 * f["memory"], 100 * f["sync"]))
    return format_table(headers, rows)


def one_round(fn):
    """pytest-benchmark adapter: run the figure exactly once."""

    def test(benchmark):
        benchmark.pedantic(fn, rounds=1, iterations=1)

    return test


_SVM_CACHE: dict[tuple, object] = {}


def svm_simulate(dataset: str, algorithm: str, n_procs: int, scale: float = SCALE):
    """Steady-state SVM timing (last frame of a short animation)."""
    from repro.memsim.svm import SVMConfig, SVMSimulator, simulate_frame_svm

    key = (dataset, algorithm, n_procs, scale)
    if key not in _SVM_CACHE:
        cfg = SVMConfig().scaled(scale)
        frames = record_frames(dataset, algorithm, n_procs, scale=scale)
        sim = SVMSimulator(cfg, n_procs)
        rep = None
        for f in frames:
            rep = simulate_frame_svm(f, cfg, sim)
        _SVM_CACHE[key] = rep
    return _SVM_CACHE[key]


def svm_speedup_rows(dataset: str, procs: tuple[int, ...] = PROCS, scale: float = SCALE):
    """(P, old speedup, new speedup) rows for the SVM platform."""
    rows = []
    base = {alg: svm_simulate(dataset, alg, 1, scale).total_time
            for alg in ("old", "new")}
    for p in procs:
        rows.append((
            p,
            base["old"] / svm_simulate(dataset, "old", p, scale).total_time,
            base["new"] / svm_simulate(dataset, "new", p, scale).total_time,
        ))
    return rows
