"""Time-breakdown and miss-breakdown reporting helpers.

These produce the row data of the paper's stacked-bar figures:
busy / memory / sync execution-time splits (Figures 5, 14) and
cold / replacement / true-sharing / false-sharing miss splits
(Figures 7, 8, 16, 17).
"""

from __future__ import annotations

from ..memsim.coherence import MISS_CLASSES, MissStats
from ..memsim.execution import FrameReport

__all__ = [
    "combined_stats",
    "miss_breakdown",
    "time_breakdown_rows",
    "format_table",
]


def combined_stats(report: FrameReport) -> MissStats:
    """Merge compositing- and warp-phase miss statistics of a frame."""
    a, b = report.composite.stats, report.warp.stats
    out = MissStats(a.n_procs)
    for p in range(a.n_procs):
        out.refs[p] = a.refs[p] + b.refs[p]
        for c in MISS_CLASSES:
            out.misses[p][c] = a.misses[p][c] + b.misses[p][c]
        for k in a.kinds[p]:
            out.kinds[p][k] = a.kinds[p][k] + b.kinds[p][k]
        out.upgrades[p] = a.upgrades[p] + b.upgrades[p]
        out.home_bytes[p] = a.home_bytes[p] + b.home_bytes[p]
    out.invalidations = a.invalidations + b.invalidations
    return out


def miss_breakdown(report: FrameReport, include_cold: bool = False) -> dict[str, float]:
    """Frame-wide miss rate per class, in percent of references.

    The paper's miss-breakdown figures omit cold misses; pass
    ``include_cold=True`` to keep them.
    """
    stats = combined_stats(report)
    out = {c: 100.0 * stats.miss_rate(c) for c in MISS_CLASSES}
    if not include_cold:
        out.pop("cold")
    return out


def time_breakdown_rows(
    reports: dict[int, FrameReport]
) -> list[tuple[int, float, float, float]]:
    """Rows ``(P, busy%, memory%, sync%)`` for a breakdown-vs-P figure."""
    rows = []
    for p in sorted(reports):
        f = reports[p].fractions()
        rows.append((p, 100 * f["busy"], 100 * f["memory"], 100 * f["sync"]))
    return rows


def format_table(headers: list[str], rows: list[tuple], width: int = 12) -> str:
    """Plain fixed-width table used by the benchmark scripts' output."""
    def fmt(x) -> str:
        if isinstance(x, float):
            return f"{x:.2f}"
        return str(x)

    lines = ["".join(h.ljust(width) for h in headers)]
    lines.append("-" * (width * len(headers)))
    for row in rows:
        lines.append("".join(fmt(x).ljust(width) for x in row))
    return "\n".join(lines)
