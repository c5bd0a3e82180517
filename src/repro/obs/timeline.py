"""Per-frame timelines and Chrome trace-event export.

The parent (pool or harness) buckets drained :class:`~.recorder.Span` /
:class:`~.recorder.CounterSample` records by frame into
:class:`FrameTimeline` objects, and a list of timelines serializes to
the Chrome trace-event JSON format — the ``{"traceEvents": [...]}``
shape Perfetto and ``chrome://tracing`` load directly.  Each worker
becomes one named thread track; spans become complete (``"X"``) events
in microseconds; counters become counter (``"C"``) events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .recorder import PHASES, CounterSample, RingReader, Span

__all__ = [
    "FrameTimeline",
    "assemble_timelines",
    "chrome_trace_events",
    "export_chrome_trace",
    "load_chrome_trace",
    "validate_chrome_trace",
    "summarize_trace",
]

#: Synthetic process id for the render pool in the trace (one process,
#: one thread track per worker).
TRACE_PID = 1


@dataclass
class FrameTimeline:
    """Everything the workers recorded while rendering one frame."""

    frame: int
    spans: list[Span] = field(default_factory=list)
    counters: list[CounterSample] = field(default_factory=list)

    def add(self, rec: Span | CounterSample) -> None:
        if isinstance(rec, Span):
            self.spans.append(rec)
        else:
            self.counters.append(rec)

    def phase_seconds(self) -> dict[str, float]:
        """Total seconds per phase, summed over workers."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.phase] = out.get(s.phase, 0.0) + (s.t1 - s.t0)
        return out

    def busy_by_pid(self) -> dict[int, float]:
        """Per-worker compute seconds (composite + warp)."""
        out: dict[int, float] = {}
        for s in self.spans:
            if s.phase in ("composite", "warp"):
                out[s.pid] = out.get(s.pid, 0.0) + (s.t1 - s.t0)
        return out

    def counter_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for c in self.counters:
            out[c.name] = out.get(c.name, 0.0) + c.value
        return out


def assemble_timelines(readers: list[RingReader]) -> list[FrameTimeline]:
    """Drain every reader once and bucket all records by frame."""
    by_frame: dict[int, FrameTimeline] = {}
    for reader in readers:
        for rec in reader.drain():
            tl = by_frame.get(rec.frame)
            if tl is None:
                tl = by_frame[rec.frame] = FrameTimeline(rec.frame)
            tl.add(rec)
    return [by_frame[f] for f in sorted(by_frame)]


def chrome_trace_events(
    timelines: list[FrameTimeline],
    *,
    process_name: str = "repro render pool",
    worker_name: str = "worker {pid}",
) -> list[dict]:
    """Flatten timelines into Chrome trace-event dicts (ts/dur in µs)."""
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    pids = sorted({s.pid for tl in timelines for s in tl.spans})
    for pid in pids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": pid,
                "args": {"name": worker_name.format(pid=pid)},
            }
        )
    # The recorder appends spans at their *end* time, so a nested span
    # precedes its parent in ring order; sort
    # by (track, start, longest-first) so each track's timestamps are
    # monotonic and enclosing spans come before the spans they contain.
    span_events = [
        {
            "name": s.phase,
            "cat": "render",
            "ph": "X",
            "pid": TRACE_PID,
            "tid": s.pid,
            "ts": round(s.t0 * 1e6, 3),
            "dur": round(max(0.0, s.t1 - s.t0) * 1e6, 3),
            "args": {"frame": tl.frame},
        }
        for tl in timelines
        for s in tl.spans
    ]
    span_events.sort(key=lambda ev: (ev["tid"], ev["ts"], -ev["dur"]))
    events.extend(span_events)
    for tl in timelines:
        for c in tl.counters:
            # Counter events render as per-track area charts; anchor each
            # sample at the end of its frame's last span on that worker.
            ts = max(
                (s.t1 for s in tl.spans if s.pid == c.pid), default=0.0
            )
            events.append(
                {
                    "name": f"{c.name}[{c.pid}]",
                    "cat": "render",
                    "ph": "C",
                    "pid": TRACE_PID,
                    "tid": c.pid,
                    "ts": round(ts * 1e6, 3),
                    "args": {c.name: c.value, "frame": tl.frame},
                }
            )
    return events


def export_chrome_trace(
    path: str,
    timelines: list[FrameTimeline],
    *,
    metadata: dict | None = None,
    process_name: str = "repro render pool",
) -> None:
    """Write timelines as a Chrome trace-event JSON file."""
    doc = {
        "traceEvents": chrome_trace_events(timelines, process_name=process_name),
        "displayTimeUnit": "ms",
        "otherData": metadata or {},
    }
    with open(path, "w") as f:
        json.dump(doc, f)
        f.write("\n")


def load_chrome_trace(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def validate_chrome_trace(
    trace: dict, *, require_phases: tuple[str, ...] = ("composite", "warp")
) -> list[str]:
    """Schema/sanity problems of a trace document; empty means valid.

    Checks the shape Perfetto needs (``traceEvents`` list, every event a
    dict with ``name``/``ph``/``pid``/``tid``, every ``X`` event with
    non-negative ``ts``/``dur``), that at least one span of each phase in
    ``require_phases`` exists, and that each worker track's span
    *start* timestamps are monotonically non-decreasing — the recorder
    appends in time order, so regressions mean a corrupted ring.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    seen_phases: set[str] = set()
    last_ts: dict[int, float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not an object")
            continue
        if not {"name", "ph", "pid", "tid"} <= ev.keys():
            problems.append(f"event {i} lacks name/ph/pid/tid")
            continue
        if ev["ph"] == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
                problems.append(f"event {i} ({ev['name']}) lacks numeric ts/dur")
                continue
            if ts < 0 or dur < 0:
                problems.append(f"event {i} ({ev['name']}) has negative ts/dur")
            tid = ev["tid"]
            if ts < last_ts.get(tid, 0.0):
                problems.append(
                    f"event {i} ({ev['name']}): ts regresses on track {tid}"
                )
            last_ts[tid] = ts
            if ev["name"] in PHASES:
                seen_phases.add(ev["name"])
    missing = [p for p in require_phases if p not in seen_phases]
    if missing:
        problems.append(f"no spans for required phase(s): {', '.join(missing)}")
    return problems


def summarize_trace(trace: dict) -> dict:
    """Collapse a trace document into per-phase and per-frame summaries.

    Returns ``{"phases": {phase: {"count", "total_s", "mean_s",
    "max_s"}}, "frames": {frame: {tid: busy_s}}, "counters": {name:
    total}, "track_counters": {tid: {name: total}}, "n_tracks": int}``
    — the data ``repro stats`` prints.  Span (``X``) events feed the
    phase table; busy time per frame/track is composite + warp; counter
    (``C``) events are summed by name over workers and frames
    (``rows``, ``kernel_calls``, cache hits/misses, ``decode_us``,
    ``solo_frames``), and per worker track over frames.
    """
    phases: dict[str, dict[str, float]] = {}
    frames: dict[int, dict[int, float]] = {}
    counters: dict[str, float] = {}
    track_counters: dict[int, dict[str, float]] = {}
    tracks: set[int] = set()
    for ev in trace.get("traceEvents", []):
        if not isinstance(ev, dict):
            continue
        if ev.get("ph") == "C":
            mine = track_counters.setdefault(ev.get("tid"), {})
            for key, value in ev.get("args", {}).items():
                if key != "frame" and isinstance(value, (int, float)):
                    counters[key] = counters.get(key, 0.0) + value
                    mine[key] = mine.get(key, 0.0) + value
            continue
        if ev.get("ph") != "X":
            continue
        name, dur = ev.get("name"), float(ev.get("dur", 0.0)) / 1e6
        tracks.add(ev.get("tid"))
        st = phases.setdefault(name, {"count": 0, "total_s": 0.0, "max_s": 0.0})
        st["count"] += 1
        st["total_s"] += dur
        st["max_s"] = max(st["max_s"], dur)
        if name in ("composite", "warp"):
            frame = ev.get("args", {}).get("frame")
            if frame is not None:
                row = frames.setdefault(int(frame), {})
                row[ev["tid"]] = row.get(ev["tid"], 0.0) + dur
    for st in phases.values():
        st["mean_s"] = st["total_s"] / st["count"] if st["count"] else 0.0
    return {"phases": phases, "frames": frames, "counters": counters,
            "track_counters": track_counters, "n_tracks": len(tracks)}
