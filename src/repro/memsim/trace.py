"""Converting frame task records into per-processor access streams.

The execution-order of tasks on each logical processor comes from the
scheduler; this module flattens each processor's tasks into an ordered
stream of flat-address range records and replays the streams against a
:class:`~repro.memsim.coherence.CoherentSystem`, interleaving round-robin
(one record per processor per turn) to model concurrent execution.
"""

from __future__ import annotations

from ..core.frame import TaskRecord
from .address import AddressSpace
from .coherence import CoherentSystem
from .schedule import ScheduleResult

__all__ = ["build_streams", "replay_interleaved", "stream_page_sets"]

Record = tuple[int, int, bool]  # (flat byte start, n_bytes, write)


def build_streams(
    tasks: dict[int, TaskRecord],
    sched: ScheduleResult,
    addr: AddressSpace,
    key_order: tuple[int, ...] | None = None,
) -> list[list[Record]]:
    """Per-processor ordered flat-address streams for one phase.

    Without ``key_order``, each task's segments are emitted in recording
    order, task after task.  With ``key_order`` (the frame's
    front-to-back slice order), a processor's stream is *slice-major*:
    for each slice, the slice-segments of every scanline the processor
    executed, in execution order — the order the real compositing loop
    streams the volume in (volume read once per frame, k outermost).
    """
    streams: list[list[Record]] = []
    for proc in sched.procs:
        out: list[Record] = []
        if key_order is None:
            for uid in proc.executed:
                for _, records in tasks[uid].trace:
                    for region, start, nbytes, write in records:
                        flat, n = addr.resolve(region, start, nbytes)
                        out.append((flat, n, write))
        else:
            seg_maps = [dict(tasks[uid].trace) for uid in proc.executed]
            for key in key_order:
                for segs in seg_maps:
                    records = segs.get(key)
                    if not records:
                        continue
                    for region, start, nbytes, write in records:
                        flat, n = addr.resolve(region, start, nbytes)
                        out.append((flat, n, write))
        streams.append(out)
    return streams


def replay_interleaved(system: CoherentSystem, streams: list[list[Record]]) -> None:
    """Replay streams round-robin, one range record per processor per turn.

    Uniform round-robin progress is the standard trace-interleaving
    approximation: it keeps concurrently-executing processors' accesses
    temporally adjacent, which is what the sharing classification needs.
    """
    cursors = [0] * len(streams)
    live = [i for i, s in enumerate(streams) if s]
    while live:
        nxt = []
        for p in live:
            s = streams[p]
            c = cursors[p]
            byte_lo, n_bytes, write = s[c]
            system.access_range(p, byte_lo, n_bytes, write)
            c += 1
            cursors[p] = c
            if c < len(s):
                nxt.append(p)
        live = nxt


def stream_page_sets(
    streams: list[list[Record]], page_bytes: int
) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Per-processor page footprints: (reads, writes), page -> bytes touched.

    Used by the SVM model, which works at page granularity and does not
    need reference ordering.
    """
    reads: list[dict[int, int]] = []
    writes: list[dict[int, int]] = []
    for stream in streams:
        r: dict[int, int] = {}
        w: dict[int, int] = {}
        for byte_lo, n_bytes, write in stream:
            p_lo = byte_lo // page_bytes
            p_hi = (byte_lo + n_bytes - 1) // page_bytes
            for page in range(p_lo, p_hi + 1):
                lo = max(byte_lo, page * page_bytes)
                hi = min(byte_lo + n_bytes, (page + 1) * page_bytes)
                d = w if write else r
                d[page] = d.get(page, 0) + (hi - lo)
        reads.append(r)
        writes.append(w)
    return reads, writes
