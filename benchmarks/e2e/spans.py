"""The benchmark's own in-memory span recorder (traced run only).

A span is ``(id, parent, name, t0, t1, track, ids)``: one per call the
driver makes into a layer, named after the module it enters
(``parallel.mp_backend.result``, ``serve.client.request`` ...), plus the
``bench.*`` scopes the driver opens around them.  Spans live in a list
until the run ends and are then written as Chrome trace JSON.

A layer's *self time* is its span minus the spans it directly contains.
Self times telescope: over all spans they sum to the duration of the
root spans, so ``layer self times + bench.* self times == wall`` holds
whenever the spans nest properly — :meth:`Recorder.coverage` reports
that identity, and the ``bench.*`` share of it is what no layer span
covers (``bench.unattributed_ms``).

The current span is a :class:`contextvars.ContextVar`, so the two
concurrent asyncio clients of the serve workloads each keep their own
parent chain (a task copies the context it was created in).
"""

from __future__ import annotations

import contextvars
import json
from contextlib import nullcontext
from time import perf_counter

__all__ = ["Recorder", "NullRecorder", "NULL"]

_OFF = nullcontext()


class NullRecorder:
    """Tracing off: ``span()`` hands back one shared no-op context."""

    def span(self, name: str, **ids):
        return _OFF


NULL = NullRecorder()


class _Span:
    __slots__ = ("rec", "name", "ids", "id", "parent", "track", "t0", "token")

    def __init__(self, rec: "Recorder", name: str, ids: dict) -> None:
        self.rec, self.name, self.ids = rec, name, ids

    def __enter__(self) -> "_Span":
        rec = self.rec
        parent = rec._current.get()
        self.parent = None if parent is None else parent.id
        # A span runs on its parent's track unless it names its own
        # (concurrent clients: one track each, so Chrome nests them).
        self.track = self.ids.pop(
            "track", 0 if parent is None else parent.track
        )
        self.id = len(rec.rows)
        rec.rows.append(None)
        self.token = rec._current.set(self)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = perf_counter()
        self.rec._current.reset(self.token)
        self.rec.rows[self.id] = (
            self.id, self.parent, self.name, self.t0, t1, self.track, self.ids
        )


class Recorder:
    """Tracing on: ``with rec.span("layer.call", frame=i): ...``."""

    def __init__(self) -> None:
        self.rows: list[tuple | None] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "bench_span", default=None
        )

    def span(self, name: str, **ids) -> _Span:
        return _Span(self, name, ids)

    def _closed(self) -> list[tuple]:
        return [r for r in self.rows if r is not None]

    def coverage(self, scope: str) -> dict:
        """The wall-time identity under the root spans named ``scope``.

        ``wall_ms`` sums those roots (one per track), ``layers_ms`` the
        self times of the layer spans beneath them, ``unattributed_ms``
        the self times of the ``bench.*`` scopes — what no layer span
        covers.  ``layers + unattributed`` equals ``wall`` unless spans
        overlap or escape their parents.
        """
        rows = self._closed()
        root_of: dict[int, int] = {}
        for sid, parent, *_ in rows:  # parents are appended first
            root_of[sid] = sid if parent is None else root_of[parent]
        roots = {r[0] for r in rows if r[1] is None and r[2] == scope}
        child_s: dict[int, float] = {}
        for _, parent, _, t0, t1, _, _ in rows:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        wall = layers = bench = 0.0
        by_layer: dict[str, float] = {}
        for sid, _, name, t0, t1, _, _ in rows:
            if root_of[sid] not in roots:
                continue
            if sid in roots:
                wall += t1 - t0
            own = max(0.0, (t1 - t0) - child_s.get(sid, 0.0))
            if name.startswith("bench."):
                bench += own
            else:
                layers += own
                by_layer[name] = by_layer.get(name, 0.0) + own * 1e3
        return {
            "wall_ms": wall * 1e3,
            "layers_ms": layers * 1e3,
            "unattributed_ms": bench * 1e3,
            "self_ms": by_layer,
        }

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        rows = self._closed()
        epoch = min((r[3] for r in rows), default=0.0)
        events = [
            {
                "name": name, "cat": "bench", "ph": "X", "pid": 1,
                "tid": track,
                "ts": round((t0 - epoch) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "args": {"span": sid, "parent": parent, **ids},
            }
            for sid, parent, name, t0, t1, track, ids in rows
        ]
        # Enclosing spans first, so every track's timestamps are monotonic.
        events.sort(key=lambda ev: (ev["tid"], ev["ts"], -ev["dur"]))
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, f)
            f.write("\n")
