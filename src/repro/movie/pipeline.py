"""The stage-overlapped movie pipeline: render on workers, encode in parent.

MovieMaker (PAPERS.md) split movie production into a render stage and an
encode stage overlapped across machines; the pool's batched dispatch
already provides the same structure *within* one host: workers run
frame to frame gated only by the per-buffer release cursors, so while
the parent collects + encodes frame ``t``, the workers are compositing
frames ``t+1 .. t+buffers``.  :class:`MoviePipeline` closes the loop by
doing real encoding (PNG or NPZ sequences, via :mod:`repro.movie.encode`)
in the collection loop, against any :class:`~repro.parallel.backend.
RenderBackend` — mp, thread, or shard fleet — without knowing which.

The parent's encode work gets its own obs trace track (one pid above
every backend track), so a Chrome trace of a movie shows the overlap
directly: worker composite spans of frame ``t+1`` running under the
parent's ``encode`` span of frame ``t``.

Bit-identity contract: the pipeline adds *no* pixel math — frames come
out of the backend exactly as ``render_animation`` would return them,
and the encoders are deterministic pure functions — so every movie
frame equals the per-timestep serial render, on every backend, at every
shard count, including across a mid-movie worker kill recovery.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.recorder import RingReader, SpanRecorder
from ..obs.timeline import FrameTimeline
from ..obs.timeline import export_chrome_trace as _export_chrome_trace
from ..parallel.backend import FrameSpec, as_frame_specs
from .encode import FRAME_FORMATS, write_npz, write_png

__all__ = ["MoviePipeline", "movie_frame_specs"]

#: Marker carried by metrics-snapshot files so ``repro stats`` can tell
#: them apart from Chrome traces (same value the serve layer uses).
_SNAPSHOT_KIND = "repro-metrics"


def movie_frame_specs(
    renderer,
    n_frames: int,
    *,
    timesteps: int | None = None,
    rot_x: float = 20.0,
    rot_y: float = 30.0,
    rot_z: float = 0.0,
    step_y: float = 5.0,
) -> list[FrameSpec]:
    """Standard movie schedule: a rotation sweep over a beating volume.

    Frame ``i`` views the volume at ``ry = rot_y + i * step_y`` and
    timestep ``i % timesteps`` — the same schedule the CLI ``--movie``
    path and the serve ``movie`` op use, so all three produce
    byte-comparable sequences.  ``timesteps`` defaults to the
    renderer's own count (1 for a static renderer).
    """
    if timesteps is None:
        timesteps = getattr(renderer, "n_timesteps", 1)
    return [
        FrameSpec(
            view=renderer.view_from_angles(rot_x, rot_y + i * step_y, rot_z),
            timestep=(i % timesteps) if timesteps > 1 else None,
        )
        for i in range(n_frames)
    ]


class MoviePipeline:
    """Drive a :class:`RenderBackend` through a movie and encode it.

    Parameters
    ----------
    backend:
        Anything conforming to the :class:`~repro.parallel.backend.
        RenderBackend` protocol (``submit_batch`` / ``result`` /
        ``trace``).  The pipeline never closes it.
    out_dir:
        Directory for the image sequence (created if missing).
    fmt:
        ``"png"`` (grayscale color plane) or ``"npz"`` (lossless
        float32 color + alpha planes).
    metrics:
        Optional shared :class:`MetricsRegistry`; the pipeline records
        ``movie/frames_encoded``, ``movie/encode_s`` and
        ``movie/wait_s`` into it.
    trace:
        Record the parent's encode spans on their own trace track
        (exported with the backend's worker tracks by
        :meth:`export_chrome_trace`).
    """

    def __init__(
        self,
        backend,
        out_dir: str,
        fmt: str = "png",
        *,
        metrics: MetricsRegistry | None = None,
        trace: bool = False,
        basename: str = "frame",
    ) -> None:
        if fmt not in FRAME_FORMATS:
            raise ValueError(f"fmt must be one of {FRAME_FORMATS}, got {fmt!r}")
        self.backend = backend
        self.out_dir = out_dir
        self.fmt = fmt
        self.basename = basename
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._rec: SpanRecorder | None = None
        self._reader: RingReader | None = None
        self._encode_timelines: list[FrameTimeline] = []
        if trace:
            # The encode track sits above every backend track: workers
            # occupy [0, n_procs), each pool's supervisor and the shard
            # merge track follow, so n_procs + n_shards + 1 is free for
            # every backend shape.
            pid = (
                getattr(backend, "n_procs", 0)
                + getattr(backend, "n_shards", 0)
                + 1
            )
            # The backend's epoch, so an encode span and the warp that
            # fed it share one timebase in the exported trace.
            self._rec = SpanRecorder.in_memory(epoch=backend.trace_epoch)
            self._reader = RingReader(
                self._rec.cursor, self._rec.records, pid=pid
            )

    def frame_path(self, index: int) -> str:
        return os.path.join(
            self.out_dir, f"{self.basename}_{index:04d}.{self.fmt}"
        )

    def run(self, frame_specs) -> dict:
        """Render + encode the whole movie; returns the manifest.

        Submits every spec as one batch, then collects in order,
        encoding each frame as it lands — which is exactly when the
        workers are already compositing the following frames.  The
        manifest's stage-overlap breakdown:

        ``wait_s``
            Parent time blocked in ``result()`` (pipeline stalls).
        ``encode_s``
            Parent time spent encoding frames.
        ``overlapped_encode_s``
            Encode time during which later frames were still in flight
            (every frame's encode except the last) — the part of the
            encode stage the render stage hides.
        """
        specs = as_frame_specs(frame_specs)
        os.makedirs(self.out_dir, exist_ok=True)
        t_wall0 = time.perf_counter()
        ids = self.backend.submit_batch(specs)
        dispatch_s = time.perf_counter() - t_wall0
        frames = []
        wait_s = encode_s = overlapped_s = 0.0
        for i, (spec, fid) in enumerate(zip(specs, ids)):
            t0 = time.perf_counter()
            res = self.backend.result(fid)
            t1 = time.perf_counter()
            path = self.frame_path(i)
            if self._rec is not None:
                te0 = self._rec.now()
            self._encode_frame(path, res)
            if self._rec is not None:
                self._rec.span(i, "encode", te0, self._rec.now())
            t2 = time.perf_counter()
            wait_s += t1 - t0
            encode_s += t2 - t1
            if i < len(ids) - 1:
                overlapped_s += t2 - t1
            self.metrics.counter("movie/frames_encoded").inc()
            self.metrics.histogram("movie/wait_s").observe(t1 - t0)
            self.metrics.histogram("movie/encode_s").observe(t2 - t1)
            frames.append(
                {
                    "index": i,
                    "frame_id": fid,
                    "timestep": spec.timestep,
                    "path": path,
                    "wait_s": t1 - t0,
                    "encode_s": t2 - t1,
                    "degraded": bool(getattr(res, "degraded", False)),
                    "retries": int(getattr(res, "retries", 0)),
                }
            )
        self._drain_encode_spans()
        return {
            "format": self.fmt,
            "out_dir": self.out_dir,
            "n_frames": len(frames),
            "frames": frames,
            "stage_overlap": {
                "dispatch_s": dispatch_s,
                "wait_s": wait_s,
                "encode_s": encode_s,
                "overlapped_encode_s": overlapped_s,
                "wall_s": time.perf_counter() - t_wall0,
            },
        }

    def _encode_frame(self, path: str, res) -> None:
        if self.fmt == "png":
            write_png(path, np.asarray(res.final.color))
        else:
            write_npz(path, res.final.color, res.final.alpha)

    def _drain_encode_spans(self) -> None:
        if self._reader is None:
            return
        by_frame: dict[int, FrameTimeline] = {}
        for r in self._reader.drain():
            tl = by_frame.get(r.frame)
            if tl is None:
                tl = by_frame[r.frame] = FrameTimeline(r.frame)
            tl.add(r)
        self._encode_timelines.extend(
            by_frame[f] for f in sorted(by_frame)
        )

    def metrics_snapshot(self) -> dict:
        """JSON-ready snapshot of movie + backend metrics, in the same
        shape ``repro stats`` renders for the serve layer."""
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        backend_metrics = getattr(self.backend, "metrics", None)
        if backend_metrics is not None:
            merged.merge(backend_metrics)
        snap = merged.snapshot()
        snap["kind"] = _SNAPSHOT_KIND
        return snap

    def export_chrome_trace(self, path: str, metadata: dict | None = None) -> None:
        """One Chrome trace: the backend's worker tracks plus the
        parent's encode track (requires both to have been traced)."""
        if self._rec is None:
            raise RuntimeError("pipeline was created without trace=True")
        if not self.backend.trace:
            raise RuntimeError("backend was created without trace=True")
        self._drain_encode_spans()
        meta = {
            "movie_frames": int(
                self.metrics.counter("movie/frames_encoded").value
            ),
            "format": self.fmt,
        }
        if metadata:
            meta.update(metadata)
        timelines = list(getattr(self.backend, "timelines", []))
        timelines.extend(self._encode_timelines)
        _export_chrome_trace(path, timelines, metadata=meta)
