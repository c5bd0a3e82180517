"""repro.movie — time-varying volumes and the stage-overlapped movie
pipeline.

ROADMAP item 4 made concrete: :class:`TimeVaryingVolume` /
:class:`TimeVaryingRenderer` stream per-timestep RLE encodings through
the existing pools (the ``timestep`` rides each frame's job, and the
renderer keeps the decoded slices of its latest ``(timestep, axis)``
encodings), and :class:`MoviePipeline` renders a movie over any
:class:`~repro.parallel.backend.RenderBackend` while the parent encodes
finished frames into a real PNG/NPZ image sequence — MovieMaker's
render/encode stage overlap on top of the pools' buffered pipelining
(a movie is a batch, so a pool of several workers deals its frames
whole, each worker rendering every ``n_procs``-th one).  See :mod:`repro.movie.pipeline` for the architecture and
the bit-identity contract.
"""

from .encode import FRAME_FORMATS, encode_png, to_gray8, write_npz, write_png
from .pipeline import MoviePipeline, movie_frame_specs
from .timevary import (
    TimeVaryingRenderer,
    TimeVaryingVolume,
    beating_heart_renderer,
)

__all__ = [
    "TimeVaryingVolume",
    "TimeVaryingRenderer",
    "beating_heart_renderer",
    "MoviePipeline",
    "movie_frame_specs",
    "FRAME_FORMATS",
    "encode_png",
    "to_gray8",
    "write_png",
    "write_npz",
]
