"""Movie pipeline: a beating heart rendered and encoded in one pass.

Builds the time-varying ``beating_heart`` phantom (a density wedge
swinging through the volume), streams its per-timestep RLE encodings
through a render pool via the ``RenderBackend`` protocol, and encodes
the frames into a PNG sequence *while the workers composite ahead* —
MovieMaker's render/encode stage overlap on one host.  Every frame is
bit-identical to the per-timestep serial render; the script checks one
to prove it.

Run:  python examples/movie_pipeline.py [n_frames] [out_dir]
"""

from __future__ import annotations

import sys

import numpy as np

import repro
from repro.movie import (
    MoviePipeline,
    beating_heart_renderer,
    movie_frame_specs,
)
from repro.render.fast import render_fast


def main(n_frames: int = 8, out_dir: str = "movie_frames") -> None:
    renderer = beating_heart_renderer(scale=1.0, timesteps=4)
    print(f"beating_heart {renderer.shape}, {renderer.n_timesteps} timesteps, "
          f"{n_frames} frames -> {out_dir}/")

    specs = movie_frame_specs(renderer, n_frames)
    # A shard fleet works here too — add shards=2 and the pipeline (and
    # the pixels) do not change.
    with repro.open_pool(renderer, n_procs=2) as pool:
        pipe = MoviePipeline(pool, out_dir, fmt="png")
        manifest = pipe.run(specs)

    ov = manifest["stage_overlap"]
    print(f"\nencoded {manifest['n_frames']} frames "
          f"({ov['encode_s'] * 1e3:.1f} ms encode, "
          f"{ov['overlapped_encode_s'] * 1e3:.1f} ms of it overlapped "
          f"with in-flight renders; wall {ov['wall_s']:.3f} s)")
    print(f"timestep switches seen by the renderer: "
          f"{renderer.timestep_switches}")

    # The contract: frame i equals the serial render of timestep i % T.
    i = n_frames - 1
    ref = render_fast(renderer, specs[i].view, timestep=specs[i].timestep)
    from repro.movie import encode_png, to_gray8

    blob = open(f"{out_dir}/frame_{i:04d}.png", "rb").read()
    same = blob == encode_png(to_gray8(np.asarray(ref.final.color)))
    print(f"frame {i} byte-identical to serial reference: {same}")
    if not same:
        raise SystemExit(1)


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 8,
        sys.argv[2] if len(sys.argv) > 2 else "movie_frames",
    )
