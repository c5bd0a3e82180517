"""Command-line interface: render volumes and run paper experiments.

Examples::

    python -m repro.cli render --dataset mri256 --scale 0.2 --out brain.npz
    python -m repro.cli speedup --dataset mri512 --machine simulator
    python -m repro.cli info
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args: argparse.Namespace) -> int:
    from . import __version__
    from .datasets import PAPER_DATASETS
    from .memsim import MACHINES

    print(f"repro {__version__} — parallel shear-warp volume rendering "
          "(Jiang & Singh, PPoPP 1997)")
    print("\ndata sets (paper resolutions):")
    for name, spec in PAPER_DATASETS.items():
        print(f"  {name:8s} {spec.modality.upper():3s} {spec.paper_shape}")
    print("\nmodeled platforms:")
    for name, factory in MACHINES.items():
        m = factory()
        print(f"  {name:12s} {m.cache_bytes // 1024:5d} KB cache, "
              f"{m.line_bytes:3d} B lines, "
              f"{'bus' if m.centralized else 'NUMA'}, "
              f"max {m.max_procs} procs")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from .parallel.poolcore import MPPoolError

    try:
        return _run_render(args)
    except MPPoolError as exc:
        # Typed pool failures (FrameFailed, FrameTimeout, WorkerDied,
        # ServerBusy, ...) exit non-zero with the error *name* — the
        # contract scripts and the serve layer's operators key on.  The
        # pool context managers have already torn down and unlinked
        # every shm segment by the time the error propagates here.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run_render(args: argparse.Namespace) -> int:
    import time

    from .analysis.harness import get_renderer
    from .render.fast import render_fast

    from .parallel.poolcore import PoolConfig

    frames = args.frames
    tracing = bool(args.trace_out)
    # One PoolConfig drives both parallel paths.
    try:
        if frames < 1:
            raise ValueError("frames must be >= 1")
        if args.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        cfg = PoolConfig(
            n_procs=args.procs,
            profile_period=args.profile_period,
            stealing=args.stealing == "on",
            trace=tracing,
            timeout_s=args.timeout_s,
            degrade_to_serial=args.degrade == "on",
            backend=args.backend,
            shards=args.shards,
            **({} if args.max_retries is None else
               {"max_retries": args.max_retries}),
        )
    except ValueError as exc:
        # An out-of-range flag value is a usage error (exit status 2,
        # one line), not a traceback.
        args.usage_error(str(exc))
    if args.movie:
        return _run_movie(args, cfg, frames)
    renderer = get_renderer(args.dataset, args.scale)
    view = renderer.view_from_angles(args.rx, args.ry, args.rz)
    fault_counters = None
    t0 = time.perf_counter()
    if frames > 1 or cfg.shards > 1 or args.procs > 1:
        # Every pooled render, a single frame included, is an animation
        # through a persistent pool: this is the path where
        # --profile-period matters (profiles measured on one frame
        # balance the partitions of the following frames).  The whole
        # animation goes out as one batch per worker; --backend picks
        # processes or threads; --shards > 1
        # opens a sharded fleet of pools merged sort-last (the facade
        # dispatches on cfg.shards — same pool API either way).
        from . import open_pool

        views = [renderer.view_from_angles(args.rx, args.ry + i * args.ry_step,
                                           args.rz)
                 for i in range(frames)]
        with open_pool(renderer, config=cfg) as pool:
            results = pool.render_animation(views)
            fault_counters = pool.fault_counters()
            if tracing:
                pool.export_chrome_trace(args.trace_out,
                                         metadata={"dataset": args.dataset,
                                                   "scale": args.scale})
        result = results[-1]
        split = (f"profile-balanced k={args.profile_period}"
                 if args.profile_period > 0 else "uniform split")
        steals = sum(r.steals for r in results)
        steal_rows = sum(r.steal_rows for r in results)
        dyn = (f"stealing ({steals} steals, {steal_rows} rows)"
               if cfg.stealing and args.procs > 1 else "no stealing")
        fleet = (f"{cfg.shards} shards x {args.procs} procs"
                 if cfg.shards > 1 else f"{args.procs} procs")
        how = (f"{frames} frame{'s' * (frames > 1)}, {fleet}, "
               f"{args.backend} backend, batched, {split}, {dyn}")
    else:
        recorder = None
        if tracing:
            from .obs import SpanRecorder

            recorder = SpanRecorder.in_memory()
        result = render_fast(renderer, view, recorder=recorder)
        how = "serial"
        if tracing:
            from .obs import (RingReader, assemble_timelines,
                              export_chrome_trace)

            reader = RingReader(recorder.cursor, recorder.records, pid=0)
            export_chrome_trace(
                args.trace_out, assemble_timelines([reader]),
                metadata={"dataset": args.dataset, "scale": args.scale,
                          "n_procs": 1},
                process_name="repro serial render",
            )
    dt = (time.perf_counter() - t0) / frames
    print(f"rendered {args.dataset} proxy {renderer.shape} -> "
          f"final image {result.final.shape}, "
          f"alpha mass {result.final.alpha.sum():.0f} "
          f"({how}, {dt * 1e3:.1f} ms/frame)")
    if fault_counters and any(fault_counters.values()):
        print("pool recovery: "
              + ", ".join(f"{k}={v}" for k, v in sorted(fault_counters.items())))
    if tracing:
        print(f"wrote Chrome trace to {args.trace_out} "
              "(load in Perfetto or chrome://tracing)")
    if args.out:
        np.savez_compressed(args.out, color=result.final.color,
                            alpha=result.final.alpha)
        print(f"saved image arrays to {args.out}")
    return 0


def _run_movie(args: argparse.Namespace, cfg, frames: int) -> int:
    """``repro render --movie``: the stage-overlapped movie pipeline.

    Renders a rotation sweep over the time-varying ``beating_heart``
    phantom (or a static registry data set, frozen in time) through
    whatever backend ``cfg`` selects — mp, thread, or a shard fleet —
    and encodes a real PNG/NPZ image sequence in the parent while the
    workers composite ahead.
    """
    import json

    from . import open_pool
    from .movie import MoviePipeline, movie_frame_specs

    if args.dataset == "beating_heart":
        from .movie import beating_heart_renderer

        renderer = beating_heart_renderer(args.scale, timesteps=args.timesteps)
    else:
        from .analysis.harness import get_renderer

        renderer = get_renderer(args.dataset, args.scale)
    out_dir = args.movie_out or "movie_frames"
    specs = movie_frame_specs(
        renderer, frames, rot_x=args.rx, rot_y=args.ry, rot_z=args.rz,
        step_y=args.ry_step,
    )
    with open_pool(renderer, config=cfg) as pool:
        pipe = MoviePipeline(pool, out_dir, fmt=args.movie_format,
                             trace=bool(args.trace_out))
        manifest = pipe.run(specs)
        if args.trace_out:
            pipe.export_chrome_trace(
                args.trace_out,
                metadata={"dataset": args.dataset, "scale": args.scale},
            )
        if args.metrics_out:
            with open(args.metrics_out, "w") as f:
                json.dump(pipe.metrics_snapshot(), f, indent=2, sort_keys=True)
        fault_counters = pool.fault_counters()
    ov = manifest["stage_overlap"]
    n_steps = getattr(renderer, "n_timesteps", 1)
    fleet = (f"{cfg.shards} shards x {cfg.n_procs} procs"
             if cfg.shards > 1 else f"{cfg.n_procs} procs")
    print(f"movie: {manifest['n_frames']} frames over {n_steps} timestep(s) "
          f"-> {out_dir}/ ({args.movie_format} sequence, {fleet}, "
          f"{args.backend} backend)")
    print(f"stage overlap: encode {ov['encode_s'] * 1e3:.1f} ms total, "
          f"{ov['overlapped_encode_s'] * 1e3:.1f} ms of it while later "
          f"frames were in flight; parent blocked in result() "
          f"{ov['wait_s'] * 1e3:.1f} ms; wall {ov['wall_s']:.3f} s")
    if fault_counters and any(fault_counters.values()):
        print("pool recovery: "
              + ", ".join(f"{k}={v}" for k, v in sorted(fault_counters.items())))
    if args.trace_out:
        print(f"wrote Chrome trace to {args.trace_out} "
              "(load in Perfetto or chrome://tracing)")
    if args.metrics_out:
        print(f"wrote metrics snapshot to {args.metrics_out} "
              "(render with `repro stats`)")
    return 0


def _print_metrics_snapshot(path: str, snap: dict) -> int:
    """Render a ``repro serve --metrics-out`` snapshot (serve + pool
    counters).  Counters print as ``name=value`` so scripts and CI can
    grep e.g. ``serve/coalesced=[1-9]`` the same way they grep
    ``pool/batch_frames=`` off trace summaries."""
    cfg = snap.get("config") or {}
    desc = ", ".join(f"{k}={v}" for k, v in sorted(cfg.items()))
    kind = snap.get("kind", "metrics")
    print(f"{path}: {kind} snapshot" + (f" ({desc})" if desc else ""))
    histograms = snap.get("histograms") or {}
    if histograms:
        rows = [
            (name, s["count"], s["total"] * 1e3, s["mean"] * 1e3,
             s["p50"] * 1e3, s["p90"] * 1e3, s["max"] * 1e3)
            for name, s in sorted(histograms.items())
        ]
        name_w = max(len("histogram"),
                     *(len(name) for name in histograms)) + 2
        print("\nhistograms (ms):")
        header = "histogram".ljust(name_w) + "".join(
            h.rjust(10) for h in ("count", "total", "mean", "p50", "p90", "max")
        )
        print(header)
        print("-" * len(header))
        for name, count, total, mean, p50, p90, mx in rows:
            print(name.ljust(name_w)
                  + f"{count:10d}" + "".join(
                      f"{v:10.2f}" for v in (total, mean, p50, p90, mx)))
    counters = snap.get("counters") or {}
    if counters:
        print("\ncounters:")
        for name, value in sorted(counters.items()):
            print(f"{name}={value:g}")
    gauges = snap.get("gauges") or {}
    if gauges:
        print("\ngauges:")
        for name, g in sorted(gauges.items()):
            print(f"{name}: last {g['value']:g}, max {g['max']:g}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .analysis.breakdown import format_table
    from .obs import (busy_spread, load_chrome_trace, summarize_trace,
                      validate_chrome_trace)

    # Two file kinds share this command: Chrome traces from render
    # --trace-out, and metrics snapshots from `repro serve
    # --metrics-out` / the protocol's stats op (serve counters live
    # there — a service has no single trace).
    with open(args.trace) as f:
        payload = json.load(f)
    if "traceEvents" not in payload and (
        "counters" in payload or "histograms" in payload
    ):
        return _print_metrics_snapshot(args.trace, payload)

    trace = load_chrome_trace(args.trace)
    problems = validate_chrome_trace(trace)
    if problems:
        print(f"{args.trace}: INVALID trace ({len(problems)} problem(s)):")
        for p in problems:
            print(f"  - {p}")
        return 1
    summary = summarize_trace(trace)
    meta = trace.get("otherData", {})
    desc = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    print(f"{args.trace}: valid, {summary['n_tracks']} worker track(s)"
          + (f" ({desc})" if desc else ""))
    rows = [
        (name, st["count"], st["total_s"] * 1e3, st["mean_s"] * 1e3,
         st["max_s"] * 1e3)
        for name, st in sorted(summary["phases"].items(),
                               key=lambda kv: -kv[1]["total_s"])
    ]
    print("\nper-phase spans (ms):")
    print(format_table(["phase", "count", "total", "mean", "max"], rows))
    counters = summary.get("counters") or {}
    if counters:
        print("\ncounters (summed over workers and frames):")
        print(format_table(
            ["counter", "total"],
            [(name, int(total)) for name, total in sorted(counters.items())],
            width=14,
        ))
    frames = summary["frames"]
    phases = summary["phases"]
    n_frames = max(1, len(frames))
    comp_s = phases.get("composite", {}).get("total_s", 0.0)
    over_phases = [p for p in ("wait", "barrier", "doorbell", "dispatch")
                   if p in phases]
    if not over_phases:
        # Serial traces record no dispatch-side spans at all — the
        # split below would be 0-vs-0 noise.
        print("\ndispatch overhead: n/a (no wait/barrier/doorbell/dispatch "
              "spans in this trace)")
    else:
        over_s = sum(phases[p]["total_s"] for p in over_phases)
        # The dispatch tax the batching/doorbell work attacks: time spent
        # waiting on queues/barriers/buffer-release gates plus parent-side
        # dispatch, against actual compositing time.
        ratio = (f"{over_s / comp_s:.2f}x composite" if comp_s > 0
                 else "no composite spans")
        print(f"\ndispatch overhead (wait+barrier+doorbell+dispatch): "
              f"{over_s / n_frames * 1e3:.2f} ms vs composite "
              f"{comp_s / n_frames * 1e3:.2f} ms per frame ({ratio}; "
              f"pool/batch_frames={meta.get('batch_frames', 0)})")
    if frames:
        spreads = [busy_spread(list(busy.values()))
                   for busy in frames.values() if busy]
        mean_spread = sum(spreads) / len(spreads) if spreads else 0.0
        print(f"\nload imbalance (busy-spread, (max-min)/mean over workers): "
              f"mean {mean_spread:.3f} over {len(frames)} frame(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .parallel.poolcore import PoolConfig
    from .serve import ServeConfig, run_server

    try:
        pool = PoolConfig(n_procs=args.procs, backend=args.backend,
                          profile_period=0, shards=args.shards)
    except ValueError as exc:
        args.usage_error(str(exc))  # exit status 2, one line
    cfg = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        cache_frames=args.cache_frames,
        default_dataset=args.dataset,
        default_scale=args.scale,
        idle_pool_s=args.idle_pool_s,
        pool=pool,
    )

    def ready(address: tuple[str, int]) -> None:
        host, port = address
        # One parseable line scripts can wait on before connecting.
        print(f"repro serve listening on {host}:{port} "
              f"(procs={cfg.pool.n_procs}, backend={cfg.pool.backend}, "
              f"max_inflight={cfg.max_inflight}, "
              f"cache_frames={cfg.cache_frames})", flush=True)

    try:
        asyncio.run(run_server(cfg, metrics_out=args.metrics_out, ready=ready))
    except KeyboardInterrupt:
        return 130
    if args.metrics_out:
        print(f"wrote metrics snapshot to {args.metrics_out} "
              "(summarize with `repro stats`)")
    return 0


def _cmd_speedup(args: argparse.Namespace) -> int:
    from .analysis.breakdown import format_table
    from .analysis.harness import speedup_curve

    procs = tuple(int(p) for p in args.procs.split(","))
    curves = {}
    for alg in ("old", "new"):
        pts = speedup_curve(args.dataset, alg, args.machine,
                            procs=procs, scale=args.scale)
        curves[alg] = {p.n_procs: p.speedup for p in pts}
    rows = [(p, curves["old"].get(p, float("nan")),
             curves["new"].get(p, float("nan")))
            for p in procs if p in curves["old"]]
    print(f"{args.dataset} on {args.machine} (scale {args.scale}):")
    print(format_table(["P", "old", "new"], rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list data sets and platforms")

    p = sub.add_parser("render", help="render one frame of a proxy data set")
    p.add_argument("--dataset", default="mri256")
    p.add_argument("--scale", type=float, default=0.1875)
    p.add_argument("--rx", type=float, default=20.0)
    p.add_argument("--ry", type=float, default=30.0)
    p.add_argument("--rz", type=float, default=0.0)
    p.add_argument("--procs", type=int, default=1,
                   help="worker processes (>1 uses the shared-memory backend)")
    p.add_argument("--frames", type=int, default=1,
                   help="render an animation of this many frames through a "
                        "persistent worker pool (rotating by --ry-step)")
    p.add_argument("--ry-step", type=float, default=3.0,
                   help="per-frame y-rotation increment for --frames > 1")
    p.add_argument("--profile-period", type=int, default=5,
                   help="re-profile every k frames and balance partitions "
                        "from the measured per-scanline costs (paper "
                        "section 4.2-4.3); 0 = uniform split")
    p.add_argument("--stealing", choices=["on", "off"], default="on",
                   help="chunked task stealing between workers on top of "
                        "the static partition (paper section 4.4)")
    p.add_argument("--timeout-s", type=float, default=None, metavar="S",
                   help="per-frame deadline: a frame still incomplete after "
                        "S seconds is treated as a fault and recovered "
                        "(default: no deadline; dead workers are detected "
                        "either way)")
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="re-dispatch a lost frame up to N times after a "
                        "worker death/hang/exception (default 2)")
    p.add_argument("--degrade", choices=["on", "off"], default="on",
                   help="after retries are exhausted, render the frame "
                        "serially in the parent (bit-identical) instead of "
                        "failing it")
    p.add_argument("--backend", choices=["mp", "thread"], default="mp",
                   help="parallel backend: forked worker processes over "
                        "shared memory (mp) or a no-copy thread pool "
                        "exploiting numpy's GIL release (thread); "
                        "bit-identical images either way")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="split the intermediate image into N contiguous "
                        "scanline shards, each rendered by its own pool "
                        "of --procs workers and merged sort-last "
                        "(bit-identical to --shards 1)")
    p.add_argument("--movie", action="store_true",
                   help="render --frames as a movie: stream timesteps of a "
                        "time-varying volume through the pool and encode a "
                        "PNG/NPZ image sequence in the parent while workers "
                        "composite ahead (frame i uses timestep i mod "
                        "--timesteps)")
    p.add_argument("--timesteps", type=int, default=4, metavar="T",
                   help="timesteps of the beating_heart phantom "
                        "(--movie with --dataset beating_heart; default 4)")
    p.add_argument("--movie-out", default=None, metavar="DIR",
                   help="directory for the movie image sequence "
                        "(default movie_frames/)")
    p.add_argument("--movie-format", default="png", choices=["png", "npz"],
                   help="movie frame format: png (grayscale color plane) or "
                        "npz (lossless float32 color+alpha)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="with --movie: write the pipeline+pool metrics "
                        "snapshot as JSON (render with `repro stats`)")
    p.add_argument("--out", default=None, help="save image arrays to .npz")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Chrome trace-event JSON of per-worker phase "
                        "spans (open in Perfetto or chrome://tracing)")
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("stats", help="summarize a trace written by render "
                                     "--trace-out or a metrics snapshot "
                                     "written by serve --metrics-out")
    p.add_argument("trace", help="path to a Chrome trace-event JSON file "
                                 "or a repro-metrics snapshot JSON file")

    p = sub.add_parser("serve", help="serve renders to concurrent clients "
                                     "over a length-prefixed JSON/TCP "
                                     "protocol (asyncio front end over the "
                                     "worker pools)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks an ephemeral port (printed on start)")
    p.add_argument("--dataset", default="mri128",
                   help="default data set for requests that omit one")
    p.add_argument("--scale", type=float, default=0.12,
                   help="default proxy scale for requests that omit one")
    p.add_argument("--procs", type=int, default=2,
                   help="worker count of each render pool")
    p.add_argument("--backend", choices=["mp", "thread"], default="mp")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="admission bound: render jobs in flight beyond "
                        "this are rejected with ServerBusy")
    p.add_argument("--cache-frames", type=int, default=256,
                   help="whole-frame LRU capacity (frames)")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="render through N-shard pool fleets instead of "
                        "single pools (sort-last merged, bit-identical)")
    p.add_argument("--idle-pool-s", type=float, default=None, metavar="S",
                   help="evict (close + unlink) a render pool after S "
                        "seconds with no renders; the next request for "
                        "its dataset re-creates it (default: never)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write a metrics snapshot JSON on shutdown "
                        "(summarize with `repro stats PATH`)")
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("speedup", help="old-vs-new speedup curve on one machine")
    p.add_argument("--dataset", default="mri512")
    p.add_argument("--machine", default="simulator",
                   choices=["dash", "challenge", "simulator", "origin2000"])
    p.add_argument("--scale", type=float, default=0.1875)
    p.add_argument("--procs", default="1,2,4,8,16")

    args = parser.parse_args(argv)
    return {"info": _cmd_info, "render": _cmd_render, "stats": _cmd_stats,
            "serve": _cmd_serve, "speedup": _cmd_speedup}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
