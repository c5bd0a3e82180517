"""Latency/throughput of the render service under concurrent clients.

``repro.serve`` turns the persistent worker pools into a shared service;
this benchmark measures what the serving layer itself buys.  A
:class:`~repro.serve.server.RenderServer` is started in-process over
loopback TCP and driven by fleets of real protocol clients at several
concurrency levels.  Every client walks the *same* short orbit of views
(a dashboard of viewers watching one volume), which is exactly the
traffic the front end is built for: concurrent identical requests
coalesce onto one pool render, repeated views are served from the
content-addressed frame cache, and only the residue reaches a pool.

Reported per concurrency level: client-observed latency (p50/p99),
throughput, and the serve-counter deltas (pool renders vs cache hits vs
coalesced followers) that explain them.  The frame cache is cleared
between levels so each level pays its own cold renders.

Honesty: the host facts from ``host_cpu_info`` ride along, and on a
single-core host (``multi_core_host: false``) the gains shown here are
*work elimination* (caching + coalescing), not parallel speedup — the
pools behind the server cannot overlap compositing on one core.

Results are published as ``BENCH_serve.json`` at the repository root.

Run:  python benchmarks/bench_serve.py [--smoke] [--procs N] [--backend B]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Stopwatch, host_cpu_info, save_bench_json  # noqa: E402

from repro.parallel.poolcore import PoolConfig  # noqa: E402
from repro.serve import RenderClient, RenderServer, ServeConfig  # noqa: E402

#: Client fleet sizes (the >= 3 levels the report commits to).
LEVELS = (1, 4, 8)
SMOKE_LEVELS = (1, 2)
#: Distinct views in the shared orbit — small enough that a level's
#: second lap is all cache hits, the serving layer's bread and butter.
DISTINCT_VIEWS = 6
#: Per-client request counts — kept above ``DISTINCT_VIEWS`` (smoke
#: included) so every level's second lap exercises the cache.
REQUESTS_PER_CLIENT = 12
SMOKE_REQUESTS_PER_CLIENT = 8


async def run_level(
    address: tuple[str, int], n_clients: int, n_requests: int
) -> tuple[list[float], float]:
    """One fleet: every client renders the same orbit; returns
    (per-request latencies, wall seconds)."""
    host, port = address
    clients = [
        await RenderClient.connect(host, port) for _ in range(n_clients)
    ]
    latencies: list[float] = []

    async def drive(ci: int, client: RenderClient) -> None:
        for i in range(n_requests):
            ry = 30.0 + 3.0 * (i % DISTINCT_VIEWS)
            t0 = perf_counter()
            resp = await client.request(
                {"op": "render", "ry": ry, "client": f"c{ci}"}
            )
            latencies.append(perf_counter() - t0)
            if resp["status"] != "ok":
                raise RuntimeError(
                    f"request failed: {resp.get('error')}: "
                    f"{resp.get('detail')}"
                )

    with Stopwatch() as sw:
        await asyncio.gather(
            *(drive(i, c) for i, c in enumerate(clients))
        )
    for c in clients:
        await c.close()
    return latencies, sw.seconds


async def bench(args: argparse.Namespace, levels, n_requests) -> dict:
    config = ServeConfig(
        default_dataset=args.dataset,
        default_scale=args.scale,
        # Sized so the benchmark measures service latency, not rejection:
        # the backpressure path has its own tests.
        max_inflight=max(levels) + 1,
        pool=PoolConfig(n_procs=args.procs, backend=args.backend,
                        profile_period=0),
    )
    server = RenderServer(config)
    await server.start()
    rows = []
    try:
        for n_clients in levels:
            # Each level pays its own cold renders.
            server.cache.clear()
            before = {k: c.value for k, c in server.metrics.counters.items()}
            lats, wall = await run_level(
                server.address, n_clients, n_requests
            )
            after = {k: c.value for k, c in server.metrics.counters.items()}
            delta = {
                k: int(after[k] - before.get(k, 0))
                for k in sorted(after)
                if after[k] != before.get(k, 0)
            }
            lat_ms = np.asarray(lats) * 1e3
            rows.append({
                "n_clients": n_clients,
                "requests": len(lats),
                "wall_s": round(wall, 4),
                "throughput_rps": round(len(lats) / wall, 2),
                "latency_ms_p50": round(float(np.percentile(lat_ms, 50)), 3),
                "latency_ms_p99": round(float(np.percentile(lat_ms, 99)), 3),
                "latency_ms_max": round(float(lat_ms.max()), 3),
                "counters": delta,
            })
    finally:
        await server.close()
    return {"rows": rows, "config": {
        "max_inflight": config.max_inflight,
        "cache_frames": config.cache_frames,
    }}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="two small levels (CI smoke test)")
    parser.add_argument("--dataset", default="mri128")
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--backend", choices=["mp", "thread"], default="mp")
    args = parser.parse_args(argv)

    levels = SMOKE_LEVELS if args.smoke else LEVELS
    n_requests = (SMOKE_REQUESTS_PER_CLIENT if args.smoke
                  else REQUESTS_PER_CLIENT)
    result = asyncio.run(bench(args, levels, n_requests))
    rows = result["rows"]

    host = host_cpu_info()
    report = {
        "benchmark": "serve",
        "smoke": args.smoke,
        **host,
        "workload": {
            "dataset": args.dataset, "scale": args.scale,
            "distinct_views": DISTINCT_VIEWS,
            "requests_per_client": n_requests,
        },
        "pool": {"n_procs": args.procs, "backend": args.backend},
        "serve": result["config"],
        "levels": rows,
        # On a single-core host the multi-client gains below come from
        # caching and coalescing (fewer renders), not parallel rendering.
        "gains_are_work_elimination": not host["multi_core_host"],
    }

    print(f"{args.dataset} scale {args.scale}, {args.procs}-proc "
          f"{args.backend} pool, {DISTINCT_VIEWS}-view orbit, "
          f"{n_requests} requests/client "
          f"(multi_core_host={host['multi_core_host']}):")
    for row in rows:
        c = row["counters"]
        print(f"  {row['n_clients']:2d} client(s): "
              f"{row['throughput_rps']:7.1f} req/s, "
              f"p50 {row['latency_ms_p50']:7.2f} ms, "
              f"p99 {row['latency_ms_p99']:7.2f} ms  "
              f"[pool renders {c.get('serve/pool_renders', 0)}, "
              f"cache hits {c.get('serve/cache_hits', 0)}, "
              f"coalesced {c.get('serve/coalesced', 0)}]")

    out_path = save_bench_json("serve", report)
    print(f"wrote {out_path}")

    # The signals that the serving machinery is alive: repeats hit the
    # cache at every level, and a multi-client fleet coalesced at least
    # once or hit the cache on every duplicated request.
    ok = all(r["counters"].get("serve/cache_hits", 0) > 0 for r in rows)
    multi = [r for r in rows if r["n_clients"] > 1]
    ok &= any(
        r["counters"].get("serve/coalesced", 0) > 0
        or r["counters"].get("serve/cache_hits", 0)
        > r["counters"].get("serve/pool_renders", 0)
        for r in multi
    )
    if not ok:
        print("FAILED: cache/coalescing never engaged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
