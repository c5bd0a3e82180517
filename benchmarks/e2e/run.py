#!/usr/bin/env python3
"""bench_e2e — the repo's one benchmark: named workloads, end-to-end
metrics with fixed regression bounds, and a per-layer table.

    python benchmarks/e2e/run.py                       # every workload, one report
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py --traced              # per-layer tables + traces
    python benchmarks/e2e/run.py --runs 10 --out A.json
    python benchmarks/e2e/run.py compare A.json B.json
    python benchmarks/e2e/run.py --smoke               # tiny sizes, same code paths

Names, units, bounds and the reason for each workload live in
``BENCHMARK.json`` at the repository root; ``README.md`` here is the
glossary.  Each workload runs in a fresh subprocess of this driver with
the system's default configuration; every delivered frame is compared
bit for bit with the serial ``render_fast`` reference, and the exit code
is non-zero when any frame differs, fails, or a subprocess leaks a
``/dev/shm`` segment or a child process.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: A workload subprocess still running after this long is killed.
CHILD_TIMEOUT_S = 170
#: How long its process group may take to empty once it has exited.
LEAK_GRACE_S = 3.0

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# -- the workload subprocess ---------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this process and print its result as JSON."""
    sys.path.insert(0, SRC)
    import resource

    import numpy as np

    from spans import NULL, Recorder
    from workloads import WORKLOADS, make_workload

    import_s = time.monotonic() - float(os.environ["BENCH_E2E_T0"])
    workload = make_workload(args.workload, args.seed, args.smoke)
    rec = Recorder() if args.trace else NULL

    setups = []
    for i in range(1 if args.trace or args.smoke else SETUP_REPS):
        if i:
            workload.teardown()
        t0 = time.perf_counter()
        with rec.span("bench.setup"):
            workload.setup(rec)
        setups.append(time.perf_counter() - t0)
    with rec.span("bench.references"):
        workload.make_references(rec)

    laps = []
    traced = []
    if args.trace:
        # One lap with every recorder off, one with the benchmark's own.
        laps.append(workload.lap(NULL))
        traced.append(workload.lap(rec))
    else:
        spent = 0.0
        min_laps = WORKLOADS[args.workload].min_laps
        while len(laps) < min_laps or spent + laps[-1].wall_s / 2 <= args.seconds:
            laps.append(workload.lap(NULL))
            spent += laps[-1].wall_s
    workload.teardown()

    samples = [s for lap in laps for s in lap.samples_ms]
    delivered = max(1, sum(lap.attempted - lap.failed for lap in laps))
    p50, p90 = (float(np.percentile(samples, q)) for q in (50, 90))
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    fps = [(lap.attempted - lap.failed) / lap.wall_s for lap in laps]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": sum(lap.attempted for lap in laps + traced),
        "failed": sum(lap.failed for lap in laps + traced),
        "detail": {
            "samples": len(samples),
            "samples_beyond_p90": sum(s > p90 for s in samples),
            "laps": len(laps),
            "measured_s": sum(lap.wall_s for lap in laps),
            "frames_per_s_quartiles": quartiles(fps),
            "setup_runs_s": setups, "import_s": import_s,
            "render_fast_ms": float(np.median(workload.refs.render_ms)),
            "python": platform.python_version(), "numpy": np.__version__,
            "n_procs": workload.n_procs,
        },
    }
    if not args.trace:
        result["metrics"] = {
            "frame_ms_p50": p50,
            "frame_ms_p90": p90,
            "frames_per_s": statistics.median(fps),
            "cpu_ms_per_frame": sum(lap.cpu_s for lap in laps) * 1e3 / delivered,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": sum(usage) / 1024.0,
        }
    else:
        from layers import probe_all  # pulls in every backend: traced only

        (traced_lap,) = traced
        cover = rec.coverage("bench.measure")
        serial_ms = result["detail"]["render_fast_ms"]
        metrics = probe_all(workload, serial_ms)
        metrics.update(traced_lap.layer)
        metrics.update({
            "render.fast.frame_ms": serial_ms,
            "bench.trace_overhead_ratio":
                float(np.median(traced_lap.samples_ms)) / p50,
            "bench.unattributed_ms": cover["unattributed_ms"],
        })
        result["metrics"] = metrics
        result["detail"]["coverage"] = cover
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write_chrome_trace(
            os.path.join(OUT_DIR, f"trace_{args.workload}.json"),
            {"workload": args.workload, "seed": args.seed, "coverage": cover},
        )
    print(json.dumps(result))
    return 0


# -- the driver ----------------------------------------------------------------


def _process_group(pgid: int) -> list[int]:
    """Live pids whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Run workload ``name`` in a fresh subprocess, then check that it
    left no ``/dev/shm`` segment and no process behind.

    A leak marks every frame of the run failed.  Raises ``RuntimeError``
    when the subprocess dies without a result.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    shm_before = _shm_segments()
    env = dict(os.environ, BENCH_E2E_T0=repr(time.monotonic()))
    # Its own session: whatever it forks stays findable by process group.
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        raise
    finally:
        # multiprocessing's resource tracker outlives the workload by a
        # moment (it exits when its pipe closes): poll before judging.
        deadline = time.monotonic() + LEAK_GRACE_S
        while ((survivors := _process_group(child.pid))
               and time.monotonic() < deadline):
            time.sleep(0.05)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # gone between the listing and the kill
        leaked_shm = sorted(_shm_segments() - shm_before)
        for seg in leaked_shm:
            try:
                os.unlink(os.path.join("/dev/shm", seg))
            except OSError:
                pass
    if child.returncode != 0 or not out.strip():
        raise RuntimeError(
            f"workload {name} exited with code {child.returncode} "
            "and no result")
    result = json.loads(out.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - float(env["BENCH_E2E_T0"])
    result["leaks"] = {"shm": leaked_shm, "pids": survivors}
    if leaked_shm or survivors:
        result["failed"] = result["attempted"]
    return result


_BURN = ("import time\nt = time.perf_counter()\nx = 0\n"
         "for i in range(2_000_000): x += i * i\n"
         "print(time.perf_counter() - t)")


def _burn(n: int) -> float:
    """Mean seconds ``n`` concurrent interpreters need for a fixed loop."""
    procs = [subprocess.Popen([sys.executable, "-c", _BURN],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(n)]
    return statistics.mean(float(p.communicate()[0]) for p in procs)


def host_info() -> dict:
    """The host, honestly: information for the reader, not metrics."""
    nproc = os.cpu_count() or 1
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)),
        # 1.0: two CPU-bound processes run as fast as one alone;
        # 0.5: they take turns on one CPU.
        "parallel_efficiency": _burn(1) / _burn(2) if nproc > 1 else None,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def print_result(result: dict, table: dict) -> None:
    detail = result["detail"]
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"trace {result['trace']}): {WORKLOAD_WHY[result['workload']]}")
    for name, spec in table.items():
        print(f"  {name:48s} {result['metrics'][name]:14.4f} {spec['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':48s} {ratio:14.4f} ratio "
          f"({result['failed']} of {result['attempted']} frames)")
    print(f"  samples {detail['samples']} ({detail['samples_beyond_p90']} "
          f"beyond p90), laps {detail['laps']}, measured "
          f"{detail['measured_s']:.1f} s, render_fast "
          f"{detail['render_fast_ms']:.2f} ms, whole run "
          f"{result['run_s']:.1f} s, leaks {result['leaks']}")
    cover = detail.get("coverage")
    if cover:
        total = cover["layers_ms"] + cover["unattributed_ms"]
        print(f"  spans: layers {cover['layers_ms']:.1f} ms + unattributed "
              f"{cover['unattributed_ms']:.1f} ms = "
              f"{100 * total / cover['wall_ms']:.1f} % of the "
              f"{cover['wall_ms']:.1f} ms traced wall")
        for layer, ms in sorted(cover["self_ms"].items()):
            print(f"    self {layer:44s} {ms:12.2f} ms")


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over a workload's runs."""
    out = {}
    for name in runs[0]["metrics"]:
        q1, median, q3 = quartiles([r["metrics"][name] for r in runs])
        out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(runs)}
    # Any failure counts: the worst run stands for the set.
    ratios = [r["failed"] / r["attempted"] for r in runs]
    out["failed_ratio"] = {"median": max(ratios), "q1": min(ratios),
                           "q3": max(ratios), "n": len(runs)}
    return out


def contract_line(result: dict, table: dict) -> str:
    """The one-line result the benchmark contract asks for."""
    missing = set(table) - set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name],
                           "unit": table[name]["unit"]} for name in table},
    })


# -- compare ---------------------------------------------------------------------


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload.

    ``unresolved``: the run-to-run spread (quartile distance over the
    median, of either side) is wider than the bound, so a change of the
    bound's size could not be seen — unless B is clear of A altogether.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    change = sign * (b["median"] - a["median"]) / base
    if bound == 0:  # any increase is a regression, whatever the spread
        return "worse" if change > 0 else "ok"
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    if spread > bound and change > -spread:
        return "unresolved"
    return "worse" if change > bound else "ok"


def compare_main(paths: list[str]) -> int:
    with open(paths[0]) as fa, open(paths[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    rows = dict(E2E, failed_ratio={"unit": "ratio", "better": "lower",
                                   "bound": 0.0})
    print(f"{'workload':18s} {'metric':17s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'bound':>6s}  verdict")
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        sa, sb = (r["workloads"][name]["summary"] for r in (a, b))
        for metric, spec in rows.items():
            if metric not in sa or metric not in sb:
                continue
            v = verdict(sa[metric], sb[metric], spec["better"], spec["bound"])
            worse += v == "worse"
            cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                     for s in (sa[metric], sb[metric])]
            print(f"{name:18s} {metric:17s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{spec['bound']:6.2f}  {v}")
    return 1 if worse else 0


# -- command line ----------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare_main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="how long each run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_const", const=1, dest="trace",
                    help="same as --trace 1: per-layer metrics and traces")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs per workload, on seeds seed, seed+1, ...")
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny volumes and one short lap: a quick self-check")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    # A terminated driver must not leave its workload session behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)

    table = PER_LAYER if args.trace else E2E
    host = host_info()
    print("host: " + ", ".join(f"{k} {v}" for k, v in host.items()))
    names = [args.workload] if args.workload else list(WORKLOAD_WHY)
    report = {"benchmark": "bench_e2e", "host": host, "seed": args.seed,
              "runs": args.runs, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "workloads": {}}
    failed = 0
    result = None
    for name in names:
        runs = []
        for k in range(args.runs):
            result = run_workload(name, args.seed + k, args.seconds,
                                  args.trace, args.smoke)
            print_result(result, table)
            failed += result["failed"]
            runs.append(result)
        summary = summarize(runs)
        report["workloads"][name] = {"runs": runs, "summary": summary}
        if args.runs > 1:
            print(f"-- {name}: median [q1, q3] over {args.runs} runs, and "
                  "their quartile distance as a share of the median")
            for metric, s in summary.items():
                spread = (s["q3"] - s["q1"]) / (s["median"] or 1.0)
                print(f"  {metric:48s} {s['median']:14.4f} "
                      f"[{s['q1']:.4f}, {s['q3']:.4f}] {100 * spread:6.2f} %")
    out = args.out or (None if args.workload
                       else os.path.join(OUT_DIR, "report.json"))
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
        print(f"wrote {out}")
    if args.workload:
        print(contract_line(result, table))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except RuntimeError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        sys.exit(1)
