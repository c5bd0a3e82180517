"""Self-checks of bench_e2e (run with ``pytest benchmarks/e2e``; outside
the tier-1 ``testpaths`` on purpose — they spawn the smoke benchmark)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import Recorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("e2e") / "smoke.json")
    done = _run("--smoke", "--seed", "5", "--out", path)
    assert done.returncode == 0, done.stdout + done.stderr
    return path


def test_spec_names_and_shape():
    spec = run.SPEC
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_every_workload_emits_every_end_to_end_metric(smoke_report):
    with open(smoke_report) as f:
        report = json.load(f)
    assert set(report["workloads"]) == set(run.WORKLOAD_WHY)
    for name, entry in report["workloads"].items():
        (result,) = entry["runs"]
        assert set(result["metrics"]) == set(run.E2E), name
        assert all(v > 0 for v in result["metrics"].values()), name
        assert result["failed"] == 0 and result["attempted"] >= 120, name
        assert result["detail"]["samples_beyond_p90"] >= 10, name
        assert result["leaks"] == {"shm": [], "pids": []}, name
    assert report["host"]["nproc"] >= 1


def test_compare_with_itself_is_all_ok(smoke_report):
    done = _run("compare", smoke_report, smoke_report)
    assert done.returncode == 0, done.stdout
    rows = done.stdout.strip().splitlines()[1:]
    assert len(rows) == len(run.WORKLOAD_WHY) * (len(run.E2E) + 1)
    assert all(row.endswith(" ok") for row in rows)


@pytest.mark.parametrize("trace,table", [(0, run.E2E), (1, run.PER_LAYER)])
def test_contract_line(trace, table):
    done = _run("--workload", "serve_miss_64", "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(table)
    for name, cell in line["metrics"].items():
        assert cell["unit"] == table[name]["unit"]
        assert isinstance(cell["value"], (int, float))
    if trace:
        assert line["metrics"]["serve.cache.hit_ratio"]["value"] == 0.0
        trace_file = os.path.join(HERE, "out", "trace_serve_miss_64.json")
        with open(trace_file) as f:
            doc = json.load(f)
        cover = doc["otherData"]["coverage"]
        covered = cover["layers_ms"] + cover["unattributed_ms"]
        assert covered == pytest.approx(cover["wall_ms"], rel=0.05)


def test_verdicts():
    def s(median, q1=None, q3=None):
        return {"median": median, "q1": q1 or median, "q3": q3 or median}

    assert run.verdict(s(100), s(105), "lower", 0.10) == "ok"
    assert run.verdict(s(100), s(115), "lower", 0.10) == "worse"
    assert run.verdict(s(100), s(85), "higher", 0.10) == "worse"
    assert run.verdict(s(100, 90, 110), s(105), "lower", 0.10) == "unresolved"
    # B clear of A's whole spread: resolved although A is noisy.
    assert run.verdict(s(100, 90, 110), s(70), "lower", 0.10) == "ok"
    assert run.verdict(s(0.0), s(0.01), "lower", 0.0) == "worse"
    assert run.verdict(s(0.0), s(0.0), "lower", 0.0) == "ok"


def test_span_self_times_telescope():
    rec = Recorder()
    with rec.span("bench.measure"):
        with rec.span("layer.a"):
            with rec.span("layer.b", frame=1):
                pass
        with rec.span("layer.a"):
            pass
    with rec.span("bench.setup"):
        with rec.span("layer.c"):
            pass
    cover = rec.coverage("bench.measure")
    assert set(cover["self_ms"]) == {"layer.a", "layer.b"}
    assert cover["layers_ms"] + cover["unattributed_ms"] == pytest.approx(
        cover["wall_ms"])
