"""Smoke test of ``benchmarks/tools/pair.py`` on a stub runner: a
throw-away git repository whose ``benchmarks/e2e/run.py`` reports fixed
numbers, committed at one level (the reference) and edited to a better
one in the working tree (the change)."""

import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "tools" / "pair.py"

#: ``run.py``'s interface as ``pair.py`` uses it: a ``--workload`` run
#: writing an ``--out`` report, and ``E2E`` / ``summarize`` /
#: ``compare_main`` (a median-only summary, a verdict that says it ran).
STUB = '''import json, os, statistics, sys
LEVEL = {level}
E2E = {{"frame_ms_p50": {{"better": "lower"}},
        "frames_per_s": {{"better": "higher"}}}}

def summarize(runs):
    out = {{}}
    for name in runs[0]["metrics"]:
        m = statistics.median(r["metrics"][name] for r in runs)
        out[name] = {{"median": m, "q1": m, "q3": m}}
    return out

def compare_main(paths):
    a, b = (json.load(open(p)) for p in paths)
    print("stub compare", *a["workloads"], *b["workloads"])
    return 0

if __name__ == "__main__":
    args = sys.argv[1:]
    opt = lambda name: args[args.index(name) + 1]
    seed = int(opt("--seed"))
    with open(os.environ["PAIR_STUB_LOG"], "a") as f:
        f.write(f"{{LEVEL}} {{seed}}\\n")
    run = {{"metrics": {{"frame_ms_p50": LEVEL + seed % 3,
                        "frames_per_s": 100 / LEVEL,
                        "setup_s": LEVEL + seed % 2}},
            "attempted": 10, "failed": 0}}
    with open(opt("--out"), "w") as f:
        json.dump({{"workloads": {{opt("--workload"): {{"runs": [run]}}}}}}, f)
'''


def _load():
    spec = importlib.util.spec_from_file_location("pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def _stub_repo(tmp_path, monkeypatch):
    """The stub committed at level 5 (the reference), level 1 in the
    working tree (the change); returns the repository and the call log."""
    repo = tmp_path / "repo"
    runner = repo / "benchmarks" / "e2e" / "run.py"
    runner.parent.mkdir(parents=True)
    runner.write_text(STUB.format(level=5.0))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "reference")
    runner.write_text(STUB.format(level=1.0))
    log = tmp_path / "calls.log"
    monkeypatch.setenv("PAIR_STUB_LOG", str(log))
    return repo, log


def test_pairs_alternate_and_the_change_wins(tmp_path, monkeypatch, capsys):
    repo, log = _stub_repo(tmp_path, monkeypatch)

    rc = _load().main(["HEAD", "--workload", "w", "--pairs", "3", "--seed",
                       "7", "--out", str(tmp_path / "out")], root=repo)

    assert rc == 0
    # Seeds 7, 8, 9 on both sides, the first side alternating.
    assert log.read_text().split("\n")[:-1] == [
        "5.0 7", "1.0 7", "1.0 8", "5.0 8", "5.0 9", "1.0 9"]
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines() if line}
    assert rows["frame_ms_p50"].endswith("3/3")
    assert rows["frames_per_s"].endswith("3/3")
    # Every pair moves by the same amount, so every resample's delta is
    # that amount; three wins out of three: p = 2 / 2**3.
    assert rows["frame_ms_p50"].endswith("[-4, -4]    0.25  3/3")
    assert rows["frames_per_s"].endswith("[80, 80]    0.25  3/3")
    assert "stub compare w w" in out
    assert "compare: no metric worse than its bound" in out
    ref = json.loads((tmp_path / "out" / "ref.json").read_text())
    assert len(ref["workloads"]["w"]["runs"]) == 3
    summary = ref["workloads"]["w"]["summary"]
    assert summary["frame_ms_p50"]["median"] == 6.0  # 5 + (7, 8, 9) % 3


def test_setup_s_is_split_by_run_order(tmp_path, monkeypatch, capsys):
    """The side that runs second in a pair tends to set up slower, so
    each side's ``setup_s`` median is printed for the runs it made first
    and for those it made second."""
    repo, _ = _stub_repo(tmp_path, monkeypatch)
    _load().main(["HEAD", "--workload", "w", "--pairs", "3", "--seed", "7"],
                 root=repo)
    # The stub's setup_s is level + seed % 2.  The reference (level 5)
    # ran first at seeds 7 and 9 and second at 8; the change (level 1)
    # first at 8 and second at 7 and 9.
    assert ("setup_s median by run order (first / second in its pair): "
            "ref 6 / 5, change 1 / 2") in capsys.readouterr().out


def test_the_real_runner_offers_what_pair_uses():
    """``pair.py`` leans on ``run.py``'s ``E2E``, ``summarize`` and
    ``compare_main``; the stub above mirrors these, so pin them here."""
    pair = _load()
    runner = pair.load_runner(TOOL.parents[2])
    assert {m["better"] for m in runner.E2E.values()} == {"lower", "higher"}
    runs = [{"metrics": {"frame_ms_p50": v}, "failed": 0, "attempted": 4}
            for v in (1.0, 2.0, 3.0)]
    summary = runner.summarize(runs)
    assert summary["frame_ms_p50"]["median"] == 2.0
    assert {"q1", "q3"} <= set(summary["frame_ms_p50"])
    assert callable(runner.compare_main)


def test_sign_test_drops_ties_and_is_two_sided():
    sign_test = _load().sign_test
    # Three ups, one down, one tie: 2 * (C(4,0) + C(4,1)) / 2**4.
    assert sign_test([1.0, -1.0, 0.0, 2.0, 3.0]) == 0.625
    assert sign_test([-1.0] * 10) == 2 / 2 ** 10
    assert sign_test([0.0, 0.0]) == 1.0
    assert sign_test([1.0, -1.0]) == 1.0


def test_bootstrap_interval_is_seeded_and_resamples_pairs():
    bootstrap_delta = _load().bootstrap_delta
    # A constant per-pair shift survives every resample of whole pairs.
    assert bootstrap_delta([1.0, 2.0, 3.0], [2.0, 3.0, 4.0], seed=1) == (1.0, 1.0)
    # Two pairs: a resample holds pair 0 twice (delta 0, p = 1/4), pair
    # 1 twice (10, 1/4) or one of each (5, 1/2), so both 2.5 % tails
    # fall inside the end atoms.
    assert bootstrap_delta([0.0, 0.0], [0.0, 10.0], seed=7) == (0.0, 10.0)
    got = bootstrap_delta([3.0, 1.0, 4.0, 1.0], [5.0, 9.0, 2.0, 6.0], seed=3)
    assert got == bootstrap_delta([3.0, 1.0, 4.0, 1.0], [5.0, 9.0, 2.0, 6.0], seed=3)
    assert got[0] <= 3.5 <= got[1]  # holds the observed delta, 5.5 - 2
