"""Smoke test of ``benchmarks/tools/balance_trial.py``: its statistics,
and one tiny pair run end to end against a throw-away git repository
holding a copy of this package's source (the reference is its commit,
the change its working tree)."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "tools" / "balance_trial.py"


def _load():
    spec = importlib.util.spec_from_file_location("balance_trial", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def test_quartiles_and_pairs_won():
    trial = _load()
    assert trial.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert trial.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (3.0, 2.0, 4.0)
    # Strictly lower wins; a tie is no win.
    assert trial.pairs_won([1.0, 2.0, 3.0], [2.0, 2.0, 1.0]) == 1


def test_cells_cover_procs_datasets_and_the_slowed_worker():
    trial = _load()
    cells = trial.cells([2, 4], ["mri128", "beating_heart"], 1e-4, 40, 1.0)
    assert len(cells) == 8
    assert [trial.cell_name(c) for c in cells[:2]] == [
        "P=2 mri128 plain", "P=2 mri128 slowed"]
    assert {c["slow"] for c in cells} == {0.0, 1e-4}


def test_one_pair_end_to_end(tmp_path, capsys):
    repo = tmp_path / "repo"
    shutil.copytree(TOOL.parents[2] / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "reference")
    out = tmp_path / "runs.json"

    rc = _load().main(["HEAD", "--pairs", "1", "--frames", "2", "--procs", "2",
                       "--datasets", "mri128", "--scale", "0.12",
                       "--out", str(out)], root=repo)

    assert rc == 0
    text = capsys.readouterr().out
    assert "pair 1/1 (ref change uniform) done" in text
    assert "P=2 mri128 plain: 1 pairs" in text
    assert "P=2 mri128 slowed: 1 pairs" in text
    rows = [line for line in text.splitlines()
            if line.startswith("frame_ms_p90")]
    assert len(rows) == 2 and all("won vs uniform" not in r for r in rows)
    assert "frames differing from render_fast: 0" in text
    kept = json.loads(out.read_text())
    for runs in kept["cells"].values():
        assert set(runs) == {"ref", "change", "uniform"}
        for arm in runs.values():
            (run,) = arm
            assert set(run) == {"frame_ms_p50", "frame_ms_p90",
                                "cpu_ms_per_frame", "busy_spread", "differing"}
            assert run["differing"] == 0 and run["frame_ms_p90"] > 0
