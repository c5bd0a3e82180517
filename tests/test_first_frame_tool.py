"""Smoke test of ``benchmarks/tools/first_frame.py``, the latency probe."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "tools" / "first_frame.py"


def _tool():
    spec = importlib.util.spec_from_file_location("first_frame", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_every_column_and_checks_every_frame(capsys):
    tool = _tool()
    assert tool.main(["--scales", "0.125", "--frames", "3", "--laps", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["scale", *tool.COLUMNS]
    row = [float(x) for x in out[1].split()]
    assert row[0] == 0.125 and all(v > 0 for v in row[1:])
    # Every frame is dealt whole, the batch's and the stream's.
    assert out[2].split() == ["solo:", "batch", "3/3", "stream", "3/3"]
    assert out[-1] == "frames differing from render_fast: 0"

