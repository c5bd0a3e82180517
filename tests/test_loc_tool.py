"""Smoke test of ``benchmarks/tools/loc.py``, the code-line measure."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "tools" / "loc.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    s = """not a docstring:
    a string that is code"""
    return (x +
            len(s))


class C:
    """Class
    docstring."""

    y = os.sep
'''


def _load():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_without_comments_blanks_and_docstrings(tmp_path,
                                                                  capsys):
    loc = _load()
    # import, def, the two-line string, the two-line return, class, y.
    assert loc.count(FIXTURE) == (8, 13)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    assert loc.count_path(tmp_path / "pkg") == (9, 14)
    assert loc.main([str(tmp_path / "pkg"), str(tmp_path / "pkg" / "b.py")]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split()[:2] == ["9", "14"]
    assert rows[-1].split() == ["10", "15", "total"]


def test_help_and_a_missing_path_are_not_tracebacks(tmp_path):
    """``--help`` prints the usage; a path that does not exist is a
    one-line usage error, exit status 2."""
    def run(*args):
        return subprocess.run([sys.executable, str(TOOL), *args],
                              capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0
    assert "Usage::" in shown.stdout and not shown.stderr
    missing = run(str(tmp_path), "no/such/path")
    assert missing.returncode == 2 and not missing.stdout
    assert missing.stderr.count("\n") == 1
    assert "no/such/path" in missing.stderr
    assert "Traceback" not in missing.stderr
