"""Every figure, ablation and example script imports.

Tier-1 runs none of these scripts, so a refactor that moves a module
they import would go unseen until someone ran one.  Importing each one
under a name other than ``__main__`` runs its imports and definitions
and nothing else.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"

SCRIPTS = sorted([
    *BENCHMARKS.glob("fig*.py"),
    *BENCHMARKS.glob("ablation_*.py"),
    *(ROOT / "examples").glob("*.py"),
])

#: Imports each path it is given as its own module; prints the failures.
IMPORT_EACH = """
import importlib.util, sys, traceback
failed = []
for i, path in enumerate(sys.argv[1:]):
    spec = importlib.util.spec_from_file_location(f"script_{i}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception:
        failed.append(f"{path}:\\n{traceback.format_exc()}")
print("\\n".join(failed), end="")
"""


def test_every_script_imports():
    """In a fresh interpreter, with ``benchmarks/`` on the path for the
    figures' ``common``, as running one from the repository would."""
    assert {p.parent.name for p in SCRIPTS} == {"benchmarks", "examples"}
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(BENCHMARKS),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_EACH, *map(str, SCRIPTS)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
