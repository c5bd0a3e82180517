"""Architecture guards over ``src/repro`` (AST walks, nothing imported).

The pool stack is one core (:mod:`repro.parallel.poolcore`) plus two
transports; these checks keep it that way: no module reaches into
another module's underscore-private names, the transports do not import
each other, and the frame lifecycle is written exactly once.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PARALLEL = SRC / "parallel"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _cross_module_private_uses(path: Path) -> list[str]:
    """``from x import _name`` and ``alias._name`` (``alias`` bound by an
    import) in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits: list[str] = []
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                imported.add(a.asname or a.name)
                if node.module != "__future__" and _private(a.name):
                    hits.append(f"{path}:{node.lineno}: from "
                                f"{'.' * node.level}{node.module or ''} import {a.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and _private(node.attr)
        ):
            hits.append(f"{path}:{node.lineno}: {node.value.id}.{node.attr}")
    return hits


def test_no_cross_module_private_access():
    hits = [h for p in sorted(SRC.rglob("*.py")) for h in _cross_module_private_uses(p)]
    assert not hits, "underscore-private names used across modules:\n" + "\n".join(hits)


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    mods: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mods.add(node.module or "")
            mods.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            mods.update(a.name for a in node.names)
    return {m.rsplit(".", 1)[-1] for m in mods}


def test_transports_do_not_import_each_other():
    assert "thread_backend" not in _imported_modules(PARALLEL / "mp_backend.py")
    assert "mp_backend" not in _imported_modules(PARALLEL / "thread_backend.py")
    core = _imported_modules(PARALLEL / "poolcore.py")
    assert not core & {"mp_backend", "thread_backend"}


#: Written once, in the core — a transport that re-defines one of these
#: has forked the frame lifecycle again.
LIFECYCLE = (
    "result", "render", "render_animation", "capabilities", "submit",
    "submit_batch", "_worker_done_locked", "_finish_locked", "_degrade_locked",
    "_collect_timeline_locked", "fault_counters", "export_chrome_trace",
    "__enter__", "__exit__", "__del__", "run_frame",
)


def test_frame_lifecycle_is_defined_once():
    defs: dict[str, list[str]] = {name: [] for name in LIFECYCLE}
    for name in ("poolcore.py", "mp_backend.py", "thread_backend.py"):
        for node in ast.walk(ast.parse((PARALLEL / name).read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in defs:
                defs[node.name].append(name)
    assert defs == {name: ["poolcore.py"] for name in LIFECYCLE}
