"""Architecture guards over ``src/repro`` (AST walks, plus two checks of
the public configuration surface).

The pool stack is one core (:mod:`repro.parallel.poolcore`) plus two
transports; these checks keep it that way: no module reaches into
another module's underscore-private names, the transports do not import
each other, the frame lifecycle is written exactly once, a process
worker reports through shared memory only, admission never waits, a
shard fleet queues no frames of its own and plans with the pools'
planner, the pools run one compositing kernel, and they are configured
by one class with a counted number of fields.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PARALLEL = SRC / "parallel"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _own_private_names(tree: ast.AST) -> set[str]:
    """Underscore names one module itself defines: functions, classes,
    variables, assigned attributes and ``__slots__`` entries."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            names.update(
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return {n for n in names if _private(n)}


def _is_name(node: ast.AST, *ids: str) -> bool:
    return isinstance(node, ast.Name) and node.id in ids


def _cross_module_private_uses(source: str, path: str = "<src>") -> list[str]:
    """Every way one source file reaches a private name it does not own:
    ``from x import _name``; ``alias._name`` (``alias`` bound by an
    import); ``obj._name`` on anything but ``self`` / ``cls`` when the
    module defines no ``_name`` of its own; and ``getattr(obj,
    "_name")`` (``hasattr`` / ``setattr`` / ``delattr`` too) with the
    name spelled as a string, on anything but ``self``."""
    tree = ast.parse(source, filename=path)
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
    own = _own_private_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if _is_name(node.value, *imported) or not (
                _is_name(node.value, "self", "cls") or node.attr in own
            ):
                hits.append(f"{path}:{node.lineno}: "
                            f"{ast.unparse(node.value)}.{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and _is_name(node.func, "getattr", "hasattr", "setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and _private(node.args[1].value)
            and not _is_name(node.args[0], "self")
        ):
            hits.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
    return hits


def test_no_cross_module_private_access():
    hits = [
        h for p in sorted(SRC.rglob("*.py"))
        for h in _cross_module_private_uses(p.read_text(), str(p))
    ]
    assert not hits, "underscore-private names used across modules:\n" + "\n".join(hits)


def test_private_access_guard_sees_strings_and_locals():
    """The two forms that slipped past the import-only guard: a private
    name spelled as a ``getattr`` string, and one read off a local that
    holds another module's object."""
    escaped = (
        "def f(backend, merged):\n"
        "    epoch = getattr(backend, '_trace_epoch', None)\n"
        "    return merged.gauge('x')._written\n"
    )
    assert len(_cross_module_private_uses(escaped)) == 2
    owned = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self._n = getattr(self, '_m', 0)\n"
        "    def same(self, other):\n"
        "        return other._n == self._n\n"
    )
    assert _cross_module_private_uses(owned) == []


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


def _call_names(tree: ast.AST) -> set[str]:
    """``a.b.c(...)`` -> ``"a.b.c"`` for every call under ``tree``."""
    return {ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}


def test_one_way_in_one_way_out():
    """The process transport has no worker→parent queue (everything a
    worker reports is a shared-memory write), a worker takes jobs off
    its pipe in one place and keeps no second store of them (what
    cannot start yet is held in the parent), and the core has no
    slot-waiting admission path."""
    mp_tree = ast.parse((PARALLEL / "mp_backend.py").read_text())
    assert not _call_names(mp_tree) & {"ctx.Queue", "mp.Queue"}
    (worker_loop,) = [
        n for n in ast.walk(mp_tree)
        if isinstance(n, ast.FunctionDef) and n.name == "_worker_loop"
    ]
    assert not [c for c in _call_names(worker_loop) if c.endswith(".put")]
    assert "os.write" not in _call_names(worker_loop)
    pipe_reads = [
        n for n in ast.walk(mp_tree)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "pickle.load"
    ]
    assert len(pipe_reads) == 1
    assert pipe_reads[0] in list(ast.walk(worker_loop))
    assert not [c for c in _call_names(mp_tree) if c.endswith(".empty")]
    core_defs = {
        n.name for n in ast.walk(ast.parse((PARALLEL / "poolcore.py").read_text()))
        if isinstance(n, ast.FunctionDef)
    }
    assert "_await_slot_locked" not in core_defs


def test_a_fleet_frame_lives_in_its_pools_ledgers():
    """The shard service keeps no frame queue of its own: a frame enters
    the pools at ``submit_batch``, so ``result`` only gathers — it
    issues no ``.submit`` / ``.submit_batch`` / ``.render`` call — and
    the lazy store (``_queued`` / ``_ready``) is not assigned anywhere
    in the module."""
    tree = ast.parse((SRC / "shard" / "service.py").read_text())
    (service,) = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.ClassDef) and n.name == "ShardedRenderService"
    ]
    (result,) = [
        n for n in service.body
        if isinstance(n, ast.FunctionDef) and n.name == "result"
    ]
    dispatching = {"submit", "submit_batch", "render", "render_animation"}
    assert not [
        c for c in _call_names(result) if c.rsplit(".", 1)[-1] in dispatching
    ]
    stored = {
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
    }
    assert not stored & {"_queued", "_ready"}


def test_one_planner_at_both_levels():
    """Shard boundaries are cut by the pools' ``FramePlanner`` with
    shards for blocks: outside ``core/`` (the profile type itself and
    the simulated renderer of the paper's machines), ``profile_partition``
    is called and a ``ScanlineProfile`` constructed only inside that
    class, and the shard service imports none of the pieces a second
    planner would be built from."""
    import repro.shard

    with pytest.raises(AttributeError):
        repro.shard.ShardPlanner
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "core":
            continue
        tree = ast.parse(path.read_text())
        planners = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.ClassDef) and n.name == "FramePlanner"
        ]
        inside = {id(n) for c in planners for n in ast.walk(c)}
        sites += [
            (path.name, ast.unparse(n.func), id(n) in inside)
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and ast.unparse(n.func).rsplit(".", 1)[-1]
            in {"profile_partition", "ScanlineProfile"}
        ]
    assert {name for _, name, _ in sites} == {"profile_partition", "ScanlineProfile"}
    assert all(inside for *_, inside in sites), sites
    imported = _imported_modules(SRC / "shard" / "service.py")
    assert not imported & {"line_ownership", "profile_partition", "ScanlineProfile"}


def test_one_config_class_with_nine_fields():
    """Every independently settable value of a pool is a ``PoolConfig``
    field; adding one is a decision, not a drive-by."""
    import repro

    assert len(fields(repro.PoolConfig)) == 9
    with pytest.raises(AttributeError):
        repro.ShardConfig


def test_one_kernel_in_the_pools():
    """The pools composite with the block kernel and nothing else: no
    list of kernels to pick from, and the traced scanline kernel — the
    test oracle and the simulator's — is not imported by the core or
    either transport."""
    import repro.parallel.poolcore

    with pytest.raises(AttributeError):
        repro.parallel.poolcore.COMPOSITE_KERNELS
    for name in ("poolcore.py", "mp_backend.py", "thread_backend.py"):
        assert "composite_image_scanline" not in _imported_modules(PARALLEL / name)


def test_the_package_reads_no_environment_variable():
    """Fault and delay injection are module hooks a test monkeypatches
    (``poolcore.TEST_FAULT``, ``TEST_ROW_DELAY``), not variables a
    deployment can set by accident."""
    reads = [
        f"{p.name}:{n.lineno}" for p in sorted(SRC.rglob("*.py"))
        for n in ast.walk(ast.parse(p.read_text()))
        if isinstance(n, ast.Attribute) and n.attr in {"environ", "getenv"}
    ]
    assert not reads
