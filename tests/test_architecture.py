"""Architecture guards over ``src/repro`` (AST walks, plus two checks of
the public configuration surface and one of what the native stack
loads).

The package is two halves over shared layers: the native render stack
and the paper's simulator, neither importing the other.  The pool stack
is one core (:mod:`repro.parallel.poolcore`) plus two
transports; these checks keep it that way: no module reaches into
another module's underscore-private names, the transports do not import
each other, the frame lifecycle is written exactly once, a process
worker reports through shared memory only, admission never waits, a
shard fleet queues no frames of its own, plans with the pools' planner
and never asks which backend its pools are, the pools run one
compositing kernel, and they are configured by one class with a
counted number of fields, none of which tunes the profile feedback
loop, and they do not steal.
"""

import ast
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PARALLEL = SRC / "parallel"

#: The two halves of the package.  Both build on the shared layers
#: (``transforms``, ``datasets``, ``volume``, ``render`` and
#: :data:`SHARED_CORE`); neither imports the other, and a shared layer
#: imports neither.
HALVES = {
    "native": {"parallel", "shard", "serve", "movie", "obs"},
    "simulator": {"memsim", "analysis", "core"},
}
#: The two modules of ``core`` below both halves: the partitioner and
#: the scanline profile the pools plan with.
SHARED_CORE = {"partition", "profiling"}


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


def test_the_fleet_knows_no_backend():
    """A shard fleet opens each pool through ``POOL_CLASSES`` and merges
    in the parent: nothing under ``shard/`` imports ``shared_memory``,
    the transports, or compares anything with a backend name."""
    for path in (SRC / "shard").glob("*.py"):
        assert not _imported_modules(path) & {
            "shared_memory", "mp_backend", "thread_backend"}, path.name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                names = {n.value for n in ast.walk(node)
                         if isinstance(n, ast.Constant)}
                assert not names & {"mp", "thread"}, (path.name, node.lineno)


def _half(module: str) -> str | None:
    """The half a dotted ``repro.…`` module (or name in one) belongs to;
    ``None`` for the shared layers and the top-level package."""
    parts = module.split(".")[1:3]
    if not parts or (parts[0] == "core" and parts[1:] and parts[1] in SHARED_CORE):
        return None
    return next((half for half, pkgs in HALVES.items() if parts[0] in pkgs), None)


def _repro_imports(source: str, package: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of every ``repro`` import in a module of
    ``package``, at module level or inside a function, relative imports
    resolved: ``from ..core import partition`` in ``repro.parallel`` is
    ``repro.core.partition``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = package.split(".")
            base = base[:len(base) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found += [(node.lineno, f"{module}.{a.name}") for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
    return [(line, name) for line, name in found if name.startswith("repro.")]


def _cross_half_imports(source: str, module: str, package: str) -> list[str]:
    """The imports by which ``module`` reaches a half it is not in."""
    own = _half(module)
    return [
        f"{module}:{line}: {name}" for line, name in _repro_imports(source, package)
        if _half(name) not in (None, own)
    ]


def test_the_halves_do_not_import_each_other():
    """The native stack and the simulator share only the layers below
    them: no module of one half imports the other, whether at module
    level or inside a function, and a shared module imports neither.
    The front doors above both (``repro/__init__.py``, ``cli.py``) may
    import either."""
    hits = []
    for path in sorted(SRC.glob("*/*.py")):
        rel = path.relative_to(SRC.parent).with_suffix("")
        module = ".".join(rel.parts)
        package = ".".join(rel.parts[:-1])
        hits += _cross_half_imports(path.read_text(), module, package)
    assert not hits, "imports across the halves:\n" + "\n".join(hits)


def test_the_halves_rule_sees_both_directions_and_function_imports():
    """The forms the rule must catch: a simulator module importing the
    native stack inside a function, a native module importing the
    simulator at module level, a shared layer importing a half; and
    what it must let through: the shared layers and ``core``'s shared
    modules, however they are spelled."""
    caught = (
        ("repro.analysis.harness", "repro.analysis",
         "def f():\n    from ..obs import SpanRecorder\n"),
        ("repro.parallel.poolcore", "repro.parallel",
         "from ..memsim.execution import simulate_frame\n"),
        ("repro.shard.service", "repro.shard", "import repro.core.frame\n"),
        ("repro.render.serial", "repro.render", "from ..parallel import poolcore\n"),
    )
    for module, package, source in caught:
        assert len(_cross_half_imports(source, module, package)) == 1, source
    allowed = (
        "from ..core.partition import contiguous_partition\n"
        "from ..core import profiling\n"
        "from ..render.serial import renderer_for\n"
        "from . import poolcore\n"
        "from .. import __version__\n"
    )
    assert _cross_half_imports(allowed, "repro.parallel.x", "repro.parallel") == []


def test_no_import_hides_behind_type_checking():
    """An import cycle is broken by moving a module, not by importing
    for annotations only."""
    hits = [
        f"{p.relative_to(SRC)}:{n.lineno}" for p in sorted(SRC.rglob("*.py"))
        for n in ast.walk(ast.parse(p.read_text()))
        if "TYPE_CHECKING" in {getattr(n, a, None) for a in ("id", "attr", "name")}
    ]
    assert not hits


#: The simulator's modules, as prefixes of ``sys.modules`` names: its
#: packages, and the instrumented renderers of ``repro.core`` (whose
#: ``partition`` and ``profiling`` the native pools share).
SIMULATOR_MODULES = ("repro.memsim", "repro.analysis", "repro.core.frame",
                     "repro.core.new_renderer", "repro.core.old_renderer")


def test_the_native_stack_loads_no_simulator():
    """Importing the native packages and rendering a frame through
    :func:`repro.open_pool` loads none of :data:`SIMULATOR_MODULES` (a
    fresh interpreter, so nothing the suite imported counts)."""
    code = (
        "import sys\n"
        "import repro, repro.parallel, repro.shard, repro.serve, repro.movie\n"
        "from repro.datasets import mri_brain\n"
        "from repro.render import ShearWarpRenderer\n"
        "from repro.volume import mri_transfer_function\n"
        "renderer = ShearWarpRenderer(mri_brain((16, 16, 12)),\n"
        "                             mri_transfer_function())\n"
        "with repro.open_pool(renderer, n_procs=1, backend='thread') as pool:\n"
        "    pool.render(renderer.view_from_angles(20, 30, 0))\n"
        "print(sorted(m for m in sys.modules\n"
        f"             if m.startswith({SIMULATOR_MODULES!r})))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip() == "[]"


#: Written once, in the core — a transport that re-defines one of these
#: has forked the frame lifecycle again.
LIFECYCLE = (
    "result", "render", "render_animation", "submit",
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


def test_one_config_class_with_seven_fields():
    """Every independently settable value of a pool is a ``PoolConfig``
    field; adding one is a decision, not a drive-by.  The feedback loop
    is the pool's own: no field sets a profile period or a stealing
    grain, the pool path plans without the simulator's ``ProfileSchedule``,
    and the one-shot helper and the capabilities struct those knobs
    needed are gone."""
    import repro

    assert len(fields(repro.PoolConfig)) == 7
    assert repro.__version__ == "10.0.0"
    with pytest.raises(AttributeError):
        repro.ShardConfig
    for name in ("render_frame", "BackendCapabilities"):
        with pytest.raises(AttributeError):
            getattr(repro, name)
    for name in ("poolcore.py", "mp_backend.py", "thread_backend.py"):
        assert "ProfileSchedule" not in _imported_modules(PARALLEL / name)
    assert "ProfileSchedule" not in _imported_modules(SRC / "shard" / "service.py")


def test_the_pools_do_not_steal():
    """The profile alone balances a banded frame: the core and both
    transports name no claim cursor, claim lock or steal loop — only
    the result's constant-0 ``steals`` / ``steal_rows`` fields, kept
    for their readers."""
    for name in ("poolcore.py", "mp_backend.py", "thread_backend.py"):
        tree = ast.parse((PARALLEL / name).read_text())
        names = set()
        for node in ast.walk(tree):
            for attr in ("id", "attr", "name", "arg"):
                if isinstance(getattr(node, attr, None), str):
                    names.add(getattr(node, attr))
        found = {n for n in names if re.search("steal|claim", n, re.I)}
        assert found <= {"steals", "steal_rows"}, (name, found)


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


def test_one_wire_format():
    """Image planes travel as raw sections after the JSON header and in
    no other way: the server and client import neither ``base64`` nor
    the base64 plane codec, which nothing under ``src/`` references
    outside its definitions in ``protocol.py`` (it stays for the
    benchmark's layer probe), and a server pings back its version."""
    import asyncio

    import repro
    from repro.serve import RenderClient, RenderServer

    codec = {"encode_plane", "decode_plane"}
    for name in ("server.py", "client.py"):
        assert not _imported_modules(SRC / "serve" / name) & (codec | {"base64"})
    refs, defs = [], []
    for path in sorted(SRC.rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.FunctionDef) and n.name in codec:
                defs.append(f"{path.relative_to(SRC)}:{n.name}")
            elif (isinstance(n, ast.Name) and n.id in codec
                  or isinstance(n, ast.Attribute) and n.attr in codec
                  or isinstance(n, ast.alias) and n.name in codec):
                refs.append(f"{path.relative_to(SRC)}:{n.lineno}")
    assert not refs
    assert sorted(defs) == ["serve/protocol.py:decode_plane",
                            "serve/protocol.py:encode_plane"]

    async def ping() -> dict:
        async with RenderServer() as server:
            client = await RenderClient.connect(*server.address)
            resp = await client.request({"op": "ping"})
            await client.close()
        return resp

    resp = asyncio.run(asyncio.wait_for(ping(), 30.0))
    assert resp["version"] == repro.__version__


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


def _defined_test_ids(tests: Path) -> set[str]:
    """``tests/<file>::<name>`` for every top-level class and function
    of the test tree, and ``::<Class>::<method>`` for every method."""
    ids: set[str] = set()
    for path in tests.glob("test_*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            ids.add(f"tests/{path.name}::{node.name}")
            if isinstance(node, ast.ClassDef):
                ids.update(f"tests/{path.name}::{node.name}::{m.name}"
                           for m in node.body if isinstance(m, ast.FunctionDef))
    return ids


def _cited_test_ids(text: str) -> list[str]:
    """Every ``tests/…py::…`` id a document cites in backticks, joined
    back together where a line break falls inside the backticks, with
    any ``[param]`` suffix dropped."""
    return [
        cited
        for _, span in re.findall(r"(`+)(.+?)\1", text, flags=re.DOTALL)
        for cited in re.findall(r"tests/test_\w+\.py(?:::\w+)+",
                                re.sub(r"\s+", "", span))
    ]


def test_cited_test_ids_exist():
    """A test id the docs cite names a test pytest can still run."""
    root = SRC.parents[1]
    known = _defined_test_ids(root / "tests")
    cited = {doc: _cited_test_ids((root / doc).read_text())
             for doc in ("README.md", "DESIGN.md")}
    assert all(cited.values())
    assert not [f"{doc}: {c}" for doc, ids in cited.items()
                for c in ids if c not in known]
