"""The paper's contribution: old vs new parallel shear-warp partitioning.

The partitioning and profiling modules are shared with the native pools
and load with the package.  The simulator's instrumented renderers
(``frame``, ``new_renderer``, ``old_renderer``) load on first use of one
of their names (PEP 562), so a native pool never imports them.
"""

import importlib

from .partition import (
    contiguous_partition,
    interleaved_chunks,
    line_ownership,
    partition_sizes,
    round_robin_tiles,
    uniform_contiguous_partition,
)
from .profiling import (
    PROFILING_OVERHEAD,
    ProfileSchedule,
    ScanlineProfile,
    scanline_cost,
)

#: The simulator's names, by the submodule that defines them.
_LAZY = {
    "COMPOSITE": "frame",
    "WARP": "frame",
    "ParallelFrame": "frame",
    "TaskRecord": "frame",
    "DEFAULT_STEAL_CHUNK": "new_renderer",
    "NewParallelShearWarp": "new_renderer",
    "DEFAULT_CHUNK": "old_renderer",
    "DEFAULT_TILE": "old_renderer",
    "OldParallelShearWarp": "old_renderer",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "COMPOSITE",
    "WARP",
    "ParallelFrame",
    "TaskRecord",
    "DEFAULT_STEAL_CHUNK",
    "NewParallelShearWarp",
    "DEFAULT_CHUNK",
    "DEFAULT_TILE",
    "OldParallelShearWarp",
    "contiguous_partition",
    "interleaved_chunks",
    "line_ownership",
    "partition_sizes",
    "round_robin_tiles",
    "uniform_contiguous_partition",
    "PROFILING_OVERHEAD",
    "ProfileSchedule",
    "ScanlineProfile",
    "scanline_cost",
]
