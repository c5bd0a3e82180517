"""Sharded multi-pool rendering: distributed framebuffer + merge tree.

The pools of :mod:`repro.parallel` scale the renderer *within* one
worker pool; this package scales it *across* pools.  The intermediate
image is split into contiguous scanline shards, each shard rendered by
its own pool (process- or thread-backed, all cloned from one
:class:`~repro.parallel.poolcore.PoolConfig` and independently
supervised), and the final image reassembled through an
explicit pixel-ownership map and a sort-last binary merge tree — with
the shard boundaries themselves re-balanced by the paper's profile
feedback loop run one level up, by the pools' own planner.  Bit-identity
with the single-pool renderer, at every shard count, is the contract.
"""

from .merge import (
    ShardFramebuffer,
    TileOwnershipMap,
    merge_framebuffers,
    merge_schedule,
)
from .service import ShardedRenderService

__all__ = [
    "ShardedRenderService",
    "ShardFramebuffer",
    "TileOwnershipMap",
    "merge_framebuffers",
    "merge_schedule",
]
