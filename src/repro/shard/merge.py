"""Distributed-framebuffer pieces of the shard layer.

The shard service splits the *intermediate* image into contiguous
scanline shards, but the image that must come back together is the
*final* one.  Following the Distributed FrameBuffer design (Usher et
al.), ownership and computation are decoupled through an explicit map:
:class:`TileOwnershipMap` assigns every final pixel to the shard that
owns its source scanline — evaluated with the exact inverse-warp
arithmetic of :func:`repro.render.warp.warp_scanline`
(:func:`~repro.render.warp.pixel_source_rows`), so the map agrees
bit-for-bit with what each shard's warp actually wrote.

The parent loads each shard's frame into that shard's
:class:`ShardFramebuffer` (plain arrays: the merge runs in the parent
alone, so no other process ever maps them), and :func:`merge_schedule`
arranges the shards into a sort-last binary merge tree: ``ceil(log2(n))`` rounds of pairwise
masked copies, where the mask of a merge step is "pixels owned by the
source's subtree".  Because pixel ownership is a partition (every
valid pixel has exactly one owner, background pixels have none and are
zero in every framebuffer), the merged root is bit-identical to a
single-pool render no matter how many shards participated — including
when a shard degraded to a serial full-frame render, whose extra
pixels are simply never selected by any mask.
"""

from __future__ import annotations

import numpy as np

from ..render.image import FinalImage
from ..render.warp import pixel_source_rows, warp_coeffs

__all__ = [
    "TileOwnershipMap",
    "ShardFramebuffer",
    "merge_schedule",
    "merge_framebuffers",
]


class TileOwnershipMap:
    """Owner shard of every final pixel, for one frame's factorization.

    ``pixel_owner[y, x]`` is the shard whose warp wrote final pixel
    ``(y, x)`` — ``shard_owner[v0]`` for the pixel's source scanline
    ``v0``, or ``-1`` for background pixels the warp never touches.
    The shard ids along a scanline are monotone (the warp is affine),
    so the map is effectively a tiling of the final image by the shard
    boundaries, warped into final-image space.
    """

    def __init__(self, fact, shard_owner: np.ndarray) -> None:
        ny, nx = fact.final_shape
        v0, valid = pixel_source_rows(
            (ny, nx), fact.intermediate_shape, fact, coeffs=warp_coeffs(fact)
        )
        owner = np.asarray(shard_owner, dtype=np.int64)
        self.pixel_owner = np.where(valid, owner[v0], -1)
        self.n_shards = int(owner.max()) + 1 if len(owner) else 1

    def subtree_mask(self, lo: int, hi: int) -> np.ndarray:
        """Pixels owned by shards ``[lo, hi)`` (one merge step's mask)."""
        return (self.pixel_owner >= lo) & (self.pixel_owner < hi)


class ShardFramebuffer:
    """One shard's final-image planes, sized to the pool's capacity.

    Private arrays in the parent, where the merge tree runs.  The buffer
    is allocated once at the capacity shape and reused across frames
    through ``[:ny, :nx]`` views; ``load`` overwrites the full active
    region, so stale pixels from an earlier (larger) frame can never
    leak into a merge.
    """

    def __init__(self, cap_shape: tuple[int, int]) -> None:
        self.cap_shape = cap_shape
        self.color = np.zeros(cap_shape, dtype=np.float32)
        self.alpha = np.zeros(cap_shape, dtype=np.float32)

    def load(self, final: FinalImage) -> None:
        """Copy one frame's planes into the active region."""
        ny, nx = final.color.shape
        self.color[:ny, :nx] = final.color
        self.alpha[:ny, :nx] = final.alpha

    def close(self) -> None:
        """Drop the planes (safe to call twice)."""
        self.color = self.alpha = None


def merge_schedule(n_shards: int) -> list[list[tuple[int, int, int]]]:
    """Sort-last binary merge tree over ``n_shards`` framebuffers.

    Returns rounds of ``(dst, src, src_span)`` steps: in each round,
    shard ``src``'s subtree — the ``src_span`` shards ``[src, src +
    src_span)`` it has already absorbed — is merged into shard ``dst``.
    Steps within a round touch disjoint framebuffers (they could run
    concurrently); after the last round shard 0 holds every shard's
    owned pixels.  ``ceil(log2(n))`` rounds, ``n - 1`` merges total.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    rounds: list[list[tuple[int, int, int]]] = []
    span = 1
    while span < n_shards:
        steps = []
        for dst in range(0, n_shards, 2 * span):
            src = dst + span
            if src < n_shards:
                steps.append((dst, src, min(span, n_shards - src)))
        rounds.append(steps)
        span *= 2
    return rounds


def merge_framebuffers(
    fbs: list[ShardFramebuffer],
    tile_map: TileOwnershipMap,
    final_shape: tuple[int, int],
) -> tuple[FinalImage, int]:
    """Run the merge tree; return the merged image and the merge count.

    Each step copies exactly the source subtree's *owned* pixels
    (``np.copyto(..., where=mask)``), so a destination framebuffer
    accumulates the union of its subtree's disjoint pixel sets and
    nothing else — shard 0's buffer ends up with every owned pixel's
    bit-exact value and zeros on the (never-owned) background.
    """
    ny, nx = final_shape
    merges = 0
    for rnd in merge_schedule(len(fbs)):
        for dst, src, src_span in rnd:
            mask = tile_map.subtree_mask(src, src + src_span)
            np.copyto(fbs[dst].color[:ny, :nx], fbs[src].color[:ny, :nx],
                      where=mask)
            np.copyto(fbs[dst].alpha[:ny, :nx], fbs[src].alpha[:ny, :nx],
                      where=mask)
            merges += 1
    out = FinalImage.over(fbs[0].color[:ny, :nx].copy(),
                          fbs[0].alpha[:ny, :nx].copy())
    return out, merges
