"""The 2-D warp phase: intermediate (sheared) image -> final image.

The warp is the residual affine transform of the factorization, applied
by inverse mapping with bilinear interpolation: each final-image pixel
samples four intermediate-image pixels.  The unit of work is one final
image scanline segment; the old parallel algorithm tiles the final image
(``warp_tile``), the new one restricts each processor to the final
pixels whose samples come from its own intermediate-image partition
(``line_owner``/``pid``).
"""

from __future__ import annotations

import numpy as np

from ..transforms.factorization import ShearWarpFactorization
from .image import FinalImage, IntermediateImage
from .instrument import Region, TraceSink, WorkCounters

__all__ = [
    "warp_coeffs",
    "warp_scanline",
    "warp_rows",
    "warp_tile",
    "warp_frame",
    "final_pixel_source_lines",
    "pixel_source_rows",
    "warp_rows_by_pid",
]


def _inverse_coeffs(fact: ShearWarpFactorization) -> tuple[np.ndarray, np.ndarray]:
    a_inv = np.linalg.inv(fact.warp[:2, :2])
    b = fact.warp[:2, 2]
    return a_inv, b


def warp_coeffs(fact: ShearWarpFactorization) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-mapping coefficients ``(a_inv, b)`` of the residual warp.

    Constant for a whole frame.  Every warp entry point accepts the pair
    through its ``coeffs`` kwarg; callers that warp scanline-by-scanline
    (the parallel renderers) compute it once per frame instead of paying
    a 2x2 ``np.linalg.inv`` per final-image row.
    """
    return _inverse_coeffs(fact)


def _inverse_map(
    ys: np.ndarray,
    nx: int,
    intermediate_shape: tuple[int, int],
    coeffs: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source coordinates ``(u, v)`` and validity of final rows ``ys``.

    :func:`warp_scanline`'s inverse-mapping arithmetic with ``dy``
    broadcast over the row axis; all three results have shape
    ``(len(ys), nx)``.  The elementwise IEEE operations are
    value-identical under broadcasting, so row ``i`` holds bit for bit
    what ``warp_scanline(final, ys[i], ...)`` computes — the two MUST
    stay in lockstep.
    """
    n_v, n_u = intermediate_shape
    a_inv, b = coeffs
    dx = np.arange(0, nx, dtype=np.float64)[None, :] - b[0]
    dy = np.asarray(ys, dtype=np.float64)[:, None] - b[1]
    u = a_inv[0, 0] * dx + a_inv[0, 1] * dy
    v = a_inv[1, 0] * dx + a_inv[1, 1] * dy
    valid = (u >= 0.0) & (u <= n_u - 1) & (v >= 0.0) & (v <= n_v - 1)
    return u, v, valid


def warp_scanline(
    final: FinalImage,
    y: int,
    img: IntermediateImage,
    fact: ShearWarpFactorization,
    x_lo: int = 0,
    x_hi: int | None = None,
    line_owner: np.ndarray | None = None,
    pid: int | None = None,
    counters: WorkCounters | None = None,
    trace: TraceSink | None = None,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Warp final-image row ``y`` (columns ``[x_lo, x_hi)``).

    When ``line_owner``/``pid`` are given (new algorithm), only the
    pixels whose *source scanline pair* is owned by processor ``pid``
    are written — this is how write-sharing on the final image is
    eliminated without synchronization.  ``coeffs`` is the frame's
    precomputed :func:`warp_coeffs` pair (derived from ``fact`` when
    omitted).  Returns the number of final pixels written.
    """
    if x_hi is None:
        x_hi = final.nx
    if x_hi <= x_lo:
        return 0
    a_inv, b = coeffs if coeffs is not None else _inverse_coeffs(fact)
    xs = np.arange(x_lo, x_hi, dtype=np.float64)
    dx = xs - b[0]
    dy = float(y) - b[1]
    u = a_inv[0, 0] * dx + a_inv[0, 1] * dy
    v = a_inv[1, 0] * dx + a_inv[1, 1] * dy

    n_v, n_u = img.shape
    valid = (u >= 0.0) & (u <= n_u - 1) & (v >= 0.0) & (v <= n_v - 1)
    if counters is not None:
        counters.loop_iters += 1
    if line_owner is not None:
        v0_all = np.clip(np.floor(v).astype(np.intp), 0, n_v - 1)
        owned = np.zeros_like(valid)
        owned[valid] = line_owner[v0_all[valid]] == pid
        valid &= owned
    if not np.any(valid):
        return 0

    uu = u[valid]
    vv = v[valid]
    u0 = np.floor(uu).astype(np.intp)
    v0 = np.floor(vv).astype(np.intp)
    fu = (uu - u0).astype(np.float32)
    fv = (vv - v0).astype(np.float32)
    u1 = np.minimum(u0 + 1, n_u - 1)
    v1 = np.minimum(v0 + 1, n_v - 1)

    c = img.color
    a = img.opacity
    w00 = (1 - fu) * (1 - fv)
    w10 = fu * (1 - fv)
    w01 = (1 - fu) * fv
    w11 = fu * fv
    col = w00 * c[v0, u0] + w10 * c[v0, u1] + w01 * c[v1, u0] + w11 * c[v1, u1]
    alp = w00 * a[v0, u0] + w10 * a[v0, u1] + w01 * a[v1, u0] + w11 * a[v1, u1]

    xi = np.nonzero(valid)[0] + x_lo
    final.color[y, xi] = col
    final.alpha[y, xi] = alp
    n = len(xi)
    if counters is not None:
        counters.warp_pixels += n

    if trace is not None:
        # Reads group into constant-v0 segments (v varies slowly along x).
        order = np.argsort(v0, kind="stable")
        v0s = v0[order]
        u0s = u0[order]
        seg_breaks = np.nonzero(np.diff(v0s))[0] + 1
        starts = np.concatenate(([0], seg_breaks))
        ends = np.concatenate((seg_breaks, [len(v0s)]))
        for s, e in zip(starts, ends):
            row = int(v0s[s])
            lo = int(u0s[s:e].min())
            hi = int(u0s[s:e].max()) + 2
            hi = min(hi, n_u)
            for r in (row, min(row + 1, n_v - 1)):
                start, nbytes = img.pixel_byte_range(r, lo, hi)
                trace.access(Region.INTERMEDIATE, start, nbytes)
        start, nbytes = final.pixel_byte_range(y, int(xi[0]), int(xi[-1]) + 1)
        trace.access(Region.FINAL, start, nbytes, write=True)
    return n


def warp_rows(
    final: FinalImage,
    rows: np.ndarray,
    img: IntermediateImage,
    fact: ShearWarpFactorization,
    line_owner: np.ndarray | None = None,
    pid: int | None = None,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Warp the final-image rows ``rows`` (full width) in one gather.

    This is :func:`warp_scanline`'s inverse-map / ownership / bilinear
    arithmetic evaluated for all of ``rows`` at once, so the result is
    **bit-identical** to looping ``warp_scanline`` over ``rows`` —
    without the per-row Python call.  It is the one vectorized warp: a
    pool worker passes the rows its partition can contribute to plus
    ``line_owner``/``pid`` (pixels whose source scanline another worker
    owns are left untouched), and
    :func:`repro.render.fast.warp_frame_fast` is the all-rows, no-owner
    call.  Returns the number of final pixels written.
    """
    # Sorted and de-duplicated, so the row-major order of the boolean
    # selections below is the order of the scatter mask.
    rows = np.unique(np.asarray(rows, dtype=np.intp))
    if rows.size == 0:
        return 0
    n_v, n_u = img.shape
    u, v, valid = _inverse_map(
        rows, final.nx, img.shape,
        coeffs if coeffs is not None else _inverse_coeffs(fact),
    )
    if line_owner is not None:
        v0_all = np.clip(np.floor(v).astype(np.intp), 0, n_v - 1)
        valid &= line_owner[v0_all] == pid

    uu = u[valid]
    if uu.size == 0:
        return 0
    vv = v[valid]
    u0 = np.floor(uu).astype(np.intp)
    v0 = np.floor(vv).astype(np.intp)
    # Demote the float64 source coordinates *before* forming the
    # weights: a float64 weight would promote the float32 gather below
    # and round differently from the reference warp.
    fu = (uu - u0).astype(np.float32)
    fv = (vv - v0).astype(np.float32)
    u1 = np.minimum(u0 + 1, n_u - 1)
    v1 = np.minimum(v0 + 1, n_v - 1)
    w00 = (1 - fu) * (1 - fv)
    w10 = fu * (1 - fv)
    w01 = (1 - fu) * fv
    w11 = fu * fv
    mask = np.zeros(final.shape, dtype=bool)
    mask[rows] = valid
    for src, dst in ((img.color, final.color), (img.opacity, final.alpha)):
        dst[mask] = (w00 * src[v0, u0] + w10 * src[v0, u1]
                     + w01 * src[v1, u0] + w11 * src[v1, u1])
    return int(uu.size)


def warp_tile(
    final: FinalImage,
    y0: int,
    y1: int,
    x0: int,
    x1: int,
    img: IntermediateImage,
    fact: ShearWarpFactorization,
    counters: WorkCounters | None = None,
    trace: TraceSink | None = None,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> int:
    """Warp a rectangular tile of the final image (old algorithm's task)."""
    if coeffs is None:
        coeffs = _inverse_coeffs(fact)
    n = 0
    for y in range(y0, min(y1, final.ny)):
        n += warp_scanline(final, y, img, fact, x0, min(x1, final.nx),
                           counters=counters, trace=trace, coeffs=coeffs)
    return n


def warp_frame(
    final: FinalImage,
    img: IntermediateImage,
    fact: ShearWarpFactorization,
    counters: WorkCounters | None = None,
    trace: TraceSink | None = None,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> FinalImage:
    """Serially warp the whole final image."""
    if coeffs is None:
        coeffs = _inverse_coeffs(fact)
    for y in range(final.ny):
        warp_scanline(final, y, img, fact, counters=counters, trace=trace,
                      coeffs=coeffs)
    return final


def final_pixel_source_lines(
    final_shape: tuple[int, int],
    fact: ShearWarpFactorization,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """For each final row ``y``, the (min, max) intermediate scanline sampled.

    Used by the new algorithm to find, cheaply, which final rows a
    processor's intermediate partition can contribute to.  Vectorized
    over rows; bit-equal to evaluating the two warped corners per row.
    """
    ny, nx = final_shape
    a_inv, b = coeffs if coeffs is not None else _inverse_coeffs(fact)
    corners_x = np.array([0.0, nx - 1.0])
    ys = np.arange(ny, dtype=np.float64)
    v = a_inv[1, 0] * (corners_x[None, :] - b[0]) + a_inv[1, 1] * (ys[:, None] - b[1])
    out = np.empty((ny, 2), dtype=np.int64)
    out[:, 0] = np.floor(v.min(axis=1)).astype(np.int64)
    out[:, 1] = np.floor(v.max(axis=1)).astype(np.int64) + 1
    return out


def pixel_source_rows(
    final_shape: tuple[int, int],
    intermediate_shape: tuple[int, int],
    fact: ShearWarpFactorization,
    coeffs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per final pixel: its source scanline ``v0`` and validity mask.

    ``v0 = clip(floor(v), 0, n_v - 1)`` over the shared inverse map, so
    ``v0[y, x]`` is bit-for-bit the scanline the warp looks up for
    pixel ``(y, x)``: the shard merge tree uses this map to decide which
    pool's framebuffer owns each final pixel (``line_owner[v0]`` is
    exactly the ownership test the warp applies).

    Returns ``(v0, valid)``, both of shape ``final_shape``; ``v0`` is
    meaningful only where ``valid`` is True (invalid pixels are never
    written by any warp and stay zero in every framebuffer).
    """
    ny, nx = final_shape
    _, v, valid = _inverse_map(
        np.arange(ny), nx, intermediate_shape,
        coeffs if coeffs is not None else _inverse_coeffs(fact),
    )
    v0 = np.clip(np.floor(v).astype(np.intp), 0, intermediate_shape[0] - 1)
    return v0, valid


def warp_rows_by_pid(
    src_lines: np.ndarray, owner: np.ndarray, n_procs: int
) -> list[np.ndarray]:
    """Final rows each processor must warp, from source-line ownership.

    Row ``y`` belongs to processor ``p`` iff the intermediate-scanline
    window ``src_lines[y]`` (clipped to the image) contains at least one
    scanline ``owner`` assigns to ``p`` — the same membership the
    per-row ``np.unique`` loop computes, evaluated for all rows at once
    with a per-processor ownership prefix count (O(n_v·P + ny·P) instead
    of O(ny · window · log)).
    """
    n_v = len(owner)
    vmin = np.clip(src_lines[:, 0], 0, n_v - 1)
    vmax = np.clip(src_lines[:, 1], vmin + 1, n_v)
    onehot = owner[:, None] == np.arange(n_procs)
    pref = np.zeros((n_v + 1, n_procs), dtype=np.int64)
    pref[1:] = np.cumsum(onehot, axis=0)
    hit = (pref[vmax] - pref[vmin]) > 0
    return [np.nonzero(hit[:, p])[0].astype(np.int64) for p in range(n_procs)]
