"""Low-rank compression and recompression primitives.

TLR compression truncates the SVD of a tile at an *absolute* Frobenius
threshold (the caller derives it from the global matrix norm and the
target accuracy, e.g. ``1e-8`` as in the paper).  Recompression after
low-rank additions uses the standard QR-of-stacked-factors + small SVD
scheme, which is what HiCMA does inside the TLR Cholesky update.

The MLE hot loop's assembly compresses through
:func:`compress_or_rank` / :func:`compress_many`, which never build
truncated factors for tiles whose rank exceeds the cap and take a *warm
rank hint* from the previous optimizer iteration (values-only SVD
early-out for tiles known to be over-cap).

All factor arithmetic here runs in float64; storage precision is
applied by the caller when wrapping results into tiles.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CompressionError
from .precision import Precision
from .tile import DenseTile, LowRankTile

__all__ = [
    "truncated_svd",
    "frobenius_rank",
    "compress_block",
    "compress_many",
    "compress_or_rank",
    "compress_tile",
    "recompress",
    "rank_of_block",
]


def frobenius_rank(s: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """Numerical rank at absolute Frobenius tolerance ``tol`` from a
    (descending) singular-value vector.

    Returns ``(rank, tail)`` with ``tail[k] = ||s[k:]||_2``; the rank is
    the smallest ``k`` with ``tail[k] <= tol`` (``len(s)`` when none).
    Shared by every truncation decision in this module so the cutoff
    arithmetic cannot drift between code paths.
    """
    tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    admissible = np.nonzero(tail <= tol)[0]
    rank = int(admissible[0]) if admissible.size else len(s)
    return rank, tail


def truncated_svd(
    a: np.ndarray, tol: float, max_rank: int | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Rank-truncated SVD ``a ~= u @ v.T`` with Frobenius error <= tol.

    Returns ``(u, v, err)`` where ``err`` is the achieved Frobenius
    error (the L2 norm of the dropped singular values).  The rank is the
    smallest ``k`` with ``sqrt(sum_{i>k} s_i^2) <= tol``; rank 0 is
    returned for tiles that are zero to within ``tol``.

    Raises :class:`~repro.exceptions.CompressionError` when ``max_rank``
    would be exceeded.
    """
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    uu, s, vt = np.linalg.svd(a, full_matrices=False)
    rank, tail = frobenius_rank(s, tol)
    if max_rank is not None and rank > max_rank:
        raise CompressionError(
            f"tolerance {tol:g} needs rank {rank} > max_rank {max_rank} "
            f"for a {m}x{n} block"
        )
    err = float(tail[rank]) if rank < len(s) else 0.0
    u = uu[:, :rank] * s[:rank]
    v = vt[:rank, :].T
    return u, v, err


def rank_of_block(a: np.ndarray, tol: float) -> int:
    """Numerical rank of ``a`` at absolute Frobenius tolerance ``tol``
    (without forming factors)."""
    s = np.linalg.svd(np.asarray(a, dtype=np.float64), compute_uv=False)
    return frobenius_rank(s, tol)[0]


def compress_or_rank(
    a: np.ndarray,
    tol: float,
    *,
    max_rank: int | None = None,
    hint: int | None = None,
) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """Compress one assembly tile, or report its rank when over the cap.

    Returns ``(rank, u, v)``; ``u``/``v`` are ``None`` when
    ``rank > max_rank`` — over-cap tiles never build truncated factors.
    The factors are bit-identical to :func:`truncated_svd`'s.  A warm
    ``hint`` (the tile's rank at the previous optimizer iterate)
    enables a values-only SVD early-out for tiles expected to stay
    over the cap.
    """
    a = np.asarray(a, dtype=np.float64)
    cap = min(a.shape) if max_rank is None else min(int(max_rank), min(a.shape))
    if hint is not None and hint > cap:
        # Expected over-cap: values-only SVD (no U/V work), exact rank.
        s = np.linalg.svd(a, compute_uv=False)
        rank, _ = frobenius_rank(s, tol)
        if rank > cap:
            return rank, None, None
        # Stale hint — fall through and build factors.
    uu, s, vt = np.linalg.svd(a, full_matrices=False)
    rank, _ = frobenius_rank(s, tol)
    if rank > cap:
        return rank, None, None
    u = uu[:, :rank] * s[:rank]
    v = vt[:rank, :].T
    return rank, u, v


def compress_many(
    blocks: "dict[tuple[int, int], np.ndarray]",
    keys: "list[tuple[int, int]]",
    tol: float,
    *,
    max_rank: int | None = None,
    hints: "dict[tuple[int, int], int] | None" = None,
) -> "dict[tuple[int, int], tuple[int, np.ndarray | None, np.ndarray | None]]":
    """Batched :func:`compress_or_rank` over many assembly tiles.

    Tiles are grouped by shape and the per-tile numpy calls become
    stacked ones — one gufunc SVD per group instead of a Python-level
    call per tile.  Every stacked slice runs the same LAPACK routine on
    the same operand as the per-tile path, so results are bit-identical
    to calling :func:`compress_or_rank` tile by tile (pinned in tests).
    """
    out: dict = {}
    if not keys:
        return out

    def _cap(shape) -> int:
        mn = min(shape)
        return mn if max_rank is None else min(int(max_rank), mn)

    values_only: dict = {}
    exact: dict = {}
    for key in keys:
        shape = blocks[key].shape
        hint = None if hints is None else hints.get(key)
        if hint is not None and hint > _cap(shape):
            values_only.setdefault(shape, []).append(key)
        else:
            exact.setdefault(shape, []).append(key)

    # Expected over-cap: stacked values-only SVD, no U/V work.  Tiles
    # whose hint proves stale fall through to the exact group, exactly
    # like the per-tile path.
    for shape, group in values_only.items():
        stack = np.stack(
            [np.asarray(blocks[key], dtype=np.float64) for key in group]
        )
        svals = np.linalg.svd(stack, compute_uv=False)
        cap = _cap(shape)
        for key, s in zip(group, svals):
            rank, _ = frobenius_rank(s, tol)
            if rank > cap:
                out[key] = (rank, None, None)
            else:
                exact.setdefault(shape, []).append(key)

    # Exact truncated SVD, one stacked gesdd per shape.
    for shape, group in exact.items():
        cap = _cap(shape)
        astack = np.stack(
            [np.asarray(blocks[key], dtype=np.float64) for key in group]
        )
        uu, s, vt = np.linalg.svd(astack, full_matrices=False)
        for p, key in enumerate(group):
            rank, _ = frobenius_rank(s[p], tol)
            if rank > cap:
                out[key] = (rank, None, None)
            else:
                out[key] = (
                    rank,
                    uu[p][:, :rank] * s[p][:rank],
                    vt[p][:rank, :].T,
                )
    return out


def compress_block(
    a: np.ndarray,
    tol: float,
    max_rank: int | None = None,
    precision: Precision = Precision.FP64,
) -> LowRankTile:
    """Compress a dense float block into a :class:`LowRankTile`."""
    u, v, _ = truncated_svd(a, tol, max_rank)
    return LowRankTile(u, v, precision)


def compress_tile(
    tile: DenseTile,
    tol: float,
    max_rank: int | None = None,
    precision: Precision | None = None,
) -> LowRankTile:
    """Compress a :class:`DenseTile`, defaulting to its precision."""
    return compress_block(
        tile.to_dense64(), tol, max_rank, precision or tile.precision
    )


def recompress(
    u: np.ndarray, v: np.ndarray, tol: float, max_rank: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Re-truncate an existing factorization ``u @ v.T`` to ``tol``.

    Uses thin QR of each factor followed by an SVD of the small
    ``k x k`` core, so the cost is ``O((m + n) k^2 + k^3)`` rather than
    a full-tile SVD.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    k = u.shape[1]
    if k == 0:
        return u, v
    qu, ru = np.linalg.qr(u)
    qv, rv = np.linalg.qr(v)
    core = ru @ rv.T
    cu, s, cvt = np.linalg.svd(core)
    rank, _ = frobenius_rank(s, tol)
    if max_rank is not None and rank > max_rank:
        raise CompressionError(
            f"recompression to tolerance {tol:g} needs rank {rank} > {max_rank}"
        )
    new_u = qu @ (cu[:, :rank] * s[:rank])
    new_v = qv @ cvt[:rank, :].T
    return new_u, new_v

