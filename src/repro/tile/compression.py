"""Low-rank compression and recompression primitives.

TLR compression truncates a tile at an *absolute* Frobenius threshold
(the caller derives it from the global matrix norm and the target
accuracy, e.g. ``1e-8`` as in the paper).  :func:`recompress` — the
QR-of-stacked-factors + small SVD scheme HiCMA runs inside every TLR
Cholesky update — has no product caller: the factorization subtracts
its updates into a dense float64 accumulator and settles that once
(:mod:`repro.tile.kernels`), so it stays as an exact test oracle.

The MLE hot loop compresses through :func:`compress_or_rank` — once
per planned-low-rank tile, when :func:`repro.tile.kernels.trsm`
settles its dense accumulator — and, for the few tiles whose rank a
planning decision reads, :func:`compress_or_rank` / :func:`compress_many`
at assembly.  A tile
whose rank cap is well under its size does not pay a full SVD there: a
*certified range-finder compression* sketches the tile's range with a
fixed Gaussian matrix, measures the projection residual explicitly and
runs the SVD on the narrow projected factor only.  Its result is kept
only with the certificate ``||A - u v^T||_F <= tol`` and
``rank <= cap`` in hand; any other tile runs the exact ``gesdd`` code
(values only first: a tile the sketch could not certify is almost
always over the cap, and over-cap tiles never build factors).  The
sketch's width is the cap plus :data:`SKETCH_PAD` — a function of the
tile's shape and cap alone — and its Gaussian matrix is seeded by the
column count, so the result is a pure function of ``(block, tol,
cap)``: rank hints, batching, workers, placement and evaluation
history change no bit of it.  A warm *rank hint* from the previous
optimizer iterate only skips the sketch for tiles expected over the
cap.

:func:`truncated_svd`, :func:`rank_of_block` and :func:`recompress`
are exact and are the oracle the certified ranks are tested against: a
certified rank is never below :func:`rank_of_block` at ``tol`` and
never above it at ``tol * sqrt(1 - RESIDUAL_SHARE)``.

All factor arithmetic here runs in float64; storage precision is
applied by the caller when wrapping results into tiles.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import lapack

from ..exceptions import CompressionError

__all__ = [
    "truncated_svd",
    "frobenius_rank",
    "compress_many",
    "compress_or_rank",
    "recompress",
    "rank_of_block",
]

#: Columns the range-finder sketch carries beyond the rank cap.
SKETCH_PAD = 4
#: Share of ``tol**2`` the sketch's projection residual may use; the
#: truncation of the projected factor gets the rest.  It bounds how far
#: a certified rank can sit above the SVD rank (module docstring).
RESIDUAL_SHARE = 1.0 / 16.0


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


def _rank_cap(shape: tuple[int, int], max_rank: int | None) -> int:
    return min(shape) if max_rank is None else min(int(max_rank), min(shape))


def _sketch_width(shape: tuple[int, int], cap: int) -> int:
    """Width of the range-finder sketch of a block with rank cap
    ``cap``; 0 where the sketch would be no narrower than the block
    (small tiles, a cap near the tile size) and the exact SVD runs."""
    width = cap + SKETCH_PAD
    return width if width < min(shape) else 0


@functools.lru_cache(maxsize=64)
def _sketch_matrix(n: int, width: int) -> np.ndarray:
    """The fixed Gaussian test matrix of blocks with ``n`` columns,
    transposed: the leading ``width`` rows of one stream seeded by
    ``n`` (``RandomState``: its stream is frozen across NumPy
    releases).  Read-only — every caller shares it."""
    omega_t = np.random.RandomState(n).standard_normal((width, n))
    omega_t.flags.writeable = False
    return omega_t


def _certified_compress(
    a: np.ndarray, tol: float, cap: int, width: int
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Range-finder compression of one 2-D float64 block: ``(rank, u,
    v)`` with ``||a - u v^T||_F <= tol`` and ``rank <= cap``, or
    ``None`` when that bound cannot be certified.

    ``Q`` is an orthonormal basis of ``a @ Omega`` (``width`` columns),
    ``B = Q^T a``.  Householder QR is nested, so the leading ``k``
    columns of ``Q`` are the basis of the width-``k`` sketch and its
    squared error is the measured ``||a - Q B||_F^2`` plus the squared
    norms of the rows of ``B`` past ``k``.  The narrowest ``k`` whose
    error stays inside ``RESIDUAL_SHARE * tol^2`` is kept, and the SVD
    of the ``k``-row factor is truncated at what is left of ``tol^2``.
    """
    m, n = a.shape
    y = (_sketch_matrix(n, width) @ a.T).T
    qr, tau, _, info = lapack.dgeqrf(y, overwrite_a=1)
    if info != 0:
        return None
    q, _, info = lapack.dorgqr(qr, tau, overwrite_a=1)
    if info != 0:
        return None
    b = q.T @ a
    resid = a - q @ b
    budget = RESIDUAL_SHARE * tol * tol
    err2 = float(np.vdot(resid, resid))
    if not err2 <= budget:  # also a NaN
        return None
    # shrunk[k]: squared error of the width-k sketch, k = 0 .. width - 1
    shrunk = np.cumsum(np.einsum("ij,ij->i", b, b)[::-1])[::-1] + err2
    k = width - int(np.searchsorted(shrunk[::-1], budget, side="right"))
    if k == 0:
        return 0, np.zeros((m, 0)), np.zeros((n, 0))
    if k < width:
        err2 = float(shrunk[k])
    # b[:k] = (vb * s) @ ub^T; gesdd on the tall b[:k]^T is LAPACK's QR
    # + SVD of the k x k triangle.
    vb, s, ubt, info = lapack.dgesdd(b[:k].T, full_matrices=0)
    if info != 0:
        return None
    rank, _ = frobenius_rank(s, np.sqrt(tol * tol - err2))
    if rank > cap:
        return None
    u = q[:, :k] @ (ubt[:rank].T * s[:rank])
    return rank, u, np.ascontiguousarray(vb[:, :rank])


def compress_or_rank(
    a: np.ndarray,
    tol: float,
    *,
    max_rank: int | None = None,
    hint: int | None = None,
) -> tuple[int, np.ndarray | None, np.ndarray | None, bool]:
    """Compress one tile to ``(tol, max_rank)``, or report its rank
    when over the cap.

    Returns ``(rank, u, v, certified)``; ``u``/``v`` are ``None`` when
    ``rank > max_rank`` — over-cap tiles never build truncated factors.
    ``certified`` says the factors are the range-finder compression's
    (module docstring); otherwise they are bit-identical to
    :func:`truncated_svd`'s.  The result does not depend on ``hint``
    (the tile's rank at the previous optimizer iterate), which only
    sends a tile expected over the cap straight to the values-only SVD.
    """
    a = np.asarray(a, dtype=np.float64)
    cap = _rank_cap(a.shape, max_rank)
    under_cap = False
    if hint is not None and hint > cap:
        # Expected over-cap: values-only SVD (no U/V work), exact rank.
        rank = rank_of_block(a, tol)
        if rank > cap:
            return rank, None, None, False
        under_cap = True  # stale hint
    width = _sketch_width(a.shape, cap)
    if width:
        sketched = _certified_compress(a, tol, cap, width)
        if sketched is not None:
            return (*sketched, True)
        if not under_cap:
            rank = rank_of_block(a, tol)
            if rank > cap:
                return rank, None, None, False
    uu, s, vt = np.linalg.svd(a, full_matrices=False)
    rank, _ = frobenius_rank(s, tol)
    if rank > cap:
        return rank, None, None, False
    u = uu[:, :rank] * s[:rank]
    v = vt[:rank, :].T
    return rank, u, v, False


def compress_many(
    blocks: "dict[tuple[int, int], np.ndarray]",
    keys: "list[tuple[int, int]]",
    tol: float,
    *,
    max_rank: int | None = None,
    hints: "dict[tuple[int, int], int] | None" = None,
) -> "dict[tuple[int, int], tuple[int, np.ndarray | None, np.ndarray | None, bool]]":
    """Batched :func:`compress_or_rank` over many assembly tiles.

    The exact SVDs are grouped by shape and become stacked ones — one
    gufunc SVD per group instead of a Python-level call per tile; every
    stacked slice runs the same LAPACK routine on the same operand as
    the per-tile path.  The range-finder compression runs per tile, on
    the same 2-D arithmetic.  Results are bit-identical to calling
    :func:`compress_or_rank` tile by tile (pinned in tests).
    """
    out: dict = {}

    def stack(group):
        return np.stack(
            [np.asarray(blocks[key], dtype=np.float64) for key in group]
        )

    def under_cap(groups) -> list:
        """Stacked values-only SVD (no U/V work) per shape: tiles over
        the cap go to ``out``, the others are returned."""
        kept = []
        for shape, group in groups.items():
            cap = _rank_cap(shape, max_rank)
            for key, s in zip(group, np.linalg.svd(stack(group), compute_uv=False)):
                rank, _ = frobenius_rank(s, tol)
                if rank > cap:
                    out[key] = (rank, None, None, False)
                else:
                    kept.append(key)
        return kept

    hinted_over: dict = {}
    unknown = []
    for key in keys:
        hint = None if hints is None else hints.get(key)
        if hint is not None and hint > _rank_cap(blocks[key].shape, max_rank):
            hinted_over.setdefault(blocks[key].shape, []).append(key)
        else:
            unknown.append(key)

    exact: dict = {}
    uncertified: dict = {}
    # A hinted tile that proved under the cap (a stale hint) joins the
    # others, already knowing what the values-only SVD would say.
    for known_under, group in ((False, unknown), (True, under_cap(hinted_over))):
        for key in group:
            a = np.asarray(blocks[key], dtype=np.float64)
            cap = _rank_cap(a.shape, max_rank)
            width = _sketch_width(a.shape, cap)
            sketched = _certified_compress(a, tol, cap, width) if width else None
            if sketched is not None:
                out[key] = (*sketched, True)
            elif width and not known_under:
                uncertified.setdefault(a.shape, []).append(key)
            else:
                exact.setdefault(a.shape, []).append(key)
    for key in under_cap(uncertified):
        exact.setdefault(blocks[key].shape, []).append(key)

    # Exact truncated SVD, one stacked gesdd per shape.
    for shape, group in exact.items():
        cap = _rank_cap(shape, max_rank)
        uu, s, vt = np.linalg.svd(stack(group), full_matrices=False)
        for p, key in enumerate(group):
            rank, _ = frobenius_rank(s[p], tol)
            if rank > cap:
                out[key] = (rank, None, None, False)
            else:
                out[key] = (
                    rank,
                    uu[p][:, :rank] * s[p][:rank],
                    vt[p][:rank, :].T,
                    False,
                )
    return out


def recompress(
    u: np.ndarray, v: np.ndarray, tol: float, max_rank: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Re-truncate an existing factorization ``u @ v.T`` to ``tol``
    (an exact oracle; no product path calls it).

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
