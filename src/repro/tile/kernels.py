"""Numerical tile kernels: POTRF, TRSM, SYRK, GEMM.

These are the four kernels of Algorithm 1, each accepting dense or
low-rank operands in any storage precision.  Precision semantics follow
the paper's "precision-lead operand" convention: the kernel computes in
the arithmetic dtype derived from the *output* tile's storage precision
(:func:`repro.tile.precision.compute_dtype`), converting the other
operands on the fly — exactly what PaRSEC does with its on-demand data
conversions.  FP16-lead kernels accumulate in FP32 (emulated SHGEMM)
unless the caller asks for pure HGEMM.

Low-rank arithmetic (updates into a float64 output, compression)
always runs in float64; its *storage* honors the tile's precision.
That mirrors the implementation reality that compression kernels are
FP64/FP32 only (Algorithm 2).  An operand's factors are read where
they are stored (cast only when they are not float64 already); every
array a kernel puts into a new tile is a fresh one, so no tile aliases
another's storage.

Every GEMM output computed in float64 — a settled dense FP64 tile, or
a planned-low-rank tile — takes one update formula whatever its
operands are: ``C - (A V_B) U_B^T`` when ``B`` is low-rank, ``C - A
B^T`` when it is dense, with ``A`` read as its float64 dense block.
The formula depends on the operands' structure only through the
shared ``B`` of a column, which is what lets the panel sweep run a
whole column's updates as one stacked call.

A low-rank tile is updated by *accumulate exactly, truncate once*: a
planned covariance hands every planned-low-rank tile over as its exact
float64 block already accumulating (:mod:`repro.tile.assembly`);
:func:`gemm` subtracts every update there (a low-rank tile a matrix
was built with turns into such an accumulator at its first update),
and :func:`trsm` — the one kernel that next reads the tile as an
operand — truncates it to the tolerance it owes through
:func:`settle`, i.e.
:func:`~repro.tile.compression.compress_or_rank` (a certified
range-finder where the rank cap is well under the tile size, the exact
SVD elsewhere; DESIGN.md "Low-rank updates").  The settled tile is a
function of the accumulator and what it owes, nothing else.  The
accumulating state rides on the tile
(:attr:`~repro.tile.tile.Tile.owed`), so no kernel signature knows
about it.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from ..exceptions import NotPositiveDefiniteError, ShapeError
from .compression import compress_or_rank
from .precision import compute_dtype
from .tile import DenseTile, LowRankTile, Tile

__all__ = ["potrf", "trsm", "syrk", "gemm", "settle"]

# Raw LAPACK ``trtrs`` handles per supported compute dtype: the wrapper
# overhead of ``solve_triangular`` (finiteness checks, copies) is
# measurable at tile granularity, and ``trtrs`` is the same routine the
# wrapper ends up calling — identical bits, less Python.
_TRTRS = {
    np.dtype(np.float64): sla.get_lapack_funcs(
        ("trtrs",), (np.empty(0, dtype=np.float64),)
    )[0],
    np.dtype(np.float32): sla.get_lapack_funcs(
        ("trtrs",), (np.empty(0, dtype=np.float32),)
    )[0],
}


def _as_compute(tile_data: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Cast operand data to the kernel's compute dtype (a no-op when
    it already matches).

    The dense kernels hand it the stored payload itself, one cast per
    operand: widening is exact and ``f32 -> f64 -> f16`` rounds the
    same value as ``f32 -> f16``, so a detour through float64 would
    change no bit.  Results go back the same way — the compute-dtype
    array straight into :class:`DenseTile`, whose constructor narrows
    it through :func:`~repro.tile.precision.cast_storage`.
    """
    if tile_data.dtype == dtype:
        return tile_data
    return tile_data.astype(dtype)


_HGEMM_BLOCK = 8


def _matmul_emulated(a: np.ndarray, b: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``a @ b`` with accumulation emulated at ``dtype``.

    NumPy silently promotes float16 matrix products to float32
    accumulation (it routes through SGEMM), so a *pure HGEMM* — the
    mode the paper deems numerically insufficient — must be emulated:
    operands are rounded to binary16 and the running sum is rounded
    back to binary16 every ``_HGEMM_BLOCK`` rank-1 updates, modeling
    the per-FMA rounding of genuine half-precision accumulators.
    """
    if dtype != np.float16:
        return _as_compute(a, dtype) @ _as_compute(b, dtype)
    a16 = _round16(a)
    b16 = _round16(b)
    k = a16.shape[1]
    acc = np.zeros((a16.shape[0], b16.shape[1]), dtype=np.float16)
    for start in range(0, k, _HGEMM_BLOCK):
        stop = min(start + _HGEMM_BLOCK, k)
        partial = _round16(
            _widen32(a16[:, start:stop]) @ _widen32(b16[start:stop, :])
        )
        acc = _round16(_widen32(acc) + _widen32(partial))
    return acc


def _round16(array: np.ndarray) -> np.ndarray:
    """Round into the emulated binary16 accumulator register — the one
    place a raw narrowing cast is the point."""
    return array.astype(np.float16)  # lint: ignore[LINT005]


def _widen32(array: np.ndarray) -> np.ndarray:
    """Binary16 operand promoted to the binary32 multiply unit."""
    return array.astype(np.float32)  # lint: ignore[LINT005]


def potrf(c: Tile, index: tuple[int, int] | None = None) -> DenseTile:
    """Cholesky of a diagonal tile: ``C -> L`` with ``C = L L^T``.

    The tile must be dense (diagonal tiles always are); computation in
    the tile's compute dtype, at least FP32.
    """
    if c.is_low_rank:
        raise ShapeError("POTRF requires a dense diagonal tile")
    dtype = compute_dtype(c.precision)
    data = _as_compute(c.data, dtype)
    try:
        low = np.linalg.cholesky(data)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"diagonal tile {index} is not positive definite: {exc}", index
        ) from exc
    return DenseTile(low, c.precision)


def trsm(
    l_tile: DenseTile,
    a: Tile,
    *,
    fp16_accumulate_fp32: bool = True,
) -> Tile:
    """Triangular solve ``A <- A @ L^{-T}`` with ``L`` lower triangular.

    Dense ``A``: direct solve.  Low-rank ``A = U V^T``: only the ``V``
    factor is touched (``A L^{-T} = U (L^{-1} V)^T``), which is the
    rank-wise TLR TRSM of HiCMA.  An accumulating ``A`` is first
    truncated to what it owes — its one truncation.
    """
    if l_tile.is_low_rank:
        raise ShapeError("the TRSM triangle must be dense")
    if a.owed is not None:
        a, _ = settle(a)
    if isinstance(a, LowRankTile):
        if a.rank == 0:
            return a
        low = l_tile.to_dense64()
        # The call ``solve_triangular(low, v, lower=True)`` makes for a
        # C-ordered triangle: the transposed (upper) system.
        if low.flags.f_contiguous:
            v, info = _TRTRS[low.dtype](low, _as_compute(a.v, np.float64),
                                        lower=1)
        else:
            v, info = _TRTRS[low.dtype](low.T, _as_compute(a.v, np.float64),
                                        lower=0, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"triangular solve failed (info={info})"
            )
        return LowRankTile(a.u.astype(np.float64), v, a.precision)
    dtype = compute_dtype(a.precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    low = _as_compute(l_tile.data, dtype)
    rhs = _as_compute(a.data, dtype)
    x = sla.solve_triangular(low, rhs.T, lower=True, check_finite=False).T
    return DenseTile(x, a.precision)


def syrk(
    a: Tile,
    c: DenseTile,
    *,
    fp16_accumulate_fp32: bool = True,
) -> DenseTile:
    """Symmetric rank-k update of a diagonal tile: ``C <- C - A A^T``."""
    if c.is_low_rank:
        raise ShapeError("SYRK output (diagonal tile) must be dense")
    dtype = compute_dtype(c.precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    cdat = _as_compute(c.data, dtype)
    if isinstance(a, LowRankTile):
        if a.rank == 0:
            return c
        u = _as_compute(a.u, dtype)
        v = _as_compute(a.v, dtype)
        w = v.T @ v
        update = (u @ w) @ u.T
    else:
        adat = _as_compute(a.data, dtype)
        update = adat @ adat.T
    return DenseTile(cdat - update, c.precision)


def _lr_update_factors(a: Tile, b: Tile) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(du, dv)`` with ``A @ B^T = du @ dv^T`` in float64,
    for a dense output computed below float64 that meets a low-rank
    operand (its own dtype takes the product).  Either may be an
    operand's own float64 factor: read them, never store them."""
    if isinstance(a, LowRankTile) and isinstance(b, LowRankTile):
        ua, va = _as_compute(a.u, np.float64), _as_compute(a.v, np.float64)
        ub, vb = _as_compute(b.u, np.float64), _as_compute(b.v, np.float64)
        if a.rank == 0 or b.rank == 0:
            m, n = a.shape[0], b.shape[0]
            return np.zeros((m, 0)), np.zeros((n, 0))
        core = va.T @ vb  # (ra, rb)
        if a.rank <= b.rank:
            return ua, ub @ core.T
        return ua @ core, ub
    if isinstance(a, LowRankTile):
        if a.rank == 0:
            return (
                np.zeros((a.shape[0], 0)),
                np.zeros((b.shape[0], 0)),
            )
        bdat = b.to_dense64()
        return _as_compute(a.u, np.float64), bdat @ _as_compute(a.v, np.float64)
    if isinstance(b, LowRankTile):
        if b.rank == 0:
            return (
                np.zeros((a.shape[0], 0)),
                np.zeros((b.shape[0], 0)),
            )
        adat = a.to_dense64()
        return adat @ _as_compute(b.v, np.float64), _as_compute(b.u, np.float64)
    raise ShapeError("at least one operand must be low-rank")  # pragma: no cover


def _update64(a: Tile, b: Tile) -> np.ndarray:
    """``A @ B^T`` for an output computed in float64: ``(A V_B) U_B^T``
    when ``B`` is low-rank, ``A B^T`` when it is dense, ``A`` read as
    its float64 dense block either way — the one formula the panel
    sweep stacks over a column (:func:`repro.tile.batch.stacked_gemm`)."""
    a64 = a.to_dense64()
    if isinstance(b, LowRankTile):
        return (a64 @ _as_compute(b.v, np.float64)) @ _as_compute(
            b.u, np.float64
        ).T
    return a64 @ b.to_dense64().T


def settle(tile: DenseTile) -> tuple[Tile, bool]:
    """Truncate an accumulating tile to the ``(tol, max_rank)`` it
    owes, in its planned storage precision, through
    :func:`~repro.tile.compression.compress_or_rank` — a function of
    the accumulator's bytes and what it owes, nothing else.  A tile
    that cannot get under ``max_rank`` stays dense — the runtime
    analogue of the structure-aware "convert back to dense" decision.

    Returns ``(tile, certified)``: ``certified`` says the certified
    range-finder produced the factors (``False`` for the exact SVD's,
    and for a tile kept dense).  :func:`trsm` settles an accumulating
    operand itself; the executors call this first where they tally how
    the settle compressed."""
    tol, max_rank = tile.owed
    _, u, v, certified = compress_or_rank(tile.data, tol, max_rank=max_rank)
    if u is None:
        return DenseTile(tile.to_dense64(), tile.precision), False
    return LowRankTile(u, v, tile.precision), certified


def gemm(
    a: Tile,
    b: Tile,
    c: Tile,
    *,
    tol: float = 0.0,
    max_rank: int | None = None,
    fp16_accumulate_fp32: bool = True,
) -> Tile:
    """Schur-complement update ``C <- C - A @ B^T``.

    Handles every structure combination.  An output computed in
    float64 — a dense FP64 ``C``, or a planned-low-rank one (already
    accumulating, or low-rank) — takes :func:`_update64`.  A
    planned-low-rank ``C`` is not recompressed here: it stays (or
    becomes) an exact dense float64 accumulator that *owes* one
    truncation to the absolute tolerance ``tol`` (the tile-level TLR
    threshold) and ``max_rank``, which :func:`trsm` performs when it
    next reads the tile.  A dense ``C`` computed below float64 keeps
    its own dtype's arithmetic: a low-rank operand's update factors
    are formed in float64 and multiplied in that dtype.
    """
    if c.is_low_rank or c.owed is not None:
        return DenseTile(
            c.to_dense64() - _update64(a, b), c.precision, (tol, max_rank)
        )
    dtype = compute_dtype(c.precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    cdat = _as_compute(c.data, dtype)
    if dtype == np.float64:
        update = _update64(a, b)
    elif a.is_low_rank or b.is_low_rank:
        du, dv = _lr_update_factors(a, b)
        update = _as_compute(du, dtype) @ _as_compute(dv, dtype).T
    else:
        update = _matmul_emulated(a.data, b.data.T, dtype)
    return DenseTile(cdat - update, c.precision)
