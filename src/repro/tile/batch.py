"""Stacked tile kernels: a column's tiles as one BLAS call.

The paper's single-node performance comes from dispatching *batches* of
same-shape tile kernels to vendor BLAS instead of one tiny call at a
time (the batched kernels of ExaGeoStat / HiCMA).  This module is the
numerical half of that design: ``stacked_trsm`` and ``stacked_gemm``
work on a column's tiles held as one contiguous ``(rows, m, n)``
array — the panel sweep's (:mod:`repro.runtime.batchdispatch`)
representation: operands are views, the result is one array (fresh,
or the updated stack itself), nothing is gathered.  A float64 stack may hold accumulating
planned-low-rank rows beside dense FP64 ones; a low-rank ``B`` updates
it as ``(A V_B) U_B^T``, the per-tile kernel's float64 formula.

Bit-identity contract
---------------------
Each stacked call is *slice-wise bit-identical* to the per-tile kernels
in :mod:`repro.tile.kernels`: a stacked GEMM gufunc calls the same BLAS
routine per 2-D slice, a multi-RHS triangular solve is
column-independent, and the operand casts commute with stacking
(``f64 -> f32`` on assignment equals ``astype``; ``f16 -> f64 -> f32``
equals ``f16 -> f32`` exactly).  The equivalence is pinned by
``tests/test_batched_kernels.py``.  Tiles whose lead compute dtype is
binary16 (the emulated pure-HGEMM mode) never ride a stack, and a
settle (a planned-low-rank row's truncation) is never stacked — the
sweep runs those through the per-tile kernels.  Every
narrowing to storage goes through
:func:`~repro.tile.precision.cast_storage`, so a value the storage
format cannot hold raises the per-tile kernels'
:class:`~repro.exceptions.NumericalCorruptionError` from here too.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from . import kernels as K
from .kernels import _TRTRS
from .precision import Precision, cast_storage, compute_dtype
from .tile import LowRankTile, Tile

__all__ = ["stacked_trsm", "stacked_gemm"]


def stacked_trsm(
    l_tile: Tile,
    stack: np.ndarray,
    precision: Precision,
    *,
    fp16_accumulate_fp32: bool = True,
) -> np.ndarray:
    """``X_p <- X_p L^-T`` for every slice of a run sharing one
    triangle: ``stack`` is the run's contiguous ``(rows, m, nk)``
    array at storage ``precision``; one wide ``trtrs`` against
    ``l_tile`` solves it, returned as a fresh stack of the same shape
    and precision.

    The per-tile kernel solves against ``rhs.T``, and the columns of a
    multi-RHS solve are independent: ``stack`` viewed as ``(rows * m,
    nk)`` and transposed *is* every slice's right-hand side side by
    side, and the Fortran-ordered solution transposed back *is* the
    output stack — no per-tile copy on either side.
    """
    dtype = compute_dtype(precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    rows, m, nk = stack.shape
    low = K._as_compute(l_tile.to_dense64(), dtype)
    wide = K._as_compute(stack.reshape(rows * m, nk).T, dtype)
    x, info = _TRTRS[dtype](low, wide, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return np.ascontiguousarray(cast_storage(x, precision).T).reshape(
        rows, m, nk
    )


def stacked_gemm(
    a_parts: list[np.ndarray],
    b: "np.ndarray | LowRankTile",
    c_stack: np.ndarray,
    precision: Precision,
    *,
    fp16_accumulate_fp32: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``C_p <- C_p - A_p B^T`` for every slice of a run sharing one
    ``B``: ``c_stack`` is the run's ``(rows, m, n)`` stack at storage
    ``precision``, ``a_parts`` the consecutive ``(r_i, m, k)`` pieces
    of the panel column facing it (``sum r_i == rows``; pieces may
    differ in storage precision), ``b`` the panel tile ``(n, k)`` of
    the run's column — its dense data, or the tile itself when it is
    low-rank (float64 compute only: ``C_p - (A_p V_B) U_B^T``).
    Returns the updated stack: written into ``out`` when given (a stack
    of ``c_stack``'s shape and storage dtype — ``c_stack`` itself for an
    update in place), else a fresh one; no other operand is written.

    Slice-wise bit-identical to :func:`repro.tile.kernels.gemm`: the
    stacked ``matmul`` issues the same GEMM per slice against the
    same (broadcast) ``B`` operand, ``c_stack - update`` promotes the
    stored ``C`` exactly as the per-tile operand cast does, and the
    narrowing to storage is the same single rounding.
    """
    dtype = compute_dtype(precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    if isinstance(b, LowRankTile):
        if dtype != np.float64:
            raise ShapeError("a low-rank B updates float64 outputs only")
        # ``A_p V_B`` per piece, then one product with ``U_B^T``.
        right = K._as_compute(b.v, dtype)
        update = np.matmul(_matmul_parts(a_parts, right, dtype),
                           K._as_compute(b.u, dtype).T)
    else:
        update = _matmul_parts(a_parts, K._as_compute(b, dtype).T, dtype)
    if out is not None and out.dtype == update.dtype:
        np.subtract(c_stack, update, out=out)
        return out
    # The update buffer is this call's own: subtract into it.
    np.subtract(c_stack, update, out=update)
    if out is None:
        return cast_storage(update, precision)
    out[...] = cast_storage(update, precision)
    return out


def _matmul_parts(a_parts: list[np.ndarray], right: np.ndarray,
                  dtype: np.dtype) -> np.ndarray:
    """``matmul(A_p, right)`` over the pieces of a run, each cast to
    ``dtype``, as one fresh stack."""
    if len(a_parts) == 1:
        return np.matmul(K._as_compute(a_parts[0], dtype), right)
    rows = sum(part.shape[0] for part in a_parts)
    out = np.empty((rows, a_parts[0].shape[1], right.shape[1]), dtype=dtype)
    row = 0
    for part in a_parts:
        stop = row + part.shape[0]
        np.matmul(K._as_compute(part, dtype), right, out=out[row:stop])
        row = stop
    return out
