"""Stacked tile kernels: a column's dense tiles as one BLAS call.

The paper's single-node performance comes from dispatching *batches* of
same-shape tile kernels to vendor BLAS instead of one tiny call at a
time (the batched kernels of ExaGeoStat / HiCMA).  This module is the
numerical half of that design: ``stacked_trsm`` and ``stacked_gemm``
work on a column's dense tiles held as one contiguous ``(rows, m, n)``
array — the panel sweep's (:mod:`repro.runtime.batchdispatch`)
representation: operands are views, the result is one fresh array,
nothing is gathered.

Bit-identity contract
---------------------
Each stacked call is *slice-wise bit-identical* to the per-tile kernels
in :mod:`repro.tile.kernels`: a stacked GEMM gufunc calls the same BLAS
routine per 2-D slice, a multi-RHS triangular solve is
column-independent, and the operand casts commute with stacking
(``f64 -> f32`` on assignment equals ``astype``; ``f16 -> f64 -> f32``
equals ``f16 -> f32`` exactly).  The equivalence is pinned by
``tests/test_batched_kernels.py``.  Tiles whose lead compute dtype is
binary16 (the emulated pure-HGEMM mode) and low-rank tiles never ride a
stack — the sweep runs those through the per-tile kernels.  Every
narrowing to storage goes through
:func:`~repro.tile.precision.cast_storage`, so a value the storage
format cannot hold raises the per-tile kernels'
:class:`~repro.exceptions.NumericalCorruptionError` from here too.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from . import kernels as K
from .precision import Precision, cast_storage, compute_dtype
from .tile import Tile

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
    b: np.ndarray,
    c_stack: np.ndarray,
    precision: Precision,
    *,
    fp16_accumulate_fp32: bool = True,
) -> np.ndarray:
    """``C_p <- C_p - A_p B^T`` for every slice of a run sharing one
    ``B``: ``c_stack`` is the run's ``(rows, m, n)`` stack at storage
    ``precision``, ``a_parts`` the consecutive ``(r_i, m, k)`` pieces
    of the panel column facing it (``sum r_i == rows``; pieces may
    differ in storage precision), ``b`` the ``(n, k)`` panel tile of
    the run's column.  Returns a fresh stack; no operand is written.

    Slice-wise bit-identical to :func:`repro.tile.kernels.gemm`: the
    stacked ``matmul`` issues the same GEMM per slice against the
    same (broadcast) transposed ``B``, ``c_stack - update`` promotes
    the stored ``C`` exactly as the per-tile operand cast does, and
    the narrowing to storage is the same single rounding.
    """
    dtype = compute_dtype(precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    bt = K._as_compute(b, dtype).T
    if len(a_parts) == 1:
        update = np.matmul(K._as_compute(a_parts[0], dtype), bt)
    else:
        update = np.empty(c_stack.shape, dtype=dtype)
        row = 0
        for part in a_parts:
            stop = row + part.shape[0]
            np.matmul(K._as_compute(part, dtype), bt, out=update[row:stop])
            row = stop
    # The update buffer is this call's own: subtract into it.
    np.subtract(c_stack, update, out=update)
    return cast_storage(update, precision)
