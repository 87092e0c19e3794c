"""Batched tile kernels: homogeneous task fusion over stacked BLAS.

The paper's single-node performance comes from dispatching *batches* of
same-shape tile kernels to vendor BLAS instead of one tiny call at a
time (the batched kernels of ExaGeoStat / HiCMA).  This module is the
numerical half of that design, in two families.

*Run kernels* (``stacked_trsm``, ``stacked_gemm``) work on a column's
dense tiles held as one contiguous ``(rows, m, n)`` array — the panel
sweep's (:mod:`repro.runtime.batchdispatch`) representation: operands
are views, the result is one fresh array, nothing is gathered.

*Gather kernels* take a *homogeneous group* of scattered tiles — same
operation, same operand shapes, same structure (dense), same lead
precision — copy the operands into one stack and execute the whole
group as one stacked NumPy/SciPy call; they remain for the process
workers, whose rows live in per-owner shared-memory slabs and cannot
form views:

* ``batched_potrf`` — one stacked :func:`numpy.linalg.cholesky` over a
  3-D ``(P, n, n)`` array (LAPACK ``potrf`` per slice);
* ``batched_trsm``  — one wide-RHS :func:`scipy.linalg.solve_triangular`
  for a whole TRSM panel sharing one diagonal factor;
* ``batched_syrk`` / ``batched_gemm`` — stacked 3-D :func:`numpy.matmul`
  (GEMM per slice, no per-task Python dispatch).

Bit-identity contract
---------------------
Each batched call is *slice-wise bit-identical* to the per-tile kernels
in :mod:`repro.tile.kernels`: stacked GEMM/POTRF gufuncs call the same
BLAS/LAPACK routine per 2-D slice, a multi-RHS triangular solve is
column-independent, and the operand casts commute with gathering
(``f64 -> f32`` on assignment equals ``astype``; ``f16 -> f64 -> f32``
equals ``f16 -> f32`` exactly).  The equivalence is pinned by
``tests/test_batched_kernels.py``.  Groups whose lead compute dtype is
binary16 (the emulated pure-HGEMM mode) and groups containing any
low-rank operand are *not* batchable — the dispatcher falls back to the
per-tile kernels for those.  Every narrowing to storage goes through
:func:`~repro.tile.precision.cast_storage`, so a value the storage
format cannot hold raises the per-tile kernels'
:class:`~repro.exceptions.NumericalCorruptionError` from here too.

Scratch buffers
---------------
Operand gathering runs through a :class:`ScratchPool` of reusable flat
buffers (one per dtype, grown to the largest batch seen), so the hot
path performs no per-task allocation: one pooled gather per operand
stack, one fresh allocation per *batch* for the output (tiles keep
views into it, so it cannot be pooled).  SYRK/GEMM gather only the
``A``/``B`` operands: the update is computed stacked, then subtracted
from each stored ``C`` directly — NumPy's dtype promotion performs the
same exact upcast the per-tile kernel's operand cast does, so skipping
the ``C`` gather changes no bits while halving the memory traffic of
the dominant kernel.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np
from scipy import linalg as sla

from ..exceptions import ShapeError

from . import kernels as K
from .precision import Precision, cast_storage, compute_dtype
from .tile import DenseTile, Tile

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

__all__ = [
    "ScratchPool",
    "batched_potrf",
    "batched_trsm",
    "batched_syrk",
    "batched_gemm",
    "stacked_trsm",
    "stacked_gemm",
]


class ScratchPool:
    """Reusable per-precision scratch buffers for operand gathering.

    Buffers are flat 1-D arrays keyed by dtype; :meth:`stack` hands out
    a shaped view of the smallest free buffer with enough capacity
    (allocating only when none fits) and returns it to the free list on
    exit.  Because the largest batch of a Cholesky runs first (the
    ``k = 0`` panel), one allocation per dtype typically serves the
    whole factorization.

    Thread-safe: the free lists are guarded by one lock, and a
    borrowed buffer is owned exclusively by its borrower until
    returned.  Borrowed buffers hold *transient* operand copies only —
    results are never returned as views into pooled storage, so reuse
    can never alias a live tile.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: dict[str, list[np.ndarray]] = {}
        #: Buffers created because no free one had enough capacity.
        self.allocations = 0
        #: Borrows served from the free list.
        self.reuses = 0

    def _take(self, nelems: int, dtype: np.dtype) -> np.ndarray:
        key = np.dtype(dtype).str
        with self._lock:
            free = self._free.get(key)
            best = None
            if free:
                for idx, buf in enumerate(free):
                    if buf.size >= nelems and (
                        best is None or buf.size < free[best].size
                    ):
                        best = idx
                if best is not None:
                    self.reuses += 1
                    return free.pop(best)
            self.allocations += 1
        return np.empty(nelems, dtype=dtype)

    def _give(self, base: np.ndarray) -> None:
        with self._lock:
            self._free.setdefault(base.dtype.str, []).append(base)

    @contextmanager
    def stack(self, shape: tuple[int, ...], dtype):
        """Borrow a scratch array of ``shape``/``dtype`` (a shaped view
        of a pooled flat buffer; contents are uninitialized)."""
        nelems = 1
        for dim in shape:
            nelems *= int(dim)
        base = self._take(nelems, np.dtype(dtype))
        try:
            yield base[:nelems].reshape(shape)
        finally:
            self._give(base)

    @property
    def nbytes(self) -> int:
        """Bytes currently parked on the free lists."""
        with self._lock:
            return sum(
                buf.nbytes for bufs in self._free.values() for buf in bufs
            )

    def clear(self) -> None:
        with self._lock:
            self._free.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScratchPool(allocations={self.allocations}, "
            f"reuses={self.reuses}, nbytes={self.nbytes})"
        )


def _check_group(tiles: list, what: str) -> None:
    """Homogeneity preconditions the dispatcher guarantees; cheap
    asserts here so direct callers fail loudly instead of corrupting."""
    if not tiles:
        raise ShapeError(f"empty {what} batch")
    first = tiles[0]
    for t in tiles[1:]:
        if t.shape != first.shape or t.precision is not first.precision:
            raise ShapeError(
                f"{what} batch is not homogeneous: "
                f"{t.shape}/{t.precision.label} vs "
                f"{first.shape}/{first.precision.label}"
            )
        if t.is_low_rank:
            raise ShapeError(f"{what} batch must be all-dense")
    if first.is_low_rank:
        raise ShapeError(f"{what} batch must be all-dense")


def _gather(tiles: list[Tile], buf: np.ndarray) -> np.ndarray:
    """Copy each tile's stored data into one slice of ``buf``; the
    element-wise assignment cast is bit-identical to the per-tile
    ``to_dense64().astype(compute)`` chain (storage dtypes are exactly
    representable in float64)."""
    for p, tile in enumerate(tiles):
        buf[p] = tile.data  # type: ignore[union-attr]
    return buf


def _split_tiles(
    stack: np.ndarray, precision: Precision
) -> list[DenseTile]:
    """Slice a computed output stack into tiles at the group's storage
    precision.

    One cast over the whole stack replaces the per-tile
    ``compute -> float64 -> storage`` round trip (equal bits: the
    intermediate widening to float64 is exact).  Tiles keep views of
    the stack — it is freshly allocated by the caller, never pooled.
    """
    stored = cast_storage(stack, precision)
    return [DenseTile(stored[p], precision) for p in range(stored.shape[0])]


def _subtract_split(
    c_tiles: list[Tile], update: np.ndarray, precision: Precision
) -> list[DenseTile]:
    """``C_p <- C_p - update[p]`` against the *stored* tiles.

    ``c.data - update[p]`` promotes the narrower operand exactly (the
    same bits as the per-tile kernel's explicit cast to the compute
    dtype), and the one narrowing back to storage is a single rounding
    either way — so the result matches the per-tile kernel bit for bit
    without ever gathering ``C``.
    """
    return [
        DenseTile(cast_storage(c.data - update[p], precision), precision)
        for p, c in enumerate(c_tiles)
    ]


def batched_potrf(
    tiles: list[Tile],
    indices: list[tuple[int, int]],
    *,
    pool: ScratchPool | None = None,
    validate: bool = True,
) -> list[DenseTile]:
    """Stacked Cholesky of a homogeneous group of dense diagonal tiles.

    On any non-positive-definite slice the group replays per-tile so
    the raised :class:`~repro.exceptions.NotPositiveDefiniteError`
    names the exact failing tile, matching the per-tile path.
    """
    if validate:
        _check_group(tiles, "POTRF")
    pool = pool if pool is not None else ScratchPool()
    precision = tiles[0].precision
    dtype = compute_dtype(precision)
    n = tiles[0].shape[0]
    with pool.stack((len(tiles), n, n), dtype) as buf:
        _gather(tiles, buf)
        try:
            lows = np.linalg.cholesky(buf)
        except np.linalg.LinAlgError:
            # Replay per tile to identify the indefinite one.
            return [
                K.potrf(tile, index=index)
                for tile, index in zip(tiles, indices)
            ]
    return _split_tiles(lows, precision)


def batched_trsm(
    l_tile: Tile,
    tiles: list[Tile],
    *,
    fp16_accumulate_fp32: bool = True,
    pool: ScratchPool | None = None,
    validate: bool = True,
) -> list[DenseTile]:
    """Whole-panel triangular solve: every tile shares one diagonal
    factor ``L``, so the group is a single wide-RHS
    ``solve_triangular`` (columns are independent, hence per-tile
    bit-identical)."""
    if validate:
        _check_group(tiles, "TRSM")
        if l_tile.is_low_rank:
            raise ShapeError("the TRSM triangle must be dense")
    pool = pool if pool is not None else ScratchPool()
    precision = tiles[0].precision
    dtype = compute_dtype(precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    if dtype == np.float16:  # pragma: no cover - dispatcher never batches
        raise ShapeError("binary16 TRSM groups are not batchable")
    m, nk = tiles[0].shape
    low = l_tile.to_dense64()
    if low.dtype != dtype:
        low = low.astype(dtype)
    with pool.stack((nk, len(tiles) * m), dtype) as wide:
        for p, tile in enumerate(tiles):
            # Transposed gather: the per-tile kernel solves against
            # ``rhs.T``, and ``astype`` of that view is a C-contiguous
            # transpose copy — same bits, same BLAS layout.
            wide[:, p * m:(p + 1) * m] = tile.data.T  # type: ignore[union-attr]
        # Raw ``trtrs`` — the same LAPACK routine ``solve_triangular``
        # dispatches to (bit-identical), without the wrapper overhead
        # this hot path pays once per panel.
        x, info = _TRTRS[np.dtype(dtype)](low, wide, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    stored = cast_storage(x, precision)
    # Contiguous copies (not views of the wide solve): downstream
    # SYRK/GEMM groups gather these tiles, and a strided source would
    # slow every one of those copies.
    return [
        DenseTile(
            np.ascontiguousarray(stored[:, p * m:(p + 1) * m].T), precision
        )
        for p in range(len(tiles))
    ]


def batched_syrk(
    a_tiles: list[Tile],
    c_tiles: list[Tile],
    *,
    fp16_accumulate_fp32: bool = True,
    pool: ScratchPool | None = None,
    validate: bool = True,
) -> list[DenseTile]:
    """Stacked symmetric rank-k updates ``C <- C - A A^T`` over a
    homogeneous all-dense group.

    Only ``A`` is gathered; the stacked update is subtracted from each
    stored ``C`` slice-wise (dtype promotion upcasts exactly like the
    per-tile operand cast, and the final narrowing to storage is the
    same single rounding), so no ``C`` gather or stacked output cast is
    paid."""
    if validate:
        _check_group(a_tiles, "SYRK A")
        _check_group(c_tiles, "SYRK C")
    pool = pool if pool is not None else ScratchPool()
    precision = c_tiles[0].precision
    dtype = compute_dtype(precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    if dtype == np.float16:  # pragma: no cover - dispatcher never batches
        raise ShapeError("binary16 SYRK groups are not batchable")
    count = len(a_tiles)
    m, k = a_tiles[0].shape
    with pool.stack((count, m, k), dtype) as bufa, \
            pool.stack((count, m, m), dtype) as update:
        _gather(a_tiles, bufa)
        # ``out=`` lands the stacked update in pooled scratch: the
        # only per-group allocations left are the output tiles.
        np.matmul(bufa, bufa.transpose(0, 2, 1), out=update)
        return _subtract_split(c_tiles, update, precision)


def batched_gemm(
    a_tiles: list[Tile],
    b_tiles: list[Tile],
    c_tiles: list[Tile],
    *,
    fp16_accumulate_fp32: bool = True,
    pool: ScratchPool | None = None,
    validate: bool = True,
) -> list[DenseTile]:
    """Stacked Schur-complement updates ``C <- C - A B^T`` over a
    homogeneous all-dense group (the dominant kernel of Algorithm 1).

    As in :func:`batched_syrk`, only the ``A``/``B`` operands are
    gathered; the update subtracts from each stored ``C`` per slice."""
    if validate:
        _check_group(a_tiles, "GEMM A")
        _check_group(b_tiles, "GEMM B")
        _check_group(c_tiles, "GEMM C")
    pool = pool if pool is not None else ScratchPool()
    precision = c_tiles[0].precision
    dtype = compute_dtype(precision, fp16_accumulate_fp32=fp16_accumulate_fp32)
    if dtype == np.float16:  # pragma: no cover - dispatcher never batches
        raise ShapeError("binary16 GEMM groups are not batchable")
    count = len(a_tiles)
    m, k = a_tiles[0].shape
    n = b_tiles[0].shape[0]
    with pool.stack((count, m, k), dtype) as bufa, \
            pool.stack((count, n, k), dtype) as bufb, \
            pool.stack((count, m, n), dtype) as update:
        _gather(a_tiles, bufa)
        _gather(b_tiles, bufb)
        np.matmul(bufa, bufb.transpose(0, 2, 1), out=update)
        return _subtract_split(c_tiles, update, precision)


# ----------------------------------------------------------------------
# run kernels: a column's dense tiles as one (rows, m, n) stack
# ----------------------------------------------------------------------
def stacked_trsm(
    l_tile: Tile,
    stack: np.ndarray,
    precision: Precision,
    *,
    fp16_accumulate_fp32: bool = True,
) -> np.ndarray:
    """:func:`batched_trsm` on a run that already is one contiguous
    ``(rows, m, nk)`` stack at storage ``precision``: one wide
    ``trtrs`` against the shared triangle, returned as a fresh stack
    of the same shape and precision.

    ``stack`` viewed as ``(rows * m, nk)`` and transposed *is* the
    wide right-hand side the gather kernel builds tile by tile, and
    the Fortran-ordered solution transposed back *is* the output
    stack — no per-tile copy on either side.
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
