"""Tile value types: dense tiles and low-rank (TLR) tiles.

A :class:`DenseTile` stores a full ``m x n`` block at some storage
precision.  A :class:`LowRankTile` stores the factors of the
approximation ``A ~= U @ V.T`` with ``U: (m, k)`` and ``V: (n, k)``.
Rank ``k = 0`` is a valid representation of an (approximately) zero
tile and all kernels must accept it.

Tiles are small value objects; the numerical kernels in
:mod:`repro.tile.kernels` consume and produce them.  Mutation happens
only by *replacing* a tile inside a :class:`repro.tile.matrix.TileMatrix`,
which keeps dataflow analysis in the runtime honest.

A planned-low-rank tile is *accumulating* from generation until its
settle: a :class:`DenseTile` whose payload is its exact float64 block
(with every Schur update it has received subtracted) and ``owed`` is
the ``(tol, max_rank)`` truncation it has not had yet.  Only the
assembly (:mod:`repro.tile.assembly`) and :mod:`repro.tile.kernels`
set that state, and only the settle consumes it; everywhere else — a
factor in particular — a tile's ``owed`` is ``None`` and its payload
has its precision's dtype.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from .precision import Precision, cast_storage

__all__ = ["Tile", "DenseTile", "LowRankTile"]


class Tile:
    """Common tile interface (see subclasses)."""

    __slots__ = ()

    shape: tuple[int, int]
    precision: Precision
    #: ``(tol, max_rank)`` an accumulating tile still has to be
    #: truncated to (in ``precision``, its planned storage); ``None``
    #: for a settled tile.
    owed: "tuple[float, int | None] | None"

    @property
    def nbytes(self) -> int:
        raise NotImplementedError

    @property
    def is_low_rank(self) -> bool:
        raise NotImplementedError

    def to_dense64(self) -> np.ndarray:
        """Materialize the tile as a float64 dense block."""
        raise NotImplementedError

    def astype(self, precision: Precision) -> "Tile":
        """Same tile content re-rounded to another storage precision."""
        raise NotImplementedError


class DenseTile(Tile):
    """Full-storage tile at a given precision."""

    __slots__ = ("data", "precision", "owed")

    def __init__(self, data: np.ndarray, precision: Precision | None = None,
                 owed: "tuple[float, int | None] | None" = None):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ShapeError(f"dense tile must be 2-D, got shape {arr.shape}")
        if precision is None:
            precision = Precision.from_any(arr.dtype)
        elif owed is not None:  # an accumulator stays exact until settled
            arr = np.asarray(arr, dtype=np.float64)
        elif arr.dtype != precision.dtype:
            # Float to float is one rounding whichever way it goes
            # (widening is exact): only non-float input takes the
            # detour through float64.
            if arr.dtype.kind != "f":
                arr = np.asarray(arr, dtype=np.float64)
            arr = cast_storage(arr, precision)
        self.data = arr
        self.precision = precision
        self.owed = owed

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def is_low_rank(self) -> bool:
        return False

    def to_dense64(self) -> np.ndarray:
        return np.asarray(self.data, dtype=np.float64)

    def astype(self, precision: Precision) -> "DenseTile":
        if precision is self.precision:
            return self
        # Round through float64 so FP16 -> FP32 does not invent digits
        # beyond the stored ones (binary16 values are exactly
        # representable in binary32/binary64).
        return DenseTile(self.to_dense64(), precision)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseTile(shape={self.shape}, precision={self.precision.label})"


class LowRankTile(Tile):
    """Low-rank tile ``A ~= u @ v.T`` stored at a given precision.

    Both factors share one storage precision.  ``rank == 0`` encodes a
    numerically zero tile (factors have a zero-sized second axis).
    """

    __slots__ = ("u", "v", "precision", "owed")

    def __init__(
        self, u: np.ndarray, v: np.ndarray, precision: Precision | None = None,
        owed: "tuple[float, int | None] | None" = None,
    ):
        # Canonical C-order storage: BLAS picks its loop order (and
        # therefore its last-bit rounding) from operand layout, so the
        # factors must land in one canonical layout for results to be
        # reproducible across engines — in particular the process
        # backend, whose shared-memory round-trips can only restore a
        # canonical layout.
        u = np.ascontiguousarray(u)
        v = np.ascontiguousarray(v)
        if u.ndim != 2 or v.ndim != 2:
            raise ShapeError("low-rank factors must be 2-D")
        if u.shape[1] != v.shape[1]:
            raise ShapeError(
                f"factor ranks differ: u has {u.shape[1]}, v has {v.shape[1]}"
            )
        if precision is None:
            precision = Precision.from_any(u.dtype)
            if Precision.from_any(v.dtype) is not precision:
                raise ShapeError("low-rank factors must share a dtype")
        elif owed is not None:  # an accumulator stays exact until settled
            u = np.asarray(u, dtype=np.float64)
            v = np.asarray(v, dtype=np.float64)
        else:
            if u.dtype != precision.dtype:
                u = cast_storage(np.asarray(u, dtype=np.float64), precision)
            if v.dtype != precision.dtype:
                v = cast_storage(np.asarray(v, dtype=np.float64), precision)
        self.u = u
        self.v = v
        self.precision = precision
        self.owed = owed

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def nbytes(self) -> int:
        return self.u.nbytes + self.v.nbytes

    @property
    def is_low_rank(self) -> bool:
        return True

    def to_dense64(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros(self.shape, dtype=np.float64)
        u = np.asarray(self.u, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        return u @ v.T

    def astype(self, precision: Precision) -> "LowRankTile":
        if precision is self.precision:
            return self
        return LowRankTile(
            np.asarray(self.u, dtype=np.float64),
            np.asarray(self.v, dtype=np.float64),
            precision,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LowRankTile(shape={self.shape}, rank={self.rank}, "
            f"precision={self.precision.label})"
        )
