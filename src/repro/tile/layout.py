"""Tile partitioning of an ``n x n`` matrix.

A :class:`TileLayout` splits the index range ``[0, n)`` into ``nt``
contiguous blocks of size ``tile_size`` (the trailing block may be
smaller).  It is shared by the tile matrix, the covariance assembly,
the task-graph generators, and the distributed-ownership map, so every
component agrees on tile boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ShapeError

__all__ = ["TileLayout"]


@dataclass(frozen=True)
class TileLayout:
    """Uniform 1-D blocking applied to both matrix dimensions."""

    n: int
    tile_size: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ShapeError(f"matrix dimension must be positive, got {self.n}")
        if self.tile_size <= 0:
            raise ShapeError(f"tile size must be positive, got {self.tile_size}")

    @property
    def nt(self) -> int:
        """Number of tiles per dimension."""
        return -(-self.n // self.tile_size)

    def block_size(self, i: int) -> int:
        """Row (or column) count of block ``i``."""
        self._check(i)
        return min(self.tile_size, self.n - i * self.tile_size)

    def block_range(self, i: int) -> tuple[int, int]:
        """Half-open global index range ``[start, stop)`` of block ``i``."""
        self._check(i)
        start = i * self.tile_size
        return start, start + self.block_size(i)

    def block_slice(self, i: int) -> slice:
        start, stop = self.block_range(i)
        return slice(start, stop)

    def tile_shape(self, i: int, j: int) -> tuple[int, int]:
        return self.block_size(i), self.block_size(j)

    def block_of(self, index: int) -> int:
        """Block containing global row/column ``index``."""
        if not 0 <= index < self.n:
            raise ShapeError(f"index {index} outside [0, {self.n})")
        return index // self.tile_size

    def block_sizes(self) -> np.ndarray:
        """Array of all block sizes (length ``nt``)."""
        sizes = np.full(self.nt, self.tile_size, dtype=np.int64)
        rem = self.n - (self.nt - 1) * self.tile_size
        sizes[-1] = rem
        return sizes

    def lower_tiles(self) -> list[tuple[int, int]]:
        """All ``(i, j)`` with ``j <= i`` in row-major order — the
        storage set of a symmetric-lower tile matrix."""
        return [(i, j) for i in range(self.nt) for j in range(i + 1)]

    def lower_entries(self) -> int:
        """Matrix entries the lower tiles hold (diagonal tiles whole)."""
        sizes = self.block_sizes()
        return int(self.n * self.n + sizes @ sizes) // 2

    def _check(self, i: int) -> None:
        if not 0 <= i < self.nt:
            raise ShapeError(f"block index {i} outside [0, {self.nt})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TileLayout(n={self.n}, tile_size={self.tile_size}, nt={self.nt})"
