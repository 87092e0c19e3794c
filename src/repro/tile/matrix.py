"""Symmetric-lower tiled matrix container.

A :class:`TileMatrix` holds the lower triangle (``j <= i``) of a
symmetric matrix as a dictionary of tiles, each independently dense or
low-rank and carrying its own storage precision — exactly the
heterogeneous object the paper's runtime schedules over.

The container is deliberately dumb: numerical kernels live in
:mod:`repro.tile.kernels`, planning in :mod:`repro.tile.decisions`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..exceptions import ShapeError
from .layout import TileLayout
from .precision import Precision
from .tile import DenseTile, LowRankTile, Tile

__all__ = ["TileMatrix"]


class TileMatrix:
    """Lower-triangular tiled storage of a symmetric ``n x n`` matrix."""

    def __init__(self, layout: TileLayout):
        self.layout = layout
        self._tiles: dict[tuple[int, int], Tile] = {}

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def nt(self) -> int:
        return self.layout.nt

    def _check_key(self, i: int, j: int) -> None:
        if not (0 <= j <= i < self.nt):
            raise ShapeError(
                f"tile ({i}, {j}) outside the stored lower triangle "
                f"(nt={self.nt})"
            )

    def get(self, i: int, j: int) -> Tile:
        self._check_key(i, j)
        try:
            return self._tiles[(i, j)]
        except KeyError:
            raise ShapeError(f"tile ({i}, {j}) has not been set") from None

    def set(self, i: int, j: int, tile: Tile) -> None:
        self._check_key(i, j)
        expected = self.layout.tile_shape(i, j)
        if tile.shape != expected:
            raise ShapeError(
                f"tile ({i}, {j}) must have shape {expected}, got {tile.shape}"
            )
        self._tiles[(i, j)] = tile

    def has(self, i: int, j: int) -> bool:
        return (i, j) in self._tiles

    def items(self) -> Iterator[tuple[tuple[int, int], Tile]]:
        return iter(sorted(self._tiles.items()))

    def keys(self) -> list[tuple[int, int]]:
        return sorted(self._tiles)

    @property
    def complete(self) -> bool:
        """True when every lower-triangle tile is present."""
        return len(self._tiles) == self.nt * (self.nt + 1) // 2

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        tile_size: int,
        precision: Precision = Precision.FP64,
    ) -> "TileMatrix":
        """Tile the lower triangle of a symmetric dense matrix."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {a.shape}")
        layout = TileLayout(a.shape[0], tile_size)
        out = cls(layout)
        for i, j in layout.lower_tiles():
            block = a[layout.block_slice(i), layout.block_slice(j)]
            out.set(i, j, DenseTile(np.array(block, dtype=np.float64), precision))
        return out

    def to_dense(self, *, lower_only: bool = False) -> np.ndarray:
        """Materialize as a float64 array; the upper triangle is
        mirrored from the lower unless ``lower_only``."""
        if not self.complete:
            raise ShapeError("matrix has missing tiles")
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for (i, j), tile in self.items():
            block = tile.to_dense64()
            a[self.layout.block_slice(i), self.layout.block_slice(j)] = block
            if not lower_only and i != j:
                a[self.layout.block_slice(j), self.layout.block_slice(i)] = block.T
        if lower_only:
            a = np.tril(a)
        return a

    # ------------------------------------------------------------------
    # statistics used by the decision logic and by reports
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return sum(t.nbytes for t in self._tiles.values())

    def dense_fp64_nbytes(self) -> int:
        """Footprint if every stored tile were dense FP64 (the paper's
        memory-footprint baseline)."""
        return sum(
            8 * self.layout.block_size(i) * self.layout.block_size(j)
            for (i, j) in self._tiles
        )

    def tile_norms(self) -> dict[tuple[int, int], float]:
        """Frobenius norm of every stored tile."""
        out = {}
        for key, tile in self._tiles.items():
            if isinstance(tile, LowRankTile):
                if tile.rank == 0:
                    out[key] = 0.0
                else:
                    # ||U V^T||_F via the small Gram matrices.
                    gu = tile.u.astype(np.float64).T @ tile.u.astype(np.float64)
                    gv = tile.v.astype(np.float64).T @ tile.v.astype(np.float64)
                    out[key] = float(np.sqrt(max(np.sum(gu * gv), 0.0)))
            else:
                out[key] = float(np.linalg.norm(tile.to_dense64()))
        return out

    def global_fro_norm(self) -> float:
        """Frobenius norm of the full symmetric matrix, accumulated
        tile-by-tile (off-diagonal tiles counted twice) — the quantity
        the paper accumulates during generation so the global matrix
        never needs to be stored."""
        total = 0.0
        for (i, j), norm in self.tile_norms().items():
            weight = 1.0 if i == j else 2.0
            total += weight * norm * norm
        return float(np.sqrt(total))

    def structure_counts(self) -> dict[str, int]:
        """Tile counts by (structure, precision) class, e.g.
        ``{"dense/FP64": 10, "lr/FP32": 35}``."""
        counts: dict[str, int] = {}
        for tile in self._tiles.values():
            kind = "lr" if tile.is_low_rank else "dense"
            key = f"{kind}/{tile.precision.label}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def max_rank(self) -> int:
        """Largest rank among low-rank tiles (0 when none)."""
        ranks = [
            t.rank for t in self._tiles.values() if isinstance(t, LowRankTile)
        ]
        return max(ranks, default=0)

    @property
    def settled(self) -> bool:
        """True when no tile is accumulating (owes a truncation) — a
        factor, or a matrix without planned-low-rank tiles."""
        return all(tile.owed is None for tile in self._tiles.values())

    def copy(self) -> "TileMatrix":
        """Deep copy (tiles' arrays are copied)."""
        out = TileMatrix(self.layout)
        for (i, j), tile in self._tiles.items():
            if isinstance(tile, LowRankTile):
                out._tiles[(i, j)] = LowRankTile(
                    tile.u.copy(), tile.v.copy(), tile.precision, tile.owed
                )
            else:
                out._tiles[(i, j)] = DenseTile(
                    tile.data.copy(), tile.precision, tile.owed
                )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TileMatrix(n={self.n}, nt={self.nt}, tiles={len(self._tiles)}, "
            f"nbytes={self.nbytes})"
        )
