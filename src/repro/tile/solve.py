"""Multi-RHS triangular solves and determinant against a tiled factor.

The MLE pipeline needs, per likelihood evaluation (paper Eq. 1):

* ``log|Sigma| = 2 * sum_k log diag(L_kk)``  (:func:`tile_logdet`);
* one forward + (for prediction) backward substitution against a
  block-partitioned right-hand side (:func:`forward_solve`,
  :func:`backward_solve`).

The *serving* side (paper Eqs. 4-5) hits the same factor far more
often: every kriging mean, variance half-solve, and conditional
simulation is a triangular solve against the factor of the fitted
training covariance.  :class:`PanelSolver` owns those repeated solves:
it materializes each tile's float64 operands exactly once (one
precision up-cast per tile for the solver's whole lifetime) and runs
every substitution as a BLAS-3 panel update over the full ``(n, k)``
right-hand-side block — never k independent column sweeps.

Right-hand sides stay float64 dense (they are thin: 1 to a few hundred
columns); factor tiles are applied in float64 after an exact up-cast
from their storage precision, so low-precision storage — not the solve
arithmetic — is the only approximation, matching the paper's setup.
Dense-FP64 results are bit-identical to the historical per-call path:
the cached operand is the same array :meth:`~repro.tile.tile.Tile.to_dense64`
would produce, applied in the same tile order with the same
accumulation arithmetic.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import linalg as sla

from ..exceptions import ShapeError
from .matrix import TileMatrix
from .tile import LowRankTile, Tile

__all__ = [
    "PanelSolver",
    "tile_apply",
    "forward_solve",
    "backward_solve",
    "apply_lower",
    "tile_logdet",
]


def tile_apply(tile: Tile, x: np.ndarray, *, transpose: bool = False) -> np.ndarray:
    """``tile @ x`` (or ``tile.T @ x``) in float64, rank-aware."""
    if isinstance(tile, LowRankTile):
        if tile.rank == 0:
            rows = tile.shape[1] if not transpose else tile.shape[0]
            out_rows = tile.shape[0] if not transpose else tile.shape[1]
            if x.shape[0] != rows:
                raise ShapeError("dimension mismatch in tile_apply")
            return np.zeros((out_rows,) + x.shape[1:], dtype=np.float64)
        u = tile.u.astype(np.float64)
        v = tile.v.astype(np.float64)
        if transpose:
            return v @ (u.T @ x)
        return u @ (v.T @ x)
    data = tile.to_dense64()
    return data.T @ x if transpose else data @ x


class PanelSolver:
    """Amortized multi-RHS solves against one tile Cholesky factor.

    The solver caches, per tile, the float64 operand the solve
    arithmetic consumes — the dense block for :class:`DenseTile`, the
    ``(u, v)`` factor pair for :class:`LowRankTile` (kept factored so
    panel applies stay rank-aware) — so repeated solves pay the
    storage-precision up-cast exactly once per tile instead of once per
    call.  All substitutions operate on the whole ``(n, k)`` panel with
    ``trsm``/``gemm``-shaped updates.

    Thread-safe for concurrent solves: cache fills are idempotent
    (worst case a race re-materializes one tile) and solves never
    mutate shared state, so a warm solver can serve parallel predict
    batches.
    """

    def __init__(self, factor: TileMatrix):
        self.factor = factor
        self._dense: dict[tuple[int, int], np.ndarray] = {}
        self._lr: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._tril: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()
        self.casts = 0  # tile materializations (amortization telemetry)
        self.solves = 0  # forward/backward/apply_lower sweeps served

    # ------------------------------------------------------------------
    # cached per-tile operands
    # ------------------------------------------------------------------
    def _operand(self, i: int, j: int):
        """Float64 operand of tile ``(i, j)``: an ndarray for dense
        tiles, a ``(u, v)`` pair for low-rank ones, ``None`` for
        rank-0 (exact-zero) tiles."""
        key = (i, j)
        hit = self._dense.get(key)
        if hit is not None:
            return hit
        hit = self._lr.get(key)
        if hit is not None:
            return hit if hit[0].shape[1] else None
        tile = self.factor.get(i, j)
        with self._lock:
            self.casts += 1
        if isinstance(tile, LowRankTile):
            pair = (
                np.asarray(tile.u, dtype=np.float64),
                np.asarray(tile.v, dtype=np.float64),
            )
            self._lr[key] = pair
            return pair if tile.rank else None
        data = tile.to_dense64()
        self._dense[key] = data
        return data

    def _diag(self, i: int) -> np.ndarray:
        """Dense float64 diagonal block (as stored; used by the
        triangular solves, which only read its lower triangle)."""
        op = self._operand(i, i)
        if not isinstance(op, np.ndarray):
            raise ShapeError(f"diagonal tile ({i}, {i}) is not dense")
        return op

    def _tril_diag(self, i: int) -> np.ndarray:
        """Strict lower triangle of the diagonal block, for ``L @ x``."""
        hit = self._tril.get(i)
        if hit is None:
            hit = np.tril(self._diag(i))
            self._tril[i] = hit
        return hit

    def _sub_apply(
        self, acc: np.ndarray, i: int, j: int, x: np.ndarray, *, transpose: bool
    ) -> None:
        """``acc -= L_ij @ x`` (or ``L_ij^T @ x``) from the cached
        operand — the same arithmetic ``tile_apply`` performs, minus
        the per-call cast."""
        op = self._operand(i, j)
        if op is None:  # rank-0 tile: subtracting exact zeros is a no-op
            return
        if isinstance(op, np.ndarray):
            acc -= op.T @ x if transpose else op @ x
        else:
            u, v = op
            acc -= v @ (u.T @ x) if transpose else u @ (v.T @ x)

    def _check_rhs(self, b: np.ndarray) -> np.ndarray:
        rhs = np.asarray(b, dtype=np.float64)
        if rhs.shape[0] != self.factor.n:
            raise ShapeError(
                f"rhs has {rhs.shape[0]} rows, factor dimension is "
                f"{self.factor.n}"
            )
        return rhs.copy()

    # ------------------------------------------------------------------
    # panel solves
    # ------------------------------------------------------------------
    def forward(self, b: np.ndarray) -> np.ndarray:
        """Solve ``L y = b`` by blocked forward substitution over the
        whole ``(n,)`` or ``(n, k)`` panel."""
        y = self._check_rhs(b)
        layout = self.factor.layout
        for i in range(layout.nt):
            sl_i = layout.block_slice(i)
            acc = y[sl_i]
            for j in range(i):
                self._sub_apply(
                    acc, i, j, y[layout.block_slice(j)], transpose=False
                )
            y[sl_i] = sla.solve_triangular(
                self._diag(i), acc, lower=True, check_finite=False
            )
        with self._lock:
            self.solves += 1
        return y

    def backward(self, y: np.ndarray) -> np.ndarray:
        """Solve ``L^T x = y`` by blocked backward substitution over
        the whole panel."""
        x = self._check_rhs(y)
        layout = self.factor.layout
        for i in range(layout.nt - 1, -1, -1):
            sl_i = layout.block_slice(i)
            acc = x[sl_i]
            for j in range(i + 1, layout.nt):
                # (L^T)_{ij} = L_{ji}^T, with L_{ji} stored at (j, i).
                self._sub_apply(
                    acc, j, i, x[layout.block_slice(j)], transpose=True
                )
            x[sl_i] = sla.solve_triangular(
                self._diag(i), acc, lower=True, trans="T", check_finite=False
            )
        with self._lock:
            self.solves += 1
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``Sigma^{-1} b`` via the two triangular sweeps."""
        return self.backward(self.forward(b))

    def apply_lower(self, v: np.ndarray) -> np.ndarray:
        """``L @ v`` for the tiled lower factor, panel-wise (the
        forward application conditional simulation needs)."""
        vv = np.asarray(v, dtype=np.float64)
        if vv.shape[0] != self.factor.n:
            raise ShapeError("dimension mismatch in apply_lower")
        out = np.zeros_like(vv, dtype=np.float64)
        layout = self.factor.layout
        for i in range(layout.nt):
            sl_i = layout.block_slice(i)
            acc = np.zeros((layout.block_size(i),) + vv.shape[1:])
            for j in range(i + 1):
                block = vv[layout.block_slice(j)]
                if i == j:
                    acc += self._tril_diag(i) @ block
                else:
                    op = self._operand(i, j)
                    if op is None:
                        continue
                    if isinstance(op, np.ndarray):
                        acc += op @ block
                    else:
                        u, w = op
                        acc += u @ (w.T @ block)
            out[sl_i] = acc
        with self._lock:
            self.solves += 1
        return out

    def logdet(self) -> float:
        """``log|A| = 2 sum log diag(L)`` from the cached diagonals."""
        total = 0.0
        for k in range(self.factor.nt):
            diag = np.diag(self._diag(k))
            if np.any(diag <= 0.0):
                raise ShapeError("factor has non-positive diagonal entries")
            total += float(np.sum(np.log(diag)))
        return 2.0 * total

    @property
    def nbytes(self) -> int:
        """Footprint of the cached float64 operands."""
        total = sum(a.nbytes for a in self._dense.values())
        total += sum(u.nbytes + v.nbytes for u, v in self._lr.values())
        total += sum(a.nbytes for a in self._tril.values())
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PanelSolver(n={self.factor.n}, nt={self.factor.nt}, "
            f"casts={self.casts}, solves={self.solves})"
        )


def forward_solve(l_matrix: TileMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` by block forward substitution (one-shot; a
    :class:`PanelSolver` amortizes the per-tile casts across calls)."""
    return PanelSolver(l_matrix).forward(b)


def backward_solve(l_matrix: TileMatrix, y: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = y`` by block backward substitution (one-shot)."""
    return PanelSolver(l_matrix).backward(y)


def apply_lower(l_matrix: TileMatrix, v: np.ndarray) -> np.ndarray:
    """``L @ v`` for a tiled lower factor (one-shot)."""
    return PanelSolver(l_matrix).apply_lower(v)


def tile_logdet(l_matrix: TileMatrix) -> float:
    """``log|A| = 2 sum log diag(L)`` from the factor's diagonal tiles."""
    total = 0.0
    for k in range(l_matrix.nt):
        diag = np.diag(l_matrix.get(k, k).to_dense64())
        if np.any(diag <= 0.0):
            raise ShapeError("factor has non-positive diagonal entries")
        total += float(np.sum(np.log(diag)))
    return 2.0 * total
