"""Conditional simulation: posterior field realizations.

Given observations ``z_n`` and fitted parameters, draw samples from the
conditional law of Eq. (3):

    Z_m | Z_n ~ N( Sigma_mn Sigma_nn^{-1} z_n,
                   Sigma_mm - Sigma_mn Sigma_nn^{-1} Sigma_nm )

using the standard *conditioning-by-kriging* trick: simulate an
unconditional realization over train+test jointly, then correct it with
two kriging solves — which only needs the (already factored) training
covariance plus one small test-block Cholesky, never the full joint
factorization.

All factor applications are multi-RHS panel operations on a
:class:`~repro.tile.solve.PanelSolver`: the ``size`` unconditional
train fields are one ``(n, size)`` forward application, not ``size``
column sweeps.  A serving engine passes its warm ``solver`` and
``weights`` in, and the grid's ``cross`` panel and forward ``half``
solve from its value cache, so simulation shares the per-tile casts,
the Eq.-4 weight solve and a predicted grid's kernel evaluation and
forward sweep with prediction.

Conditional draws are what turn point predictions into maps with
spatially coherent uncertainty — the downstream product environmental
applications consume.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from ..kernels.base import CovarianceKernel
from ..kernels.distance import as_locations
from ..tile.matrix import TileMatrix
from ..tile.solve import PanelSolver

__all__ = ["conditional_simulation"]


def conditional_simulation(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x_train: np.ndarray,
    z_train: np.ndarray,
    x_test: np.ndarray,
    factor: TileMatrix,
    *,
    size: int = 1,
    seed: int | None = None,
    jitter: float = 1.0e-10,
    solver: PanelSolver | None = None,
    weights: np.ndarray | None = None,
    cross: np.ndarray | None = None,
    half: np.ndarray | None = None,
) -> np.ndarray:
    """Draw ``size`` conditional realizations at ``x_test``.

    ``factor`` is the tile Cholesky factor of ``Sigma_nn(theta)`` over
    ``x_train`` (e.g. from the fitted model's likelihood evaluation).
    ``solver``/``weights`` let a warm serving engine share its cached
    factor operands and solved Eq.-4 weights, and ``cross``/``half``
    its ``(n, m)`` cross panel ``Sigma_nm`` and forward half-solve
    ``L^{-1} Sigma_nm`` (read, never written); each defaults to a
    fresh computation against ``factor``.
    Returns ``(m,)`` for ``size == 1`` else ``(size, m)``.
    """
    x_train = as_locations(x_train)
    x_test = as_locations(x_test)
    z = np.asarray(z_train, dtype=np.float64).ravel()
    n, m = len(x_train), len(x_test)
    if z.shape[0] != n:
        raise ShapeError("z_train length does not match x_train")
    if factor.n != n:
        raise ShapeError("factor dimension does not match x_train")
    if solver is None:
        solver = PanelSolver(factor)
    elif solver.factor.n != n:
        raise ShapeError("solver factor dimension does not match x_train")
    for name, panel in (("cross", cross), ("half", half)):
        if panel is not None and panel.shape != (n, m):
            raise ShapeError(f"{name} panel is {panel.shape}, expected {(n, m)}")
    rng = np.random.default_rng(seed)

    if cross is None:
        cross = kernel(theta, x_train, x_test)  # (n, m)
    if weights is None:
        weights = solver.solve(z)
    krig_mean = cross.T @ weights  # (m,)

    # Unconditional joint simulation over [train; test]: use the exact
    # block factorization  [L_nn 0; B_half L_schur]  with
    # B_half = (L_nn^{-1} Sigma_nm)^T and the Schur complement of the
    # test block (which is exactly the kriging covariance).
    if half is None:
        half = solver.forward(cross)                    # L^{-1} Sigma_nm, (n, m)
    schur = kernel.covariance_matrix(theta, x_test)
    schur -= half.T @ half
    schur[np.diag_indices_from(schur)] += jitter
    try:
        l_schur = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        # Duplicate test points or aggressive approximation: project to
        # the PSD cone via eigenvalue clipping.
        w, v = np.linalg.eigh(0.5 * (schur + schur.T))
        w = np.clip(w, jitter, None)
        l_schur = v * np.sqrt(w)

    eps_n = rng.standard_normal((n, size))
    eps_m = rng.standard_normal((m, size))
    # Unconditional fields restricted to train / test indices:
    # L_nn eps_n in one (n, size) panel application.
    u_train = solver.apply_lower(eps_n)
    u_test = half.T @ eps_n + l_schur @ eps_m            # (m, size)

    # Conditioning by kriging: z_cond = krig_mean + (u_test - krig(u_train)).
    w_u = solver.solve(u_train)
    krig_u = cross.T @ w_u                               # (m, size)
    draws = krig_mean[:, None] + (u_test - krig_u)
    return draws[:, 0] if size == 1 else draws.T
