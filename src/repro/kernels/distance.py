"""Vectorized pairwise-distance computations.

The tile covariance assembly (:mod:`repro.tile.assembly`) never
materializes the full ``n x n`` distance matrix; it calls
:func:`cross_distance` per tile on row/column slices of the location
array, which keeps peak memory at one tile.

Locations are stored as ``(n, d)`` float arrays.  For space-time
kernels the convention throughout the package is that the *last* column
is time and the leading ``d - 1`` columns are space; helpers
:func:`split_space_time` and :func:`cross_space_time_lags` implement
that split.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError

__all__ = [
    "as_locations",
    "cross_distance",
    "cross_sq_distance",
    "split_space_time",
    "cross_space_time_lags",
]


def as_locations(x: np.ndarray, *, dim: int | None = None) -> np.ndarray:
    """Validate and canonicalize a location array to ``(n, d)`` float64.

    A 1-D array is interpreted as ``n`` points on the line.  Raises
    :class:`~repro.exceptions.ShapeError` on non-finite input or on a
    dimensionality mismatch with ``dim``.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ShapeError(f"locations must be a (n, d) array, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ShapeError(
            f"locations must have dimension {dim}, got {arr.shape[1]}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise ShapeError("locations contain non-finite values")
    return arr


def cross_sq_distance(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two point sets.

    Returns a ``(len(x1), len(x2))`` matrix.  Uses the expanded
    quadratic form with a clip at zero to absorb cancellation error.
    When both arguments are the *same object*, the diagonal is set to
    exactly zero — the expanded form leaves ~1e-16 residue there, which
    short-range kernels amplify to ~1e-7 correlation errors.
    """
    same = x1 is x2
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    x2 = x1 if same else np.atleast_2d(np.asarray(x2, dtype=np.float64))
    if x1.shape[1] != x2.shape[1]:
        raise ShapeError(
            f"dimension mismatch: {x1.shape[1]} vs {x2.shape[1]}"
        )
    sq1 = np.einsum("ij,ij->i", x1, x1)
    sq2 = sq1 if same else np.einsum("ij,ij->i", x2, x2)
    d2 = sq1[:, None] + sq2[None, :] - 2.0 * (x1 @ x2.T)
    np.maximum(d2, 0.0, out=d2)
    if same:
        np.fill_diagonal(d2, 0.0)
    return d2


def cross_distance(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Euclidean distances between two point sets, shape ``(n1, n2)``."""
    d2 = cross_sq_distance(x1, x2)
    return np.sqrt(d2, out=d2)


def split_space_time(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split ``(n, d)`` space-time locations into ``(n, d-1)`` space
    coordinates and ``(n,)`` times (last column is time)."""
    arr = as_locations(x)
    if arr.shape[1] < 2:
        raise ShapeError(
            "space-time locations need at least 2 columns (space..., time)"
        )
    return arr[:, :-1], arr[:, -1]


def cross_space_time_lags(
    x1: np.ndarray, x2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Spatial distances ``‖h‖`` and absolute temporal lags ``|u|``
    between two space-time point sets, each shaped ``(n1, n2)``.

    Identity of the arguments is preserved down to the distance call so
    same-set evaluations get the exact-zero diagonal treatment."""
    s1, t1 = split_space_time(x1)
    if x1 is x2:
        s2, t2 = s1, t1
    else:
        s2, t2 = split_space_time(x2)
    h = cross_distance(s1, s2)
    u = np.abs(t1[:, None] - t2[None, :])
    return h, u
