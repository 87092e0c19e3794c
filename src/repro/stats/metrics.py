"""Prediction-quality metrics.

The paper scores prediction with the mean square prediction error
(MSPE, Tables I-II); the coverage of Gaussian prediction intervals
from Eq. 5 uncertainties is included for the extended studies.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from ..exceptions import ShapeError

__all__ = ["mspe", "interval_coverage"]


def _pair(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    if p.shape != t.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ShapeError("empty prediction arrays")
    return p, t


def mspe(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean square prediction error (the paper's accuracy metric)."""
    p, t = _pair(pred, truth)
    return float(np.mean((p - t) ** 2))


def interval_coverage(
    pred: np.ndarray,
    se: np.ndarray,
    truth: np.ndarray,
    *,
    level: float = 0.95,
) -> float:
    """Fraction of truths inside the central Gaussian prediction
    interval at ``level`` — validates the Eq. (5) uncertainties."""
    p, t = _pair(pred, truth)
    s = np.asarray(se, dtype=np.float64).ravel()
    if s.shape != p.shape:
        raise ShapeError("standard errors shape mismatch")
    if not 0.0 < level < 1.0:
        raise ShapeError("level must be in (0, 1)")
    zcrit = float(np.sqrt(2.0) * special.erfinv(level))
    inside = np.abs(t - p) <= zcrit * s
    return float(np.mean(inside))
