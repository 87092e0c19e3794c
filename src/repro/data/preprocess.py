"""Preprocessing pipeline of the paper's real datasets (Section VI-A).

For the ET space-time data the paper makes the field stationary by:

1. **temporal detrending** — subtracting, per location and calendar
   month, the 2001-2020 mean from the 2021 value
   (:func:`monthly_climatology_residuals`);
2. **spatial detrending** — fitting, per month, a linear regression of
   the observations on the coordinates and keeping the residuals
   (:func:`detrend_linear`).

These operate on plain arrays so they apply equally to the synthetic
surrogate "raw" fields and to any real data a user supplies.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError

__all__ = [
    "monthly_climatology_residuals",
    "detrend_linear",
    "gaussianity_diagnostics",
]


def monthly_climatology_residuals(
    history: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Residuals of the target year against the historical monthly mean.

    ``history`` is ``(n_years, n_months, n_locations)``; ``target`` is
    ``(n_months, n_locations)`` (the year of interest).  Returns
    ``target - mean_over_years(history)`` per (month, location).
    """
    history = np.asarray(history, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if history.ndim != 3:
        raise ShapeError("history must be (years, months, locations)")
    if target.shape != history.shape[1:]:
        raise ShapeError(
            f"target shape {target.shape} does not match history months x "
            f"locations {history.shape[1:]}"
        )
    return target - history.mean(axis=0)


def detrend_linear(values: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Residuals of an ordinary least-squares fit of ``values`` on the
    coordinates (with intercept).  ``values``: ``(n,)`` or
    ``(n_fields, n)`` (each field detrended independently, as the paper
    does per month)."""
    locations = np.asarray(locations, dtype=np.float64)
    if locations.ndim != 2:
        raise ShapeError("locations must be (n, d)")
    vals = np.asarray(values, dtype=np.float64)
    squeeze = vals.ndim == 1
    vals = np.atleast_2d(vals)
    if vals.shape[1] != locations.shape[0]:
        raise ShapeError("values length does not match locations")
    design = np.column_stack([np.ones(locations.shape[0]), locations])
    coef, *_ = np.linalg.lstsq(design, vals.T, rcond=None)
    residuals = (vals.T - design @ coef).T
    return residuals[0] if squeeze else residuals


def gaussianity_diagnostics(values: np.ndarray) -> dict[str, float]:
    """Simple moments-based diagnostics (skewness, excess kurtosis)
    used to sanity-check the "display Gaussianity" claim after
    preprocessing."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size < 8:
        raise ShapeError("need at least 8 values for diagnostics")
    centered = vals - vals.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise ShapeError("constant field")
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    return {
        "skewness": m3 / m2**1.5,
        "excess_kurtosis": m4 / m2**2 - 3.0,
        "mean": float(vals.mean()),
        "std": float(np.sqrt(m2)),
    }
