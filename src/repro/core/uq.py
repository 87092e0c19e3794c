"""Uncertainty quantification for the MLE (paper Section VIII).

The paper's "Implications" point to uncertainty-quantified optimization
as the natural extension ("the inverse of the covariance again plays a
central role").  This module provides the standard asymptotic toolkit
on top of the tiled likelihood:

* :func:`observed_information` — numerical Hessian of the negative
  log-likelihood at ``theta_hat`` (central differences, log-scaled
  steps for positive parameters);
* :func:`mle_uncertainty` — asymptotic covariance
  ``I(theta_hat)^{-1}``, standard errors, and Wald confidence
  intervals;
* :func:`profile_likelihood` — 1-D likelihood profiles for
  visual/diagnostic use.

Every Hessian entry costs a handful of tile-Cholesky factorizations, so
the same MP/TLR acceleration that speeds the MLE speeds its UQ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from ..exceptions import NotPositiveDefiniteError, OptimizationError, ParameterError
from ..kernels.base import CovarianceKernel
from ..tile.geometry import GeometryCache
from .engine import EvaluationEngine
from .variants import DENSE_FP64, VariantConfig

__all__ = [
    "MLEUncertainty",
    "observed_information",
    "mle_uncertainty",
    "profile_likelihood",
]


def _value(engine: EvaluationEngine, theta: np.ndarray) -> float:
    """Log-likelihood at ``theta``; ``-inf`` where the covariance is
    not positive definite or ``theta`` leaves the parameter domain."""
    try:
        return engine.evaluate(theta).value
    except (NotPositiveDefiniteError, ParameterError):
        return -np.inf


def _steps(kernel: CovarianceKernel, theta: np.ndarray, rel: float) -> np.ndarray:
    """Per-parameter finite-difference steps that respect the open
    bounds: proportional steps clipped so ``theta +- h`` stays inside."""
    steps = np.empty_like(theta)
    for k, spec in enumerate(kernel.param_specs):
        h = rel * max(abs(theta[k]), 1e-3)
        room_low = theta[k] - spec.lower
        room_high = spec.upper - theta[k]
        room = min(room_low, room_high) if np.isfinite(room_high) else room_low
        steps[k] = min(h, 0.45 * room) if room > 0 else h
    return steps


def observed_information(
    kernel: CovarianceKernel,
    theta_hat: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    nugget: float = 0.0,
    rel_step: float = 1.0e-3,
    cache: GeometryCache | None = None,
) -> np.ndarray:
    """Observed information ``I = -Hessian(loglik)`` at ``theta_hat``
    by central second differences (O(p^2) likelihood evaluations).

    All ``1 + 2p + 2p(p-1)`` evaluations run on one
    :class:`~repro.core.engine.EvaluationEngine`, so they share one
    geometry build (and, for TLR variants, warm rank hints) — the same
    amortization the serving engine applies to prediction.  ``cache``
    shares that geometry with other calls as well; by default the
    engine owns one for the duration of this call.
    """
    theta_hat = kernel.validate_theta(theta_hat)
    p = theta_hat.shape[0]
    h = _steps(kernel, theta_hat, rel_step)
    hess = np.empty((p, p))
    with EvaluationEngine(
        kernel, x, z, tile_size=tile_size, variant=variant, nugget=nugget,
        cache=cache,
    ) as engine:
        f0 = _value(engine, theta_hat)
        if not np.isfinite(f0):
            raise OptimizationError("likelihood not finite at theta_hat")
        # Diagonal: standard central second difference.
        for i in range(p):
            e = np.zeros(p)
            e[i] = h[i]
            fp = _value(engine, theta_hat + e)
            fm = _value(engine, theta_hat - e)
            hess[i, i] = (fp - 2.0 * f0 + fm) / h[i] ** 2
        # Off-diagonal: four-point formula.
        for i in range(p):
            for j in range(i + 1, p):
                ei = np.zeros(p)
                ej = np.zeros(p)
                ei[i] = h[i]
                ej[j] = h[j]
                fpp = _value(engine, theta_hat + ei + ej)
                fpm = _value(engine, theta_hat + ei - ej)
                fmp = _value(engine, theta_hat - ei + ej)
                fmm = _value(engine, theta_hat - ei - ej)
                hess[i, j] = hess[j, i] = (
                    (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
                )
    if not np.all(np.isfinite(hess)):
        raise OptimizationError(
            "Hessian evaluation hit the parameter boundary; "
            "reduce rel_step or re-check theta_hat"
        )
    return -hess


@dataclass
class MLEUncertainty:
    """Asymptotic uncertainty of an MLE."""

    theta: np.ndarray
    covariance: np.ndarray
    standard_errors: np.ndarray
    level: float
    lower: np.ndarray
    upper: np.ndarray
    param_names: tuple[str, ...]

    def interval(self, name: str) -> tuple[float, float]:
        k = self.param_names.index(name)
        return float(self.lower[k]), float(self.upper[k])

    def summary_rows(self) -> list[list[object]]:
        return [
            [n, float(t), float(se), float(lo), float(hi)]
            for n, t, se, lo, hi in zip(
                self.param_names, self.theta, self.standard_errors,
                self.lower, self.upper,
            )
        ]


def mle_uncertainty(
    kernel: CovarianceKernel,
    theta_hat: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    nugget: float = 0.0,
    level: float = 0.95,
    rel_step: float = 1.0e-3,
    cache: GeometryCache | None = None,
) -> MLEUncertainty:
    """Asymptotic covariance ``I^{-1}``, standard errors, and Wald
    intervals at confidence ``level``.

    Raises :class:`~repro.exceptions.OptimizationError` when the
    observed information is not positive definite (``theta_hat`` is not
    an interior maximum).
    """
    info = observed_information(
        kernel, theta_hat, x, z,
        tile_size=tile_size, variant=variant, nugget=nugget,
        rel_step=rel_step, cache=cache,
    )
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - degenerate
        raise OptimizationError(f"singular information matrix: {exc}") from exc
    diag = np.diag(cov)
    if np.any(diag <= 0):
        raise OptimizationError(
            "observed information is not positive definite at theta_hat"
        )
    se = np.sqrt(diag)
    zcrit = float(np.sqrt(2.0) * special.erfinv(level))
    theta_hat = kernel.validate_theta(theta_hat)
    return MLEUncertainty(
        theta=theta_hat,
        covariance=cov,
        standard_errors=se,
        level=level,
        lower=theta_hat - zcrit * se,
        upper=theta_hat + zcrit * se,
        param_names=kernel.param_names,
    )


def profile_likelihood(
    kernel: CovarianceKernel,
    theta_hat: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    param: str,
    values: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    nugget: float = 0.0,
    cache: GeometryCache | None = None,
) -> np.ndarray:
    """Log-likelihood along one parameter axis with the others fixed at
    ``theta_hat`` (the cheap fixed-profile, not the re-optimized one).
    One :class:`~repro.core.engine.EvaluationEngine` serves every
    value, as in :func:`observed_information`."""
    theta_hat = kernel.validate_theta(theta_hat)
    try:
        k = kernel.param_names.index(param)
    except ValueError:
        raise ParameterError(
            f"unknown parameter {param!r}; choose from {kernel.param_names}"
        ) from None
    out = np.empty(len(values))
    with EvaluationEngine(
        kernel, x, z, tile_size=tile_size, variant=variant, nugget=nugget,
        cache=cache,
    ) as engine:
        for i, v in enumerate(np.asarray(values, dtype=np.float64)):
            theta = theta_hat.copy()
            theta[k] = v
            out[i] = _value(engine, theta)
    return out
