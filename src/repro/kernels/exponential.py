"""Simple stationary kernels: exponential, powered exponential, and
squared exponential (Gaussian).

These are not the paper's headline models but serve three roles:

* cheap baselines in tests (the exponential equals Matérn ``nu = 1/2``,
  giving an independent cross-check of the Matérn implementation);
* extreme-smoothness stress cases for TLR compression (the Gaussian
  kernel yields very low off-diagonal tile ranks, the exponential high
  ones), used by the rank-profile tests;
* drop-in models for users of the public API.
"""

from __future__ import annotations

import numpy as np

from .base import CovarianceKernel, ParameterSpec
from .distance import cross_distance, cross_sq_distance
from .matern import DistanceGeometry, _DistanceGeometryMixin

__all__ = ["ExponentialKernel", "PoweredExponentialKernel", "GaussianKernel"]


class ExponentialKernel(_DistanceGeometryMixin, CovarianceKernel):
    """``C(r) = variance * exp(-r / range)`` — Matérn with ``nu = 1/2``."""

    def __init__(self, ndim: int | None = 2):
        self.ndim_locations = ndim

    @property
    def param_specs(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec("variance", 0.0, np.inf, 1.0),
            ParameterSpec("range", 0.0, np.inf, 0.1),
        )

    def _cross(self, theta: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        variance, rng = theta
        r = cross_distance(x1, x2)
        r /= -rng
        return variance * np.exp(r, out=r)

    def _cross_geometry(
        self, theta: np.ndarray, geom: DistanceGeometry
    ) -> np.ndarray:
        variance, rng = theta
        r = geom.r / -rng
        return variance * np.exp(r, out=r)


class PoweredExponentialKernel(_DistanceGeometryMixin, CovarianceKernel):
    """``C(r) = variance * exp(-(r / range)^power)``, ``0 < power <= 2``."""

    def __init__(self, ndim: int | None = 2):
        self.ndim_locations = ndim

    @property
    def param_specs(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec("variance", 0.0, np.inf, 1.0),
            ParameterSpec("range", 0.0, np.inf, 0.1),
            ParameterSpec("power", 0.0, 2.0 + 1.0e-12, 1.0),
        )

    def _cross(self, theta: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        variance, rng, power = theta
        r = cross_distance(x1, x2)
        r /= rng
        out = np.zeros_like(r)
        positive = r > 0.0
        out[positive] = np.exp(power * np.log(r[positive]))
        return variance * np.exp(-out, out=out)

    def _cross_geometry(
        self, theta: np.ndarray, geom: DistanceGeometry
    ) -> np.ndarray:
        variance, rng, power = theta
        r = geom.r / rng
        out = np.zeros_like(r)
        positive = r > 0.0
        out[positive] = np.exp(power * np.log(r[positive]))
        return variance * np.exp(-out, out=out)


class GaussianKernel(_DistanceGeometryMixin, CovarianceKernel):
    """``C(r) = variance * exp(-(r / range)^2 / 2)`` (squared
    exponential); analytically smooth, so its covariance matrices have
    near-minimal off-diagonal tile ranks."""

    # Squared distances (what the kernel consumes directly).
    _distance = staticmethod(cross_sq_distance)
    _geometry_tag = "sqdist"

    def __init__(self, ndim: int | None = 2):
        self.ndim_locations = ndim

    @property
    def param_specs(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec("variance", 0.0, np.inf, 1.0),
            ParameterSpec("range", 0.0, np.inf, 0.1),
        )

    def _cross(self, theta: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        variance, rng = theta
        d2 = cross_sq_distance(x1, x2)
        d2 /= -2.0 * rng * rng
        return variance * np.exp(d2, out=d2)

    def _cross_geometry(
        self, theta: np.ndarray, geom: DistanceGeometry
    ) -> np.ndarray:
        variance, rng = theta
        d2 = geom.r / (-2.0 * rng * rng)
        return variance * np.exp(d2, out=d2)
