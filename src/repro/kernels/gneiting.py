"""Nonseparable space-time Matérn covariance (paper Eq. 6).

The paper's space-time experiments (Table II, Fig. 11) use the
Gneiting-class model

    psi(u)   = a_t * |u|^(2*alpha) + 1
    C(h, u)  = sigma^2 / psi(u) * M_nu( ||h|| / (a_s * psi(u)^(beta/2)) )

with parameter vector (matching the columns of Table II)

    theta = (variance sigma^2,        theta_0
             range-space a_s,         theta_1
             smoothness-space nu,     theta_2
             range-time a_t,          theta_3
             smoothness-time alpha,   theta_4
             nonseparability beta)    theta_5

``beta = 0`` factors the model into a purely spatial Matérn times a
purely temporal Cauchy-type correlation (*separable*); ``beta > 0``
couples space and time (*nonseparable*, "deemed more realistic").

Note on ``alpha``: Gneiting's validity theorem requires
``alpha in (0, 1]``, yet the paper's fitted value for the ET dataset is
3.49 (Table II).  Evaluating Eq. (6) as printed at that value yields
*strongly indefinite* matrices (we measure lambda_min ~ -13 on a
monthly lattice), so it cannot be what the production code evaluated
bound-free.  This implementation therefore enforces the validity
constraint ``alpha in (0, 1]``; the surrogate dataset generator uses
the paper's Table II vector with alpha clamped to 0.9 and documents
the substitution (see :mod:`repro.data.evapotranspiration`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import CovarianceKernel, ParameterSpec
from .distance import as_locations, cross_space_time_lags
from .matern import matern_correlation

__all__ = ["GneitingMaternKernel", "SpaceTimeGeometry", "temporal_decay"]


@dataclass(frozen=True)
class SpaceTimeGeometry:
    """Cached spatial distances ``‖h‖`` and temporal lags ``|u|`` —
    everything of Eq. (6) that does not depend on theta."""

    h: np.ndarray
    u: np.ndarray
    same: bool


def temporal_decay(u: np.ndarray, a_t: float, alpha: float) -> np.ndarray:
    """``psi(u) = a_t * |u|^(2 alpha) + 1`` evaluated element-wise."""
    u = np.abs(np.asarray(u, dtype=np.float64))
    out = np.zeros_like(u)
    positive = u > 0.0
    # |u|^(2 alpha) via exp/log for stability at large alpha.
    out[positive] = np.exp(2.0 * alpha * np.log(u[positive]))
    out *= a_t
    out += 1.0
    return out


class GneitingMaternKernel(CovarianceKernel):
    """Space-time Matérn kernel of Eq. (6).

    Locations are ``(n, space_dim + 1)`` arrays whose last column is
    time.  Default ``space_dim = 2`` (the paper's 2-D space-time data).
    """

    elementwise_geometry = True

    def __init__(self, space_dim: int = 2):
        if space_dim < 1:
            raise ValueError("space_dim must be >= 1")
        self.space_dim = int(space_dim)
        self.ndim_locations = space_dim + 1

    @property
    def param_specs(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec("variance", 0.0, np.inf, 1.0),
            ParameterSpec("range_space", 0.0, np.inf, 1.0),
            ParameterSpec("smooth_space", 0.0, 5.0, 0.5),
            ParameterSpec("range_time", 0.0, np.inf, 0.5),
            ParameterSpec("smooth_time", 0.0, 1.0 + 1.0e-9, 0.5),
            ParameterSpec("beta", -1.0e-12, 1.0 + 1.0e-9, 0.5),
        )

    def _cross(self, theta: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        variance, a_s, nu, a_t, alpha, beta = theta
        h, u = cross_space_time_lags(x1, x2)
        psi = temporal_decay(u, a_t, alpha)
        # Effective space argument ||h|| / (a_s * psi^{beta/2}).
        if beta > 0.0:
            scale = np.exp((beta / 2.0) * np.log(psi))
            arg = h / (a_s * scale)
        else:
            arg = h / a_s
        c = matern_correlation(arg, nu)
        c *= variance
        c /= psi
        return c

    def geometry_key(self) -> str:
        return f"spacetime/{self.space_dim}"

    def prepare_geometry(
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> SpaceTimeGeometry:
        x1 = as_locations(x1, dim=self.ndim_locations)
        same = x2 is None
        x2v = x1 if same else as_locations(x2, dim=self.ndim_locations)
        h, u = cross_space_time_lags(x1, x2v)
        return SpaceTimeGeometry(h, u, same)

    def _cross_geometry(
        self, theta: np.ndarray, geom: SpaceTimeGeometry
    ) -> np.ndarray:
        # Mirrors _cross from the (h, u) lags onward; no cached array is
        # mutated (temporal_decay and matern_correlation both allocate).
        variance, a_s, nu, a_t, alpha, beta = theta
        psi = temporal_decay(geom.u, a_t, alpha)
        if beta > 0.0:
            scale = np.exp((beta / 2.0) * np.log(psi))
            arg = geom.h / (a_s * scale)
        else:
            arg = geom.h / a_s
        c = matern_correlation(arg, nu)
        c *= variance
        c /= psi
        return c

    def is_separable(self, theta: np.ndarray, *, tol: float = 1.0e-12) -> bool:
        """True when the interaction parameter ``beta`` is (numerically)
        zero, i.e. ``C(h, u)`` factors into space and time parts."""
        theta = self.validate_theta(theta)
        return abs(float(theta[5])) <= tol

    def spatial_margin(self, theta: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Purely spatial section ``C(h, 0)``."""
        theta = self.validate_theta(theta)
        variance, a_s, nu = theta[0], theta[1], theta[2]
        h = np.asarray(h, dtype=np.float64)
        return variance * matern_correlation(h / a_s, nu)

    def temporal_margin(self, theta: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Purely temporal section ``C(0, u)``."""
        theta = self.validate_theta(theta)
        variance, a_t, alpha = theta[0], theta[3], theta[4]
        return variance / temporal_decay(np.asarray(u, dtype=np.float64), a_t, alpha)
