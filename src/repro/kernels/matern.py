"""Matérn covariance family (paper Section IV-A.3).

The Matérn correlation with smoothness ``nu`` and range ``a`` is

    M_nu(r) = 2^(1-nu) / Gamma(nu) * (r/a)^nu * K_nu(r/a),   M_nu(0) = 1,

where ``K_nu`` is the modified Bessel function of the second kind.  The
paper's space experiments use ``theta = (variance, range, smoothness)``
— the three columns of Table I.

Implementation notes
--------------------
* Half-integer smoothness (1/2, 3/2, 5/2) uses the closed forms, which
  are both faster and more accurate than the Bessel route.
* The generic path evaluates in the log domain to dodge the
  overflow/underflow of ``(r/a)^nu * K_nu`` at extreme arguments, and
  returns exactly 1 at ``r = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .base import CovarianceKernel, ParameterSpec
from .distance import as_locations, cross_distance

__all__ = ["matern_correlation", "DistanceGeometry", "MaternKernel"]


@dataclass(frozen=True)
class DistanceGeometry:
    """Cached Euclidean distances (squared, for the Gaussian kernel)
    for isotropic kernels.

    ``r`` carries the exact-zero diagonal of same-set evaluation when
    ``same`` is true; consumers must not mutate it.
    """

    r: np.ndarray
    same: bool


class _DistanceGeometryMixin:
    """Shared geometry plumbing for kernels that only need a matrix of
    Euclidean distances (theta enters afterwards, element by element)."""

    elementwise_geometry = True

    #: What is cached of a location pair, and its tag in the cache key:
    #: kernels with the same tag share geometry over the same locations.
    _distance = staticmethod(cross_distance)
    _geometry_tag = "dist"

    def geometry_key(self) -> str:
        return f"{self._geometry_tag}/{self.ndim_locations}"

    def prepare_geometry(
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> DistanceGeometry:
        x1 = as_locations(x1, dim=self.ndim_locations)
        same = x2 is None
        x2v = x1 if same else as_locations(x2, dim=self.ndim_locations)
        return DistanceGeometry(self._distance(x1, x2v), same)


_HALF_INTEGER_TOL = 1.0e-12


# Closed forms in the geostatistical convention M_nu(r) =
# 2^(1-nu)/Gamma(nu) r^nu K_nu(r) (plain argument, as in ExaGeoStat and
# the paper's Eq. 6 — NOT the machine-learning sqrt(2 nu) scaling).


def _matern_half(scaled: np.ndarray) -> np.ndarray:
    return np.exp(-scaled)


def _matern_three_half(scaled: np.ndarray) -> np.ndarray:
    return (1.0 + scaled) * np.exp(-scaled)


def _matern_five_half(scaled: np.ndarray) -> np.ndarray:
    return (1.0 + scaled + scaled * scaled / 3.0) * np.exp(-scaled)


_CLOSED_FORMS = {0.5: _matern_half, 1.5: _matern_three_half, 2.5: _matern_five_half}


def matern_correlation(r: np.ndarray, nu: float, *, scaled: bool = True) -> np.ndarray:
    """Matérn correlation ``M_nu`` evaluated at (already range-scaled,
    unless ``scaled=False`` is a misnomer here — ``r`` must be ``dist/a``)
    distances ``r >= 0``.

    Parameters
    ----------
    r:
        Nonnegative array of distances divided by the range parameter.
    nu:
        Smoothness ``nu > 0``.
    scaled:
        Kept for API clarity; must remain True (``r`` is ``dist/range``).
    """
    if not scaled:  # pragma: no cover - guard against misuse
        raise ValueError("pass distances already divided by the range")
    if nu <= 0.0:
        raise ValueError(f"Matérn smoothness must be positive, got {nu}")
    r = np.asarray(r, dtype=np.float64)

    for half, fn in _CLOSED_FORMS.items():
        if abs(nu - half) < _HALF_INTEGER_TOL:
            return fn(r)

    out = np.ones_like(r)
    positive = r > 0.0
    if np.any(positive):
        rp = r[positive]
        # log(2^{1-nu}/Gamma(nu)) + nu*log(r) + log K_nu(r); kve returns
        # exp(r) * K_nu(r), so subtract r in the log domain.
        log_kve = np.log(special.kve(nu, rp))
        log_val = (
            (1.0 - nu) * np.log(2.0)
            - special.gammaln(nu)
            + nu * np.log(rp)
            + log_kve
            - rp
        )
        vals = np.exp(log_val)
        # Guard round-off: correlation is in [0, 1].
        np.clip(vals, 0.0, 1.0, out=vals)
        out[positive] = vals
    return out


class MaternKernel(_DistanceGeometryMixin, CovarianceKernel):
    """Stationary isotropic Matérn kernel.

    ``theta = (variance, range, smoothness)`` matching Table I of the
    paper (``theta_0 = sigma^2``, ``theta_1 = a``, ``theta_2 = nu``).

    Parameters
    ----------
    ndim:
        Spatial dimension of the locations (default 2, the paper's 2-D
        space experiments).  ``None`` accepts any dimension.
    nugget:
        Fixed micro-scale variance added on exact-zero distances.  The
        paper's model has no nugget; it is exposed for robustness
        studies and defaults to 0.
    """

    def __init__(self, ndim: int | None = 2, nugget: float = 0.0):
        if nugget < 0.0:
            raise ValueError("nugget must be nonnegative")
        self.ndim_locations = ndim
        self.nugget = float(nugget)

    @property
    def param_specs(self) -> tuple[ParameterSpec, ...]:
        return (
            ParameterSpec("variance", 0.0, np.inf, 1.0),
            ParameterSpec("range", 0.0, np.inf, 0.1),
            ParameterSpec("smoothness", 0.0, 5.0, 0.5),
        )

    def _cross(self, theta: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        variance, rng, nu = theta
        r = cross_distance(x1, x2)
        r /= rng
        c = variance * matern_correlation(r, nu)
        if self.nugget:
            c[r == 0.0] += self.nugget
        return c

    def _cross_geometry(
        self, theta: np.ndarray, geom: DistanceGeometry
    ) -> np.ndarray:
        # Same operation sequence as _cross on a fresh scaled-distance
        # array, so cached evaluation is bit-identical to the direct one.
        variance, rng, nu = theta
        r = geom.r / rng
        c = variance * matern_correlation(r, nu)
        if self.nugget:
            c[r == 0.0] += self.nugget
        return c

    def correlation_at(self, theta: np.ndarray, distance: float) -> float:
        """Scalar correlation at a given distance — handy for
        classifying weak/medium/strong dependence as in Fig. 6."""
        theta = self.validate_theta(theta)
        r = np.asarray([distance], dtype=np.float64) / theta[1]
        return float(matern_correlation(r, theta[2])[0])
