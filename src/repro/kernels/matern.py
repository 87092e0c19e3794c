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
* A caller that accepts a relative error (``from_flat_geometry(...,
  accuracy=)``, an approximate variant's generation) gets the generic
  path from a per-evaluation table of ``log M_nu`` over log-distance,
  not one ``kve`` call per entry, when the table certifies it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def positive_span(self) -> tuple[float, float]:
        """Smallest positive and largest entry of ``r``, computed once
        per geometry object (the flat buffer a cache keeps)."""
        r = self.r
        return (float(np.min(r, where=r > 0.0, initial=np.inf)),
                float(np.max(r, initial=-np.inf)))


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
    """Matérn correlation ``M_nu`` at range-scaled distances
    ``r = dist / range >= 0``.  ``r`` must already be divided by the
    range; the function never scales it.

    Parameters
    ----------
    r:
        Nonnegative array of distances divided by the range parameter.
    nu:
        Smoothness ``nu > 0``.
    scaled:
        Must be True (the default): it states that ``r`` is
        ``dist/range``.  ``False`` raises ``ValueError``.
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
        vals = np.exp(_log_matern(r[positive], nu))
        # Guard round-off: correlation is in [0, 1].
        np.clip(vals, 0.0, 1.0, out=vals)
        out[positive] = vals
    return out


def _log_matern(r: np.ndarray, nu: float) -> np.ndarray:
    """``log M_nu(r)`` at positive ``r`` by the Bessel route."""
    # log(2^{1-nu}/Gamma(nu)) + nu*log(r) + log K_nu(r); kve returns
    # exp(r) * K_nu(r), so subtract r in the log domain.
    log_kve = np.log(special.kve(nu, r))
    return (
        (1.0 - nu) * np.log(2.0)
        - special.gammaln(nu)
        + nu * np.log(r)
        + log_kve
        - r
    )


#: Nodes of the per-evaluation table.  At 4,096 nodes over the span of
#: a few thousand uniform points of the unit square the table certifies
#: <= 1.3e-11 relative for nu in 0.1-5 and range >= 0.02 (DESIGN §10),
#: and its ~12 K ``kve`` calls cost a few ms per evaluation.
_TABLE_NODES = 4096


def _log_table(
    theta: np.ndarray, nugget: float, lo: float, hi: float,
) -> tuple[Callable[[DistanceGeometry], np.ndarray], float] | None:
    """A cubic Hermite table of ``f(t) = log M_nu(e^t / range)`` on
    :data:`_TABLE_NODES` nodes uniform in ``t = log dist`` over the
    positive-distance span ``[lo, hi]``: its slice evaluator and the
    relative error it certifies.  ``None`` without two distinct
    positive distances or when a node or check point is not finite.

    The slopes are exact (``f'(t) = -r K_{nu-1}(r) / K_nu(r)``), so the
    interpolation error peaks at the cell midpoints: the certificate is
    twice the largest midpoint error against ``kve``, plus the rounding
    of evaluating ``log``, the cubic and ``exp`` on either side.  A
    distance of zero gets exactly ``variance`` (+ ``nugget``), as on the
    exact path.
    """
    if not lo < hi:
        return None
    variance, rng, nu = theta
    t0 = np.log(lo)
    h = (np.log(hi) - t0) / (_TABLE_NODES - 1)
    t = t0 + h * np.arange(_TABLE_NODES)
    r = np.exp(t) / rng
    with np.errstate(all="ignore"):
        f = _log_matern(r, nu)
        slope = -h * r * special.kve(nu - 1.0, r) / special.kve(nu, r)
        f_mid = _log_matern(np.exp(t[:-1] + 0.5 * h) / rng, nu)
    if not all(np.isfinite(a).all() for a in (f, slope, f_mid)):
        return None
    f0, f1, s0, s1 = f[:-1], f[1:], slope[:-1], slope[1:]
    # p(u) = f0 + s0 u + c2 u^2 + c3 u^3 for u in [0, 1] across a cell.
    c2 = 3.0 * (f1 - f0) - 2.0 * s0 - s1
    c3 = 2.0 * (f0 - f1) + s0 + s1
    midpoint = np.abs(f0 + 0.5 * (s0 + 0.5 * (c2 + 0.5 * c3)) - f_mid).max()
    rounding = 16.0 * np.finfo(np.float64).eps * (
        1.0 + np.abs(f).max() + np.abs(slope / h).max() * (1.0 + np.abs(t).max())
    )
    scale, last = 1.0 / h, _TABLE_NODES - 2

    def evaluate(piece: DistanceGeometry) -> np.ndarray:
        u = np.maximum(piece.r, lo)
        np.log(u, out=u)
        u -= t0
        u *= scale
        cell = u.astype(np.intp)
        np.minimum(cell, last, out=cell)
        u -= cell
        v = c3.take(cell)
        for c in (c2, s0, f0):  # Horner
            v *= u
            v += c.take(cell)
        np.minimum(v, 0.0, out=v)  # correlation <= 1, as the exact path
        np.exp(v, out=v)
        v *= variance
        zero = piece.r == 0.0
        v[zero] = variance
        if nugget:
            v[zero] += nugget
        return v

    return evaluate, float(np.expm1(2.0 * midpoint + rounding))


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

    def _flat_evaluator(
        self, theta: np.ndarray, flat: DistanceGeometry, accuracy: float | None
    ) -> tuple[Callable[[DistanceGeometry], np.ndarray], float]:
        """The table (:func:`_log_table`) when ``accuracy`` is given, the
        smoothness is not a closed form and the table certifies
        ``accuracy`` over ``flat``'s positive distances; the exact
        evaluator otherwise."""
        exact = super()._flat_evaluator(theta, flat, accuracy)
        if accuracy is None or any(
            abs(theta[2] - half) < _HALF_INTEGER_TOL for half in _CLOSED_FORMS
        ):
            return exact
        table = _log_table(theta, self.nugget, *flat.positive_span)
        return exact if table is None or table[1] > accuracy else table

    def correlation_at(self, theta: np.ndarray, distance: float) -> float:
        """Scalar correlation at a given distance — handy for
        classifying weak/medium/strong dependence as in Fig. 6."""
        theta = self.validate_theta(theta)
        r = np.asarray([distance], dtype=np.float64) / theta[1]
        return float(matern_correlation(r, theta[2])[0])
