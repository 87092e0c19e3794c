"""Covariance kernels and distance computations.

Public surface:

* :class:`~repro.kernels.base.CovarianceKernel` — the kernel interface.
* :class:`~repro.kernels.matern.MaternKernel` — the paper's space model.
* :class:`~repro.kernels.gneiting.GneitingMaternKernel` — the paper's
  nonseparable space-time model (Eq. 6).
* Simple baselines in :mod:`repro.kernels.exponential`.
* Distance helpers in :mod:`repro.kernels.distance`.
"""

from .anisotropic import AnisotropicMaternKernel
from .base import CovarianceKernel, ParameterSpec
from .bivariate import (
    BivariateMaternKernel,
    parsimonious_rho_max,
    stack_bivariate,
)
from .distance import (
    as_locations,
    cross_distance,
    cross_space_time_lags,
    cross_sq_distance,
    split_space_time,
)
from .exponential import ExponentialKernel, GaussianKernel, PoweredExponentialKernel
from .gneiting import GneitingMaternKernel, temporal_decay
from .matern import MaternKernel, matern_correlation
from .nugget import NuggetKernel

__all__ = [
    "CovarianceKernel",
    "ParameterSpec",
    "AnisotropicMaternKernel",
    "BivariateMaternKernel",
    "parsimonious_rho_max",
    "stack_bivariate",
    "MaternKernel",
    "NuggetKernel",
    "matern_correlation",
    "GneitingMaternKernel",
    "temporal_decay",
    "ExponentialKernel",
    "PoweredExponentialKernel",
    "GaussianKernel",
    "as_locations",
    "cross_distance",
    "cross_sq_distance",
    "split_space_time",
    "cross_space_time_lags",
]
