"""High-level public API: :class:`ExaGeoStatModel`.

This is the ExaGeoStat-style workflow the paper ships to
statisticians: configure a kernel and a compute variant, ``fit`` by
MLE, ``predict`` (with uncertainty) at new locations.

    >>> from repro import ExaGeoStatModel
    >>> model = ExaGeoStatModel(kernel="matern", variant="mp-dense-tlr")
    >>> model.fit(x, z, theta0=[1.0, 0.1, 0.5])     # doctest: +SKIP
    >>> pred = model.predict(x_new, return_uncertainty=True)  # doctest: +SKIP

The model handles the locality-preserving reordering internally
(Morton by default) — the user never sees permuted data.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..exceptions import ReproError, ShapeError
from ..kernels import (
    AnisotropicMaternKernel,
    BivariateMaternKernel,
    GneitingMaternKernel,
    MaternKernel,
)
from ..kernels.base import CovarianceKernel
from ..kernels.distance import as_locations
from ..ordering import order_points
from ..resilience import ResilienceConfig
from ..resilience.validate import require_finite
from ..tile.geometry import GeometryCache, locations_fingerprint
from ..tile.matrix import TileMatrix
from .likelihood import LikelihoodResult, loglikelihood
from .mle import MLEResult, fit_mle
from .serving import PredictionEngine, PredictionResult
from .variants import VariantConfig, get_variant

__all__ = ["ExaGeoStatModel"]

_KERNEL_ALIASES = {
    "matern": MaternKernel,
    "gneiting": GneitingMaternKernel,
    "matern-space-time": GneitingMaternKernel,
    "anisotropic": AnisotropicMaternKernel,
    "bivariate": BivariateMaternKernel,
}


def _resolve_kernel(kernel: "str | CovarianceKernel") -> CovarianceKernel:
    if isinstance(kernel, CovarianceKernel):
        return kernel
    try:
        return _KERNEL_ALIASES[kernel.lower()]()
    except KeyError:
        raise ShapeError(
            f"unknown kernel {kernel!r}; aliases: {sorted(_KERNEL_ALIASES)}"
        ) from None


class ExaGeoStatModel:
    """Geostatistical model: MLE fitting + kriging prediction under a
    chosen compute variant.

    Parameters
    ----------
    kernel:
        A :class:`~repro.kernels.base.CovarianceKernel` or an alias
        (``"matern"``, ``"gneiting"``).
    variant:
        Compute variant name or :class:`VariantConfig`
        (``"dense-fp64"``, ``"mp-dense"``, ``"mp-dense-tlr"``).  It
        also carries the execution settings:
        ``get_variant("mp-dense").with_(workers=4, batch=True)``.
    tile_size:
        Tile size of the underlying tiled algorithms.
    ordering:
        Location ordering (``"morton"``, ``"hilbert"``, ``"none"``,
        ``"random"``); the covariance structure the adaptive decisions
        exploit depends on it.
    nugget:
        Fixed diagonal regularization added to the covariance.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig` applied to
        both fitting (task retries, variant degradation, chaos) and
        serving (batch retries, circuit breaker).  ``None`` keeps every
        hook inert — results are bit-identical to the unhardened paths.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` shared by fitting and
        serving: fits run inside a ``"fit_mle"`` span with
        per-iteration progress events, predictions inside ``"predict"``
        spans, and every legacy stats object lands in the bundle's
        metrics registry.  ``None`` (the default) keeps all paths
        untraced and bit-identical to before.
    """

    def __init__(
        self,
        kernel: "str | CovarianceKernel" = "matern",
        variant: "str | VariantConfig" = "dense-fp64",
        *,
        tile_size: int = 64,
        ordering: str = "morton",
        nugget: float = 0.0,
        resilience: ResilienceConfig | None = None,
        telemetry=None,
    ):
        self.kernel = _resolve_kernel(kernel)
        self.variant = get_variant(variant)
        self.tile_size = int(tile_size)
        self.ordering = ordering
        self.nugget = float(nugget)
        self.resilience = resilience
        self.telemetry = telemetry

        self.theta_: np.ndarray | None = None
        self.loglik_: float | None = None
        self.result_: MLEResult | None = None
        self._x: np.ndarray | None = None
        self._z: np.ndarray | None = None
        # The serving engine bundles the amortizable prediction state —
        # factor, solved Eq.-4 weights, cross caches — and is keyed on
        # a content hash of the fitted state so a stale factor or
        # weight vector can never be reused (mirrors GeometryCache).
        self._engine: PredictionEngine | None = None
        self._engine_key: str | None = None
        self._engine_builds = 0
        # Shared across fit / refit / predict: geometry depends only on
        # the locations, which the model pins at fit time.
        self._cache = GeometryCache()

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return self.theta_ is not None

    def _require_fit(self) -> None:
        if not self.fitted:
            raise ReproError("model is not fitted; call fit() first")

    def _ordered(self, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        require_finite("x", x)
        require_finite("z", z)
        x = as_locations(x, dim=self.kernel.ndim_locations)
        z = np.asarray(z, dtype=np.float64).ravel()
        if len(x) != len(z):
            raise ShapeError("x and z lengths differ")
        # Space-time and multivariate kernels carry a non-spatial last
        # column (time / variable id): order by the spatial curve with
        # that column as the secondary key.
        space_time = isinstance(
            self.kernel, (GneitingMaternKernel, BivariateMaternKernel)
        )
        perm = order_points(x, self.ordering, space_time=space_time)
        return x[perm], z[perm]

    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        z: np.ndarray,
        *,
        theta0: np.ndarray | None = None,
        max_iter: int = 150,
        **mle_kwargs,
    ) -> "ExaGeoStatModel":
        """Estimate kernel parameters by maximum likelihood."""
        xo, zo = self._ordered(x, z)
        mle_kwargs.setdefault("cache", self._cache)
        mle_kwargs.setdefault("resilience", self.resilience)
        mle_kwargs.setdefault("telemetry", self.telemetry)
        result = fit_mle(
            self.kernel, xo, zo,
            tile_size=self.tile_size, variant=self.variant,
            theta0=theta0, nugget=self.nugget, max_iter=max_iter,
            **mle_kwargs,
        )
        self.result_ = result
        self.theta_ = result.theta
        self.loglik_ = result.loglik
        self._x, self._z = xo, zo
        self._invalidate_serving()  # rebuilt lazily at the fitted theta
        return self

    def set_params(self, theta: np.ndarray, x: np.ndarray, z: np.ndarray) -> "ExaGeoStatModel":
        """Skip fitting: install known parameters and training data
        (used when parameters come from a prior study)."""
        self.theta_ = self.kernel.validate_theta(theta)
        self._x, self._z = self._ordered(x, z)
        self.result_ = None
        self.loglik_ = None
        self._invalidate_serving()
        return self

    def _likelihood_at_fit(self) -> LikelihoodResult:
        self._require_fit()
        result = loglikelihood(
            self.kernel, self.theta_, self._x, self._z,
            tile_size=self.tile_size, variant=self.variant,
            nugget=self.nugget, cache=self._cache,
            telemetry=self.telemetry,
        )
        self.loglik_ = result.value
        return result

    def _invalidate_serving(self) -> None:
        """Drop the serving engine — factor and solved weights go
        together, so neither can outlive a parameter/data change."""
        self._engine = None
        self._engine_key = None

    def _state_key(self) -> str:
        """Content hash of everything the serving state depends on."""
        digest = hashlib.sha1(self.kernel.geometry_key().encode())
        digest.update(self.variant.name.encode())
        digest.update(str(self.tile_size).encode())
        digest.update(np.float64(self.nugget).tobytes())
        digest.update(np.ascontiguousarray(
            self.theta_, dtype=np.float64).tobytes())
        digest.update(locations_fingerprint(self._x).encode())
        digest.update(np.ascontiguousarray(
            self._z, dtype=np.float64).tobytes())
        return digest.hexdigest()

    def _ensure_engine(self) -> PredictionEngine:
        self._require_fit()
        key = self._state_key()
        if self._engine is None or self._engine_key != key:
            factor = self._likelihood_at_fit().factor
            self._engine = PredictionEngine(
                self.kernel, self.theta_, self._x, self._z, factor,
                variant=self.variant,
                cache=self._cache, resilience=self.resilience,
                telemetry=self.telemetry,
            )
            self._engine_key = key
            self._engine_builds += 1
        return self._engine

    def _ensure_factor(self) -> TileMatrix:
        return self._ensure_engine().factor

    def serving_engine(self) -> PredictionEngine:
        """The batched prediction serving engine bound to the fitted
        state (built lazily; invalidated whenever ``fit`` /
        ``set_params`` change what is served)."""
        return self._ensure_engine()

    # ------------------------------------------------------------------
    def predict(
        self,
        x_new: np.ndarray,
        *,
        return_uncertainty: bool = False,
        batch: int | None = None,
        deadline_s: float | None = None,
    ) -> PredictionResult:
        """Kriging prediction (Eq. 4) and uncertainty (Eq. 5) at new
        locations, using the fitted parameters.  Served by the model's
        :meth:`serving_engine`, so the factor, the Eq.-4 weights, and
        the cross geometry amortize across repeated calls;
        ``deadline_s`` bounds the call's wall clock (see
        :meth:`PredictionEngine.predict`)."""
        require_finite("x_new", x_new)
        return self._ensure_engine().predict(
            as_locations(x_new, dim=self.kernel.ndim_locations),
            return_uncertainty=return_uncertainty,
            batch=batch, deadline_s=deadline_s,
        )

    def simulate(
        self, x_new: np.ndarray, *, size: int = 1, seed: int | None = None
    ) -> np.ndarray:
        """Conditional simulation at new locations (Eq. 3): posterior
        field draws honoring both the data and the fitted covariance."""
        return self._ensure_engine().simulate(
            as_locations(x_new, dim=self.kernel.ndim_locations),
            size=size, seed=seed,
        )

    def uncertainty(self, *, level: float = 0.95, rel_step: float = 1e-3):
        """Asymptotic uncertainty of the fitted parameters (observed
        information; Wald intervals at ``level``)."""
        from .uq import mle_uncertainty

        self._require_fit()
        return mle_uncertainty(
            self.kernel, self.theta_, self._x, self._z,
            tile_size=self.tile_size, variant=self.variant,
            nugget=self.nugget, level=level, rel_step=rel_step,
            cache=self._cache,
        )

    def score(self, x_test: np.ndarray, z_test: np.ndarray) -> float:
        """Mean squared prediction error on held-out data (the paper's
        MSPE column), served by the prediction engine."""
        return self._ensure_engine().score(
            as_locations(x_test, dim=self.kernel.ndim_locations), z_test
        )

    def summary(self) -> dict:
        """Fit summary in the layout of the paper's Tables I/II."""
        self._require_fit()
        out = {
            "variant": self.variant.name,
            "kernel": type(self.kernel).__name__,
            "n": 0 if self._x is None else len(self._x),
            "loglik": self.loglik_,
        }
        for name, value in zip(self.kernel.param_names, self.theta_):
            out[name] = float(value)
        if self.result_ is not None:
            out["nfev"] = self.result_.nfev
            out["converged"] = self.result_.converged
            if self.result_.recovered_evaluations:
                out["recovered_evaluations"] = (
                    self.result_.recovered_evaluations
                )
            if self.result_.stopped_on is not None:
                out["stopped_on"] = self.result_.stopped_on
        return out
