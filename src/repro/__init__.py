"""repro — reproduction of "Reshaping Geostatistical Modeling and
Prediction for Extreme-Scale Environmental Applications" (SC 2022).

The package implements, in pure Python/NumPy:

* the geostatistical modeling/prediction pipeline of ExaGeoStat
  (Matérn space and Gneiting space-time kernels, Gaussian MLE,
  kriging) — :mod:`repro.core`, :mod:`repro.kernels`;
* the paper's contribution: a tile Cholesky combining mixed-precision
  storage (FP64/FP32/FP16, Frobenius-rule adaptive) with tile low-rank
  compression and structure/precision-aware runtime decisions —
  :mod:`repro.tile`;
* a PaRSEC-like task runtime with dataflow analysis, block-cyclic
  distribution and a discrete-event distributed simulator —
  :mod:`repro.runtime`;
* performance models of the A64FX/Fugaku platform driving both the
  runtime decisions and the paper-scale scaling estimates —
  :mod:`repro.perfmodel`;
* dataset surrogates and optimizers — :mod:`repro.data`,
  :mod:`repro.optim`.

Quick start::

    from repro import ExaGeoStatModel
    from repro.data import soil_moisture_surrogate

    data = soil_moisture_surrogate(n_train=600, n_test=60)
    model = ExaGeoStatModel(kernel="matern", variant="mp-dense-tlr")
    model.fit(data.x_train, data.z_train, theta0=data.theta_true)
    print(model.summary())
    print("MSPE:", model.score(data.x_test, data.z_test))
"""

from .core import (
    DENSE_FP64,
    MP_DENSE,
    MP_DENSE_TLR,
    ExaGeoStatModel,
    MLEResult,
    PredictionEngine,
    PredictionResult,
    VariantConfig,
    fit_mle,
    get_variant,
    kriging_predict,
    loglikelihood,
)
from .exceptions import (
    CompressionError,
    ConfigurationError,
    NotPositiveDefiniteError,
    OptimizationError,
    ParameterError,
    ReproError,
    SchedulingError,
    ShapeError,
)
from .kernels import GneitingMaternKernel, MaternKernel

__version__ = "1.0.0"

__all__ = [
    "ExaGeoStatModel",
    "MaternKernel",
    "GneitingMaternKernel",
    "VariantConfig",
    "DENSE_FP64",
    "MP_DENSE",
    "MP_DENSE_TLR",
    "get_variant",
    "loglikelihood",
    "fit_mle",
    "MLEResult",
    "kriging_predict",
    "PredictionResult",
    "PredictionEngine",
    "ReproError",
    "ParameterError",
    "ShapeError",
    "NotPositiveDefiniteError",
    "CompressionError",
    "SchedulingError",
    "OptimizationError",
    "ConfigurationError",
    "__version__",
]
