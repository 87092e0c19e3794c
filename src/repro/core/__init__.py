"""The paper's contribution, user-facing: variants, likelihood, MLE,
prediction, and the :class:`~repro.core.model.ExaGeoStatModel` API."""

from .engine import EngineStats, EvaluationEngine
from .likelihood import (
    LikelihoodResult,
    loglikelihood,
    loglikelihood_dense_reference,
    loglikelihood_replicated,
)
from .mle import MLEResult, fit_mle
from .model import ExaGeoStatModel
from .serving import (
    PredictionEngine,
    PredictionResult,
    ServingStats,
    clamp_variance,
    kriging_predict,
)
from .simulation import conditional_simulation
from .uq import (
    MLEUncertainty,
    mle_uncertainty,
    observed_information,
    profile_likelihood,
)
from .variants import (
    DENSE_FP64,
    MP_DENSE,
    MP_DENSE_TLR,
    MP_DENSE_TLR_RECOVER,
    VariantConfig,
    get_variant,
)

__all__ = [
    "ExaGeoStatModel",
    "EvaluationEngine",
    "EngineStats",
    "VariantConfig",
    "DENSE_FP64",
    "MP_DENSE",
    "MP_DENSE_TLR",
    "MP_DENSE_TLR_RECOVER",
    "get_variant",
    "loglikelihood",
    "loglikelihood_replicated",
    "loglikelihood_dense_reference",
    "LikelihoodResult",
    "fit_mle",
    "MLEResult",
    "kriging_predict",
    "clamp_variance",
    "PredictionEngine",
    "ServingStats",
    "conditional_simulation",
    "MLEUncertainty",
    "mle_uncertainty",
    "observed_information",
    "profile_likelihood",
    "PredictionResult",
]
