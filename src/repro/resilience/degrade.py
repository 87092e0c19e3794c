"""Graceful variant degradation for fits that keep breaking down.

The per-factorization recovery ladder (:mod:`repro.tile.recovery`)
rescues *one* evaluation; when a whole fit keeps hitting numerical
breakdowns — chaos-corrupted tiles escaping the retry budget, FP16
overflow at every trial theta — the right production move is to stop
paying the rescue cost per evaluation and *downgrade the variant for
the rest of the fit*, trading the paper's speedups for a factorization
that cannot break:

    mp-dense-tlr  ->  widen the dense band (x``widen_band_factor``)
                  ->  dense FP64

Each fit attempt that ends unhealthy (non-finite loglikelihood, or
more than ``max_failure_fraction`` of its evaluations rejected)
records one ``downgrade`` :class:`~repro.tile.recovery.RecoveryAction`
in the fit-level report, so the degradation history reads exactly like
the per-factorization recovery history it extends.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

__all__ = ["DegradationPolicy", "degradation_steps"]


@dataclass(frozen=True)
class DegradationPolicy:
    """When and how a fit downgrades its compute variant.

    A completed fit attempt is *unhealthy* when its best loglikelihood
    is non-finite, or when more than ``max_failure_fraction`` of at
    least ``min_evaluations`` evaluations were rejected (indefinite /
    corrupted / unrecovered).  Unhealthy attempts fall to the next
    ladder rung; the final rung's result is returned regardless.
    """

    max_failure_fraction: float = 0.5
    min_evaluations: int = 2
    widen_band_factor: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_failure_fraction <= 1.0:
            raise ConfigurationError(
                "max_failure_fraction must be in [0, 1]"
            )
        if self.min_evaluations < 1:
            raise ConfigurationError("min_evaluations must be >= 1")
        if self.widen_band_factor < 2:
            raise ConfigurationError("widen_band_factor must be >= 2")


#: Downgrade on any failure majority — the sensible production default.
DEFAULT_DEGRADATION = DegradationPolicy()

__all__.append("DEFAULT_DEGRADATION")


def degradation_steps(variant, policy: DegradationPolicy = DEFAULT_DEGRADATION):
    """The degradation ladder below ``variant`` (safest last).

    * TLR variants first *widen the dense band*: low-rank structure is
      pushed further off-diagonal, where tiles are tamest, while the
      mixed-precision plan survives;
    * any approximate variant finally falls to ``dense-fp64`` (same
      ``workers`` / ``backend`` / ``batch``, so the
      execution engine is unchanged) — the reference configuration
      that cannot break down numerically.

    Returns a list of :class:`~repro.core.variants.VariantConfig`
    (empty for ``dense-fp64`` itself, which has nowhere to fall).
    """
    # Imported lazily: core.variants is higher in the layering.
    from ..core.variants import DENSE_FP64

    steps = []
    if variant.use_tlr:
        band = variant.band_size if isinstance(variant.band_size, int) else 2
        wide = max(band * policy.widen_band_factor, band + 1)
        steps.append(variant.with_(
            name=f"{variant.name}+band{wide}", band_size=wide,
        ))
    if variant.use_mp or variant.use_tlr:
        steps.append(DENSE_FP64.with_(
            name="dense-fp64", workers=variant.workers,
            backend=variant.backend, batch=variant.batch,
        ))
    return steps
