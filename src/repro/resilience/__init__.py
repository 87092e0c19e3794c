"""Production resilience layer for the real execution paths.

The simulator's fault tolerance (:mod:`repro.runtime.faults`) models
failures; this package *survives* them in the executors that actually
compute:

* :mod:`~repro.resilience.deadline` — :class:`Deadline` budgets,
  threaded through the executors, the likelihood,
  ``fit_mle(time_budget_s=...)`` and
  ``PredictionEngine.predict(deadline_s=...)``; pools drain, threads
  join, partial results are discarded;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` with
  exponential backoff and deterministic seeded jitter for transient
  tile failures, applied per kernel call (a tile op, or one stacked
  call of the panel sweep) *before* the per-factorization recovery
  ladder escalates;
* :mod:`~repro.resilience.degrade` — :class:`DegradationPolicy`:
  a fit that keeps breaking down numerically downgrades its variant
  (TLR -> wider dense band -> dense FP64), every step recorded on the
  extended :class:`~repro.tile.recovery.RecoveryReport`;
* :mod:`~repro.resilience.chaos` — seeded, opt-in
  :class:`ChaosConfig` injection (NaN/overflow tile corruption,
  worker delays/failures, batch failures) against the real executors;
* :mod:`~repro.resilience.health` — :class:`HealthReport` error
  budgets and the serving :class:`CircuitBreaker`;
* :mod:`~repro.resilience.validate` — :func:`require_finite` input
  rejection at the API boundary.

Everything is opt-in through one :class:`ResilienceConfig`; with it
absent (``None``) every hook short-circuits and results are
bit-identical to the unhardened paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .chaos import ChaosConfig, ChaosInjector, ChaosStats
from .deadline import Deadline
from .degrade import (
    DEFAULT_DEGRADATION,
    DegradationPolicy,
    degradation_steps,
)
from .health import CircuitBreaker, HealthReport
from .retry import DEFAULT_RETRY, DEFAULT_RETRYABLE, RetryPolicy
from .validate import require_finite

__all__ = [
    "ResilienceConfig",
    "DEFAULT_RESILIENCE",
    "Deadline",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "DEFAULT_RETRYABLE",
    "DegradationPolicy",
    "DEFAULT_DEGRADATION",
    "degradation_steps",
    "ChaosConfig",
    "ChaosInjector",
    "ChaosStats",
    "CircuitBreaker",
    "HealthReport",
    "require_finite",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """One bundle of resilience knobs threaded through a fit or an
    engine.

    ``retry`` handles transient tile failures inside the executor;
    ``degradation`` downgrades the variant across fit attempts;
    ``chaos`` opts into seeded fault injection — either a
    :class:`ChaosConfig`, or an already-bound :class:`ChaosInjector`
    when an engine shares one across evaluations (see :meth:`bind`).
    Any field may be ``None`` to disable that layer; a wholly-``None``
    config is equivalent to passing no config at all.
    """

    retry: RetryPolicy | None = None
    degradation: DegradationPolicy | None = None
    chaos: "ChaosConfig | ChaosInjector | None" = None

    @property
    def chaos_enabled(self) -> bool:
        """Whether any chaos injection can fire."""
        if self.chaos is None:
            return False
        config = getattr(self.chaos, "config", self.chaos)
        return config.enabled

    @property
    def task_level(self) -> bool:
        """Whether the factorization runs under retry or chaos hooks
        (on the kernel calls the executor makes); degradation alone is
        fit-level and leaves the factorization path untouched."""
        return self.retry is not None or self.chaos_enabled

    @property
    def active(self) -> bool:
        """Whether any layer can change execution behavior."""
        return self.task_level or self.degradation is not None

    def resolve_chaos(self) -> "ChaosInjector | None":
        """The injector for :attr:`chaos` (pass-through when already
        bound, fresh otherwise, ``None`` when chaos is off)."""
        if not self.chaos_enabled:
            return None
        if isinstance(self.chaos, ChaosInjector):
            return self.chaos
        return ChaosInjector(self.chaos)

    def bind(self) -> "ResilienceConfig":
        """Config whose chaos field is a stateful injector, so every
        evaluation of one engine shares epochs and tallies (identical
        configs stay reproducible: draws key on the seed and epoch,
        not on object identity)."""
        injector = self.resolve_chaos()
        if injector is None or injector is self.chaos:
            return self
        return replace(self, chaos=injector)


#: Retry + degradation enabled with defaults, no chaos — what a
#: production fit should run.
DEFAULT_RESILIENCE = ResilienceConfig(
    retry=DEFAULT_RETRY, degradation=DEFAULT_DEGRADATION,
)
