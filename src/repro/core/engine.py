"""MLE hot-path evaluation engine.

One Nelder-Mead fit evaluates the likelihood hundreds of times at the
same ``(x, tile_size)`` and a slowly moving ``theta``.  The
:class:`EvaluationEngine` owns everything reusable across those
evaluations:

* a :class:`~repro.tile.geometry.GeometryCache` of theta-independent
  per-tile geometry (distance matrices, space-time lags), keyed on a
  content hash of the locations so stale reuse is impossible;
* *warm rank hints* — the rank of each tile the previous evaluation's
  assembly compressed, fed back into the next one (ranks vary slowly
  along an optimizer trace), enabling the values-only early-out for
  over-cap tiles.  Only a decision taken before the factorization
  compresses at assembly (Algorithm 2's band tuning, the performance
  model's structure decision); a fixed band in rank mode — the shipped
  TLR variants — compresses every tile at its settle and has none;
* for ``backend="process"`` variants, the persistent worker pool.

The engine is deliberately thin: each :meth:`evaluate` is exactly one
:func:`~repro.core.likelihood.loglikelihood` call with the reusable
state threaded through, so results match the one-shot API by
construction (bit-identical for every kernel whose geometry path is
exact — all built-ins except the anisotropic Matérn, which matches to
rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..kernels.base import CovarianceKernel
from ..kernels.distance import as_locations
from ..resilience import Deadline, HealthReport, ResilienceConfig
from ..tile.geometry import GeometryCache
from .likelihood import LikelihoodResult, loglikelihood
from .variants import DENSE_FP64, VariantConfig, get_variant

__all__ = ["EngineStats", "EvaluationEngine"]


@dataclass
class EngineStats:
    """Reuse counters of one engine."""

    #: Published as a cumulative snapshot
    #: (:meth:`MetricsRegistry.publish`).
    metric_kind = "gauge"

    evaluations: int = 0
    geometry_hits: int = 0
    geometry_misses: int = 0
    warm_tiles: int = 0  # tiles currently carrying a rank hint


class EvaluationEngine:
    """Reusable evaluation state for repeated likelihoods on one dataset.

    Parameters mirror :func:`~repro.core.mle.fit_mle`; ``cache`` may be
    ``False`` (disable geometry reuse), ``None``/``True`` (own a fresh
    :class:`~repro.tile.geometry.GeometryCache`), or an existing cache
    to share across engines.

    Execution settings (``workers`` / ``batch`` / ``backend``) come
    from the variant alone —
    ``variant=get_variant(name).with_(workers=4, batch=True)``.  With
    ``backend="process"`` this engine owns a persistent
    :class:`~repro.runtime.procpool.ProcessPoolEngine` whose workers
    are spawned once and reused by every evaluation — call
    :meth:`close` (or use the engine as a context manager) to stop
    them.  All settings return bit-identical results.

    ``telemetry`` (a :class:`~repro.obs.Telemetry`, default ``None``)
    threads span tracing and metrics through every evaluation; after
    each one the engine's :class:`EngineStats` and :meth:`health` are
    mirrored into the bundle's registry.
    """

    def __init__(
        self,
        kernel: CovarianceKernel,
        x: np.ndarray,
        z: np.ndarray,
        *,
        tile_size: int,
        variant: "str | VariantConfig" = DENSE_FP64,
        nugget: float = 0.0,
        cache: "GeometryCache | bool | None" = None,
        resilience: ResilienceConfig | None = None,
        telemetry=None,
    ):
        self.cfg = get_variant(variant)
        self.kernel = kernel
        self.x = as_locations(x, dim=kernel.ndim_locations)
        self.z = np.asarray(z, dtype=np.float64)
        self.tile_size = int(tile_size)
        self.nugget = float(nugget)
        self.telemetry = telemetry
        self._procpool = None
        if self.cfg.backend == "process":
            from ..runtime.procpool import ProcessPoolEngine

            self._procpool = ProcessPoolEngine(workers=self.cfg.workers)
        if cache is False:
            self.cache: GeometryCache | None = None
        elif isinstance(cache, GeometryCache):
            self.cache = cache
        else:  # None or True: own a fresh cache
            self.cache = GeometryCache()
        # bind() so every evaluation of this engine shares one chaos
        # injector (one epoch stream, one tally); None stays None.
        self.resilience = None if resilience is None else resilience.bind()
        self.rank_hints: dict[tuple[int, int], int] = {}
        #: The engine's whole account (immutable; each evaluation
        #: replaces it): :meth:`health` hands it out, and
        #: ``EngineStats.evaluations`` is its ``calls``.
        self._health = HealthReport(calls=0, failures=0, consecutive_failures=0)

    def evaluate(
        self, theta: np.ndarray, *, deadline: Deadline | None = None
    ) -> LikelihoodResult:
        """One likelihood evaluation with every reusable piece applied,
        feeding this evaluation's ranks back as the next one's hints.

        Failures (indefinite covariance, exhausted recovery, expired
        ``deadline``) re-raise after updating the engine's error
        budget; :meth:`health` reports it.
        """
        health = replace(self._health, calls=self._health.calls + 1)
        try:
            result = loglikelihood(
                self.kernel, theta, self.x, self.z,
                tile_size=self.tile_size, variant=self.cfg, nugget=self.nugget,
                cache=self.cache,
                rank_hints=self.rank_hints if self.rank_hints else None,
                resilience=self.resilience, deadline=deadline,
                procpool=self._procpool,
                telemetry=self.telemetry,
            )
        except Exception:
            self._health = replace(
                health, failures=health.failures + 1,
                consecutive_failures=health.consecutive_failures + 1,
            )
            raise
        else:
            self._health = replace(
                health, consecutive_failures=0,
                retries=health.retries + result.stats.retries,
                recoveries=health.recoveries + (result.recovery is not None),
            )
            if result.report.ranks:
                self.rank_hints.update(result.report.ranks)
        finally:
            if self.telemetry is not None:
                self.telemetry.record(self.stats())
                self.telemetry.record(self._health)
        return result

    def close(self) -> None:
        """Release backend resources — for ``backend="process"``, stop
        the persistent worker pool.  Idempotent; the engine stays
        usable (the pool restarts lazily on the next evaluation)."""
        if self._procpool is not None:
            self._procpool.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> EngineStats:
        return EngineStats(
            evaluations=self._health.calls,
            geometry_hits=0 if self.cache is None else self.cache.hits,
            geometry_misses=0 if self.cache is None else self.cache.misses,
            warm_tiles=len(self.rank_hints),
        )

    def health(self) -> HealthReport:
        """Error-budget report over this engine's lifetime: how many
        evaluations failed, the current failure streak, and how much
        work the resilience layer absorbed (task retries, recovery-
        ladder rescues)."""
        return self._health
