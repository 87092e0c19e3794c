"""Maximum likelihood estimation drivers.

``fit_mle`` maximizes Eq. (1) over the kernel parameters with SciPy's
COBYQA, a derivative-free trust-region method on quadratic models (the
successor of the BOBYQA that ExaGeoStat fits with), in the transformed
(unconstrained) space; every objective evaluation is one full
tiled-Cholesky likelihood under the chosen compute variant, which is
exactly the structure the paper accelerates.  Covariances that fail
to factor at a trial ``theta`` (indefinite under aggressive
approximation) are treated as rejected steps, not crashes (COBYQA
sees its extreme barrier); variants with a recovery ladder
(:mod:`repro.tile.recovery`) first try to rescue the evaluation, and
rescued evaluations are tallied on the result.

Long fits can be bounded (``max_nfev`` / ``time_budget_s`` return the
best point seen so far, unconverged, instead of running forever) and
checkpointed (``checkpoint_path`` logs every evaluation, and a crashed
driver replays the log to the deterministic optimizer instead of
restarting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    NotPositiveDefiniteError,
    ParameterError,
)
from ..kernels.base import CovarianceKernel
from ..obs.telemetry import maybe_span
from ..optim.bounds import BoundTransform
from ..optim.checkpoint import load_checkpoint, save_checkpoint
from ..resilience import Deadline, ResilienceConfig, degradation_steps
from ..resilience.validate import require_finite
from ..tile.geometry import GeometryCache
from ..tile.recovery import RecoveryAction, RecoveryReport
from .engine import EvaluationEngine
from .variants import DENSE_FP64, VariantConfig, get_variant

__all__ = ["MLEResult", "fit_mle"]

#: COBYQA's initial trust-region radius in the transformed space.
_INITIAL_RADIUS = 0.3
_CHECKPOINT_KIND = "mle-evaluations"


@dataclass
class MLEResult:
    """MLE outcome for one dataset/variant."""

    theta: np.ndarray
    loglik: float
    nfev: int
    nit: int
    converged: bool
    variant: str
    history: list[float] = field(default_factory=list)
    failed_evaluations: int = 0
    #: Evaluations the numerical recovery ladder rescued from a
    #: factorization breakdown (0 unless the variant enables recovery).
    recovered_evaluations: int = 0
    #: One :class:`~repro.tile.recovery.RecoveryReport` per rescue, in
    #: evaluation order.
    recovery_reports: list[RecoveryReport] = field(default_factory=list)
    #: Why the fit stopped early (``"max_nfev"`` / ``"time_budget"``),
    #: or ``None`` when the optimizer itself terminated.
    stopped_on: str | None = None
    #: Fit-level degradation-ladder report: non-``None`` only when the
    #: resilience layer downgraded the compute variant mid-fit.  Its
    #: ``variant_path`` lists every variant attempted (first to last),
    #: ``actions`` one ``"downgrade"`` step per refit, and ``retries``
    #: the transient task retries absorbed across the whole fit.
    degradation: RecoveryReport | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vals = ", ".join(f"{v:.4g}" for v in self.theta)
        return (
            f"MLEResult(theta=[{vals}], loglik={self.loglik:.4f}, "
            f"nfev={self.nfev}, variant={self.variant!r})"
        )


class _BudgetExhausted(Exception):
    """Internal: the evaluation budget ran out mid-optimization."""

    def __init__(self, reason: str):
        self.reason = reason


def fit_mle(
    kernel: CovarianceKernel,
    x: np.ndarray,
    z: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    theta0: np.ndarray | None = None,
    nugget: float = 0.0,
    max_iter: int = 150,
    xatol: float = 1.0e-4,
    max_nfev: int | None = None,
    time_budget_s: float | None = None,
    checkpoint_path: str | None = None,
    cache: "GeometryCache | bool | None" = None,
    resilience: ResilienceConfig | None = None,
    telemetry=None,
) -> MLEResult:
    """Fit kernel parameters by maximum likelihood.

    ``theta0`` defaults to the kernel's per-parameter defaults; pass a
    rough guess to cut optimizer iterations (the accuracy benches start
    near the generating values, like the paper's warm-started
    optimization campaigns).  COBYQA starts at trust radius 0.3 in the
    transformed space and converges when the radius shrinks to
    ``xatol``; ``max_iter`` caps its iterations (about one evaluation
    each, after the ``2p + 1`` that build its first model).  ``history`` is
    the best log-likelihood so far after each evaluation.

    ``max_nfev`` / ``time_budget_s`` bound the fit: when either budget
    runs out mid-optimization the best parameters seen so far come back
    as an *unconverged* result with ``stopped_on`` set, instead of the
    driver running arbitrarily long.  ``checkpoint_path`` logs every
    evaluation's ``(u, value)`` under its rung's variant name.  A fit
    started on an existing log answers the optimizer from it until it
    runs out (COBYQA is deterministic, so it asks for the logged points
    again; one that differs raises
    :class:`~repro.exceptions.ConfigurationError`) and then continues
    where the interrupted fit stopped.  Replayed evaluations count
    toward ``nfev`` and ``max_nfev`` but emit no ``mle_iteration``
    event and carry no recovery report.  Delete the file to start
    fresh.

    Evaluations run on an :class:`~repro.core.engine.EvaluationEngine`:
    theta-independent tile geometry is computed once and reused across
    the whole fit (``cache=False`` disables the reuse).  Execution
    settings ride on the variant and nowhere else —
    ``variant=get_variant("mp-dense").with_(workers=4, batch=True)``
    (``workers`` / ``batch`` / ``backend``, see
    :class:`~repro.core.variants.VariantConfig`); with
    ``backend="process"`` each rung's engine owns a persistent
    shared-memory worker pool, spawned once and reused by every
    evaluation of the fit.  Every setting combination produces the
    same log-likelihoods and optimizer iterates bit-for-bit, or raises
    :class:`~repro.exceptions.ConfigurationError` (``batch=True`` with
    ``backend="process"``, when the variant is built).

    ``resilience`` opts into the hardening layer: transient tile
    failures retry with seeded backoff, chaos injection (when
    configured) targets the real executor, and a
    :class:`~repro.resilience.DegradationPolicy` refits under
    progressively safer variants (TLR -> wider dense band -> dense
    FP64) when a fit keeps breaking down numerically — every
    downgrade recorded on ``result.degradation``.  With a
    ``time_budget_s`` the budget also becomes a hard
    :class:`~repro.resilience.Deadline` inside each factorization, so
    a single long evaluation aborts cleanly (pool drained, no leaked
    threads) instead of overshooting.

    ``telemetry`` (a :class:`~repro.obs.Telemetry`, default ``None``)
    profiles the fit: the whole optimization runs inside a
    ``"fit_mle"`` span, every likelihood evaluation emits its own span
    tree, and each evaluation posts an ``"mle_iteration"`` progress
    event carrying the log-likelihood, theta, the tile-rank histogram,
    and the precision mix.  ``telemetry=None`` (the default) executes
    exactly the untraced code path.
    """
    # SciPy's optimizers cost ~140 ms to import; only a fit pays it.
    from scipy.optimize import minimize

    cfg = get_variant(variant)
    require_finite("x", x)
    require_finite("z", z)
    if resilience is not None:
        resilience = resilience.bind()
    transform = BoundTransform.from_specs(kernel.param_specs)
    if theta0 is None:
        theta0 = kernel.default_theta()
    theta0 = kernel.validate_theta(theta0)
    u0 = transform.to_unconstrained(theta0)

    deadline = Deadline.after(time_budget_s)
    nfev_total = 0
    # The evaluation log: variant name -> [[u, value], ...] per rung.
    log: dict[str, list] = {}
    if checkpoint_path is not None:
        log = load_checkpoint(checkpoint_path, kind=_CHECKPOINT_KIND) or {}

    def run_fit(step_cfg: VariantConfig) -> tuple[MLEResult, EvaluationEngine]:
        """One complete optimization under one compute variant; the
        budgets (``max_nfev``, the deadline) are shared across rungs."""
        nonlocal nfev_total
        nfev_start = nfev_total
        engine = EvaluationEngine(
            kernel, x, z, tile_size=tile_size, variant=step_cfg,
            nugget=nugget, cache=cache, resilience=resilience,
            telemetry=telemetry,
        )
        entries = log.setdefault(step_cfg.name, [])
        calls = 0
        failures = 0
        recoveries: list[RecoveryReport] = []
        best: tuple[float, np.ndarray] | None = None
        best_history: list[float] = []

        def evaluate(u: np.ndarray) -> float:
            """``-loglik`` at ``u``, or ``inf`` for a rejected step."""
            theta = transform.to_constrained(u)
            try:
                result = engine.evaluate(theta, deadline=deadline)
            except DeadlineExceededError:
                # The factorization itself overran the fit budget: the
                # executor drained its pool and discarded the partial
                # factor; stop the fit on the best point so far.
                raise _BudgetExhausted("time_budget") from None
            except (NotPositiveDefiniteError, ParameterError):
                # RecoveryExhaustedError lands here too: an indefinite
                # covariance the ladder could not rescue is still just a
                # rejected optimizer step.
                return np.inf
            if result.recovery is not None:
                recoveries.append(result.recovery)
            if telemetry is not None:
                # The settled factor's ranks: a planned-low-rank tile
                # gets its rank at its settle, not at assembly.
                rank_hist: dict[int, int] = {}
                for _, tile in result.factor.items():
                    if tile.is_low_rank:
                        rank_hist[tile.rank] = rank_hist.get(tile.rank, 0) + 1
                prec_mix: dict[str, int] = {}
                for p in result.report.plan.precisions.values():
                    name = getattr(p, "name", str(p)).lower()
                    prec_mix[name] = prec_mix.get(name, 0) + 1
                telemetry.event(
                    "mle_iteration",
                    nfev=nfev_total,
                    loglik=float(result.value),
                    theta=[float(v) for v in theta],
                    rank_hist=rank_hist,
                    precision_mix=prec_mix,
                    variant=step_cfg.name,
                )
            return -result.value if np.isfinite(result.value) else np.inf

        def objective(u: np.ndarray) -> float:
            nonlocal calls, failures, best, nfev_total
            if max_nfev is not None and nfev_total >= max_nfev:
                raise _BudgetExhausted("max_nfev")
            if deadline is not None and deadline.expired:
                raise _BudgetExhausted("time_budget")
            nfev_total += 1
            calls += 1
            if calls <= len(entries):
                logged_u, value = entries[calls - 1]
                if np.asarray(logged_u, dtype=np.float64).tobytes() != u.tobytes():
                    raise ConfigurationError(
                        f"checkpoint {checkpoint_path!r} logged evaluation "
                        f"{calls} of {step_cfg.name!r} at u = {logged_u}, "
                        f"but the fit asks for u = {u.tolist()}: it was "
                        "written by a different fit"
                    )
            else:
                value = evaluate(u)
                entries.append([u.tolist(), value])
                if checkpoint_path is not None:
                    save_checkpoint(
                        checkpoint_path, kind=_CHECKPOINT_KIND, state=log
                    )
            if value == np.inf:
                failures += 1
            elif best is None or value < best[0]:
                best = (value, np.array(u, dtype=np.float64))
            if best is not None:
                best_history.append(best[0])
            return value

        stopped_on: str | None = None
        try:
            opt = minimize(
                objective, u0, method="COBYQA",
                options={
                    "maxiter": max_iter,
                    "initial_tr_radius": _INITIAL_RADIUS,
                    "final_tr_radius": xatol,
                },
            )
            nit, converged = opt.nit, bool(opt.success) and best is not None
        except _BudgetExhausted as stop:
            if best is None:
                engine.close()  # no result escapes; stop the backend
                raise
            stopped_on = stop.reason
            nit, converged = 0, False
        # COBYQA clips a rejected step's inf to a finite barrier; the
        # best point comes from the evaluations themselves.
        fun, u_hat = (np.inf, u0) if best is None else best

        theta_hat = transform.to_constrained(u_hat)
        return MLEResult(
            theta=theta_hat,
            loglik=-fun,
            nfev=nfev_total - nfev_start,  # this rung only; total at end
            nit=nit,
            converged=converged,
            variant=step_cfg.name,
            history=[-v for v in best_history],
            failed_evaluations=failures,
            recovered_evaluations=len(recoveries),
            recovery_reports=recoveries,
            stopped_on=stopped_on,
        ), engine

    policy = None if resilience is None else resilience.degradation
    ladder = [cfg] + (
        degradation_steps(cfg, policy) if policy is not None else []
    )

    def unhealthy_reason(attempt: MLEResult) -> str | None:
        """Why this fit should fall to a safer variant (None = healthy)."""
        if not np.isfinite(attempt.loglik):
            return "non-finite loglikelihood"
        if policy is not None and attempt.nfev >= policy.min_evaluations:
            frac = attempt.failed_evaluations / max(attempt.nfev, 1)
            if frac > policy.max_failure_fraction:
                return (
                    f"failed evaluation fraction {frac:.0%} > "
                    f"{policy.max_failure_fraction:.0%}"
                )
        return None

    degradation = RecoveryReport()
    all_failures = 0
    all_recoveries: list[RecoveryReport] = []
    result: MLEResult | None = None
    with maybe_span(
        telemetry, "fit_mle", variant=cfg.name,
        n=int(np.asarray(z).shape[-1]), tile_size=int(tile_size),
    ):
        for rung, step_cfg in enumerate(ladder):
            budget_spent = (
                max_nfev is not None and nfev_total >= max_nfev
            ) or (deadline is not None and deadline.expired)
            if result is not None and budget_spent:
                break
            reason = None if result is None else unhealthy_reason(result)
            if result is not None and reason is None:
                break  # healthy — no (further) downgrade needed
            try:
                result, engine = run_fit(step_cfg)
            except _BudgetExhausted as stop:
                if result is None:
                    raise ParameterError(
                        f"evaluation budget ({stop.reason}) exhausted "
                        "before any successful likelihood evaluation"
                    ) from None
                result.stopped_on = result.stopped_on or stop.reason
                break
            degradation.variant_path.append(step_cfg.name)
            degradation.retries += engine.health().retries
            engine.close()  # rung done: stop any process-backend workers
            all_failures += result.failed_evaluations
            all_recoveries.extend(result.recovery_reports)
            if rung > 0:
                degradation.attempts += 1
                degradation.actions.append(RecoveryAction(
                    step="downgrade",
                    tile_index=None,
                    detail=f"refit under {step_cfg.name}: {reason}",
                    succeeded=unhealthy_reason(result) is None,
                ))

    assert result is not None
    degradation.recovered = bool(degradation.actions) and (
        unhealthy_reason(result) is None
    )
    result.nfev = nfev_total
    result.failed_evaluations = all_failures
    result.recovery_reports = all_recoveries
    result.recovered_evaluations = len(all_recoveries)
    result.degradation = degradation if degradation.actions else None
    return result
