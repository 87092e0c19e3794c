"""Golden resilience checks: the hardening layer must actually harden.

``python -m repro analyze --resilience`` (and the CI chaos job) runs
four executable invariants against a small deterministic problem:

* **RES001** — a seeded chaos configuration must inject the identical
  fault schedule on two runs (values and retry tallies bit-equal);
* **RES002** — with every hook disabled (``resilience=None`` and an
  all-``None`` / zero-rate config) the likelihood must be bit-identical
  to the plain path: resilience is zero-overhead *and* zero-effect
  when off;
* **RES003** — under heavy injected FP16-overflow corruption the
  fit-level degradation ladder must complete with a finite
  loglikelihood on a safer variant, recording the downgrade;
* **RES004** — an expired serving deadline must surface as
  :class:`~repro.exceptions.DeadlineExceededError` with no thread
  left behind and no partial result handed back.

Unlike the static verifiers these checks *execute* the real engines
(the golden serving check set the precedent) — chaos claims cannot be
proven from source text.
"""

from __future__ import annotations

import threading

import numpy as np

from ..config import DEFAULT_SEED
from ..core.mle import fit_mle
from ..core.likelihood import loglikelihood
from ..core.serving import PredictionEngine
from ..core.variants import MP_DENSE
from ..exceptions import DeadlineExceededError
from ..kernels import MaternKernel
from ..resilience import (
    ChaosConfig,
    ChaosInjector,
    DegradationPolicy,
    ResilienceConfig,
    RetryPolicy,
)
from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = ["RES_RULES", "check_golden_resilience"]

#: Resilience rules enforced by :func:`check_golden_resilience`.
RES_RULES: dict[str, str] = {
    "RES001": "seeded chaos schedule is not reproducible (two runs of "
              "one configuration disagreed on values or fault tallies)",
    "RES002": "disabled resilience hooks changed results (the inert "
              "path must be bit-identical to the plain path)",
    "RES003": "degradation ladder failed to recover a finite "
              "loglikelihood under injected FP16 overflow",
    "RES004": "deadline expiry left a thread behind or returned a "
              "partial result",
}

_TILE = 16
_THETA = (1.0, 0.1, 0.5)
_NUGGET = 1.0e-8

#: Retry tuned for checks: no real sleeping, deterministic.
_FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)


def _golden_problem(nt: int = 4):
    gen = np.random.default_rng(DEFAULT_SEED)
    n = nt * _TILE
    x = gen.uniform(size=(n, 2))
    z = gen.standard_normal(n)
    return MaternKernel(), np.asarray(_THETA), x, z


def _check_chaos_reproducible(report: AnalysisReport) -> None:
    kernel, theta, x, z = _golden_problem()
    chaos = ChaosConfig(seed=DEFAULT_SEED, tile_nan_rate=0.10)

    def one_run():
        injector = ChaosInjector(chaos)
        cfg = ResilienceConfig(retry=_FAST_RETRY, chaos=injector)
        result = loglikelihood(
            kernel, theta, x, z, tile_size=_TILE,
            variant="mp-dense-tlr-recover", nugget=_NUGGET, resilience=cfg,
        )
        return result.value, result.stats.retries, injector.stats.events

    first, second = one_run(), one_run()
    if first != second:
        report.add(Diagnostic(
            "RES001", Severity.ERROR,
            f"two seeded chaos runs disagree: (value, retries, events) "
            f"{first} != {second}",
        ))
    elif first[2] == 0:
        report.add(Diagnostic(
            "RES001", Severity.WARNING,
            "chaos at 10% tile-NaN injected zero events — the check "
            "exercised nothing",
        ))


def _check_inert_hooks(report: AnalysisReport) -> None:
    kernel, theta, x, z = _golden_problem()

    def value(resilience):
        return loglikelihood(
            kernel, theta, x, z, tile_size=_TILE, variant="mp-dense-tlr",
            nugget=_NUGGET, resilience=resilience,
        ).value

    plain = value(None)
    inert_configs = {
        "all-None config": ResilienceConfig(),
        "zero-rate chaos": ResilienceConfig(chaos=ChaosConfig()),
        "degradation only": ResilienceConfig(
            degradation=DegradationPolicy()
        ),
    }
    for label, cfg in inert_configs.items():
        got = value(cfg)
        if got != plain:
            report.add(Diagnostic(
                "RES002", Severity.ERROR,
                f"{label} changed the loglikelihood: {got!r} != {plain!r}",
            ))


def _check_degradation_ladder(report: AnalysisReport) -> None:
    kernel, theta, x, z = _golden_problem()
    # Band-mode FP16 tiles are the overflow-corruption target; at rate
    # 1.0 every FP16-tile task fails every attempt, so only the FP64
    # downgrade (no FP16 storage anywhere) can finish the fit.
    fp16_variant = MP_DENSE.with_(
        name="mp-band-fp16", mp_mode="band", mp_fp64_band=1, mp_fp32_band=2,
    )
    cfg = ResilienceConfig(
        retry=_FAST_RETRY,
        degradation=DegradationPolicy(max_failure_fraction=0.5),
        chaos=ChaosConfig(seed=DEFAULT_SEED, tile_overflow_rate=1.0),
    )
    result = fit_mle(
        kernel, x, z, tile_size=_TILE, variant=fp16_variant,
        theta0=theta, max_iter=3, nugget=_NUGGET, resilience=cfg,
    )
    if not np.isfinite(result.loglik):
        report.add(Diagnostic(
            "RES003", Severity.ERROR,
            f"fit ended non-finite ({result.loglik}) on variant "
            f"{result.variant!r} despite the degradation ladder",
        ))
    deg = result.degradation
    if deg is None or not deg.actions:
        report.add(Diagnostic(
            "RES003", Severity.ERROR,
            "total FP16 overflow corruption triggered no recorded "
            "downgrade (expected at least one ladder step)",
        ))
    elif result.variant == fp16_variant.name:
        report.add(Diagnostic(
            "RES003", Severity.ERROR,
            f"fit reports the corrupted variant {result.variant!r} as "
            f"final despite downgrades {deg.variant_path}",
        ))


def _check_deadline_drain(report: AnalysisReport) -> None:
    kernel, theta, x, z = _golden_problem()
    factor = loglikelihood(
        kernel, theta, x, z, tile_size=_TILE, variant="dense-fp64",
        nugget=_NUGGET,
    ).factor
    engine = PredictionEngine(kernel, theta, x, z, factor, batch=8)
    gen = np.random.default_rng(DEFAULT_SEED + 1)
    x_test = gen.uniform(size=(64, 2))
    before = threading.active_count()
    raised = False
    try:
        engine.predict(x_test, return_uncertainty=True, deadline_s=0.0)
    except DeadlineExceededError:
        raised = True
    if not raised:
        report.add(Diagnostic(
            "RES004", Severity.ERROR,
            "predict with an already-expired deadline returned a result "
            "instead of raising DeadlineExceededError",
        ))
    after = threading.active_count()
    if after > before:
        report.add(Diagnostic(
            "RES004", Severity.ERROR,
            f"deadline'd predict leaked threads: {before} alive before, "
            f"{after} after",
        ))
    if engine.stats().predict_calls != 0:
        report.add(Diagnostic(
            "RES004", Severity.ERROR,
            "a deadline'd predict was counted as a completed call — "
            "partial results must be discarded, not served",
        ))


def check_golden_resilience() -> AnalysisReport:
    """Run the four golden resilience invariants (rules in
    :data:`RES_RULES`) and narrate coverage with one INFO finding."""
    report = AnalysisReport()
    _check_chaos_reproducible(report)
    _check_inert_hooks(report)
    _check_degradation_ladder(report)
    _check_deadline_drain(report)
    status = "clean" if report.ok else f"{len(report.errors)} error(s)"
    report.add(Diagnostic(
        "GOLDEN", Severity.INFO,
        f"resilience invariants RES001-RES004: {status} "
        f"({len(report)} finding(s))",
    ))
    return report
