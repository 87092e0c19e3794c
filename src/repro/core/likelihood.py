"""Gaussian log-likelihood evaluation (paper Eq. 1).

    l(theta) = -(n/2) log(2 pi) - (1/2) log|Sigma(theta)|
               - (1/2) z^T Sigma(theta)^{-1} z

The tiled path builds the covariance under a compute variant's plan,
runs the tile Cholesky, takes ``log|Sigma|`` from the factor diagonal,
and the quadratic form from one forward solve.  A plain-NumPy dense
FP64 path is provided as the independent reference for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import usable_cores
from ..exceptions import (
    NotPositiveDefiniteError,
    SchedulingError,
    ShapeError,
)
from ..kernels.base import CovarianceKernel
from ..obs.telemetry import maybe_span
from ..resilience import Deadline, ResilienceConfig
from ..resilience.validate import require_finite
from ..tile.assembly import AssemblyReport, build_planned_covariance
from ..tile.cholesky import CholeskyStats
from ..tile.geometry import GeometryCache, TileGeometry
from ..tile.matrix import TileMatrix
from ..tile.recovery import RecoveryReport, factor_with_recovery
from ..tile.solve import forward_solve, tile_logdet
from .variants import DENSE_FP64, VariantConfig, get_variant

__all__ = [
    "LikelihoodResult",
    "loglikelihood",
    "loglikelihood_replicated",
    "loglikelihood_dense_reference",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class LikelihoodResult:
    """One likelihood evaluation, with the pieces experiments report."""

    value: float
    logdet: float
    quadratic: float
    n: int
    variant: str
    factor: TileMatrix
    report: AssemblyReport
    stats: CholeskyStats
    #: Non-``None`` only when the variant's recovery ladder had to
    #: rescue this evaluation from a factorization breakdown.
    recovery: RecoveryReport | None = None

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.value


def _check_observations(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    require_finite("x", x)
    require_finite("z", z)
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.shape[0] != len(x):
        raise ShapeError(
            f"{len(x)} locations but {z.shape[0]} observations"
        )
    return z


def _resolve_execution(cfg: VariantConfig, procpool) -> tuple[str, str, int]:
    """``(placement, grouping, workers)`` the variant's execution
    settings resolve to — decided once per evaluation, before anything
    runs, and recorded on the spans and the run report.

    *placement*: ``"process"`` for ``backend="process"``, else
    ``"inline"`` (the caller's thread) at one worker and ``"thread"``
    above.  *grouping*: process workers run one tile op per message,
    always ``"per-tile"``.  In this process it is ``"stacked"`` — the
    panel sweep, on the caller's thread at one worker, for every
    variant (a TLR variant's low-rank columns ride it too); retry /
    chaos hooks attach to the calls it makes and a deadline is polled
    at its panel boundaries.
    ``batch=True`` sizes the sweep's pool to the usable CPUs (extra
    threads only add overhead around stacked calls and never change
    results).  The one combination that cannot run —
    ``backend="process"`` with ``batch=True`` — raises
    :class:`~repro.exceptions.ConfigurationError` at variant
    construction; none is dropped.
    """
    if cfg.backend == "process":
        workers = cfg.workers if procpool is None else procpool.workers
        return "process", "per-tile", workers
    workers = cfg.workers
    if cfg.batch:
        workers = min(workers, usable_cores())
    return "inline" if workers == 1 else "thread", "stacked", workers


def _factor_and_solve(
    span: str, kernel, theta, x, rhs, *, tile_size, variant, nugget,
    geometry, cache, rank_hints, resilience, deadline, procpool, telemetry,
    **span_attrs,
):
    """The evaluation both likelihoods share: assemble ``Sigma(theta)``
    under the variant's plan, factor it on the execution the variant's
    settings resolve to (through the recovery ladder when the variant
    has one), and forward-solve ``rhs``.  Returns ``(cfg, factor,
    stats, assembly report, recovery report or None, logdet, y)``.

    Every in-process cell is the panel sweep at the resolved width
    with the task-level hooks on its calls, and process placement is
    the worker pool; the reference
    :func:`~repro.tile.cholesky.tile_cholesky` is what tests and the
    benchmark replay compare them against, never what runs here.  Executors wrap task failures in
    :class:`~repro.exceptions.SchedulingError`; an underlying
    :class:`~repro.exceptions.NotPositiveDefiniteError` is unwrapped
    here, once, so MLE drivers and the recovery ladder see the same
    exception on every path.
    """
    cfg = get_variant(variant)
    if resilience is not None:
        resilience = resilience.bind()  # one chaos injector per call
    placement, grouping, workers = _resolve_execution(cfg, procpool)
    resolved = dict(placement=placement, grouping=grouping, workers=workers)
    chaos = None if resilience is None else resilience.resolve_chaos()
    hooks = {} if resilience is None else dict(
        retry=resilience.retry, chaos=chaos
    )
    max_rank = int(cfg.max_rank_fraction * tile_size) or None

    def rebuild(**overrides):
        extra = overrides.pop("extra_nugget", 0.0)
        return build_planned_covariance(
            kernel, theta, x, tile_size, nugget=nugget + extra,
            geometry=geometry, cache=cache, rank_hints=rank_hints,
            workers=workers, batch=cfg.batch,
            telemetry=telemetry, **overrides, **cfg.assembly_kwargs(),
        )

    def factor(matrix, *, tile_tol):
        args = dict(
            tile_tol=tile_tol, max_rank=max_rank,
            fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
        )
        with maybe_span(telemetry, "factorize", nt=matrix.nt, **resolved):
            from ..runtime import ProcessPoolEngine, execute_cholesky_batched

            args.update(deadline=deadline, telemetry=telemetry)
            try:
                if placement == "process":
                    engine = procpool or ProcessPoolEngine(workers=workers)
                    try:
                        _, run = engine.execute(matrix, **args, **hooks)
                    finally:
                        if procpool is None:
                            engine.close()
                else:
                    # The width is already resolved (batch=True clamped
                    # it to the usable CPUs above).
                    _, run = execute_cholesky_batched(
                        matrix, workers=workers, clamp=False, **args,
                        **hooks,
                    )
            except SchedulingError as exc:
                if isinstance(exc.__cause__, NotPositiveDefiniteError):
                    raise exc.__cause__ from exc
                raise
            if telemetry is not None:
                telemetry.record(run)
                if run.comm is not None:
                    telemetry.record(run.comm)
            return matrix, run.stats

    try:
        with maybe_span(
            telemetry, span, variant=cfg.name, n=len(x), **span_attrs,
            **resolved,
        ):
            recovery = None
            if cfg.recovery is None:
                matrix, report = rebuild()
                factored, stats = factor(matrix, tile_tol=report.tile_tol)
            else:
                factored, stats, report, ladder = factor_with_recovery(
                    rebuild, policy=cfg.recovery, max_rank=max_rank,
                    fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
                    factor_fn=factor,
                )
                recovery = ladder if ladder.actions else None
            with maybe_span(telemetry, "solve", n=len(x), **span_attrs):
                logdet = tile_logdet(factored)
                y = forward_solve(factored, rhs)
    finally:
        # A failed evaluation's injections count too.
        if telemetry is not None and chaos is not None:
            telemetry.record(chaos.stats)
    if telemetry is not None:
        telemetry.record(stats)
        if stats.truncations:
            telemetry.event(
                "lr_settle", truncations=stats.truncations,
                kept_dense=stats.kept_dense,
                densified=stats.densified_tiles,
                max_rank=max(
                    (tile.rank for _, tile in factored.items()
                     if tile.is_low_rank),
                    default=0,
                ),
            )
    return cfg, factored, stats, report, recovery, logdet, y


def loglikelihood(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    nugget: float = 0.0,
    geometry: TileGeometry | None = None,
    cache: GeometryCache | None = None,
    rank_hints: "dict[tuple[int, int], int] | None" = None,
    resilience: ResilienceConfig | None = None,
    deadline: Deadline | None = None,
    procpool=None,
    telemetry=None,
) -> LikelihoodResult:
    """Evaluate Eq. (1) through the tiled Cholesky pipeline.

    Raises :class:`~repro.exceptions.NotPositiveDefiniteError` when the
    covariance at ``theta`` fails to factor (MLE drivers treat that as
    a rejected step).  Variants with a
    :class:`~repro.tile.recovery.RecoveryPolicy` first escalate through
    the recovery ladder; a rescued evaluation carries the
    :class:`~repro.tile.recovery.RecoveryReport` on ``result.recovery``
    and only exhaustion raises (as
    :class:`~repro.exceptions.RecoveryExhaustedError`).

    Execution settings — ``workers``, ``batch``, ``backend`` — ride
    on the variant and nowhere else:
    ``variant=get_variant("mp-dense").with_(workers=4, batch=True)``
    (see :class:`~repro.core.variants.VariantConfig`).  With none
    set the factorization is the panel sweep on the caller's thread
    (:mod:`repro.runtime.batchdispatch`), whatever the variant.  Every
    combination returns bit-identical results or raises
    :class:`~repro.exceptions.ConfigurationError` (the variant itself
    refuses ``batch=True`` with ``backend="process"``, whose workers
    run one tile op per message).  ``procpool`` supplies a persistent
    :class:`~repro.runtime.procpool.ProcessPoolEngine` so repeated
    ``backend="process"`` evaluations reuse one worker pool; the
    hot-path inputs (``geometry``/``cache``, ``rank_hints``) are
    documented on
    :func:`~repro.tile.assembly.build_planned_covariance`, and the
    :class:`~repro.core.engine.EvaluationEngine` wires them together
    for repeated evaluations.

    ``resilience`` opts into the hardening layer
    (:class:`~repro.resilience.ResilienceConfig`: task retries with
    seeded backoff, chaos injection); ``deadline`` bounds the wall
    clock of the factorization, raising
    :class:`~repro.exceptions.DeadlineExceededError` after a clean
    pool drain.  Both default to ``None`` — the unhardened path.

    ``telemetry`` (a :class:`~repro.obs.Telemetry`) wraps the
    evaluation in a ``"loglikelihood"`` span with ``"generate"`` /
    ``"compress"`` / ``"factorize"`` / ``"solve"`` children — the
    ``"loglikelihood"`` and ``"factorize"`` spans carry the *resolved*
    ``placement``, ``grouping`` and effective ``workers`` — mirrors
    the evaluation's :class:`CholeskyStats`, the executor's run report
    and a bound chaos injector's tally into the metrics registry and,
    when low-rank tiles were settled, records one ``"lr_settle"``
    decision event (truncations, tiles kept dense, accumulators that
    went dense, widest settled rank of the factor).  Traced evaluations are
    bit-identical to untraced ones.
    """
    z = _check_observations(x, z)
    cfg, factor, stats, report, recovery, logdet, y = _factor_and_solve(
        "loglikelihood", kernel, theta, x, z, tile_size=tile_size,
        variant=variant, nugget=nugget, geometry=geometry, cache=cache,
        rank_hints=rank_hints, resilience=resilience, deadline=deadline,
        procpool=procpool, telemetry=telemetry,
    )
    n = z.shape[0]
    quad = float(y @ y)
    return LikelihoodResult(
        value=-0.5 * n * _LOG_2PI - 0.5 * logdet - 0.5 * quad,
        logdet=logdet,
        quadratic=quad,
        n=n,
        variant=cfg.name,
        factor=factor,
        report=report,
        stats=stats,
        recovery=recovery,
    )


def loglikelihood_replicated(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    z_replicates: np.ndarray,
    *,
    tile_size: int,
    variant: "str | VariantConfig" = DENSE_FP64,
    nugget: float = 0.0,
    geometry: TileGeometry | None = None,
    cache: GeometryCache | None = None,
    rank_hints: "dict[tuple[int, int], int] | None" = None,
    resilience: ResilienceConfig | None = None,
    deadline: Deadline | None = None,
    procpool=None,
    telemetry=None,
) -> np.ndarray:
    """Log-likelihoods of many independent replicates sharing one
    location set (the Fig. 6 protocol: 100 synthetic fields at the same
    design).

    Factors the covariance *once* and solves all replicates against it
    — amortizing the O(n^3) over the O(reps * n^2) solves.  Returns one
    value per row of ``z_replicates``.  Assembly, execution settings
    and the recovery ladder are exactly :func:`loglikelihood`'s.
    """
    require_finite("x", x)
    require_finite("z_replicates", z_replicates)
    z = np.asarray(z_replicates, dtype=np.float64)
    if z.ndim != 2:
        raise ShapeError("z_replicates must be (reps, n)")
    if z.shape[1] != len(x):
        raise ShapeError(
            f"{len(x)} locations but replicate length {z.shape[1]}"
        )
    *_, logdet, y = _factor_and_solve(
        "loglikelihood_replicated", kernel, theta, x, z.T,
        tile_size=tile_size, variant=variant, nugget=nugget,
        geometry=geometry, cache=cache, rank_hints=rank_hints,
        resilience=resilience, deadline=deadline, procpool=procpool,
        telemetry=telemetry, reps=z.shape[0],
    )
    quads = np.einsum("ij,ij->j", y, y)  # y is (n, reps)
    return -0.5 * z.shape[1] * _LOG_2PI - 0.5 * logdet - 0.5 * quads


def loglikelihood_dense_reference(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    z: np.ndarray,
    *,
    nugget: float = 0.0,
) -> float:
    """Plain NumPy reference (no tiles) for validation."""
    z = _check_observations(x, z)
    sigma = kernel.covariance_matrix(theta, x, nugget=nugget)
    low = np.linalg.cholesky(sigma)
    logdet = 2.0 * float(np.sum(np.log(np.diag(low))))
    y = np.linalg.solve(low, z)
    return -0.5 * len(z) * _LOG_2PI - 0.5 * logdet - 0.5 * float(y @ y)
