"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so downstream
users can catch the package's failures with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.

Hierarchy::

    ReproError
    ├── ParameterError(ValueError)        bad covariance/model parameters
    ├── ShapeError(ValueError)            incompatible array shapes
    ├── NotPositiveDefiniteError(ArithmeticError)
    │   ├── RecoveryExhaustedError        the numerical recovery ladder
    │   │                                 (tile/recovery.py) ran out of
    │   │                                 escalation steps
    │   └── NumericalCorruptionError      a tile kernel produced NaN/inf
    │                                     (FP16 overflow, injected chaos)
    ├── CompressionError(ArithmeticError) low-rank tolerance unreachable
    ├── SchedulingError(RuntimeError)     inconsistent task DAG/schedule
    │   └── WorkerLostError               a worker process died
    │                                     (SIGKILL/OOM) mid-execution
    ├── TaskFailedError(RuntimeError)     a simulated task exceeded its
    │                                     transient-failure retry budget
    ├── DeadlineExceededError(TimeoutError)
    │                                     a deadline expired
    │                                     mid-execution
    ├── ChaosError(RuntimeError)          an injected (opt-in, seeded)
    │                                     chaos failure fired
    ├── OptimizationError(RuntimeError)   optimizer hard failure
    └── ConfigurationError(ValueError)    inconsistent variant/runtime config

``ConvergenceWarning`` is a :class:`UserWarning`, not an error: an
optimizer that stops early still returns a valid result.

:class:`RecoveryExhaustedError` deliberately *is a*
:class:`NotPositiveDefiniteError`: callers that treat indefinite trial
covariances as rejected optimizer steps (``except
NotPositiveDefiniteError``) keep working unchanged when the recovery
ladder is enabled but fails to rescue a factorization.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ParameterError(ReproError, ValueError):
    """A covariance/model parameter vector is invalid (wrong length,
    out of bounds, non-finite, ...)."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape."""


class NotPositiveDefiniteError(ReproError, ArithmeticError):
    """A matrix expected to be symmetric positive definite failed a
    Cholesky factorization.

    Attributes
    ----------
    tile_index:
        Index ``(k, k)`` of the diagonal tile whose local factorization
        failed, or ``None`` when the failure was detected on a full
        (untiled) matrix.
    """

    def __init__(self, message: str, tile_index: tuple[int, int] | None = None):
        super().__init__(message)
        self.tile_index = tile_index


class RecoveryExhaustedError(NotPositiveDefiniteError):
    """The numerical recovery ladder (:mod:`repro.tile.recovery`) tried
    every escalation step and the factorization still broke down.

    Attributes
    ----------
    tile_index:
        Diagonal tile of the *last* breakdown.
    report:
        The :class:`~repro.tile.recovery.RecoveryReport` accumulated up
        to the point of exhaustion (every step attempted), for
        diagnostics.
    """

    def __init__(
        self,
        message: str,
        tile_index: tuple[int, int] | None = None,
        report=None,
    ):
        super().__init__(message, tile_index)
        self.report = report


class NumericalCorruptionError(NotPositiveDefiniteError):
    """A tile kernel produced non-finite values (NaN/inf) — an FP16
    overflow mid-factorization, a diverged low-rank update, or an
    injected chaos corruption.

    Deliberately *is a* :class:`NotPositiveDefiniteError`: a corrupted
    factorization is a numerical breakdown, so optimizer drivers treat
    it as a rejected step and the recovery/degradation ladders escalate
    it exactly like an indefinite covariance.  The resilience layer's
    :class:`~repro.resilience.retry.RetryPolicy` classifies it as
    transient (a retried task may round differently or dodge the
    injected fault) before that escalation is paid for.
    """


class CompressionError(ReproError, ArithmeticError):
    """Low-rank compression could not reach the requested tolerance
    within the allowed maximum rank."""


class SchedulingError(ReproError, RuntimeError):
    """The task DAG is inconsistent (cycle, missing producer, ...)."""


class WorkerLostError(SchedulingError):
    """A worker *process* of the process-parallel backend died without
    reporting a result (SIGKILL, OOM kill, hard crash).

    Deliberately *is a* :class:`SchedulingError`: callers that treat a
    failed parallel factorization as one failed evaluation (MLE
    drivers, the recovery ladder) keep working unchanged.  Raised only
    after the surviving workers have been terminated and joined and
    the shared-memory store unlinked — no leaked processes or
    segments.

    Attributes
    ----------
    rank:
        The dead worker's rank, or ``None`` when unknown.
    exitcode:
        The process exit code (negative = killed by that signal).
    """

    def __init__(
        self,
        message: str,
        rank: int | None = None,
        exitcode: int | None = None,
    ):
        super().__init__(message)
        self.rank = rank
        self.exitcode = exitcode


class TaskFailedError(ReproError, RuntimeError):
    """A simulated task kept failing transiently past its retry budget
    (:class:`~repro.runtime.faults.FaultModel.max_task_retries`).

    Attributes
    ----------
    uid:
        The task's uid in the DAG, or ``None`` when unknown.
    attempts:
        Number of attempts made before giving up.
    """

    def __init__(self, message: str, uid: int | None = None, attempts: int = 0):
        super().__init__(message)
        self.uid = uid
        self.attempts = attempts


class DeadlineExceededError(ReproError, TimeoutError):
    """A :class:`~repro.resilience.deadline.Deadline` expired before
    the operation finished.

    Raised *after* the executing worker pool has drained: no worker
    threads are leaked and no partially-computed results are returned.

    Attributes
    ----------
    budget_s:
        The time budget that expired, in seconds (``None`` when the
        raising site was given no budget to report).
    where:
        Short description of the execution site that noticed expiry.
    """

    def __init__(
        self,
        message: str,
        budget_s: float | None = None,
        where: str = "",
    ):
        super().__init__(message)
        self.budget_s = budget_s
        self.where = where


class ChaosError(ReproError, RuntimeError):
    """An opt-in, seeded chaos injection
    (:class:`~repro.resilience.chaos.ChaosConfig`) failed a task or
    batch on purpose.  Classified as transient by the default
    :class:`~repro.resilience.retry.RetryPolicy`.

    Attributes
    ----------
    site:
        What was failed (``"task"`` / ``"batch"``) plus its key.
    """

    def __init__(self, message: str, site: str = ""):
        super().__init__(message)
        self.site = site


class ConvergenceWarning(UserWarning):
    """An iterative optimizer stopped before meeting its tolerance."""


class OptimizationError(ReproError, RuntimeError):
    """An optimizer failed in a way that cannot be expressed as a
    (valid but unconverged) result."""


class ConfigurationError(ReproError, ValueError):
    """A compute-variant / runtime configuration is inconsistent."""
