"""Threaded parallel execution engine.

A run that asks for nothing per task *is* the panel sweep of
:mod:`repro.runtime.batchdispatch` at the requested width: one tile
op per Python-level dispatch loses to the inline loop as soon as two
threads trade the interpreter lock around microsecond BLAS calls
(EXPERIMENTS.md).  What remains here is the one thing the sweep cannot
do — per-task attempts for the retry / chaos / finite-check hooks and
per-task cancellation: a worker pool consumes ready tasks from a
priority queue, dependence counters release successors as results
land, and each tile kernel executes under its hooks.

Determinism note: tiles are replaced atomically under a lock and the
dependence structure serializes conflicting accesses, so results are
bit-identical to the sequential engine for dense FP64 and
representation-identical for approximate variants.

Failure and stop semantics of the loop (the task-level hooks — retry,
chaos, finite check — are :class:`~repro.runtime.taskcore.TaskBody`'s):

* any worker failure — a kernel exception *or* a dispatch bug —
  records the first error, poisons the queue through a
  :class:`~repro.resilience.deadline.CancellationToken`, wakes every
  waiter, and lets the pool drain; the caller gets one exception and
  zero leaked threads instead of a deadlock;
* a ``deadline`` (or external ``cancel`` token) is polled at every
  dispatch boundary: in-flight kernels finish, nothing new starts,
  and :class:`~repro.exceptions.DeadlineExceededError` surfaces after
  the join.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from ..exceptions import (
    DeadlineExceededError,
    NotPositiveDefiniteError,
    SchedulingError,
)
from ..resilience import task_level_hooks
from ..resilience.deadline import CancellationToken
from ..tile.matrix import TileMatrix
from .batchdispatch import execute_cholesky_batched
from .blasclamp import clamp_blas_threads
from .taskcore import (
    MatrixTiles,
    ParallelRunReport,
    ReadySet,
    RunRecorder,
    TaskBody,
    finish_run,
    resolve_hooks,
    stop_reason,
    stopped,
)

__all__ = ["ParallelRunReport", "execute_cholesky_parallel"]


def execute_cholesky_parallel(
    matrix: TileMatrix,
    *,
    workers: int = 4,
    tile_tol: float = 0.0,
    max_rank: int | None = None,
    fp16_accumulate_fp32: bool = True,
    deadline=None,
    cancel=None,
    retry=None,
    chaos=None,
    check_finite: bool | None = None,
    telemetry=None,
) -> tuple[TileMatrix, ParallelRunReport]:
    """Factor ``matrix`` in place on ``workers`` threads
    (``workers=1``: the caller's thread, no pool).

    Without ``retry`` / ``chaos`` / ``check_finite`` / ``cancel`` this
    is :func:`~repro.runtime.batchdispatch.execute_cholesky_batched`
    at that width (the report says ``grouping="stacked"``); with one,
    worker threads pull the task DAG from a priority heap, one tile op
    per attempt (``grouping="per-tile"``).

    Raises :class:`~repro.exceptions.SchedulingError` if any task
    failed (the first underlying exception is chained), or
    :class:`~repro.exceptions.DeadlineExceededError` directly when the
    ``deadline`` expired / the ``cancel`` token was cancelled — in
    both cases only after every worker has returned.

    ``retry`` (a :class:`~repro.resilience.retry.RetryPolicy`) retries
    transiently failing tasks; ``chaos`` (a
    :class:`~repro.resilience.chaos.ChaosConfig` or
    :class:`~repro.resilience.chaos.ChaosInjector`) opts into seeded
    fault injection.  ``check_finite`` scans each task's output for
    NaN/inf, raising :class:`~repro.exceptions.NumericalCorruptionError`
    (default: enabled exactly when ``retry`` or ``chaos`` is set, so
    the plain path pays nothing).

    ``telemetry`` (a :class:`~repro.obs.Telemetry`) records one span
    per executed task, parented to the caller's enclosing span;
    without one nothing is timed.
    """
    if workers < 1:
        raise SchedulingError("need at least one worker")
    if cancel is None and not task_level_hooks(retry, chaos, check_finite):
        try:
            return execute_cholesky_batched(
                matrix, workers=workers, tile_tol=tile_tol,
                max_rank=max_rank, fp16_accumulate_fp32=fp16_accumulate_fp32,
                clamp=False, deadline=deadline, telemetry=telemetry,
            )
        except NotPositiveDefiniteError as exc:
            # This function's contract: every task failure is a
            # SchedulingError with the cause chained.
            raise SchedulingError(
                f"parallel execution failed: {exc!r}"
            ) from exc
    chaos, epoch, check_finite = resolve_hooks(retry, chaos, check_finite)
    chaos_before = chaos.stats.events if chaos is not None else 0
    if cancel is None:
        cancel = CancellationToken()
    ready = ReadySet(matrix.nt)
    recorder = RunRecorder(telemetry)
    body = TaskBody(
        MatrixTiles(matrix), tile_tol=tile_tol, max_rank=max_rank,
        fp16_accumulate_fp32=fp16_accumulate_fp32, retry=retry,
        chaos=chaos, epoch=epoch, check_finite=check_finite,
        recorder=recorder,
    )
    # One lock guards dispatch state and the tally.
    done = threading.Condition(body.lock)
    errors: list[BaseException] = []
    running = 0
    max_running = 0

    def worker_loop() -> None:
        nonlocal running, max_running
        dispatched = False
        try:
            while True:
                with done:
                    while ready.remaining and not errors:
                        reason = stop_reason(deadline, cancel)
                        if reason is not None:
                            cancel.cancel(reason)
                            break
                        if ready.has_ready:
                            break
                        # Bounded wait so deadline expiry is noticed
                        # even when no task ever completes.
                        done.wait(
                            timeout=None if deadline is None
                            else max(min(deadline.remaining(), 0.05), 0.001)
                        )
                    if not ready.remaining or errors or cancel.cancelled:
                        done.notify_all()
                        return
                    task = ready.pop()
                    running += 1
                    dispatched = True
                    max_running = max(max_running, running)
                body.run(task)
                with done:
                    dispatched = False
                    running -= 1
                    ready.complete(task.uid)
                    done.notify_all()
        except BaseException as exc:
            # Poison the queue: record the first error, wake every
            # waiter, stop all dispatching.  This covers kernel
            # failures AND dispatch bookkeeping bugs — either way the
            # pool drains instead of deadlocking on `done.wait()`.
            with done:
                errors.append(exc)
                if dispatched:
                    running -= 1
                cancel.cancel(f"worker failed: {exc!r}")
                done.notify_all()

    # Oversubscription guard: each worker thread issues BLAS calls, so
    # the per-call BLAS thread count is clamped to cores/workers for
    # the duration of the pool (restored on exit, no-op at workers=1).
    with clamp_blas_threads(workers) as blas_clamp:
        if workers == 1:
            worker_loop()
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for future in [
                    pool.submit(worker_loop) for _ in range(workers)
                ]:
                    future.result()

    if errors:
        first = errors[0]
        # A KeyboardInterrupt / SystemExit (reachable at workers=1, the
        # loop runs on the caller's thread) is not a task failure.
        if isinstance(first, DeadlineExceededError) or not isinstance(
            first, Exception
        ):
            raise first
        raise SchedulingError(
            f"parallel execution failed: {first!r}"
        ) from first
    if cancel.cancelled:
        # Deadline expiry / external cancellation noticed at a
        # dispatch boundary: the pool has drained, no task raised.
        raise stopped(
            cancel.reason, deadline, recorder.t0, "execute_cholesky_parallel"
        )
    if ready.remaining:  # pragma: no cover - invariant
        raise SchedulingError(f"{ready.remaining} tasks never executed")
    finish_run(body.stats, matrix)
    report = recorder.report(
        workers=workers,
        tasks=len(ready.tasks),
        max_concurrency=max_running,
        placement="inline" if workers == 1 else "thread",
        stats=body.stats,
        chaos_events=(
            chaos.stats.events - chaos_before if chaos is not None else 0
        ),
        blas_clamp=blas_clamp,
    )
    return matrix, report
