"""The panel sweep: schedule a panel column, not a tile op.

The right-looking tile Cholesky visits panel ``k = 0, 1, ...``; within
a panel every tile receives exactly one operation, and operations on
different tiles are independent.  This executor makes *that* the
schedule — no task graph, no ready set.  The tiles of each column
that can ride a stack (:class:`~repro.runtime.taskcore.ColumnStacks`:
every float64 output, a TLR matrix's planned-low-rank rows included,
and FP32 dense tiles whose operands are all dense) are gathered once
into ``(rows, m, n)`` arrays, and panel ``k`` is

1. POTRF of the diagonal tile;
2. one wide triangular solve per run of column ``k`` over its settled
   dense rows, whose solved slices are published to the matrix as
   views; the settle-and-solve of each planned-low-rank row, per tile
   (``trsm``'s own arithmetic); and the per-tile TRSM of each loose
   tile of the column — the column is final;
3. the finished column as the GEMMs' ``A``: views of its dense tiles,
   or — when it holds a low-rank tile — one float64 expansion of every
   row (``u v^T`` or the widened data);
4. for every trailing column ``n``, one stacked
   ``C_run <- C_run - A_run B^T`` per run (``(A_run V_B) U_B^T`` when
   ``B = (n, k)`` is low-rank).  With ``workers > 1`` the trailing
   columns are dealt round-robin into ``workers`` *units* — columns'
   stacked calls and nothing else — one run by the driving thread, the
   others by the pool; the driving thread then runs the leftovers per
   tile in reference order: every SYRK, and the GEMM of every loose
   tile (an FP32 tile facing a low-rank operand, binary16 compute,
   ragged or lone rows);
5. the barrier: the panel's units have all returned.

O(nt^2) Python-level calls carry the O(nt^3) tile operations.  Each
tile still sees its updates ``k = 0, 1, ...`` in order, each from the
same BLAS routine on the same operands as the per-tile kernel (a
stacked ``matmul`` is a GEMM per slice, a multi-RHS solve is
column-independent, an expanded ``A`` is the per-tile kernel's own
``to_dense64()``), so every factor is bit-identical to
:func:`~repro.tile.cholesky.tile_cholesky` (pinned by
``tests/test_execution_matrix.py``).

A ``deadline`` is honoured at panel boundaries.  ``retry`` / ``chaos``
/ ``check_finite`` attach to the kernel *calls* the sweep makes
(:meth:`~repro.runtime.taskcore.TaskBody.hooked`): a per-tile call —
POTRF, SYRK, every settle, every loose tile's TRSM / GEMM — is one
attempt at its own task's uid, a stacked call is one attempt at its
first row's task's.  A hooked stacked call reads views nobody writes
and returns a fresh array (only the hook-free path updates a run in
place), so re-running it is as safe as re-running a task; and the calls a matrix makes do not depend on the pool width, so
a seeded chaos schedule is the same at every ``workers``.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

from ..config import usable_cores
from ..exceptions import (
    DeadlineExceededError,
    NotPositiveDefiniteError,
    SchedulingError,
)
from ..tile.cholesky import resolve_max_rank
from ..tile.matrix import TileMatrix
from .blasclamp import clamp_blas_threads
from .taskcore import (
    ColumnStacks,
    MatrixTiles,
    ParallelRunReport,
    RunRecorder,
    TaskBody,
    finish_run,
    resolve_hooks,
    stop_reason,
    stopped,
)
from .taskgraph import cholesky_task, cholesky_task_count

__all__ = ["execute_cholesky_batched"]


def execute_cholesky_batched(
    matrix: TileMatrix,
    *,
    workers: int = 1,
    tile_tol: float = 0.0,
    max_rank: int | None = None,
    fp16_accumulate_fp32: bool = True,
    clamp: bool = True,
    deadline=None,
    retry=None,
    chaos=None,
    check_finite: bool | None = None,
    telemetry=None,
) -> tuple[TileMatrix, ParallelRunReport]:
    """Factor ``matrix`` in place by sweeping its panels over column
    stacks.

    ``workers > 1`` spreads each panel's column updates over that many
    threads (the caller's and a pool of ``workers - 1``); columns share
    nothing they write, so the result is identical to ``workers=1``.
    The width is ``min(workers, usable CPUs)`` — oversubscribed
    threads only add overhead around stacked calls — unless
    ``clamp=False`` keeps the requested one: the likelihood path,
    which has clamped already, :func:`execute_cholesky_parallel`,
    which runs at exactly the width it is asked for, and tests that
    drive real widths on any host.

    Raises :class:`~repro.exceptions.NotPositiveDefiniteError` directly
    on an indefinite diagonal tile (same contract as the sequential
    reference), :class:`~repro.exceptions.DeadlineExceededError` when
    ``deadline`` expired at a panel boundary (every unit of the
    finished panels has returned), and wraps any other kernel failure
    in :class:`~repro.exceptions.SchedulingError`.

    ``retry`` (a :class:`~repro.resilience.retry.RetryPolicy`) retries
    transiently failing kernel calls; ``chaos`` (a
    :class:`~repro.resilience.chaos.ChaosConfig` or
    :class:`~repro.resilience.chaos.ChaosInjector`) opts into seeded
    fault injection, counted in the report's ``chaos_events``.
    ``check_finite`` scans each call's output for NaN/inf, raising
    :class:`~repro.exceptions.NumericalCorruptionError` with the first
    bad tile's index (default: on exactly when ``retry`` or ``chaos``
    is set, so the plain path pays nothing).

    ``telemetry`` records one ``"panel"`` span per ``k`` with one child
    span per stacked call or per-tile leftover.
    """
    if workers < 1:
        raise SchedulingError("need at least one worker")
    eff_workers = workers
    if clamp:
        eff_workers = min(workers, usable_cores())
    nt = matrix.nt
    chaos, epoch, check_finite = resolve_hooks(retry, chaos, check_finite)
    chaos_before = chaos.stats.events if chaos is not None else 0
    recorder = RunRecorder(telemetry)
    columns = ColumnStacks(matrix, bool(fp16_accumulate_fp32))
    body = TaskBody(
        MatrixTiles(matrix), tile_tol=tile_tol,
        max_rank=resolve_max_rank(max_rank, matrix.layout.tile_size),
        fp16_accumulate_fp32=fp16_accumulate_fp32, retry=retry,
        chaos=chaos, epoch=epoch, check_finite=check_finite,
        columns=columns, recorder=recorder,
    )
    #: Stacked GEMMs per column and panel (a column's runs never change
    #: rows before its TRSM, only stacks); a column's TRSM stacks the
    #: dense rows of each run, its planned-low-rank rows settle per tile.
    calls = [len(columns.get(n)) for n in range(nt)]
    solves = [
        sum(run.hi - run.lo > len(run.owing) for run in columns.get(n))
        for n in range(nt)
    ]
    settles = [
        sum(len(run.owing) for run in columns.get(n)) for n in range(nt)
    ]
    batches = batched_tasks = running = max_running = 0

    def unit(k: int, cols: list, facing: list) -> None:
        """Panel ``k``'s stacked calls into columns ``cols``."""
        nonlocal running, max_running
        with body.lock:
            running += 1
            max_running = max(max_running, running)
        try:
            for n in cols:
                body.update_column(k, n, facing)
        finally:
            with body.lock:
                running -= 1

    # Oversubscription guard: eff_workers threads each issuing BLAS
    # calls must share the usable CPUs (restored on exit).
    with clamp_blas_threads(eff_workers) as blas_clamp, (
        ThreadPoolExecutor(max_workers=eff_workers - 1)
        if eff_workers > 1 else nullcontext()
    ) as executor:
        try:
            for k in range(nt):
                reason = stop_reason(deadline)
                if reason is not None:
                    raise stopped(
                        reason, deadline, recorder.t0,
                        "execute_cholesky_batched",
                    )
                panel_t0 = time.perf_counter()
                body.run(cholesky_task(nt, "potrf", k, k))
                body.solve_column(k)
                for m in columns.loose_rows[k]:
                    body.run(cholesky_task(nt, "trsm", k, m))
                facing = body.facing(k)
                stacked = [n for n in range(k + 1, nt) if columns.riding[n]]
                # Round-robin: a column's work shrinks with its height.
                shares = [stacked[i::eff_workers] for i in range(eff_workers)]
                futures = [
                    executor.submit(unit, k, share, facing)
                    for share in shares[1:] if share
                ]
                if shares[0]:
                    unit(k, shares[0], facing)
                for m in range(k + 1, nt):
                    body.run(cholesky_task(nt, "syrk", k, m))
                    loose = columns.loose_cols[m]
                    for n in loose[bisect_right(loose, k):]:
                        body.run(cholesky_task(nt, "gemm", k, m, n))
                # The barrier.  The first failure (in column order)
                # surfaces; the pool's exit joins whatever still runs.
                for future in futures:
                    future.result()
                batches += solves[k] + sum(calls[n] for n in stacked)
                batched_tasks += columns.riding[k] - settles[k] + sum(
                    columns.riding[n] for n in stacked
                )
                if recorder.tracer is not None:
                    # The panel's units have all returned, so the
                    # timeline has no concurrent writers.
                    recorder.emit_spans(recorder.tracer.add_span(
                        "panel", panel_t0, time.perf_counter(),
                        parent=recorder.parent_sid,
                        attrs={"panel": k, "columns": len(stacked)},
                    ))
        except (NotPositiveDefiniteError, SchedulingError,
                DeadlineExceededError):
            raise
        except Exception as exc:
            raise SchedulingError(
                f"batched execution failed: {exc!r}"
            ) from exc

    finish_run(body.stats, matrix)
    tasks = cholesky_task_count(nt)
    report = recorder.report(
        workers=eff_workers,
        tasks=tasks,
        max_concurrency=max(1, max_running),
        placement="inline" if eff_workers == 1 else "thread",
        grouping="stacked",
        stats=body.stats,
        chaos_events=(
            chaos.stats.events - chaos_before if chaos is not None else 0
        ),
        batches=batches,
        batched_tasks=batched_tasks,
        fallback_tasks=tasks - batched_tasks,
        blas_clamp=blas_clamp,
    )
    return matrix, report
