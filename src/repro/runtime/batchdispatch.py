"""Homogeneous ready-set dispatch: wave-based batched DAG execution.

The heap executor (:mod:`repro.runtime.parallel`) pops one task at a
time and pays Python dispatch per tile.  This executor instead drains
the *entire ready set* each step — tasks that are simultaneously ready
share no DAG edge, so they are mutually independent — splits it into
homogeneous groups (:func:`~repro.runtime.taskcore.split_wave`), and
executes each group as **one** stacked BLAS call from
:mod:`repro.tile.batch`:

======  =============================================================
group   key
======  =============================================================
POTRF   ``("potrf", tile shape, precision)``
TRSM    ``("trsm", L index, tile shape, precision)`` — one wide-RHS
        solve needs a *shared* triangular factor, so the diagonal
        tile's index joins the key
SYRK    ``("syrk", A shape, precision of C)``
GEMM    ``("gemm", A shape, B shape, precision of C)``
======  =============================================================

A task joins a group only when every operand is dense and the group's
compute dtype is not binary16 (the emulated HGEMM mode); everything
else — low-rank TLR tiles, mixed structures after densification —
falls back to the per-tile kernels in deterministic uid order.

Determinism: waves are a function of the DAG alone, groups are built
in sorted-uid order, large groups are chunked by *slice* (stacked
gufuncs are slice-independent), and each tile's sequence of updates is
fully ordered by its DAG edges — so the accumulate order within every
tile matches the sequential reference exactly, and results are
bit-identical to the other executors (pinned by tests).

A ``deadline`` is honoured at wave boundaries.
Task-level retry and chaos have no stacked counterpart (one call runs
many tasks), so this executor does not take them.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

from ..exceptions import (
    DeadlineExceededError,
    NotPositiveDefiniteError,
    SchedulingError,
)
from ..tile.batch import ScratchPool
from ..tile.matrix import TileMatrix
from .blasclamp import clamp_blas_threads
from .taskcore import (
    MIN_BATCH,
    ParallelRunReport,
    ReadySet,
    RunRecorder,
    TaskBody,
    finish_run,
    split_wave,
)

__all__ = ["execute_cholesky_batched"]


def _chunk(group, nchunks: int, min_batch: int) -> list:
    """Split a large ``(op, tasks)`` group into slice chunks for
    worker-level parallelism; stacked gufuncs are slice-independent,
    so the per-tile results do not change."""
    op, batch = group
    if nchunks <= 1 or len(batch) < 2 * min_batch:
        return [group]
    size = max(min_batch, (len(batch) + nchunks - 1) // nchunks)
    return [(op, batch[i:i + size]) for i in range(0, len(batch), size)]


def execute_cholesky_batched(
    matrix: TileMatrix,
    *,
    workers: int = 1,
    tile_tol: float = 0.0,
    max_rank: int | None = None,
    fp16_accumulate_fp32: bool = True,
    pool: ScratchPool | None = None,
    min_batch: int = MIN_BATCH,
    clamp: bool = True,
    deadline=None,
    telemetry=None,
) -> tuple[TileMatrix, ParallelRunReport]:
    """Factor ``matrix`` in place by draining the DAG in waves of
    homogeneous batched kernel calls.

    ``workers > 1`` chunks each wave's groups (and large groups by
    slice) across a thread pool; results are identical to ``workers=1``
    because tasks within a wave are mutually independent and stacked
    gufuncs are slice-independent.  The pool is sized to
    ``min(workers, physical cores)`` — oversubscribed dispatch threads
    only add overhead around stacked calls, and since chunking never
    changes results, clamping cannot either (``clamp=False`` keeps the
    requested width; the concurrency sanitizer uses it to drive real
    thread interleavings).  ``pool`` is the scratch-buffer pool (fresh
    per call when ``None``); pass one in to reuse buffers across the
    evaluations of a fit.

    Raises :class:`~repro.exceptions.NotPositiveDefiniteError` directly
    on an indefinite diagonal tile (same contract as the sequential
    reference), :class:`~repro.exceptions.DeadlineExceededError` when
    ``deadline`` expired at a wave boundary (the finished waves'
    threads have all returned), and wraps any
    other kernel failure in :class:`~repro.exceptions.SchedulingError`.

    ``telemetry`` records one span per wave with one child span per
    stacked group / scalar fallback (group members share their stacked
    call's interval).
    """
    if workers < 1:
        raise SchedulingError("need at least one worker")
    eff_workers = workers
    if clamp:
        eff_workers = max(1, min(workers, os.cpu_count() or 1))
    ready = ReadySet(matrix.nt, deadline=deadline)
    recorder = RunRecorder(telemetry)
    # Hot-loop access to the tile dict; keys come from the task plan.
    body = TaskBody(
        matrix._tiles, tile_tol=tile_tol, max_rank=max_rank,
        fp16_accumulate_fp32=fp16_accumulate_fp32,
        pool=ScratchPool() if pool is None else pool, recorder=recorder,
    )
    f16_ok = bool(fp16_accumulate_fp32)
    batches = batched_tasks = fallback_tasks = max_units = wave_index = 0
    # Oversubscription guard: eff_workers dispatch threads each issuing
    # BLAS calls must share the physical cores (restored on exit).
    with clamp_blas_threads(eff_workers) as blas_clamp, (
        ThreadPoolExecutor(max_workers=eff_workers)
        if eff_workers > 1 else nullcontext()
    ) as executor:
        try:
            while ready.remaining:
                reason = ready.stop_reason()
                if reason is not None:
                    raise ready.stopped(
                        reason, recorder.t0, "execute_cholesky_batched"
                    )
                wave = ready.drain()
                if not wave:  # pragma: no cover - DAG invariant
                    raise SchedulingError(
                        f"stalled with {ready.remaining} tasks unreached"
                    )
                wave_t0 = time.perf_counter()
                groups, singles = split_wave(
                    wave, body.tiles, f16_ok, min_batch
                )
                if executor is not None:
                    groups = [
                        unit for group in groups
                        for unit in _chunk(group, eff_workers, min_batch)
                    ]
                units = len(groups) + len(singles)
                max_units = max(max_units, units)
                if executor is not None and units > 1:
                    # The first failure (in submission order) surfaces;
                    # the pool's exit joins whatever is still running.
                    for future in [
                        executor.submit(body.run_group, *g) for g in groups
                    ] + [executor.submit(body.run, t) for t in singles]:
                        future.result()
                else:
                    for group in groups:
                        body.run_group(*group)
                    for task in singles:
                        body.run(task)
                batches += len(groups)
                batched_tasks += sum(len(batch) for _, batch in groups)
                fallback_tasks += len(singles)
                if recorder.tracer is not None:
                    # The wave's futures have all resolved, so the
                    # timeline has no concurrent writers.
                    recorder.emit_spans(recorder.tracer.add_span(
                        "wave", wave_t0, time.perf_counter(),
                        parent=recorder.parent_sid,
                        attrs={"wave": wave_index, "tasks": len(wave),
                               "groups": len(groups),
                               "singles": len(singles)},
                    ))
                wave_index += 1
                for task in wave:
                    ready.complete(task.uid)
        except (NotPositiveDefiniteError, SchedulingError,
                DeadlineExceededError):
            raise
        except BaseException as exc:
            raise SchedulingError(
                f"batched execution failed: {exc!r}"
            ) from exc

    finish_run(body.stats, matrix)
    report = recorder.report(
        workers=eff_workers,
        tasks=len(ready.tasks),
        # The pool runs at most its width of a wave's units at once.
        max_concurrency=min(eff_workers, max_units),
        placement="inline" if eff_workers == 1 else "thread",
        grouping="stacked",
        stats=body.stats,
        batches=batches,
        batched_tasks=batched_tasks,
        fallback_tasks=fallback_tasks,
        blas_clamp=blas_clamp,
    )
    return matrix, report
