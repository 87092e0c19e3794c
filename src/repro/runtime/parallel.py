"""The thread-placement entry point, kept for the harness and tests.

There is one in-process scheduling skeleton — the panel sweep of
:mod:`repro.runtime.batchdispatch` — and :func:`execute_cholesky_parallel`
is that sweep at the *requested* width (``clamp=False``: eight workers
are eight threads, whatever the host) with one failure contract:
every task failure is a :class:`~repro.exceptions.SchedulingError`
with the cause chained.  Results are bit-identical to the sequential
:func:`~repro.tile.cholesky.tile_cholesky` at every width.
"""

from __future__ import annotations

from ..exceptions import NotPositiveDefiniteError, SchedulingError
from ..tile.matrix import TileMatrix
from .batchdispatch import execute_cholesky_batched
from .taskcore import ParallelRunReport

__all__ = ["ParallelRunReport", "execute_cholesky_parallel"]


def execute_cholesky_parallel(
    matrix: TileMatrix,
    *,
    workers: int = 4,
    tile_tol: float = 0.0,
    max_rank: int | None = None,
    fp16_accumulate_fp32: bool = True,
    deadline=None,
    retry=None,
    chaos=None,
    check_finite: bool | None = None,
    telemetry=None,
) -> tuple[TileMatrix, ParallelRunReport]:
    """Factor ``matrix`` in place on ``workers`` threads
    (``workers=1``: the caller's thread, no pool):
    :func:`~repro.runtime.batchdispatch.execute_cholesky_batched` at
    exactly that width, with its ``deadline`` / ``retry`` / ``chaos`` /
    ``check_finite`` / ``telemetry``.

    Raises :class:`~repro.exceptions.SchedulingError` if any task
    failed (the first underlying exception is chained — an indefinite
    diagonal tile included, which the sweep raises bare), or
    :class:`~repro.exceptions.DeadlineExceededError` directly when the
    ``deadline`` expired — in both cases only after every worker has
    returned.
    """
    try:
        return execute_cholesky_batched(
            matrix, workers=workers, tile_tol=tile_tol, max_rank=max_rank,
            fp16_accumulate_fp32=fp16_accumulate_fp32, clamp=False,
            deadline=deadline, retry=retry, chaos=chaos,
            check_finite=check_finite, telemetry=telemetry,
        )
    except NotPositiveDefiniteError as exc:
        raise SchedulingError(f"parallel execution failed: {exc!r}") from exc
