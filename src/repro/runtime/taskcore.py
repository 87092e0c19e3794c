"""The Cholesky task core: what every executor shares.

Two executors run the tile Cholesky — a panel sweep over column
stacks, on the caller's thread or a thread pool
(:mod:`~repro.runtime.batchdispatch`), and per-owner messages to
worker processes (:mod:`~repro.runtime.procpool`).  They differ only
in *scheduling*; the rest lives here, once:

* :class:`ColumnStacks` — which tiles of a matrix ride ``(rows, m,
  n)`` stacks through the sweep (float64 outputs, accumulating
  planned-low-rank rows included), and their current values;
* :class:`TaskBody` — the per-task and per-column kernel bodies, the
  one hook wrapper every kernel *call* goes through (retry / chaos /
  finite check: :meth:`TaskBody.hooked`) and the low-rank update
  tally (GEMM and settle outcomes);
* :func:`stop_reason` / :func:`stopped` — the stop condition (the
  deadline) every loop polls, and the error a stopped run raises;
* :class:`RunRecorder` — a traced run's wall-clock timeline, and from
  it the telemetry spans; it also closes the run into its
  :class:`ParallelRunReport`;
* process loop only — :func:`cholesky_plan` (cached task stream,
  dependence structure and priorities of an ``nt x nt``
  factorization) and :class:`ReadySet` (one run's dependence counters
  and ready heap); the sweep schedules from panel indices and builds
  neither.

:func:`repro.tile.cholesky.tile_cholesky` stays separate on purpose:
it is the hook-free reference every executor is pinned bit-identical
against.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from ..exceptions import DeadlineExceededError, NumericalCorruptionError
from ..obs.tracer import DRIVER_PID, current_span_id
from ..resilience.chaos import ChaosInjector
from ..tile import kernels as K
from ..tile.batch import stacked_gemm, stacked_trsm
from ..tile.cholesky import CholeskyStats
from ..tile.matrix import TileMatrix
from ..tile.precision import Precision
from ..tile.tile import DenseTile, LowRankTile, Tile
from .comm import CommStats
from .dag import dependences
from .scheduler import panel_priorities_tasks
from .task import Task
from .taskgraph import cholesky_op_counts, cholesky_task, cholesky_tasks

__all__ = [
    "MIN_BATCH", "CholeskyPlan", "ColumnStacks", "MatrixTiles",
    "ParallelRunReport", "ReadySet", "RunRecorder", "StackRun", "TaskBody",
    "cholesky_plan", "finish_run", "gemm_outcome", "resolve_hooks",
    "settle_outcome", "stop_reason", "stopped", "tally_settle",
]

#: Below this run length a stacked call buys nothing over the per-tile
#: kernel; shorter runs go through :mod:`repro.tile.kernels`.
MIN_BATCH = 2


# ----------------------------------------------------------------------
# the cached plan
# ----------------------------------------------------------------------
class CholeskyPlan(NamedTuple):
    """Everything about an ``nt x nt`` factorization that depends on
    ``nt`` alone.  Shared by every run: :class:`ReadySet` copies
    ``indegree`` before mutating, the rest is read-only."""

    #: Sequential reference order; ``tasks[uid].uid == uid``.
    tasks: tuple[Task, ...]
    indegree: dict[int, int]
    successors: dict[int, list[int]]
    priority: dict[int, float]


@lru_cache(maxsize=8)
def cholesky_plan(nt: int) -> CholeskyPlan:
    """The plan of an ``nt x nt`` Cholesky (theta-independent, so the
    evaluations of one MLE fit all share it)."""
    tasks = tuple(cholesky_tasks(nt))
    indegree, successors = dependences(tasks)
    return CholeskyPlan(
        tasks, indegree, successors, panel_priorities_tasks(tasks),
    )


# ----------------------------------------------------------------------
# ready-set bookkeeping
# ----------------------------------------------------------------------
class ReadySet:
    """Dependence bookkeeping of one run over the cached plan.

    Holds a private indegree copy and the ready tasks as a priority
    heap.  Not synchronized: the process loop drives it from one
    thread.
    """

    __slots__ = ("tasks", "remaining",
                 "_indegree", "_successors", "_priority", "_heap")

    def __init__(self, nt: int):
        plan = cholesky_plan(nt)
        self.tasks = plan.tasks
        self.remaining = len(plan.tasks)
        self._indegree = dict(plan.indegree)
        self._successors = plan.successors
        self._priority = priority = plan.priority
        self._heap = [
            (-priority[uid], uid)
            for uid, deg in plan.indegree.items() if deg == 0
        ]
        heapq.heapify(self._heap)

    @property
    def has_ready(self) -> bool:
        return bool(self._heap)

    def pop(self) -> Task:
        """The highest-priority ready task."""
        return self.tasks[heapq.heappop(self._heap)[1]]

    def complete(self, uid: int) -> None:
        """Task ``uid`` finished: release its newly ready successors."""
        self.remaining -= 1
        indegree = self._indegree
        for succ in self._successors[uid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(self._heap, (-self._priority[succ], succ))


def stop_reason(deadline) -> str | None:
    """Why dispatch must stop now (the deadline passed), or ``None``.
    Cooperative: in-flight work finishes, nothing new starts."""
    if deadline is not None and deadline.expired:
        return f"deadline of {deadline.budget_s:.3g}s exceeded"
    return None


def stopped(reason: str, deadline, t0: float, where: str):
    """The error a run stopped for ``reason`` surfaces once it has
    drained (``t0``: its ``perf_counter`` start)."""
    return DeadlineExceededError(
        f"execution cancelled after {time.perf_counter() - t0:.3g}s: "
        f"{reason}",
        budget_s=None if deadline is None else deadline.budget_s,
        where=where,
    )


# ----------------------------------------------------------------------
# task and column bodies
# ----------------------------------------------------------------------
class MatrixTiles:
    """``tiles[key]`` access through :meth:`TileMatrix.get` /
    :meth:`TileMatrix.set`, so every tile the sweep writes back passes
    ``set``'s key and shape checks; a worker process, alone with its
    tiles, indexes a plain dict."""

    __slots__ = ("_get", "_set")

    def __init__(self, matrix: TileMatrix):
        self._get = matrix.get
        self._set = matrix.set

    def __getitem__(self, key: tuple[int, int]) -> Tile:
        return self._get(*key)

    def __setitem__(self, key: tuple[int, int], tile: Tile) -> None:
        self._set(*key, tile)


class StackRun(NamedTuple):
    """Tile rows ``lo .. hi - 1`` of one column as one ``(hi - lo, m,
    n)`` array.  ``precision`` is the storage precision of its settled
    dense rows (:attr:`Precision.FP64` for a float64 run); ``owing``
    lists the planned-low-rank rows of a float64 run — ``(row, storage
    precision)``, ascending — which accumulate in the stack and owe one
    truncation each.  An update makes a new run around the updated
    stack (the same array when updated in place)."""

    lo: int
    hi: int
    precision: Precision
    stack: np.ndarray
    owing: tuple[tuple[int, Precision], ...] = ()


class ColumnStacks:
    """The tiles of a matrix that ride stacks through the panel sweep,
    column by column.

    A sub-diagonal tile ``(m, n)`` *rides* when its TRSM and every
    GEMM it will receive can be a slice of a stacked call, beside a
    vertical neighbour of the same shape that rides with it — a *run*
    of at least :data:`MIN_BATCH` — and:

    * its GEMMs are computed in float64 — a settled dense FP64 tile, or
      a planned-low-rank tile right of column 0 (a float64 accumulator
      from the assembly on).  Whatever its operands are, each update
      is one formula of the column's shared ``B``
      (:func:`repro.tile.batch.stacked_gemm`), so these rows form one
      float64 run per shape, each planned-low-rank row keeping its
      storage precision (:attr:`StackRun.owing`); or
    * it is a settled dense tile computed in FP32 (FP32 storage, or
      FP16 with FP32 accumulation) and rows ``m`` and ``n`` hold only
      settled dense tiles left of column ``n`` (its operands ``(m, k)``
      and ``(n, k)``, ``k < n``): a run of one shape and precision.

    Riding tiles are gathered here, once; until the TRSM of their
    column publishes them they live only in their run's stack, so no
    per-tile kernel ever reads or writes one.  Every other tile is
    *loose*: it stays in the matrix and runs per tile — among them a
    low-rank tile a matrix was built with (tests, hand-made matrices),
    which its first per-tile GEMM turns into an accumulator, tallied as
    :attr:`CholeskyStats.densified_tiles` there as in every executor.

    Stack-view invariant: a stacked call reads views of arrays nobody
    writes any more (the finished panel column) and writes only the
    run it updates — in place on the hook-free path, since nothing but
    that call reads a trailing column's stack before its TRSM, and into
    a fresh stack under hooks, so a failed attempt leaves the run as it
    was; runs are replaced (:meth:`set`).  Distinct columns are
    distinct variables, so the sweep's units — disjoint sets of columns
    — share nothing they write: inside :meth:`TaskBody.update_column`
    ``(k, n, ...)`` only column ``n`` is read or replaced
    (``tests/test_execution_matrix.py`` asserts it at every width).
    """

    def __init__(self, matrix: TileMatrix, fp16_accumulate_fp32: bool):
        nt = matrix.nt
        get = matrix.get

        def dense(tile: Tile) -> bool:
            return not tile.is_low_rank and tile.owed is None

        #: Leading tiles of each row that are settled dense.
        dense_left = []
        for m in range(nt):
            n = 0
            while n < m and dense(get(m, n)):
                n += 1
            dense_left.append(n)
        self._runs: dict[int, list[StackRun]] = {}
        #: Tiles riding in each column (a stacked GEMM's task count).
        self.riding: list[int] = []
        #: Loose rows of each column, and loose columns of each row
        #: (both ascending).
        self.loose_rows: list[list[int]] = [[] for _ in range(nt)]
        self.loose_cols: list[list[int]] = [[] for _ in range(nt)]
        for n in range(nt):

            def run_key(m: int, n: int = n):
                tile = get(m, n)
                if tile.owed is not None:
                    return (tile.shape, Precision.FP64) if n else None
                if tile.is_low_rank:
                    return None
                if tile.precision is Precision.FP64:
                    return tile.shape, Precision.FP64
                if (
                    dense_left[m] < n or dense_left[n] < n
                    or (tile.precision is Precision.FP16
                        and not fp16_accumulate_fp32)
                ):
                    return None
                return tile.shape, tile.precision

            runs = []
            for key, rows in groupby(range(n + 1, nt), run_key):
                rows = list(rows)
                if key is None or len(rows) < MIN_BATCH:
                    for m in rows:
                        self.loose_rows[n].append(m)
                        self.loose_cols[m].append(n)
                    continue
                shape, precision = key
                stack = np.empty((len(rows), *shape), dtype=precision.dtype)
                owing = []
                for i, m in enumerate(rows):
                    tile = get(m, n)
                    stack[i] = tile.data
                    if tile.owed is not None:
                        owing.append((m, tile.precision))
                runs.append(StackRun(
                    rows[0], rows[-1] + 1, precision, stack, tuple(owing),
                ))
            self._runs[n] = runs
            self.riding.append(sum(run.hi - run.lo for run in runs))

    def get(self, n: int) -> list[StackRun]:
        """The current runs of column ``n``."""
        return self._runs[n]

    def set(self, n: int, runs: list[StackRun]) -> None:
        """Replace the runs of column ``n`` (same rows — until its TRSM,
        which keeps only the runs its published tiles are views of)."""
        self._runs[n] = runs


def resolve_hooks(retry, chaos, check_finite: bool | None):
    """Normalize the task-level hooks of one run.

    Returns ``(injector, epoch, check_finite)``: a
    :class:`~repro.resilience.chaos.ChaosConfig` becomes an injector,
    the injector's epoch advances once per factorization, and the
    finite check defaults to on exactly when ``retry`` or ``chaos`` is
    set (so the plain path pays nothing)."""
    if chaos is not None and not isinstance(chaos, ChaosInjector):
        chaos = ChaosInjector(chaos)
    epoch = chaos.next_epoch() if chaos is not None else 0
    if check_finite is None:
        check_finite = retry is not None or chaos is not None
    return chaos, epoch, bool(check_finite)


def _tile_is_finite(tile: Tile) -> bool:
    """Cheap non-finite scan of a task's output representation."""
    if isinstance(tile, LowRankTile):
        return bool(
            np.isfinite(tile.u).all() and np.isfinite(tile.v).all()
        )
    return bool(np.isfinite(tile.data).all())


def gemm_outcome(before: Tile, out: Tile) -> bool:
    """Whether a GEMM that turned ``before`` into ``out`` densified a
    low-rank tile — its first update, which makes it an accumulator;
    the fact :class:`CholeskyStats` tallies per update."""
    return before.is_low_rank and not out.is_low_rank


def settle_outcome(certified: bool | None, out: Tile) -> tuple[int, int, int]:
    """``(truncations, kept_dense, certified)`` a TRSM adds to
    :class:`CholeskyStats`: ``certified`` is what its settle returned
    (:meth:`TaskBody.compute`), ``None`` when it settled nothing, and
    ``out`` its result — dense only when the tile could not get under
    ``max_rank``."""
    if certified is None:
        return 0, 0, 0
    return 1, int(not out.is_low_rank), int(certified)


def tally_settle(stats: CholeskyStats, outcome: tuple[int, int, int]) -> None:
    truncated, kept_dense, certified = outcome
    stats.truncations += truncated
    stats.kept_dense += kept_dense
    stats.certified += certified


def finish_run(stats: CholeskyStats, matrix: TileMatrix) -> None:
    """Close the tally of a completed run over ``matrix``: the per-op
    counts are the task stream's (closed form — no plan is built for
    them), and no tile of the factor is still accumulating (every one
    met the TRSM that settles it)."""
    stats.count_batch(cholesky_op_counts(matrix.nt))
    assert matrix.settled, "factor contains an unsettled tile"


@dataclass(eq=False, repr=False)
class TaskBody:
    """Kernel bodies of one run over a ``tiles`` mapping.

    :meth:`run` executes one task (hooks, kernel, tally, write-back);
    :meth:`solve_column` / :meth:`update_column` are the panel sweep's
    stacked calls over :attr:`columns`, each under the same hooks
    (:meth:`hooked`: one attempt is one kernel call).  ``tiles`` is
    anything indexable by tile key — a :class:`MatrixTiles` view or a
    plain dict.  Safe to call from many threads on independent tasks
    and distinct columns: :attr:`lock` guards the shared tally (the
    sweep also counts its units in flight under it).
    """

    tiles: object
    tile_tol: float = 0.0
    max_rank: int | None = None
    fp16_accumulate_fp32: bool = True
    retry: object = None
    chaos: ChaosInjector | None = None
    epoch: int = 0
    check_finite: bool = False
    #: The riding tiles of a panel sweep (``None`` in a worker process).
    columns: ColumnStacks | None = None
    #: Every call is timed onto its timeline when it traces.
    recorder: "RunRecorder | None" = None

    def __post_init__(self) -> None:
        self.stats = CholeskyStats()
        self.lock = threading.Lock()
        self._plain = (
            self.retry is None and self.chaos is None
            and not self.check_finite
        )
        traces = self.recorder is not None and self.recorder.tracer is not None
        self._note = self.recorder.note if traces else None

    def kernel(self, task: Task, before: Tile | None = None) -> Tile:
        """The bare tile kernel of ``task``; ``before`` is the output
        tile's current value when ``tiles`` does not hold it (a riding
        row's accumulator)."""
        tiles = self.tiles
        out = tiles[task.output] if before is None else before
        op = task.op
        if op == "gemm":
            amk, ank = task.inputs
            return K.gemm(
                tiles[amk], tiles[ank], out,
                tol=self.tile_tol, max_rank=self.max_rank,
                fp16_accumulate_fp32=self.fp16_accumulate_fp32,
            )
        if op == "trsm":
            return K.trsm(
                tiles[task.inputs[0]], out,
                fp16_accumulate_fp32=self.fp16_accumulate_fp32,
            )
        if op == "syrk":
            return K.syrk(
                tiles[task.inputs[0]], out,
                fp16_accumulate_fp32=self.fp16_accumulate_fp32,
            )
        return K.potrf(out, index=task.output)

    def hooked(self, site: Task, call, corrupt, bad_tile) -> tuple:
        """``(result, attempts)`` of one kernel call — a tile op or a
        stacked call — under the hooks.  ``site`` is the task whose
        uid keys the chaos draws and the retry jitter.  One attempt is
        the chaos perturbation, ``call()``, the chaos corruption
        (``corrupt(out, inject)`` hands ``inject`` the site's output
        tile and returns ``out`` with whatever came back) and the
        finite check (``bad_tile(out)``: index of the first non-finite
        output tile, or ``None``) — no state update, so a failure is
        retryable; what the retry policy absorbed is tallied here
        (``stats.retries``: ``attempts - 1`` per call)."""
        chaos = self.chaos
        tries = 0

        def attempt(number: int):
            nonlocal tries
            tries = number
            if chaos is not None:
                chaos.perturb_task(self.epoch, site.uid, number)
            out = call()
            if chaos is not None:
                out = corrupt(out, lambda tile: chaos.corrupt_tile(
                    tile, self.epoch, site.uid, number
                ))
            bad = bad_tile(out) if self.check_finite else None
            if bad is not None:
                raise NumericalCorruptionError(
                    f"task {site.op}@{bad} produced non-finite "
                    f"values (attempt {number})",
                    tile_index=bad,
                )
            return out

        if self.retry is None:
            return attempt(1), 1
        out = self.retry.call(attempt, site=site.uid)
        if tries > 1:
            with self.lock:
                self.stats.retries += tries - 1
        return out, tries

    def compute(self, task: Task,
                before: Tile | None = None) -> tuple[Tile, int, bool | None]:
        """``(output tile, attempts, certified)`` of ``task`` under the
        hooks, without writing anything back (``before`` as in
        :meth:`kernel`).  A TRSM whose output tile is accumulating
        settles it first (:func:`repro.tile.kernels.settle`, a function
        of the tile's bytes alone, so it runs once and a retried attempt
        solves the settled tile): ``certified`` is its outcome, ``None``
        for a task that settled nothing."""
        certified = None
        if task.op == "trsm":
            if before is None:
                before = self.tiles[task.output]
            if before.owed is not None:
                before, certified = K.settle(before)
        if self._plain:
            return self.kernel(task, before), 1, certified
        out, attempts = self.hooked(
            task, lambda: self.kernel(task, before),
            lambda out, inject: inject(out),
            lambda out: None if _tile_is_finite(out) else task.output,
        )
        return out, attempts, certified

    def stacked(self, op: str, k: int, n: int, rows, precision: Precision,
                owed, call):
        """``(new stack, attempts)`` of the stacked call ``call()``
        that applies panel ``k``'s ``op`` to the slices of tile rows
        ``rows`` of column ``n``, under the hooks.  The site is the
        first row's task, one attempt is the whole call, the injector
        is handed that task's slice as its tile — storage
        ``precision``, and the ``owed`` truncation of an accumulating
        row, which keeps it float64 — and a hit replaces the slice in a
        copy of the stack; a failed finite check names the first
        non-finite *tile* of the call."""
        if self._plain:
            return call(), 1

        def corrupt(stack, inject):
            tile = DenseTile(stack[0], precision, owed)
            hit = inject(tile)
            if hit is not tile:
                stack = stack.copy()
                stack[0] = hit.data
            return stack

        def bad_tile(stack):
            finite = np.isfinite(stack)
            if finite.all():
                return None
            return rows[int(np.argmin(finite.all(axis=(1, 2))))], n

        return self.hooked(
            cholesky_task(len(self.columns.riding), op, k, rows[0], n),
            call, corrupt, bad_tile,
        )

    def run(self, task: Task, before: Tile | None = None) -> None:
        """Execute ``task``, tally it and write its output back
        (``before``: the output tile's current value when ``tiles``
        does not hold it, as in :meth:`kernel`)."""
        note = self._note
        if note is not None:
            start = time.perf_counter()
        tiles = self.tiles
        if before is None:
            before = tiles[task.output]
        out, attempts, certified = self.compute(task, before)
        if task.op == "gemm":
            if gemm_outcome(before, out):
                with self.lock:
                    self.stats.densified_tiles += 1
        elif certified is not None:
            with self.lock:
                tally_settle(self.stats, settle_outcome(certified, out))
        tiles[task.output] = out
        if note is not None:
            note(task.op, 1, task, start, attempts, False)

    def solve_column(self, k: int) -> None:
        """Panel ``k``'s TRSM of every run of column ``k`` and the
        column's publication.  A run's settled dense rows take one wide
        solve against the factored diagonal tile, each solved slice
        written to ``tiles`` as a view of the new stack; its
        planned-low-rank rows settle and solve one by one, through the
        per-tile kernel — the truncation is ``trsm``'s own arithmetic.
        The column is final from here on, and keeps only the runs whose
        solved stacks its published tiles are views of."""
        tiles = self.tiles
        note = self._note
        nt = len(self.columns.riding)
        low = tiles[(k, k)]
        owed = (self.tile_tol, self.max_rank)
        runs = []
        for run in self.columns.get(k):
            owing = dict(run.owing)
            rows = [m for m in range(run.lo, run.hi) if m not in owing]
            if rows:
                if note is not None:
                    start = time.perf_counter()
                dense = (run.stack[[m - run.lo for m in rows]] if owing
                         else run.stack)
                solved, attempts = self.stacked(
                    "trsm", k, k, rows, run.precision, None,
                    lambda: stacked_trsm(
                        low, dense, run.precision,
                        fp16_accumulate_fp32=self.fp16_accumulate_fp32,
                    ),
                )
                for m, data in zip(rows, solved):
                    tiles[(m, k)] = DenseTile(data, run.precision)
                if not owing:
                    runs.append(run._replace(stack=solved))
                if note is not None:
                    note("trsm", len(rows), None, start, attempts, True)
            for m, precision in run.owing:
                # A fresh array, as the per-tile GEMM hands the settle.
                self.run(cholesky_task(nt, "trsm", k, m), DenseTile(
                    run.stack[m - run.lo].copy(), precision, owed,
                ))
        self.columns.set(k, runs)

    def facing(self, k: int) -> list:
        """What the finished column ``k`` hands the stacked GEMMs, by
        row: ``(array, first row)``.  A column holding a low-rank tile
        is expanded once, in float64 — every row its dense block (``u
        v^T`` for a low-rank tile, the widened data for a dense one),
        one stack per tile shape.  Otherwise the rows are views where
        the dense tiles live: a run's stack, or any other tile's own
        data as a one-row stack.  Rows at or above the diagonal hold
        ``None``."""
        tiles = self.tiles
        columns = self.columns
        nt = len(columns.riding)
        rows: list = [None] * nt
        for run in columns.get(k):
            rows[run.lo:run.hi] = [(run.stack, run.lo)] * (run.hi - run.lo)
        # Only a tile outside the column's solved runs can be low-rank.
        rest = {m: tiles[(m, k)] for m in range(k + 1, nt) if rows[m] is None}
        if not any(tile.is_low_rank for tile in rest.values()):
            for m, tile in rest.items():
                rows[m] = (tile.data[None], m)
            return rows
        final = [rest.get(m) or tiles[(m, k)] for m in range(k + 1, nt)]
        for shape, group in groupby(
            range(k + 1, nt), lambda m: final[m - k - 1].shape
        ):
            group = list(group)
            wide = np.empty((len(group), *shape))
            for i, m in enumerate(group):
                wide[i] = final[m - k - 1].to_dense64()
                rows[m] = (wide, group[0])
        return rows

    def update_column(self, k: int, n: int, facing: list) -> None:
        """Panel ``k``'s GEMMs into every run of column ``n`` — one
        stacked call each: ``C_run <- C_run - A_run B^T`` with ``A_run``
        the rows of column ``k`` (:meth:`facing`) beside the run and
        ``B`` the tile ``(n, k)`` (low-rank ``B``: ``(A_run V_B)
        U_B^T``).  What the sweep's units are made of: it writes no
        state another column's call touches.  Without hooks a run's
        stack is updated in place — nothing but this call reads a
        trailing column's stack before its TRSM — and under hooks into a
        fresh stack, so a failed attempt leaves the run as it was."""
        note = self._note
        b = self.tiles[(n, k)]
        if not b.is_low_rank:
            b = b.data
        owed = (self.tile_tol, self.max_rank)
        runs = []
        for run in self.columns.get(n):
            if note is not None:
                start = time.perf_counter()
            parts = []
            m = run.lo
            while m < run.hi:
                stack, first = facing[m]
                stop = min(run.hi, first + len(stack))
                parts.append(stack[m - first:stop - first])
                m = stop
            if run.owing and run.owing[0][0] == run.lo:
                precision, lead_owed = run.owing[0][1], owed
            else:
                precision, lead_owed = run.precision, None
            updated, attempts = self.stacked(
                "gemm", k, n, range(run.lo, run.hi), precision, lead_owed,
                lambda: stacked_gemm(
                    parts, b, run.stack, run.precision,
                    fp16_accumulate_fp32=self.fp16_accumulate_fp32,
                    out=run.stack if self._plain else None,
                ),
            )
            runs.append(run._replace(stack=updated))
            if note is not None:
                note("gemm", run.hi - run.lo, None, start, attempts, True)
        self.columns.set(n, runs)

# ----------------------------------------------------------------------
# timeline -> spans, report
# ----------------------------------------------------------------------
@dataclass
class ParallelRunReport:
    """Outcome of one executor run."""

    #: Published as a per-run delta (:meth:`MetricsRegistry.publish`);
    #: the fields that describe the run rather than count its work
    #: override the kind.
    metric_kind = "counter"

    workers: int = field(metadata={"metric": "gauge"})
    tasks: int
    wall_time_s: float = field(metadata={"metric": "histogram"})
    #: Most task bodies observed in flight at once — never more than
    #: :attr:`workers`.
    max_concurrency: int = field(default=1, metadata={"metric": "gauge"})
    #: Where task bodies ran: ``"inline"`` (the caller's thread),
    #: ``"thread"`` (a worker-thread pool) or ``"process"`` (the
    #: shared-memory worker processes).  With :attr:`grouping` and
    #: :attr:`workers` (the *effective* width) this is the resolved
    #: execution, not the requested one.
    placement: str = "thread"
    #: ``"per-tile"`` or ``"stacked"`` (the panel sweep: a column's
    #: runs of dense tiles as single stacked-BLAS calls; in-process
    #: placements only).
    grouping: str = "per-tile"
    #: Kernel counts / densification tallies of the run, matching what
    #: the sequential :func:`~repro.tile.cholesky.tile_cholesky` reports
    #: (``stats.retries``: transient task failures the retry policy
    #: absorbed).
    stats: CholeskyStats = field(default_factory=CholeskyStats)
    #: Chaos injections that fired during this run (0 without chaos).
    chaos_events: int = 0
    #: Stacked-BLAS calls of the run (only non-zero under stacked
    #: grouping).
    batches: int = 0
    #: Tasks that ran inside a stacked call.
    batched_tasks: int = 0
    #: Tasks of a stacked run that went through the per-tile kernels
    #: (loose tiles: low-rank, binary16 or too short a run).
    fallback_tasks: int = 0
    #: Per-worker BLAS thread clamp applied for this run (``None`` when
    #: no clamp was needed — a single worker keeps the library default).
    blas_clamp: int | None = field(default=None, metadata={"metric": "gauge"})
    #: Measured cross-owner tile traffic (process placement only).
    comm: CommStats | None = None


class RunRecorder:
    """Wall-clock timeline of one run, turned into telemetry spans.

    One entry per kernel *call* — ``(op, tasks, task, slot, start,
    end, attempts, batched)`` with absolute ``perf_counter`` times:
    ``tasks`` tile ops ran inside the call, ``task`` names the one of
    a per-tile call (``None`` for a stacked one).  In-process task
    bodies :meth:`note` their own calls (``slot`` = the calling
    thread's lane); the process engine appends its workers' entries.
    Without a telemetry bundle (``tracer is None``) nothing is timed.
    """

    def __init__(self, telemetry, *, process_lanes: bool = False):
        self.tracer = None if telemetry is None else telemetry.tracer
        #: The caller's enclosing span; pool threads and worker
        #: processes do not inherit it, so spans name it explicitly.
        self.parent_sid = (
            current_span_id() if self.tracer is not None else None
        )
        #: Worker ``slot`` renders as its own process lane ``slot + 1``.
        self.process_lanes = process_lanes
        self.timeline: list[tuple] = []
        self._lanes: dict[int, int] = {}
        self._lock = threading.Lock()
        self._emitted = 0
        self.t0 = time.perf_counter()

    def note(self, op: str, tasks: int, task: Task | None, start: float,
             attempts: int, batched: bool) -> None:
        """Record a call that began at ``start`` and just returned."""
        end = time.perf_counter()
        ident = threading.get_ident()
        with self._lock:
            slot = self._lanes.setdefault(ident, len(self._lanes))
            self.timeline.append(
                (op, tasks, task, slot, start, end, attempts, batched)
            )

    def emit_spans(self, parent: int | None) -> None:
        """Turn the entries recorded since the last call into spans
        under ``parent`` (call only while no worker is appending)."""
        if self.tracer is None:
            return
        add_span = self.tracer.add_span
        for op, tasks, task, slot, start, end, attempts, batched in (
            self.timeline[self._emitted:]
        ):
            attrs = {"tasks": tasks, "worker": slot,
                     "attempt": attempts, "batched": batched}
            if task is not None:
                attrs["uid"] = task.uid
                attrs["tile"] = list(task.output)
            add_span(
                op, start, end, parent=parent,
                pid=slot + 1 if self.process_lanes else DRIVER_PID,
                tid=slot, attrs=attrs,
            )
        self._emitted = len(self.timeline)

    def report(self, **fields) -> ParallelRunReport:
        """Close the run: remaining spans, and the report carrying
        ``fields``."""
        wall = time.perf_counter() - self.t0
        self.emit_spans(self.parent_sid)
        return ParallelRunReport(wall_time_s=wall, **fields)
