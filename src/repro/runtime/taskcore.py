"""The Cholesky task core: what every executor shares.

Two executors run the tile Cholesky — a panel sweep over column
stacks, on the caller's thread or a thread pool
(:mod:`~repro.runtime.batchdispatch`), and per-owner messages to
worker processes (:mod:`~repro.runtime.procpool`).  They differ only
in *scheduling*; the rest lives here, once:

* :class:`ColumnStacks` — which dense tiles of a matrix ride
  ``(rows, m, n)`` stacks through the sweep, and their current values;
* :class:`TaskBody` — the per-task and per-column kernel bodies, the
  one hook wrapper every kernel *call* goes through (retry / chaos /
  finite check: :meth:`TaskBody.hooked`) and the low-rank update
  tally (GEMM and settle outcomes);
* :func:`stop_reason` / :func:`stopped` — the stop conditions
  (deadline, cancellation) every loop polls;
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
    "settle_outcome", "stop_reason", "stopped", "tally_gemm", "tally_settle",
]

#: Below this run length a stacked call buys nothing over the per-tile
#: kernel; shorter runs go through :mod:`repro.tile.kernels`.
MIN_BATCH = 2


def _make_lock():
    """Executor-internal lock constructor.

    The concurrency sanitizer (:mod:`repro.analysis.sanitize`)
    monkeypatches this seam to observe the dispatch lock's
    acquire/release edges; the plain path pays one extra call per run.
    """
    return threading.Lock()


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


def stop_reason(deadline, cancel=None) -> str | None:
    """Why dispatch must stop now (token cancelled / deadline passed),
    or ``None``.  Cooperative: in-flight work finishes, nothing new
    starts."""
    if cancel is not None and cancel.cancelled:
        return cancel.reason or "cancelled"
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
    :meth:`TileMatrix.set` — the seam the concurrency sanitizer
    watches, so concurrently running task bodies use it; a worker
    process, alone with its tiles, indexes a plain dict."""

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
    n)`` array at storage ``precision``.  Immutable: an update makes a
    new run around a fresh array."""

    lo: int
    hi: int
    precision: Precision
    stack: np.ndarray


class ColumnStacks:
    """The tiles of a matrix that ride stacks through the panel sweep,
    column by column.

    A sub-diagonal tile ``(m, n)`` *rides* when its TRSM and every
    GEMM it will receive can be a slice of a stacked call: it is a
    settled dense tile whose compute dtype is not binary16, rows ``m``
    and ``n`` hold only settled dense tiles left of column ``n`` (its
    operands ``(m, k)`` and ``(n, k)``, ``k < n``), and a vertical
    neighbour of the same shape and precision rides with it — a *run*
    of at least :data:`MIN_BATCH`.  Riding tiles are gathered here,
    once; until the TRSM of their column publishes them they live only
    in their run's stack, so no per-tile kernel ever reads or writes
    one.  Every other tile is *loose*: it stays in the matrix and runs
    per tile.

    Stack-view invariant: a stacked call reads views of arrays nobody
    writes any more and returns a fresh one; runs are replaced
    (:meth:`set`), never mutated.  Distinct columns are distinct
    variables, so the sweep's units — disjoint sets of columns — share
    nothing they write; :meth:`get` / :meth:`set` are the seam the
    concurrency sanitizer watches, like :meth:`TileMatrix.get` /
    ``set``.
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
        #: Tiles riding in each column (a stacked call's task count).
        self.riding: list[int] = []
        #: Loose rows of each column, and loose columns of each row
        #: (both ascending).
        self.loose_rows: list[list[int]] = [[] for _ in range(nt)]
        self.loose_cols: list[list[int]] = [[] for _ in range(nt)]
        for n in range(nt):

            def run_key(m: int, n: int = n):
                tile = get(m, n)
                if (
                    dense_left[m] < n or dense_left[n] < n or not dense(tile)
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
                else:
                    runs.append(StackRun(
                        rows[0], rows[-1] + 1, key[1],
                        np.stack([get(m, n).data for m in rows]),
                    ))
            self._runs[n] = runs
            self.riding.append(sum(run.hi - run.lo for run in runs))

    def get(self, n: int) -> list[StackRun]:
        """The current runs of column ``n``."""
        return self._runs[n]

    def set(self, n: int, runs: list[StackRun]) -> None:
        """Replace the runs of column ``n`` (same rows, fresh stacks)."""
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


def gemm_outcome(before: Tile, out: Tile) -> tuple[bool, int | None]:
    """``(densified, lr_rank)`` of a GEMM that turned ``before`` into
    ``out`` — the two facts :class:`CholeskyStats` tallies per update."""
    if out.is_low_rank:
        return False, out.rank
    return before.is_low_rank, None


def tally_gemm(stats: CholeskyStats, densified: bool,
               lr_rank: int | None) -> None:
    if densified:
        stats.densified_tiles += 1
    if lr_rank is not None and lr_rank > stats.max_rank_seen:
        stats.max_rank_seen = lr_rank


def settle_outcome(before: Tile, out: Tile) -> tuple[bool, bool]:
    """``(truncated, kept_dense)`` of a TRSM that turned ``before``
    into ``out``: whether it settled an accumulating tile, and whether
    that tile could not get under ``max_rank``."""
    truncated = before.owed is not None
    return truncated, truncated and not out.is_low_rank


def tally_settle(stats: CholeskyStats, truncated: bool,
                 kept_dense: bool) -> None:
    stats.truncations += truncated
    stats.kept_dense += kept_dense


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
        self.lock = _make_lock()
        self._plain = (
            self.retry is None and self.chaos is None
            and not self.check_finite
        )
        traces = self.recorder is not None and self.recorder.tracer is not None
        self._note = self.recorder.note if traces else None

    def kernel(self, task: Task) -> Tile:
        """The bare tile kernel of ``task``."""
        tiles = self.tiles
        op = task.op
        if op == "gemm":
            amk, ank = task.inputs
            return K.gemm(
                tiles[amk], tiles[ank], tiles[task.output],
                tol=self.tile_tol, max_rank=self.max_rank,
                fp16_accumulate_fp32=self.fp16_accumulate_fp32,
            )
        if op == "trsm":
            return K.trsm(
                tiles[task.inputs[0]], tiles[task.output],
                fp16_accumulate_fp32=self.fp16_accumulate_fp32,
            )
        if op == "syrk":
            return K.syrk(
                tiles[task.inputs[0]], tiles[task.output],
                fp16_accumulate_fp32=self.fp16_accumulate_fp32,
            )
        return K.potrf(tiles[task.output], index=task.output)

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

    def compute(self, task: Task) -> tuple[Tile, int]:
        """``(output tile, attempts)`` of ``task`` under the hooks,
        without writing anything back."""
        if self._plain:
            return self.kernel(task), 1
        return self.hooked(
            task, lambda: self.kernel(task),
            lambda out, inject: inject(out),
            lambda out: None if _tile_is_finite(out) else task.output,
        )

    def stacked(self, op: str, k: int, n: int, run: StackRun, call):
        """``(new stack, attempts)`` of the stacked call ``call()``
        that applies panel ``k``'s ``op`` to ``run`` of column ``n``,
        under the hooks.  The site is the run's first task, one
        attempt is the whole call, the injector is handed that task's
        slice (a hit replaces it in a copy of the stack), and a failed
        finite check names the first non-finite *tile* of the run."""
        if self._plain:
            return call(), 1

        def corrupt(stack, inject):
            tile = DenseTile(stack[0], run.precision)
            hit = inject(tile)
            if hit is not tile:
                stack = stack.copy()
                stack[0] = hit.data
            return stack

        def bad_tile(stack):
            finite = np.isfinite(stack)
            if finite.all():
                return None
            return run.lo + int(np.argmin(finite.all(axis=(1, 2)))), n

        return self.hooked(
            cholesky_task(len(self.columns.riding), op, k, run.lo, n),
            call, corrupt, bad_tile,
        )

    def run(self, task: Task) -> None:
        """Execute ``task``, tally it and write its output back."""
        note = self._note
        if note is not None:
            start = time.perf_counter()
        out, attempts = self.compute(task)
        tiles = self.tiles
        if task.op == "gemm":
            densified, lr_rank = gemm_outcome(tiles[task.output], out)
            if densified or lr_rank is not None:
                with self.lock:
                    tally_gemm(self.stats, densified, lr_rank)
        elif task.op == "trsm":
            truncated, kept_dense = settle_outcome(tiles[task.output], out)
            if truncated:
                with self.lock:
                    tally_settle(self.stats, truncated, kept_dense)
        tiles[task.output] = out
        if note is not None:
            note(task.op, 1, task, start, attempts, False)

    def solve_column(self, k: int) -> None:
        """Panel ``k``'s TRSM of every run of column ``k`` — one wide
        solve each against the factored diagonal tile — and the
        column's publication: each solved slice is written to
        ``tiles`` as a view of its run's new stack.  The column is
        final from here on."""
        tiles = self.tiles
        note = self._note
        low = tiles[(k, k)]
        runs = []
        for run in self.columns.get(k):
            if note is not None:
                start = time.perf_counter()
            stack, attempts = self.stacked(
                "trsm", k, k, run, lambda: stacked_trsm(
                    low, run.stack, run.precision,
                    fp16_accumulate_fp32=self.fp16_accumulate_fp32,
                ),
            )
            for m in range(run.lo, run.hi):
                tiles[(m, k)] = DenseTile(stack[m - run.lo], run.precision)
            runs.append(run._replace(stack=stack))
            if note is not None:
                note("trsm", run.hi - run.lo, None, start, attempts, True)
        self.columns.set(k, runs)

    def facing(self, k: int) -> list:
        """Where the dense tiles of the finished column ``k`` live, by
        row: ``(array, first row)`` — a run's stack, or a loose tile's
        own data as a one-row stack.  Rows no riding tile can face
        (low-rank, at or above the diagonal) hold ``None``."""
        tiles = self.tiles
        columns = self.columns
        rows: list = [None] * len(columns.riding)
        for run in columns.get(k):
            rows[run.lo:run.hi] = [(run.stack, run.lo)] * (run.hi - run.lo)
        for m in columns.loose_rows[k]:
            tile = tiles[(m, k)]
            if not tile.is_low_rank:
                rows[m] = (tile.data[None], m)
        return rows

    def update_column(self, k: int, n: int, facing: list) -> None:
        """Panel ``k``'s GEMMs into every run of column ``n`` — one
        stacked call each: ``C_run <- C_run - A_run B^T`` with ``A_run``
        the views of column ``k`` (:meth:`facing`) beside the run and
        ``B`` the tile ``(n, k)``.  What the sweep's units are made
        of: it writes no state another column's call touches."""
        note = self._note
        b = self.tiles[(n, k)].data
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
            updated, attempts = self.stacked(
                "gemm", k, n, run, lambda: stacked_gemm(
                    parts, b, run.stack, run.precision,
                    fp16_accumulate_fp32=self.fp16_accumulate_fp32,
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
        self._lock = _make_lock()
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
