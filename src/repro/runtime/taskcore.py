"""The Cholesky task core: what every executor shares.

Three executors run the tile Cholesky DAG — worker threads pulling a
priority heap (:mod:`~repro.runtime.parallel`), wave barriers over
stacked groups (:mod:`~repro.runtime.batchdispatch`), per-owner
messages to worker processes (:mod:`~repro.runtime.procpool`).  They
differ only in *scheduling*; the rest lives here, once:

* :func:`cholesky_plan` — cached task stream, dependence structure,
  priorities and per-op counts of an ``nt x nt`` factorization;
* :class:`ReadySet` — one run's dependence counters, ready heap and
  stop conditions (deadline, cancellation);
* :class:`TaskBody` — the per-task and per-group kernel bodies with
  the retry / chaos / finite-check hooks and the low-rank update
  tally (GEMM and settle outcomes);
* :class:`RunRecorder` — a traced run's wall-clock timeline, and from
  it the telemetry spans; it also closes the run into its
  :class:`ParallelRunReport`.

:func:`repro.tile.cholesky.tile_cholesky` stays separate on purpose:
it is the hook-free reference every executor is pinned bit-identical
against.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    NumericalCorruptionError,
)
from ..obs.tracer import DRIVER_PID, current_span_id
from ..resilience.chaos import ChaosInjector
from ..tile import kernels as K
from ..tile.batch import (
    ScratchPool,
    batched_gemm,
    batched_potrf,
    batched_syrk,
    batched_trsm,
)
from ..tile.cholesky import CholeskyStats
from ..tile.matrix import TileMatrix
from ..tile.precision import Precision
from ..tile.tile import LowRankTile, Tile
from .comm import CommStats
from .scheduler import panel_priorities_tasks
from .task import Task
from .taskgraph import cholesky_tasks

__all__ = [
    "MIN_BATCH", "CholeskyPlan", "MatrixTiles", "ParallelRunReport",
    "ReadySet", "RunRecorder", "TaskBody", "cholesky_plan", "finish_run",
    "gemm_outcome", "reject_stacked_hooks", "resolve_hooks",
    "settle_outcome", "split_wave", "tally_gemm", "tally_settle",
]

#: Below this group size a stacked call buys nothing over the per-tile
#: kernel; smaller groups run through :mod:`repro.tile.kernels`.
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
    #: Tasks per op — the ``kernel_counts`` of any completed run.
    op_counts: Counter


def _dependences(
    tasks: tuple[Task, ...],
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Indegrees and successor lists of a sequential task stream.

    Same RAW/WAW/WAR analysis as :func:`repro.runtime.dag.build_dag`,
    but producing plain dicts — the executors only ever need these
    two, and a :class:`networkx.DiGraph` costs more to build than a
    whole factorization panel takes to run.
    """
    last_writer: dict[tuple[int, int], int] = {}
    readers_since_write: dict[tuple[int, int], list[int]] = {}
    indegree: dict[int, int] = {}
    successors: dict[int, list[int]] = {}
    for task in tasks:
        deps: set[int] = set()
        for tile in task.tiles:
            writer = last_writer.get(tile)
            if writer is not None:
                deps.add(writer)
        for reader in readers_since_write.get(task.output, ()):
            deps.add(reader)
        deps.discard(task.uid)
        successors[task.uid] = []
        indegree[task.uid] = len(deps)
        for dep in deps:
            successors[dep].append(task.uid)
        last_writer[task.output] = task.uid
        readers_since_write[task.output] = []
        for tile in task.inputs:
            readers_since_write.setdefault(tile, []).append(task.uid)
    return indegree, successors


@lru_cache(maxsize=8)
def cholesky_plan(nt: int) -> CholeskyPlan:
    """The plan of an ``nt x nt`` Cholesky (theta-independent, so the
    evaluations of one MLE fit all share it)."""
    tasks = tuple(cholesky_tasks(nt))
    indegree, successors = _dependences(tasks)
    return CholeskyPlan(
        tasks, indegree, successors, panel_priorities_tasks(tasks),
        Counter(t.op for t in tasks),
    )


# ----------------------------------------------------------------------
# ready-set bookkeeping
# ----------------------------------------------------------------------
class ReadySet:
    """Dependence bookkeeping of one run over the cached plan.

    Holds a private indegree copy, the ready tasks as a priority heap,
    and the stop conditions every scheduling loop polls.  Not
    synchronized: the thread executor guards it with its dispatch
    lock, the wave and process loops drive it from one thread.
    """

    __slots__ = ("tasks", "remaining", "deadline", "cancel",
                 "_indegree", "_successors", "_priority", "_heap")

    def __init__(self, nt: int, *, deadline=None, cancel=None):
        plan = cholesky_plan(nt)
        self.tasks = plan.tasks
        self.remaining = len(plan.tasks)
        self.deadline = deadline
        self.cancel = cancel
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

    def drain(self) -> list[Task]:
        """The whole ready set in uid order — one wave.  Simultaneously
        ready tasks share no DAG edge, so they are pairwise
        independent, and uid order makes waves a function of the DAG
        alone."""
        uids = sorted(uid for _, uid in self._heap)
        self._heap.clear()
        return [self.tasks[uid] for uid in uids]

    def complete(self, uid: int) -> None:
        """Task ``uid`` finished: release its newly ready successors."""
        self.remaining -= 1
        indegree = self._indegree
        for succ in self._successors[uid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(self._heap, (-self._priority[succ], succ))

    def stop_reason(self) -> str | None:
        """Why dispatch must stop now (token cancelled / deadline
        passed), or ``None``.  Cooperative: in-flight work finishes,
        nothing new starts."""
        cancel = self.cancel
        if cancel is not None and cancel.cancelled:
            return cancel.reason or "cancelled"
        deadline = self.deadline
        if deadline is not None and deadline.expired:
            return f"deadline of {deadline.budget_s:.3g}s exceeded"
        return None

    def stopped(self, reason: str, t0: float, where: str):
        """The error a run stopped for ``reason`` surfaces once it has
        drained (``t0``: its ``perf_counter`` start)."""
        return DeadlineExceededError(
            f"execution cancelled after {time.perf_counter() - t0:.3g}s: "
            f"{reason}",
            budget_s=None if self.deadline is None
            else self.deadline.budget_s,
            where=where,
        )


# ----------------------------------------------------------------------
# task and group bodies
# ----------------------------------------------------------------------
class MatrixTiles:
    """``tiles[key]`` access through :meth:`TileMatrix.get` /
    :meth:`TileMatrix.set` — the seam the concurrency sanitizer
    watches, so concurrently running task bodies use it; the
    single-threaded-per-tile wave and worker loops index a plain dict."""

    __slots__ = ("_get", "_set")

    def __init__(self, matrix: TileMatrix):
        self._get = matrix.get
        self._set = matrix.set

    def __getitem__(self, key: tuple[int, int]) -> Tile:
        return self._get(*key)

    def __setitem__(self, key: tuple[int, int], tile: Tile) -> None:
        self._set(*key, tile)


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


def reject_stacked_hooks(stacked: bool, retry, chaos) -> None:
    """A stacked call runs many tasks as one kernel, so per-task retry
    and chaos have nothing to attach to; the combination is refused
    rather than silently dropping either setting."""
    if stacked and (retry is not None or chaos is not None):
        raise ConfigurationError(
            "stacked grouping (batch=True) cannot run with task-level "
            "retry/chaos hooks: they need per-task attempts; use "
            "batch=False or drop the task-level resilience settings"
        )


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
    counts are the plan's, and no tile of the factor is still
    accumulating (every one met the TRSM that settles it)."""
    stats.count_batch(cholesky_plan(matrix.nt).op_counts)
    assert matrix.settled, "factor contains an unsettled tile"


def _group_key(task: Task, tiles, f16_ok: bool):
    """Homogeneity key for ``task``, or ``None`` when it must run
    per-tile (low-rank or accumulating operand / binary16 compute /
    HGEMM mode).

    TRSM groups share one triangular factor (a single wide-RHS solve),
    so the diagonal tile's index joins their key."""
    out = tiles[task.output]
    if out.is_low_rank or out.owed is not None:
        # A dense-form accumulator looks dense but carries float64
        # state the stacked kernels would drop.
        return None
    op = task.op
    if op == "potrf":
        # potrf always computes in compute_dtype(precision) (fp16 ->
        # f32), so it is always batchable when dense.
        return ("potrf", out.shape, out.precision)
    if not f16_ok and out.precision is Precision.FP16:
        # compute_dtype would be binary16: the emulated pure-HGEMM mode.
        return None
    a = tiles[task.inputs[0]]
    if a.is_low_rank:
        return None
    if op == "trsm":
        return ("trsm", task.inputs[0], out.shape, out.precision)
    if op == "syrk":
        return ("syrk", a.shape, a.precision, out.precision)
    b = tiles[task.inputs[1]]
    if b.is_low_rank:
        return None
    return ("gemm", a.shape, a.precision, b.shape, b.precision, out.precision)


def split_wave(
    wave: list[Task], tiles, f16_ok: bool, min_batch: int = MIN_BATCH,
) -> tuple[list[tuple[str, tuple[Task, ...]]], list[Task]]:
    """Split pairwise-independent tasks into homogeneous stacked groups
    ``(op, tasks)`` and per-tile singles, in input order (so grouping
    is deterministic)."""
    keyed: dict[tuple, list[Task]] = {}
    singles: list[Task] = []
    for task in wave:
        key = _group_key(task, tiles, f16_ok)
        if key is None:
            singles.append(task)
        else:
            keyed.setdefault(key, []).append(task)
    groups = []
    for key, batch in keyed.items():
        if len(batch) >= min_batch:
            groups.append((key[0], tuple(batch)))
        else:
            singles.extend(batch)
    return groups, singles


@dataclass(eq=False, repr=False)
class TaskBody:
    """Kernel bodies of one run over a ``tiles`` mapping.

    :meth:`run` executes one task (hooks, kernel, tally, write-back),
    :meth:`run_group` one homogeneous dense group as a single stacked
    call.  ``tiles`` is anything indexable by tile key — a
    :class:`MatrixTiles` view or a plain dict.  Safe to call from many
    threads on DAG-independent tasks: :attr:`lock` guards the shared
    tally (executors also build their dispatch condition on it).
    """

    tiles: object
    tile_tol: float = 0.0
    max_rank: int | None = None
    fp16_accumulate_fp32: bool = True
    retry: object = None
    chaos: ChaosInjector | None = None
    epoch: int = 0
    check_finite: bool = False
    pool: ScratchPool | None = None
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

    def compute(self, task: Task) -> tuple[Tile, int]:
        """``(output tile, attempts)`` of ``task`` under the hooks,
        without writing anything back."""
        if self._plain:
            return self.kernel(task), 1
        chaos = self.chaos
        attempts = 0

        def attempt(number: int) -> Tile:
            # Chaos perturbation, the kernel, chaos corruption, the
            # finite check — no state update, so a failure is retryable.
            nonlocal attempts
            attempts = number
            if chaos is not None:
                chaos.perturb_task(self.epoch, task.uid, number)
            out = self.kernel(task)
            if chaos is not None:
                out = chaos.corrupt_tile(out, self.epoch, task.uid, number)
            if self.check_finite and not _tile_is_finite(out):
                raise NumericalCorruptionError(
                    f"task {task.op}@{task.output} produced non-finite "
                    f"values (attempt {number})",
                    tile_index=task.output,
                )
            return out

        if self.retry is None:
            return attempt(1), 1
        return self.retry.call(attempt, site=task.uid), attempts

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
        if attempts > 1:
            with self.lock:
                self.stats.retries += attempts - 1
        tiles[task.output] = out
        if note is not None:
            note(task.op, (task,), start, attempts, False)

    def run_group(self, op: str, batch: tuple[Task, ...]) -> None:
        """One stacked call for a whole homogeneous dense group
        (:func:`split_wave` built it, so the kernels' direct-caller
        validation is skipped).  Nothing is written unless the whole
        call succeeds."""
        tiles = self.tiles
        pool = self.pool
        f16 = self.fp16_accumulate_fp32
        note = self._note
        if note is not None:
            start = time.perf_counter()
        if op == "potrf":
            outs = batched_potrf(
                [tiles[t.output] for t in batch],
                [t.output for t in batch], pool=pool, validate=False,
            )
        elif op == "trsm":
            outs = batched_trsm(
                tiles[batch[0].inputs[0]],
                [tiles[t.output] for t in batch],
                fp16_accumulate_fp32=f16, pool=pool, validate=False,
            )
        elif op == "syrk":
            outs = batched_syrk(
                [tiles[t.inputs[0]] for t in batch],
                [tiles[t.output] for t in batch],
                fp16_accumulate_fp32=f16, pool=pool, validate=False,
            )
        else:
            outs = batched_gemm(
                [tiles[t.inputs[0]] for t in batch],
                [tiles[t.inputs[1]] for t in batch],
                [tiles[t.output] for t in batch],
                fp16_accumulate_fp32=f16, pool=pool, validate=False,
            )
        for task, out in zip(batch, outs):
            tiles[task.output] = out
        if note is not None:
            note(op, batch, start, 1, True)


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
    #: ``"per-tile"`` or ``"stacked"`` (homogeneous groups as single
    #: stacked-BLAS calls).
    grouping: str = "per-tile"
    #: Kernel counts / densification tallies of the run, matching what
    #: the sequential :func:`~repro.tile.cholesky.tile_cholesky` reports
    #: (``stats.retries``: transient task failures the retry policy
    #: absorbed).
    stats: CholeskyStats = field(default_factory=CholeskyStats)
    #: Chaos injections that fired during this run (0 without chaos).
    chaos_events: int = 0
    #: Homogeneous groups executed as single stacked-BLAS calls (only
    #: non-zero under stacked grouping).
    batches: int = 0
    #: Tasks that ran inside a stacked group.
    batched_tasks: int = 0
    #: Tasks of a stacked run that fell back to the per-tile kernels
    #: (low-rank or otherwise non-batchable groups).
    fallback_tasks: int = 0
    #: Per-worker BLAS thread clamp applied for this run (``None`` when
    #: no clamp was needed — a single worker keeps the library default).
    blas_clamp: int | None = field(default=None, metadata={"metric": "gauge"})
    #: Measured cross-owner tile traffic (process placement only).
    comm: CommStats | None = None


class RunRecorder:
    """Wall-clock timeline of one run, turned into telemetry spans.

    One entry per kernel *call* — ``(op, tasks, slot, start, end,
    attempts, batched)`` with absolute ``perf_counter`` times; members
    of a stacked group share their call's interval.  In-process task
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

    def note(self, op: str, tasks: tuple, start: float, attempts: int,
             batched: bool) -> None:
        """Record a call that began at ``start`` and just returned."""
        end = time.perf_counter()
        ident = threading.get_ident()
        with self._lock:
            slot = self._lanes.setdefault(ident, len(self._lanes))
            self.timeline.append(
                (op, tasks, slot, start, end, attempts, batched)
            )

    def emit_spans(self, parent: int | None) -> None:
        """Turn the entries recorded since the last call into spans
        under ``parent`` (call only while no worker is appending)."""
        if self.tracer is None:
            return
        add_span = self.tracer.add_span
        for op, tasks, slot, start, end, attempts, batched in (
            self.timeline[self._emitted:]
        ):
            attrs = {"tasks": len(tasks), "worker": slot,
                     "attempt": attempts, "batched": batched}
            if len(tasks) == 1:
                attrs["uid"] = tasks[0].uid
                attrs["tile"] = list(tasks[0].output)
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
