"""Process-parallel execution engine: tile Cholesky beyond the GIL.

The threaded executor (:mod:`repro.runtime.parallel`) parallelizes
only as far as BLAS releases the GIL; this engine runs the *same* task
DAG across persistent **worker processes** over a shared-memory tile
store (:mod:`repro.tile.shm`) — a working single-node analogue of
PaRSEC's distributed owner-computes execution:

* workers are forked/spawned **once** per engine (one per fit when the
  :class:`~repro.core.engine.EvaluationEngine` owns it) and reused by
  every likelihood evaluation; per evaluation the parent ships one
  small config message plus task descriptors — uids and tile handles,
  never payloads or task streams;
* tiles are partitioned 2-D block-cyclic
  (:class:`~repro.runtime.distribution.BlockCyclic2D`) and each task
  executes on the rank owning its output tile; inputs owned by other
  ranks are explicit counted copies
  (:class:`~repro.runtime.comm.CommStats`), cross-checkable against
  the simulator's comm model;
* dispatch reuses the lru-cached plan — dependence counters,
  successor lists, and panel priorities are all functions of ``nt``
  alone — and releases ready tasks in per-owner message batches;
* per-worker BLAS threads are clamped against oversubscription
  (:mod:`repro.runtime.blasclamp`), and the clamp is reported;
* failure semantics match the threaded engine: worker exceptions wrap
  in :class:`~repro.exceptions.SchedulingError` after the pool drains,
  deadlines stop dispatch and surface
  :class:`~repro.exceptions.DeadlineExceededError`, seeded chaos keys
  on ``(seed, epoch, uid, attempt)``; a worker killed mid-task raises
  :class:`~repro.exceptions.WorkerLostError` (never a hang), with the
  pool torn down and the store unlinked.

Determinism: identical kernels, identical per-tile dependence order,
byte-exact shared-memory round-trips — results are bit-identical to
the reference loop and the panel sweep (pinned by tests).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time

from ..exceptions import (
    ChaosError,
    CompressionError,
    ConfigurationError,
    NotPositiveDefiniteError,
    NumericalCorruptionError,
    SchedulingError,
    ShapeError,
    WorkerLostError,
)
from ..tile.cholesky import CholeskyStats, resolve_max_rank
from ..tile.matrix import TileMatrix
from ..tile.shm import SharedTileStore
from .blasclamp import blas_clamp_for, clamp_blas_threads
from .comm import CommStats
from .distribution import BlockCyclic2D
from .procworker import worker_main
from .taskcore import (
    ParallelRunReport,
    ReadySet,
    RunRecorder,
    finish_run,
    resolve_hooks,
    stop_reason,
    stopped,
    tally_settle,
)

__all__ = ["ProcessPoolEngine"]

#: Result-queue poll interval: long enough to stay off the CPU, short
#: enough that deadlines and dead workers are noticed promptly.
_POLL_S = 0.02

#: Hard ceiling on waiting for an in-flight task with every worker
#: alive — a backstop against a silently wedged worker, far above any
#: real kernel time.
_STALL_S = float(os.environ.get("REPRO_PROC_STALL_S", "600"))

_EXC_TYPES: dict[str, type] = {
    "NotPositiveDefiniteError": NotPositiveDefiniteError,
    "NumericalCorruptionError": NumericalCorruptionError,
    "ChaosError": ChaosError,
    "CompressionError": CompressionError,
    "ShapeError": ShapeError,
    "SchedulingError": SchedulingError,
}


def _rebuild_exc(info: dict) -> BaseException:
    """The worker-side exception, reconstructed parent-side so callers
    (NPD unwrapping, retry classification in tests) see the same types
    as with the threaded engine."""
    exc_type = _EXC_TYPES.get(info["type"])
    if exc_type in (NotPositiveDefiniteError, NumericalCorruptionError):
        return exc_type(info["message"], tile_index=info["tile_index"])
    if exc_type is ChaosError:
        return ChaosError(info["message"], site=info["site"])
    if exc_type is not None:
        return exc_type(info["message"])
    return RuntimeError(f"{info['type']}: {info['message']}")


class ProcessPoolEngine:
    """Persistent owner-computes worker pool for tile Cholesky.

    Parameters
    ----------
    workers:
        Process count; the 2-D block-cyclic grid defaults to the
        squarest ``p x q`` factorization of it.
    grid:
        Explicit :class:`~repro.runtime.distribution.BlockCyclic2D`
        override (its ``nodes`` must equal ``workers``).
    start_method:
        ``"fork"`` (default where available — workers inherit the
        loaded BLAS and start in milliseconds) or ``"spawn"``
        (portable; the env-based BLAS clamp applies at library load).
        Also settable via ``REPRO_PROC_START_METHOD``.

    The pool starts lazily on the first :meth:`execute` and survives
    across evaluations; :meth:`close` (or context-manager exit) stops
    the workers.  After a :class:`~repro.exceptions.WorkerLostError`
    the pool is torn down but the engine stays usable — the next
    :meth:`execute` starts a fresh pool.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        grid: BlockCyclic2D | None = None,
        start_method: str | None = None,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.workers = int(workers)
        self.grid = BlockCyclic2D.squarest(workers) if grid is None else grid
        if self.grid.nodes != self.workers:
            raise ConfigurationError(
                f"grid has {self.grid.nodes} nodes for {self.workers} workers"
            )
        if start_method is None:
            start_method = os.environ.get("REPRO_PROC_START_METHOD")
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self.start_method = start_method
        self.blas_clamp = blas_clamp_for(self.workers)
        self._ctx = mp.get_context(start_method)
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def start(self) -> None:
        """Spawn the workers and wait for their ready handshakes."""
        if self._procs:
            return
        ctx = self._ctx
        self._result_q = ctx.Queue()
        self._task_qs = [ctx.Queue() for _ in range(self.workers)]
        init = {"blas_threads": self.blas_clamp if self.workers > 1 else 0}
        # Clamp while creating processes: spawned children read the
        # clamped env at BLAS load time; the clamp restores on exit.
        with clamp_blas_threads(self.workers):
            for rank in range(self.workers):
                proc = ctx.Process(
                    target=worker_main,
                    args=(rank, self._task_qs[rank], self._result_q, init),
                    name=f"repro-worker-{rank}",
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        pending = set(range(self.workers))
        t_end = time.monotonic() + 120.0
        while pending:
            msg = self._poll("during startup")
            if msg is None:
                if time.monotonic() > t_end:  # pragma: no cover
                    self._teardown()
                    raise SchedulingError("worker pool failed to start")
            elif msg[0] == "ready":
                pending.discard(msg[1])

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent)."""
        if not self._procs:
            return
        for q in self._task_qs:
            try:
                q.put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - closed
                continue
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._teardown()

    def _teardown(self) -> None:
        """Terminate anything still alive and drop queue resources."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        for q in [*self._task_qs, self._result_q]:
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (ValueError, OSError):  # pragma: no cover
                continue  # already closed
        self._task_qs = []
        self._result_q = None

    def __enter__(self) -> "ProcessPoolEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            return  # interpreter teardown; daemon workers die with us

    def _poll(self, doing: str):
        """The next result message, or ``None`` after one quiet poll
        interval; a dead worker tears the pool down and raises
        :class:`~repro.exceptions.WorkerLostError` (never a hang)."""
        try:
            return self._result_q.get(timeout=_POLL_S)
        except queue_mod.Empty:
            for rank, proc in enumerate(self._procs):
                if not proc.is_alive():
                    exitcode = proc.exitcode
                    self._teardown()
                    raise WorkerLostError(
                        f"worker {rank} died {doing} (exitcode {exitcode})",
                        rank=rank, exitcode=exitcode,
                    ) from None
            return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        matrix: TileMatrix,
        *,
        tile_tol: float = 0.0,
        max_rank: int | None = None,
        fp16_accumulate_fp32: bool = True,
        deadline=None,
        retry=None,
        chaos=None,
        check_finite: bool | None = None,
        telemetry=None,
    ) -> tuple[TileMatrix, ParallelRunReport]:
        """Factor ``matrix`` in place across the worker processes.

        Same failure contract as
        :func:`~repro.runtime.parallel.execute_cholesky_parallel`:
        raises :class:`~repro.exceptions.SchedulingError` on task
        failure (first worker exception chained; a dead worker raises
        the :class:`~repro.exceptions.WorkerLostError` subclass) and
        :class:`~repro.exceptions.DeadlineExceededError` on
        deadline expiry — in every case only after in-flight
        tasks have drained (or the pool has been torn down) and the
        shared-memory store has been unlinked.  Workers run one tile
        op per task (``grouping="per-tile"``, always): an owner's rows
        are scattered over slabs and cannot form the views the
        in-process panel sweep stacks.

        ``telemetry`` merges the workers' shipped span timings into
        the parent tracer (worker ``rank`` appears as process
        ``rank + 1``), giving one cross-process timeline.  Workers and
        parent share the ``time.perf_counter`` epoch (CLOCK_MONOTONIC),
        so no clock translation happens anywhere.
        """
        self.start()
        chaos, epoch, check_finite = resolve_hooks(retry, chaos, check_finite)
        chaos_before = chaos.stats.events if chaos is not None else 0
        recorder = RunRecorder(telemetry, process_lanes=True)
        ready = ReadySet(matrix.nt)
        tasks = ready.tasks

        store = SharedTileStore(matrix.layout)
        try:
            handles = store.put_matrix(matrix)
            cfg = {
                "nt": matrix.nt,
                "grid": self.grid,
                "trace": recorder.tracer is not None,
                "chaos": None if chaos is None else chaos.config,
                # TaskBody arguments; the worker adds its own injector.
                "body": dict(
                    tile_tol=tile_tol,
                    max_rank=resolve_max_rank(
                        max_rank, matrix.layout.tile_size),
                    fp16_accumulate_fp32=fp16_accumulate_fp32,
                    retry=retry, epoch=epoch, check_finite=check_finite,
                ),
            }
            for q in self._task_qs:
                q.put(("eval", cfg))

            in_flight: dict[int, int] = {}
            errors: list[BaseException] = []
            stop = ""  # why dispatch stopped; in-flight tasks still drain
            comm = CommStats()
            stats = CholeskyStats()
            max_busy = 0
            last_progress = time.monotonic()

            def flush() -> None:
                """Dispatch every ready task to its owner, one message
                per owner (the tasks of one flush are pairwise
                independent: all were simultaneously ready)."""
                nonlocal max_busy
                if stop:
                    return
                buckets: dict[int, list] = {}
                while ready.has_ready:
                    task = ready.pop()
                    rank = self.grid.owner(*task.output)
                    buckets.setdefault(rank, []).append((
                        task.uid, handles[task.output],
                        tuple(handles[key] for key in task.inputs),
                    ))
                    in_flight[task.uid] = rank
                for rank, items in buckets.items():
                    self._task_qs[rank].put(("run", items))
                max_busy = max(max_busy, len(set(in_flight.values())))

            flush()
            while ready.remaining and not (stop and not in_flight):
                if not in_flight:  # pragma: no cover - DAG invariant
                    raise SchedulingError(
                        f"stalled with {ready.remaining} tasks unreached"
                    )
                stop = stop or stop_reason(deadline) or ""
                msg = self._poll(
                    f"mid-factorization with {len(in_flight)} tasks in flight"
                )
                if msg is None:
                    if time.monotonic() - last_progress > _STALL_S:
                        self._teardown()  # pragma: no cover - backstop
                        raise WorkerLostError(
                            f"no progress for {_STALL_S:.0f}s with "
                            f"{len(in_flight)} tasks in flight"
                        )
                    continue
                last_progress = time.monotonic()
                kind = msg[0]
                if kind == "ok":
                    _, rank, uid, handle, info = msg
                    in_flight.pop(uid, None)
                    handles[handle.index] = handle
                    store.handles[handle.index] = handle
                    task = tasks[uid]
                    span = info["span"]
                    if span is not None:
                        recorder.timeline.append(
                            (task.op, 1, task, rank, *span, False)
                        )
                    comm.remote_reads += info["remote_reads"]
                    comm.remote_bytes += info["remote_bytes"]
                    comm.local_reads += info["local_reads"]
                    stats.retries += info["retries"]
                    if info["chaos"] is not None:
                        chaos.absorb(info["chaos"])
                    stats.densified_tiles += info["densified"]
                    tally_settle(stats, info["settle"])
                    ready.complete(uid)
                    flush()
                elif kind == "err":
                    _, _, uid, info = msg
                    in_flight.pop(uid, None)
                    if info["chaos"] is not None:
                        chaos.absorb(info["chaos"])
                    errors.append(_rebuild_exc(info))
                    stop = stop or f"task {uid} failed"
                # "ready" handshakes from a restart are ignored here

            if errors:
                first = errors[0]
                raise SchedulingError(
                    f"process execution failed: {first!r}"
                ) from first
            if stop:
                raise stopped(
                    stop, deadline, recorder.t0, "ProcessPoolEngine.execute"
                )
            store.read_into(matrix)
            finish_run(stats, matrix)
            report = recorder.report(
                workers=self.workers,
                tasks=len(tasks),
                max_concurrency=max_busy,
                placement="process",
                grouping="per-tile",
                stats=stats,
                chaos_events=(
                    chaos.stats.events - chaos_before
                    if chaos is not None else 0
                ),
                blas_clamp=self.blas_clamp if self.workers > 1 else None,
                comm=comm,
            )
            return matrix, report
        finally:
            store.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "started" if self.started else "idle"
        return (
            f"ProcessPoolEngine(workers={self.workers}, "
            f"grid={self.grid.p}x{self.grid.q}, "
            f"start_method={self.start_method!r}, {state})"
        )
