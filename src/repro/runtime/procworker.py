"""Worker process of the process-parallel backend.

:func:`worker_main` is the entry point
:class:`~repro.runtime.procpool.ProcessPoolEngine` spawns N times.  A
worker is a small loop over three message kinds:

* ``("eval", cfg)`` — arm for one factorization: which plan (``nt``),
  the kernel knobs, the ownership grid, the chaos/retry policies, and
  the chaos epoch.  The task stream itself is
  rebuilt locally from ``nt`` (and cached across evaluations) — the
  parent never ships tasks, only uids;
* ``("run", items)`` — execute task descriptors ``(uid, out_handle,
  in_handles)`` against shared-memory tile views through
  :meth:`TaskBody.compute <repro.runtime.taskcore.TaskBody.compute>`,
  one tile op and one result message per task (the parent's dependence
  counters need per-task completion);
* ``("stop",)`` — detach from every segment and exit.

Owner-computes accounting: every input tile whose
:class:`~repro.runtime.distribution.BlockCyclic2D` owner differs from
this worker's rank is copied out of the other rank's home slab (the
"wire transfer") and counted per consuming task — the same per-task
charging :func:`~repro.runtime.comm.model_comm_volume` predicts, so
measured and modeled traffic are directly comparable.  Local inputs
are zero-copy views.

Determinism: the task bodies are the threaded executor's
(:class:`~repro.runtime.taskcore.TaskBody`: same kernels, same
chaos/retry keying ``(seed, epoch, uid, attempt)``), the per-tile
dependence order is identical, and payloads round-trip through shared
memory byte-exactly — so results are bit-identical to the other
engines, and chaos schedules do not depend on task placement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..resilience.chaos import ChaosInjector, ChaosStats
from ..tile.shm import SegmentCache, payload_nbytes
from ..tile.tile import DenseTile, LowRankTile, Tile
from .blasclamp import _set_inprocess
from .taskcore import TaskBody, cholesky_plan, gemm_outcome, settle_outcome
from .task import Task

__all__ = ["worker_main"]


@dataclass
class _EvalState:
    """One factorization's worth of worker-side configuration."""

    rank: int
    tasks: tuple[Task, ...]
    grid: object
    #: Task bodies over ``body.tiles``, a dict refilled per run message.
    body: TaskBody
    #: Ship per-task span timings back with results.  Clocks are
    #: ``time.perf_counter`` (CLOCK_MONOTONIC, shared epoch with the
    #: parent on Linux), so the parent merges them into one timeline
    #: without any clock translation.
    trace: bool = False


def _arm(rank: int, cfg: dict) -> _EvalState:
    chaos = cfg["chaos"]
    return _EvalState(
        rank=rank,
        tasks=cholesky_plan(cfg["nt"]).tasks,
        grid=cfg["grid"],
        body=TaskBody(
            {}, **cfg["body"],
            chaos=None if chaos is None else ChaosInjector(chaos),
        ),
        trace=cfg["trace"],
    )


def _exc_info(exc: BaseException) -> dict:
    """Picklable description of a worker-side failure; the parent
    rebuilds the matching exception type from it."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "tile_index": getattr(exc, "tile_index", None),
        "site": getattr(exc, "site", ""),
    }


def _gather_tiles(items, st: _EvalState, cache: SegmentCache) -> dict:
    """Load the tile objects of every handle a run message references
    into ``st.body.tiles`` and return the per-task comm tallies.

    A remote input (owner != this rank) is copied out of shared memory
    — the explicit "wire transfer" — and charged once per *consuming
    task* (the model's convention); the physical copy is deduplicated
    within the message.  Local tiles are zero-copy views.
    """
    tiles: dict[tuple[int, int], Tile] = st.body.tiles
    tiles.clear()
    per_task_comm: dict[int, dict] = {}

    def materialize(handle, remote: bool) -> None:
        if handle.index in tiles:
            return
        tile = cache.view(handle)
        if remote:
            # Private copy: the consuming kernels must not race with
            # the owner's subsequent overwrites of this home slab (the
            # dependence edges order tasks, and the copy pins bytes).
            tile = (
                LowRankTile(tile.u.copy(), tile.v.copy())
                if tile.is_low_rank
                else DenseTile(tile.data.copy())
            )
        tiles[handle.index] = tile

    for uid, out_handle, in_handles in items:
        task_comm = {"remote_reads": 0, "remote_bytes": 0, "local_reads": 0}
        materialize(out_handle, False)  # owner-computes: always local
        for handle in in_handles:
            remote = st.grid.owner(*handle.index) != st.rank
            materialize(handle, remote)
            if remote:
                task_comm["remote_reads"] += 1
                task_comm["remote_bytes"] += payload_nbytes(handle)
            else:
                task_comm["local_reads"] += 1
        per_task_comm[uid] = task_comm
    return per_task_comm


def _run_items(rank, items, st: _EvalState, cache: SegmentCache,
               result_q) -> None:
    per_task_comm = _gather_tiles(items, st, cache)
    body = st.body
    tiles = body.tiles
    chaos = body.chaos
    clock = time.perf_counter

    for uid, out_handle, _ in items:
        task = st.tasks[uid]
        if chaos is not None:
            chaos.stats = ChaosStats()  # per-task tally, shipped below
        before = tiles[task.output]
        start = clock()
        try:
            # compute(), not run(): the parent keeps the run's one
            # tally, from the outcome shipped below.
            out, attempts, certified = body.compute(task)
        except BaseException as exc:
            info = _exc_info(exc)
            info["chaos"] = None if chaos is None else chaos.stats
            result_q.put(("err", rank, uid, info))
            continue
        info = per_task_comm[uid]
        # (start_abs, end_abs, attempts) — the task's wall-clock
        # interval on this worker, for the parent's merged trace.
        info["span"] = (start, clock(), attempts) if st.trace else None
        info["retries"] = attempts - 1
        # Injections that fired during this task, for the parent's tally.
        info["chaos"] = None if chaos is None else chaos.stats
        info["densified"] = task.op == "gemm" and gemm_outcome(before, out)
        info["settle"] = settle_outcome(certified, out)
        # The output reaches its home slab before it is reported.
        result_q.put(("ok", rank, uid, cache.write(out_handle, out), info))


def worker_main(rank: int, task_q, result_q, init: dict) -> None:
    """Entry point of one worker process (fork- and spawn-safe)."""
    cache = SegmentCache()
    state: _EvalState | None = None
    try:
        if init.get("blas_threads"):
            # Spawned workers already picked the clamp up from the
            # environment at BLAS load; forked workers inherited the
            # parent's in-process clamp.  Re-applying is a cheap no-op
            # that also covers exotic start paths.
            _set_inprocess(init["blas_threads"])
        result_q.put(("ready", rank))
        while True:
            msg = task_q.get()
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "eval":
                state = _arm(rank, msg[1])
            elif kind == "run":
                _run_items(rank, msg[1], state, cache, result_q)
    except (KeyboardInterrupt, EOFError, OSError):  # pragma: no cover
        state = None  # parent died or is tearing the pool down; exit
    finally:
        cache.close()
