"""PaRSEC-like dynamic task runtime (simulated distributed execution).

Components:

* :mod:`~repro.runtime.task` / :mod:`~repro.runtime.taskgraph` —
  parameterized task-stream generators (Algorithm 1 as tasks);
* :mod:`~repro.runtime.dag` — dataflow dependence analysis;
* :mod:`~repro.runtime.distribution` — 2-D block-cyclic ownership;
* :mod:`~repro.runtime.scheduler` — list-scheduling priorities;
* :mod:`~repro.runtime.taskcore` — the one Cholesky task core (column
  stacks, task and column bodies with one hook wrapper per kernel
  call, run report; cached plan and ready set for the process loop)
  that the two real executors schedule around: the panel sweep over
  column stacks, in this process at any width
  (:mod:`~repro.runtime.batchdispatch`;
  :mod:`~repro.runtime.parallel` is its entry point at the requested
  width), and worker processes (:mod:`~repro.runtime.procpool`);
* :mod:`~repro.runtime.simulator` — discrete-event distributed
  simulation (time), the documented stand-in for Fugaku;
* :mod:`~repro.runtime.comm` / :mod:`~repro.runtime.trace` —
  wire-format volume model and execution traces;
* :mod:`~repro.runtime.faults` — seeded MTBF fault injection and
  checkpoint/restart modeling for the simulator;
* :mod:`~repro.runtime.procpool` / :mod:`~repro.runtime.procworker` —
  the multiprocess shared-memory execution backend (owner-computes
  tile Cholesky across persistent worker processes, one tile op per
  message);
* :mod:`~repro.runtime.blasclamp` — BLAS thread-oversubscription
  guard shared by the threaded and process executors.
"""

from .batchdispatch import execute_cholesky_batched
from .blasclamp import BLAS_THREAD_ENV, blas_clamp_for, clamp_blas_threads
from .comm import (
    CommStats,
    model_comm_volume,
    plan_wire_bytes,
    tile_wire_bytes,
)
from .dag import build_dag, critical_path_length, validate_schedule
from .distribution import BlockCyclic2D, square_process_grid
from .faults import CheckpointConfig, CrashTimes, FaultModel
from .parallel import execute_cholesky_parallel
from .procpool import ProcessPoolEngine
from .scheduler import panel_priorities, panel_priorities_tasks, upward_ranks
from .simulator import SimConfig, plan_rank_of, shape_for_task, simulate_tasks
from .task import TILE_OPS, Task
from .taskcore import ParallelRunReport
from .taskgraph import cholesky_task_count, cholesky_tasks, forward_solve_tasks
from .trace import ExecutionTrace, TaskRecord

__all__ = [
    "Task",
    "TILE_OPS",
    "cholesky_tasks",
    "cholesky_task_count",
    "forward_solve_tasks",
    "build_dag",
    "critical_path_length",
    "validate_schedule",
    "BlockCyclic2D",
    "square_process_grid",
    "upward_ranks",
    "panel_priorities",
    "panel_priorities_tasks",
    "execute_cholesky_parallel",
    "execute_cholesky_batched",
    "ProcessPoolEngine",
    "ParallelRunReport",
    "BLAS_THREAD_ENV",
    "blas_clamp_for",
    "clamp_blas_threads",
    "FaultModel",
    "CheckpointConfig",
    "CrashTimes",
    "SimConfig",
    "simulate_tasks",
    "shape_for_task",
    "plan_rank_of",
    "tile_wire_bytes",
    "plan_wire_bytes",
    "CommStats",
    "model_comm_volume",
    "ExecutionTrace",
    "TaskRecord",
]
