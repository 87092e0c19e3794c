"""Discrete-event simulation of the distributed runtime.

The simulator executes the *real* task DAG on ``P`` simulated nodes
with ``C`` cores each, 2-D block-cyclic ownership ("owner computes"),
per-task durations from the roofline kernel model, and communication
charged per remote input tile in its wire representation (structure +
storage precision, converted at the receiver).  This is the documented
substitution for Fugaku: identical DAG, modeled hardware.

Scheduling is priority list scheduling (upward rank by default), which
is how PaRSEC's locality-aware heuristics behave to first order.  The
resulting schedule is validated against the DAG by the test suite.

Fault-tolerant execution
------------------------

With ``SimConfig.faults`` set (a seeded
:class:`~repro.runtime.faults.FaultModel`), the simulator injects node
crashes and transient task failures and charges their recovery:

* a *transient* task failure wastes a random fraction of the task's
  duration and re-executes it in place (``TaskRecord.attempts > 1``);
* a *node crash* destroys the node's volatile tiles: every core of the
  node stalls for the restart delay plus re-execution of all compute
  completed on that node since its last durable checkpoint (lost-tile
  recovery), recorded as a ``kind="recovery"`` trace record.

``SimConfig.checkpoint`` adds periodic coordinated tile checkpoints
(``kind="checkpoint"`` records): each node pays the write cost when its
timeline crosses a checkpoint epoch, and crashes then only lose work
since the last epoch.  Two documented simplifications keep the model
tractable: tasks on *sibling* cores whose records already ended after
the crash instant are treated as surviving (optimistic, since their
output tiles are re-derived by the charged re-execution), and a
mid-task checkpoint preserves the in-flight task's inputs but not its
partial progress.  With ``faults=None`` and ``checkpoint=None`` the
schedule is bit-identical to the fault-free simulator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..exceptions import ConfigurationError, SchedulingError
from ..perfmodel.kernelmodel import TaskShape, task_flops, task_time
from ..perfmodel.machine import A64FX, MachineSpec
from ..tile.layout import TileLayout
from ..tile.precision import Precision
from .comm import tile_wire_bytes
from .dag import build_dag
from .distribution import BlockCyclic2D
from .faults import CheckpointConfig, FaultModel
from .scheduler import panel_priorities, upward_ranks
from .task import Task
from .trace import ExecutionTrace, TaskRecord

if TYPE_CHECKING:  # imported where a graph is walked (see dag.py)
    import networkx as nx

__all__ = ["SimConfig", "shape_for_task", "plan_rank_of", "simulate_tasks"]


def plan_rank_of(plan, i: int, j: int) -> int:
    """Rank of tile ``(i, j)`` under a plan: its compression rank when
    low-rank, else the (dense) tile size."""
    if hasattr(plan, "rank_of"):
        if plan.is_low_rank(i, j):
            return plan.rank_of(i, j)
        return plan.layout.tile_size
    if plan.is_low_rank(i, j):
        return plan.meta.get("ranks", {}).get((i, j), plan.layout.tile_size // 2)
    return plan.layout.tile_size


def shape_for_task(task: Task, layout: TileLayout, plan) -> TaskShape:
    """Geometric :class:`TaskShape` of a task under a tile plan."""
    b = layout.tile_size
    i, j = task.output
    if j < 0:
        # Solve tasks: treat RHS updates as width-1 dense kernels.
        return TaskShape(task.op if task.op in ("trsm", "gemm") else "gemm", b)
    precision = plan.precision_of(i, j)
    out_lr = plan.is_low_rank(i, j)
    if task.op == "potrf":
        return TaskShape("potrf", b, precision)
    if task.op == "trsm":
        ranks = (plan_rank_of(plan, i, j),) if out_lr else ()
        return TaskShape("trsm", b, precision, low_rank=out_lr, ranks=ranks)
    if task.op == "syrk":
        (amk,) = task.inputs
        in_lr = plan.is_low_rank(*amk)
        ranks = (plan_rank_of(plan, *amk),) if in_lr else ()
        return TaskShape("syrk", b, precision, low_rank=False, ranks=ranks)
    # gemm
    amk, ank = task.inputs
    ra = plan_rank_of(plan, *amk)
    rb = plan_rank_of(plan, *ank)
    rc = plan_rank_of(plan, i, j)
    if out_lr:
        return TaskShape("gemm", b, precision, low_rank=True, ranks=(ra, rb, rc))
    lr_inputs = [
        r
        for r, key in ((ra, amk), (rb, ank))
        if plan.is_low_rank(*key)
    ]
    return TaskShape("gemm", b, precision, ranks=tuple(lr_inputs))


@dataclass
class SimConfig:
    """Simulation parameters."""

    machine: MachineSpec = A64FX
    nodes: int = 1
    cores_per_node: int | None = None
    grid: BlockCyclic2D | None = None
    shgemm_mode: str = "sgemm_fallback"
    priority: str = "upward"  # or "panel"
    model_comm: bool = True
    faults: FaultModel | None = None
    checkpoint: CheckpointConfig | None = None
    extras: dict = field(default_factory=dict)

    def resolved_grid(self) -> BlockCyclic2D:
        return self.grid or BlockCyclic2D.squarest(self.nodes)

    def resolved_cores(self) -> int:
        return self.cores_per_node or self.machine.cores_per_node


def _wire_bytes(plan, layout: TileLayout, key: tuple[int, int]) -> int:
    i, j = key
    if j < 0:
        return tile_wire_bytes(layout, key, Precision.FP64)
    return tile_wire_bytes(
        layout,
        key,
        plan.precision_of(i, j),
        low_rank=plan.is_low_rank(i, j),
        rank=plan_rank_of(plan, i, j),
    )


def simulate_tasks(
    tasks: list[Task],
    layout: TileLayout,
    plan,
    config: SimConfig,
    *,
    dag: nx.DiGraph | None = None,
) -> ExecutionTrace:
    """List-schedule the DAG on the simulated machine; returns a trace
    whose records carry simulated times, modeled flops and comm bytes.
    """
    import networkx as nx

    if dag is None:
        dag = build_dag(tasks)
    machine = config.machine
    grid = config.resolved_grid()
    if grid.nodes != config.nodes:
        raise SchedulingError(
            f"grid {grid.p}x{grid.q} does not match node count {config.nodes}"
        )
    cores = config.resolved_cores()

    shapes: dict[int, TaskShape] = {}
    durations: dict[int, float] = {}
    for t in tasks:
        shape = shape_for_task(t, layout, plan)
        shapes[t.uid] = shape
        durations[t.uid] = task_time(shape, machine, shgemm_mode=config.shgemm_mode)

    if not nx.is_directed_acyclic_graph(dag):
        raise SchedulingError("task graph contains a cycle")
    if config.priority == "upward":
        prio = upward_ranks(dag, durations)
    elif config.priority == "panel":
        prio = panel_priorities(dag)
    else:
        raise SchedulingError(f"unknown priority {config.priority!r}")

    task_by_uid = {t.uid: t for t in tasks}
    indegree = {uid: dag.in_degree(uid) for uid in dag.nodes}
    ready: list[tuple[float, int]] = [
        (-prio[uid], uid) for uid, deg in indegree.items() if deg == 0
    ]
    heapq.heapify(ready)

    # Per-node min-heaps of (available_time, core_index): popping yields
    # the earliest-free core *and* its identity for the trace record.
    core_free: list[list[tuple[float, int]]] = [
        [(0.0, c) for c in range(cores)] for _ in range(config.nodes)
    ]
    for heap in core_free:
        heapq.heapify(heap)
    finish: dict[int, float] = {}
    node_of: dict[int, int] = {}
    trace = ExecutionTrace(nodes=config.nodes, cores_per_node=cores)

    faults = config.faults
    checkpoint = config.checkpoint
    resilient = faults is not None or checkpoint is not None
    if faults is not None and faults.restart_s >= faults.node_mtbf_s:
        # A node expects to crash again before its restart completes:
        # the simulated run would (correctly, but uselessly) never end.
        raise ConfigurationError(
            f"restart_s ({faults.restart_s:g}) >= node_mtbf_s "
            f"({faults.node_mtbf_s:g}): recovery can never outpace failures"
        )
    if resilient:
        crash_streams = (
            [faults.crash_times(n) for n in range(config.nodes)]
            if faults is not None
            else None
        )
        next_crash = [
            crash_streams[n].next_after(0.0) if crash_streams else math.inf
            for n in range(config.nodes)
        ]
        next_ckpt = [
            checkpoint.interval_s if checkpoint is not None else math.inf
        ] * config.nodes
        work_since = [0.0] * config.nodes  # volatile compute since durable state
        synth_uid = -1  # synthetic uids for checkpoint/recovery records

    scheduled = 0
    while ready:
        _, uid = heapq.heappop(ready)
        task = task_by_uid[uid]
        node = grid.owner(*task.output)
        comm_bytes = 0.0
        cast_bytes = 0.0
        conversions = 0
        est = 0.0
        for pred in dag.predecessors(uid):
            ready_at = finish[pred]
            if config.model_comm and node_of[pred] != node:
                pred_out = task_by_uid[pred].output
                nbytes = _wire_bytes(plan, layout, pred_out)
                ready_at += machine.comm_time(nbytes)
                comm_bytes += nbytes
                if (
                    pred_out[1] >= 0
                    and task.output[1] >= 0
                    and plan.precision_of(*pred_out)
                    is not plan.precision_of(*task.output)
                ):
                    conversions += 1
                    cast_bytes += nbytes
            est = max(est, ready_at)
        heap = core_free[node]
        core_available, core = heapq.heappop(heap)
        start = max(est, core_available)
        duration = durations[uid]
        if config.model_comm and cast_bytes:
            # Receiver-side cast: one bandwidth-bound pass over each
            # converted predecessor's wire bytes.
            duration += cast_bytes / machine.core_mem_bw()
        attempts = 1
        if faults is not None and faults.transient_prob > 0.0:
            wasted = faults.task_waste_fractions(uid)
            attempts += len(wasted)
            duration *= 1.0 + sum(wasted)
        if resilient:
            start, extra, events = _apply_node_events(
                node, start, duration,
                next_crash, next_ckpt, work_since,
                crash_streams, faults, checkpoint,
            )
            # Volatile work to re-execute on a later crash: the compute
            # time, not the checkpoint stalls folded into `extra`.
            work_since[node] += duration
            duration += extra
            for ev_kind, ev_op, ev_start, ev_end in events:
                synth_uid -= 1
                trace.add(
                    TaskRecord(
                        uid=synth_uid, op=ev_op, node=node, core=core,
                        start=ev_start, end=ev_end, kind=ev_kind,
                    )
                )
                if ev_kind == "recovery":
                    # The whole node stalls until recovery completes.
                    rebumped = [
                        (max(t, ev_end), c) for t, c in core_free[node]
                    ]
                    heapq.heapify(rebumped)
                    core_free[node] = rebumped
                    heap = core_free[node]
        end = start + duration
        heapq.heappush(heap, (end, core))
        finish[uid] = end
        node_of[uid] = node
        trace.add(
            TaskRecord(
                uid=uid,
                op=task.op,
                node=node,
                core=core,
                start=start,
                end=end,
                flops=task_flops(shapes[uid]),
                comm_bytes=comm_bytes,
                conversions=conversions,
                attempts=attempts,
            )
        )
        scheduled += 1
        for succ in dag.successors(uid):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, (-prio[succ], succ))

    if scheduled != dag.number_of_nodes():
        raise SchedulingError(
            f"only {scheduled}/{dag.number_of_nodes()} tasks were scheduled "
            "(dependence cycle?)"
        )
    return trace


def _apply_node_events(
    node: int,
    start: float,
    duration: float,
    next_crash: list[float],
    next_ckpt: list[float],
    work_since: list[float],
    crash_streams,
    faults: FaultModel | None,
    checkpoint: CheckpointConfig | None,
) -> tuple[float, float, list[tuple[str, str, float, float]]]:
    """Process checkpoint/crash events of ``node`` that occur before the
    task tentatively placed at ``[start, start + duration)`` completes.

    Returns the adjusted start, extra mid-task stall time, and the
    resilience trace events as ``(kind, op, start, end)`` tuples.
    Mutates the per-node ``next_crash``/``next_ckpt``/``work_since``
    state in place (events are consumed exactly once, in time order).
    """
    extra = 0.0
    events: list[tuple[str, str, float, float]] = []
    while True:
        end = start + duration + extra
        t_crash = next_crash[node]
        t_ckpt = next_ckpt[node]
        if min(t_crash, t_ckpt) >= end:
            return start, extra, events
        if t_crash <= t_ckpt:
            # Node crash: restart, then re-execute volatile work.  The
            # in-flight task's partial progress is lost too.
            assert faults is not None and crash_streams is not None
            tc = t_crash
            lost = work_since[node] + max(0.0, tc - start)
            rec_end = tc + faults.restart_s + lost
            events.append(("recovery", "recover", tc, rec_end))
            # Re-executed work is volatile again until the next
            # checkpoint; the current task restarts from scratch.
            work_since[node] = lost
            start = rec_end if tc >= start else max(start, rec_end)
            extra = 0.0
            next_crash[node] = crash_streams[node].next_after(tc)
            if checkpoint is not None:
                while next_ckpt[node] <= rec_end:
                    next_ckpt[node] += checkpoint.interval_s
        else:
            # Coordinated checkpoint epoch: pay the write cost, durable
            # state advances (input tiles of the in-flight task are
            # saved; its partial progress is not).
            assert checkpoint is not None
            c = t_ckpt
            events.append(("checkpoint", "ckpt", c, c + checkpoint.cost_s))
            if c <= start:
                start = max(start, c + checkpoint.cost_s)
            else:
                extra += checkpoint.cost_s
            work_since[node] = 0.0
            next_ckpt[node] += checkpoint.interval_s
