"""Dataflow dependence analysis: sequential task stream -> DAG.

Given tasks in their sequential reference order, the analysis derives
the exact parallelism a superscalar task runtime discovers:

* RAW — a read depends on the last writer of that tile;
* WAW — a write depends on the previous writer;
* WAR — a write depends on every reader since the previous write.

The pass is written once, in :func:`dependences` (plain dicts, what the
executors schedule from); :func:`build_dag` wraps it in a
:class:`networkx.DiGraph` whose nodes are task uids.  Helpers compute
the critical path under a per-task duration map and validate that a
schedule respects every edge — the property tests of the runtime hang
off these.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..exceptions import SchedulingError
from .task import Task

# networkx is imported where a graph is built or walked: the executors
# schedule from :func:`dependences` alone, and a factorization should
# not pay the library's import.
if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "build_dag", "critical_path_length", "dependences", "validate_schedule",
]


def dependences(
    tasks: Sequence[Task],
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """``(indegree, successors)`` of a sequential task stream, keyed by
    uid.

    Plain dicts — all the executors ever need, and a
    :class:`networkx.DiGraph` costs more to build than a whole
    factorization panel takes to run.  Transitively implied edges are
    *not* removed (the schedulers only need correctness, and reduction
    costs O(V E)).
    """
    last_writer: dict[tuple[int, int], int] = {}
    readers_since_write: dict[tuple[int, int], list[int]] = {}
    indegree: dict[int, int] = {}
    successors: dict[int, list[int]] = {}
    for task in tasks:
        deps: set[int] = set()
        # RAW for each input (the output is read-modify-write: RAW+WAW).
        for tile in task.tiles:
            writer = last_writer.get(tile)
            if writer is not None:
                deps.add(writer)
        # WAR on the output tile.
        for reader in readers_since_write.get(task.output, ()):
            deps.add(reader)
        deps.discard(task.uid)
        successors[task.uid] = []
        indegree[task.uid] = len(deps)
        for dep in deps:
            successors[dep].append(task.uid)
        # Update bookkeeping: this task writes `output`, reads `inputs`.
        last_writer[task.output] = task.uid
        readers_since_write[task.output] = []
        for tile in task.inputs:
            readers_since_write.setdefault(tile, []).append(task.uid)
    return indegree, successors


def build_dag(tasks: Sequence[Task]) -> nx.DiGraph:
    """Dependence DAG of a sequential task stream: :func:`dependences`
    as a graph.  Nodes carry the task object under the ``"task"``
    attribute."""
    import networkx as nx

    dag = nx.DiGraph()
    for task in tasks:
        if dag.has_node(task.uid):
            raise SchedulingError(f"duplicate task uid {task.uid}")
        dag.add_node(task.uid, task=task)
    _, successors = dependences(tasks)
    dag.add_edges_from(
        (uid, succ) for uid, succs in successors.items() for succ in succs
    )
    if not nx.is_directed_acyclic_graph(dag):  # pragma: no cover - invariant
        raise SchedulingError("dependence analysis produced a cycle")
    return dag


def critical_path_length(
    dag: nx.DiGraph, durations: dict[int, float]
) -> float:
    """Length of the longest path weighting each node by its duration
    (edges are free) — the makespan lower bound on infinite resources."""
    import networkx as nx

    finish: dict[int, float] = {}
    for uid in nx.topological_sort(dag):
        est = max((finish[p] for p in dag.predecessors(uid)), default=0.0)
        finish[uid] = est + durations[uid]
    return max(finish.values(), default=0.0)


def validate_schedule(
    dag: nx.DiGraph,
    start: dict[int, float],
    end: dict[int, float],
    *,
    eps: float = 1.0e-12,
) -> None:
    """Raise :class:`~repro.exceptions.SchedulingError` unless every
    task starts after all its predecessors ended and every task in the
    DAG was scheduled."""
    missing = [uid for uid in dag.nodes if uid not in start or uid not in end]
    if missing:
        raise SchedulingError(f"{len(missing)} tasks were never scheduled")
    for u, v in dag.edges:
        if start[v] + eps < end[u]:
            raise SchedulingError(
                f"task {v} starts at {start[v]} before dependency {u} "
                f"ends at {end[u]}"
            )
