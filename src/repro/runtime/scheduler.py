"""Task priorities for list scheduling.

The simulator schedules ready tasks highest-priority-first; priority is
the classic *upward rank* (critical-path-to-exit length), the heuristic
dynamic runtimes approximate with panel-index priorities.  A cheaper
panel-based priority is provided for comparison/ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported where a graph is walked (see dag.py)
    import networkx as nx

__all__ = ["upward_ranks", "panel_priorities", "panel_priorities_tasks"]

_OP_WEIGHT = {"potrf": 3.0, "trsm": 2.0, "syrk": 1.0, "gemm": 0.0}


def upward_ranks(dag: nx.DiGraph, durations: dict[int, float]) -> dict[int, float]:
    """Upward rank of every task: its duration plus the longest
    downstream chain.  Computed in reverse topological order."""
    import networkx as nx

    rank: dict[int, float] = {}
    for uid in reversed(list(nx.topological_sort(dag))):
        downstream = max((rank[s] for s in dag.successors(uid)), default=0.0)
        rank[uid] = durations[uid] + downstream
    return rank


def panel_priorities(dag: nx.DiGraph) -> dict[int, float]:
    """PLASMA-style static priority: earlier panels first, POTRF >
    TRSM > SYRK > GEMM within a panel."""
    out: dict[int, float] = {}
    for uid, data in dag.nodes(data=True):
        task = data["task"]
        out[uid] = -(task.k * 4.0) + _OP_WEIGHT[task.op]
    return out


def panel_priorities_tasks(tasks) -> dict[int, float]:
    """:func:`panel_priorities` straight from a task stream — the
    priority depends only on each task's ``(k, op)``, so no DAG is
    needed; this is what the lru-cached Cholesky plan memoizes."""
    return {t.uid: -(t.k * 4.0) + _OP_WEIGHT[t.op] for t in tasks}
