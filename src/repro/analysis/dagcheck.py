"""Static verification of task streams and dependence DAGs.

The PaRSEC-style runtime is only correct if the DAG it executes orders
every access: each tile read must see the value of its producing write
under *any* scheduler, which is a property of the graph, not of one
schedule.  These rules detect the hazards statically:

========  ========  =====================================================
rule      severity  invariant
========  ========  =====================================================
DAG001    error     every tile read was produced by an earlier task or
                    belongs to the initial data (the generated matrix)
DAG002    error     two writers of one tile are connected by a directed
                    path (no WAW race under reordering)
DAG003    error     every reader of a tile is ordered with respect to
                    every writer of that tile (no RAW/WAR race)
DAG004    error     task uids are unique in the stream
========  ========  =====================================================

``DAG002``/``DAG003`` are the properties a *dropped edge* violates: the
sequential reference order hides the race, but a work-stealing scheduler
is free to run the unordered pair in either order.  Reachability is
computed once per graph with ancestor bitsets (topological sweep), so
verification stays cheap even for the full Cholesky DAG.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import networkx as nx

from ..runtime.dag import build_dag
from ..runtime.task import Task
from ..tile.layout import TileLayout
from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = ["check_task_stream", "check_dag", "check_taskgraph", "DAG_RULES"]

#: Rule-id -> one-line description (the catalog rendered by the CLI).
DAG_RULES: dict[str, str] = {
    "DAG001": "tile read without a producing write or initial value",
    "DAG002": "two writers of one tile with no ordering path (WAW race)",
    "DAG003": "reader and writer of one tile unordered (RAW/WAR race)",
    "DAG004": "duplicate task uid in the stream",
}


def _initial_tiles(
    initial_tiles: Iterable[tuple[int, int]] | None,
    layout: TileLayout | None,
) -> set[tuple[int, int]] | None:
    if initial_tiles is not None:
        return set(initial_tiles)
    if layout is not None:
        tiles = set(layout.lower_tiles())
        # RHS blocks of the solve streams are denoted (i, -1).
        tiles.update((i, -1) for i in range(layout.nt))
        return tiles
    return None


def check_task_stream(
    tasks: Sequence[Task],
    *,
    initial_tiles: Iterable[tuple[int, int]] | None = None,
    layout: TileLayout | None = None,
) -> AnalysisReport:
    """Verify the sequential task stream (DAG001, DAG004).

    ``initial_tiles`` names the data that exists before any task runs
    (for the Cholesky streams: every lower tile of the generated
    matrix).  Passing ``layout`` derives that set (lower triangle plus
    the RHS column of the solve streams); with neither given the
    read-before-write rule is skipped — there is no way to distinguish
    an initial tile from an undefined one.
    """
    report = AnalysisReport()
    initial = _initial_tiles(initial_tiles, layout)
    written: set[tuple[int, int]] = set()
    seen_uids: set[int] = set()
    for task in tasks:
        if task.uid in seen_uids:
            report.add(Diagnostic(
                "DAG004", Severity.ERROR,
                f"duplicate task uid in stream ({task.op})",
                task=task.uid,
            ))
        seen_uids.add(task.uid)
        if initial is not None:
            # The output tile is read-modify-write: it is a read too.
            for tile in task.tiles:
                if tile not in written and tile not in initial:
                    report.add(Diagnostic(
                        "DAG001", Severity.ERROR,
                        f"{task.op} reads tile ({tile[0]},{tile[1]}) "
                        "which no prior task produced and which is not "
                        "part of the initial data",
                        task=task.uid,
                    ))
        written.add(task.output)
    return report


def _ancestor_bitsets(dag: nx.DiGraph, order: list) -> dict:
    """Ancestor set of every node as an int bitset over topological
    positions — one sweep, O(V * E / wordsize)."""
    pos = {uid: k for k, uid in enumerate(order)}
    anc: dict = {}
    for uid in order:
        bits = 0
        for pred in dag.predecessors(uid):
            bits |= anc[pred] | (1 << pos[pred])
        anc[uid] = bits
    return anc


def check_dag(dag: nx.DiGraph) -> AnalysisReport:
    """Verify ordering completeness of a dependence DAG (DAG002,
    DAG003).

    The graph must be acyclic with every node carrying its
    :class:`~repro.runtime.task.Task` under the ``"task"`` attribute,
    as :func:`~repro.runtime.dag.build_dag` produces (it adds edges
    only forward in stream order).  A graph that drops an edge of the
    dataflow analysis — e.g. by a buggy scheduler transformation —
    leaves a writer/reader pair unordered, which these rules surface as
    the exact race.
    """
    report = AnalysisReport()
    order = list(nx.topological_sort(dag))
    pos = {uid: k for k, uid in enumerate(order)}
    anc = _ancestor_bitsets(dag, order)

    def ordered(u, v) -> bool:
        return bool(anc[v] >> pos[u] & 1) or bool(anc[u] >> pos[v] & 1)

    writers: dict[tuple[int, int], list] = {}
    readers: dict[tuple[int, int], list] = {}
    for uid in order:
        task = dag.nodes[uid]["task"]
        writers.setdefault(task.output, []).append(uid)
        for tile in task.inputs:
            readers.setdefault(tile, []).append(uid)

    for tile, ws in sorted(writers.items()):
        for a_idx in range(len(ws)):
            for b_idx in range(a_idx + 1, len(ws)):
                u, v = ws[a_idx], ws[b_idx]
                if not ordered(u, v):
                    report.add(Diagnostic(
                        "DAG002", Severity.ERROR,
                        f"tasks {u} and {v} both write tile "
                        f"({tile[0]},{tile[1]}) with no ordering path "
                        "between them: WAW race under reordering",
                        task=v,
                        tile=tile,
                    ))
        for r in readers.get(tile, ()):
            for w in ws:
                if r != w and not ordered(r, w):
                    report.add(Diagnostic(
                        "DAG003", Severity.ERROR,
                        f"task {r} reads tile ({tile[0]},{tile[1]}) "
                        f"unordered with writer task {w}: RAW/WAR race "
                        "under reordering",
                        task=r,
                        tile=tile,
                    ))
    return report


def check_taskgraph(
    tasks: Sequence[Task],
    dag: nx.DiGraph | None = None,
    *,
    initial_tiles: Iterable[tuple[int, int]] | None = None,
    layout: TileLayout | None = None,
) -> AnalysisReport:
    """Full static verification of a task stream plus its DAG.

    With ``dag=None`` the reference dependence analysis builds it — in
    that case DAG002/DAG003 verify the analysis itself; passing an
    externally transformed graph verifies *that* graph against the
    stream's accesses.
    """
    tasks = list(tasks)
    report = check_task_stream(
        tasks, initial_tiles=initial_tiles, layout=layout
    )
    # A stream with duplicate uids cannot be mapped onto a DAG.
    if any(d.rule == "DAG004" for d in report):
        return report
    if dag is None:
        dag = build_dag(tasks)
    report.extend(check_dag(dag))
    return report
