"""Parameterized task-graph generators (PTG style).

PaRSEC describes the whole DAG with a compact parameterized
representation; these generators play that role.  They emit the task
stream of the tile Cholesky (Algorithm 1) and of the block triangular
solves in the sequential reference order used by
:func:`repro.tile.cholesky.tile_cholesky`, so a consistency test can
pin the two code paths together.
"""

from __future__ import annotations

from collections.abc import Iterator

from .task import Task

__all__ = [
    "cholesky_tasks", "cholesky_task", "cholesky_task_count",
    "cholesky_op_counts", "forward_solve_tasks",
]


def cholesky_tasks(nt: int) -> Iterator[Task]:
    """Yield the tile Cholesky tasks for an ``nt x nt`` tile matrix."""
    uid = 0
    for k in range(nt):
        yield Task(uid, "potrf", k, output=(k, k))
        uid += 1
        for m in range(k + 1, nt):
            yield Task(uid, "trsm", k, output=(m, k), inputs=((k, k),))
            uid += 1
        for m in range(k + 1, nt):
            yield Task(uid, "syrk", k, output=(m, m), inputs=((m, k),))
            uid += 1
            for n in range(k + 1, m):
                yield Task(
                    uid, "gemm", k, output=(m, n), inputs=((m, k), (n, k))
                )
                uid += 1


def cholesky_op_counts(nt: int) -> dict[str, int]:
    """Closed-form tasks per op of the Cholesky task stream: ``nt``
    POTRFs, ``nt(nt-1)/2`` TRSMs and SYRKs each, and
    ``nt(nt-1)(nt-2)/6`` GEMMs (ops that do not occur are absent, as
    in a tally of the stream)."""
    pairs = nt * (nt - 1) // 2
    counts = {
        "potrf": nt, "trsm": pairs, "syrk": pairs,
        "gemm": nt * (nt - 1) * (nt - 2) // 6,
    }
    return {op: n for op, n in counts.items() if n}


def cholesky_task_count(nt: int) -> int:
    """Closed-form size of the Cholesky task stream."""
    return nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) // 6


def cholesky_task(
    nt: int, op: str, k: int, m: int, n: int | None = None
) -> Task:
    """The one task of :func:`cholesky_tasks` that applies ``op`` in
    panel ``k`` to tile row ``m`` (of column ``n`` for a GEMM), built
    without generating the stream: its uid is its closed-form position.

    Panels ``k ..`` are the stream of an ``nt - k`` factorization, so
    panel ``k`` starts ``count(nt) - count(nt - k)`` tasks in; row
    ``m`` follows the ``i = m - k - 1`` rows above it, one SYRK and
    ``0 .. i - 1`` GEMMs each."""
    uid = cholesky_task_count(nt) - cholesky_task_count(nt - k)
    if op == "potrf":
        return Task(uid, "potrf", k, output=(k, k))
    if op == "trsm":
        return Task(uid + m - k, "trsm", k, output=(m, k), inputs=((k, k),))
    i = m - k - 1
    uid += nt - k + i + i * (i - 1) // 2
    if op == "syrk":
        return Task(uid, "syrk", k, output=(m, m), inputs=((m, k),))
    return Task(
        uid + n - k, "gemm", k, output=(m, n), inputs=((m, k), (n, k))
    )


def forward_solve_tasks(nt: int, *, base_uid: int = 0) -> Iterator[Task]:
    """Task stream of the block forward substitution ``L y = b``.

    RHS blocks are denoted as tiles ``(i, -1)`` (column -1), which the
    dependence analysis treats like any other data key.  GEMM here is
    the ``y_i -= L_ij y_j`` block update, TRSM the diagonal solve.
    """
    uid = base_uid
    for i in range(nt):
        for j in range(i):
            yield Task(
                uid, "gemm", j, output=(i, -1), inputs=((i, j), (j, -1))
            )
            uid += 1
        yield Task(uid, "trsm", i, output=(i, -1), inputs=((i, i),))
        uid += 1
