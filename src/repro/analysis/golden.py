"""Golden checks over small deterministic Matérn problems.

:func:`check_golden_plan` builds one shipped compute variant at ``nt``
tiles and runs the plan verifier on the resulting
:class:`~repro.tile.decisions.TilePlan` and the DAG verifier on the
matching Cholesky + forward-solve task streams;
``tests/test_analysis_plancheck.py`` requires every
:data:`GOLDEN_VARIANTS` x :data:`GOLDEN_NTS` combination to report zero
error-severity findings.  :func:`check_golden_comm` (``python -m repro
analyze --comm``) cross-checks the process backend's measured traffic
against the simulator's wire-format model.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_SEED
from ..core.variants import get_variant
from ..kernels import MaternKernel
from ..runtime.comm import model_comm_volume
from ..runtime.taskgraph import cholesky_tasks, forward_solve_tasks
from ..tile.assembly import build_planned_covariance, ranked_plan
from .dagcheck import check_taskgraph
from .diagnostics import AnalysisReport, Diagnostic, Severity
from .plancheck import check_plan, plan_from_matrix

__all__ = [
    "GOLDEN_VARIANTS",
    "GOLDEN_NTS",
    "COMM_RULES",
    "check_golden_plan",
    "check_golden_comm",
]

#: Owner-computes traffic rules enforced by :func:`check_golden_comm`.
COMM_RULES: dict[str, str] = {
    "COMM001": "measured remote transfer volume diverges from the "
               "wire-format model on a dense plan (the process backend's "
               "comm accounting or the simulator model broke)",
    "COMM002": "measured remote/local read counts diverge from the "
               "owner-computes block-cyclic mapping",
}

#: The shipped pipeline variants the golden suite covers.
GOLDEN_VARIANTS: tuple[str, ...] = (
    "dense-fp64", "mp-dense", "mp-dense-tlr", "mp-dense-tlr-recover",
)
#: Tile-grid sizes of the golden problems.
GOLDEN_NTS: tuple[int, ...] = (4, 8)

_GOLDEN_TILE = 16
_GOLDEN_THETA = (1.0, 0.1, 0.5)  # variance, range, smoothness
_GOLDEN_NUGGET = 1.0e-8


def _golden_locations(nt: int) -> np.ndarray:
    gen = np.random.default_rng(DEFAULT_SEED)
    return gen.uniform(size=(nt * _GOLDEN_TILE, 2))


def check_golden_plan(variant: str, nt: int) -> AnalysisReport:
    """Build ``variant`` at ``nt`` tiles and verify plan + task graph."""
    config = get_variant(variant)
    theta = np.asarray(_GOLDEN_THETA)
    x = _golden_locations(nt)
    matrix, rep = build_planned_covariance(
        MaternKernel(), theta, x, _GOLDEN_TILE,
        nugget=_GOLDEN_NUGGET, **config.assembly_kwargs(),
    )
    report = check_plan(
        ranked_plan(matrix, rep.plan),
        tile_norms=rep.tile_norms,
        global_norm=rep.global_norm,
        u_high=config.mp_accuracy,
        variance=float(theta[0]) + _GOLDEN_NUGGET,
        machine=config.machine,
        structure_mode=config.structure_mode,
        max_rank_fraction=config.max_rank_fraction,
    )
    layout = rep.plan.layout
    tasks = list(cholesky_tasks(nt))
    report.extend(check_taskgraph(tasks, layout=layout))
    solve = list(forward_solve_tasks(nt, base_uid=len(tasks)))
    report.extend(check_taskgraph(solve, layout=layout))
    return report


def check_golden_comm(nt: int = 8, *, workers: int = 4) -> AnalysisReport:
    """Cross-check the process backend's *measured* traffic against the
    simulator's wire-format *model*.

    Builds the dense-FP64 golden problem at ``nt`` tiles, factors it on
    the shared-memory process backend with ``workers`` worker
    processes, and requires the executor's measured
    :class:`~repro.runtime.comm.CommStats` to equal
    :func:`~repro.runtime.comm.model_comm_volume` byte-for-byte on the
    plan reconstructed from the assembled matrix
    (:func:`~repro.analysis.plancheck.plan_from_matrix`).  Dense plans
    keep exactly the representation the wire model assumes, so any
    divergence means the backend's remote-read accounting (or the
    model) regressed.  Rules are catalogued in :data:`COMM_RULES`.
    """
    from ..runtime.procpool import ProcessPoolEngine

    report = AnalysisReport()
    config = get_variant("dense-fp64")
    theta = np.asarray(_GOLDEN_THETA)
    x = _golden_locations(nt)
    matrix, _ = build_planned_covariance(
        MaternKernel(), theta, x, _GOLDEN_TILE,
        nugget=_GOLDEN_NUGGET, **config.assembly_kwargs(),
    )
    plan = plan_from_matrix(matrix)
    tasks = list(cholesky_tasks(nt))
    engine = ProcessPoolEngine(workers=workers)
    try:
        _, run = engine.execute(matrix)
    finally:
        engine.close()
    measured, modeled = run.comm, model_comm_volume(plan, engine.grid, tasks)

    if (measured.remote_reads, measured.local_reads) != (
        modeled.remote_reads, modeled.local_reads
    ):
        report.add(Diagnostic(
            "COMM002", Severity.ERROR,
            f"read counts diverge: measured {measured.remote_reads} "
            f"remote / {measured.local_reads} local, modeled "
            f"{modeled.remote_reads} remote / {modeled.local_reads} "
            f"local ({engine.grid.p}x{engine.grid.q} grid, nt={nt})",
        ))
    if measured.remote_bytes != modeled.remote_bytes:
        report.add(Diagnostic(
            "COMM001", Severity.ERROR,
            f"remote volume diverges: measured {measured.remote_bytes} "
            f"B, modeled {modeled.remote_bytes} B on a dense plan "
            f"({engine.grid.p}x{engine.grid.q} grid, nt={nt})",
        ))
    status = "clean" if report.ok else f"{len(report.errors)} error(s)"
    report.add(Diagnostic(
        "GOLDEN", Severity.INFO,
        f"comm on dense-fp64 at nt={nt}, {workers} worker(s): {status} "
        f"({measured.remote_reads} remote reads, "
        f"{measured.remote_bytes} B, {measured.local_reads} local)",
    ))
    return report

