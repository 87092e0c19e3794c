"""Golden-plan verification: every shipped variant must analyze clean.

The CI analysis job (and ``python -m repro analyze --golden-plans``)
builds each shipped compute variant on a small deterministic Matérn
problem at ``nt`` in {4, 8}, runs the full plan verifier on the
resulting :class:`~repro.tile.decisions.TilePlan` and the full DAG
verifier on the matching Cholesky + forward-solve task streams, and
requires zero error-severity findings.  A change to the planner, the
decision rules, or the task generators that silently violates a paper
invariant fails this check before any numerical test would notice.
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
    "SERVE_RULES",
    "COMM_RULES",
    "check_golden_plan",
    "check_golden_plans",
    "check_golden_serving",
    "check_golden_comm",
]

#: Serving-amortization rules enforced by :func:`check_golden_serving`.
SERVE_RULES: dict[str, str] = {
    "SERVE001": "serving engine was rebuilt during steady-state predicts "
                "(stale-state invalidation fired without a state change)",
    "SERVE002": "Eq.-4 weights were re-solved after engine construction "
                "(the weight solve must amortize to exactly one)",
    "SERVE003": "per-tile factor casts grew after warm-up (the serving "
                "path re-materialized tiles / revalidated the plan per "
                "batch)",
    "SERVE004": "repeated identical test batch missed the "
                "cross-covariance cache",
}

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


def check_golden_serving(
    variant: str = "mp-dense-tlr", nt: int = 4, *, rounds: int = 3
) -> AnalysisReport:
    """Verify the prediction serving path amortizes as designed.

    Builds a small fitted model (``set_params``, no MLE) on ``variant``,
    serves the same test batch ``rounds`` times plus one streamed pass,
    and checks the engine's counters: the engine is built once, the
    Eq.-4 weight solve happens once, no tile is re-cast after warm-up
    (i.e. the serving path never triggers plan revalidation or
    re-factorization per batch), and repeated identical batches hit the
    cross-covariance cache.  Rules are catalogued in
    :data:`SERVE_RULES`.
    """
    from ..core.model import ExaGeoStatModel

    report = AnalysisReport()
    gen = np.random.default_rng(DEFAULT_SEED)
    n = nt * _GOLDEN_TILE
    x = gen.uniform(size=(n, 2))
    z = gen.standard_normal(n)
    x_test = gen.uniform(size=(40, 2))

    model = ExaGeoStatModel(
        kernel="matern", variant=variant,
        tile_size=_GOLDEN_TILE, nugget=_GOLDEN_NUGGET,
    )
    model.set_params(np.asarray(_GOLDEN_THETA), x, z)
    model.predict(x_test, return_uncertainty=True)  # warm-up
    engine = model.serving_engine()
    warm_casts = engine.stats().tile_casts

    for _ in range(max(1, rounds)):
        model.predict(x_test, return_uncertainty=True)
    for _ in engine.predict_iter(x_test, batch=16, return_uncertainty=True):
        pass
    model.simulate(x_test, size=2, seed=DEFAULT_SEED)
    stats = engine.stats()

    if model._engine_builds != 1:
        report.add(Diagnostic(
            "SERVE001", Severity.ERROR,
            f"engine built {model._engine_builds}x across "
            f"{stats.predict_calls} predict call(s) on unchanged state",
        ))
    if stats.weight_solves != 1:
        report.add(Diagnostic(
            "SERVE002", Severity.ERROR,
            f"weights solved {stats.weight_solves}x (expected exactly 1)",
        ))
    stored = len(engine.factor.keys())
    if stats.tile_casts > warm_casts or stats.tile_casts > stored:
        report.add(Diagnostic(
            "SERVE003", Severity.ERROR,
            f"tile casts grew {warm_casts} -> {stats.tile_casts} over "
            f"{stats.batches} batch(es) ({stored} stored tile(s)) — "
            "serving is re-materializing the factor per batch",
        ))
    if stats.cross_hits < max(1, rounds):
        report.add(Diagnostic(
            "SERVE004", Severity.ERROR,
            f"only {stats.cross_hits} cross-cache hit(s) across "
            f"{max(1, rounds)} repeated round(s)",
        ))
    status = "clean" if report.ok else f"{len(report.errors)} error(s)"
    report.add(Diagnostic(
        "GOLDEN", Severity.INFO,
        f"serving on {variant} at nt={nt}: {status} "
        f"({stats.predictions} predictions, {stats.tile_casts} casts, "
        f"{stats.weight_solves} weight solve(s), "
        f"{stats.cross_hits} cache hit(s))",
    ))
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


def check_golden_plans(
    variants: tuple[str, ...] = GOLDEN_VARIANTS,
    nts: tuple[int, ...] = GOLDEN_NTS,
) -> AnalysisReport:
    """Verify every (variant, nt) combination; adds one INFO finding
    per combination so the CLI can narrate coverage."""
    report = AnalysisReport()
    for variant in variants:
        for nt in nts:
            sub = check_golden_plan(variant, nt)
            status = "clean" if sub.ok else f"{len(sub.errors)} error(s)"
            report.add(Diagnostic(
                "GOLDEN", Severity.INFO,
                f"variant {variant} at nt={nt}: {status} "
                f"({len(sub)} finding(s))",
            ))
            report.extend(sub)
    return report
