"""Ordering ablation (paper Section III: "under a proper ordering [10]
the most significant information clusters around the diagonal").

Compares Morton, Hilbert, and random orderings of the same point set by
the quantities the adaptive algorithms feed on: off-diagonal tile
ranks, demoted-tile fractions, planned memory footprint, and the
projected paper-scale time-to-solution.
"""

import numpy as np
import pytest

from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.perfmodel import A64FX, PlanProfile, estimate_cholesky
from repro.stats import format_table
from repro.tile import build_planned_covariance, plan_summary, ranked_plan

N, TILE = 1500, 60
ORDERINGS = ("morton", "hilbert", "kdtree", "random")


@pytest.fixture(scope="module")
def ordering_plans():
    gen = np.random.default_rng(88)
    x = gen.uniform(size=(N, 2))
    kern = MaternKernel()
    theta = np.array([1.0, 0.05, 0.5])
    out = {}
    for method in ORDERINGS:
        xo = x[order_points(x, method, seed=1)]
        matrix, rep = build_planned_covariance(
            kern, theta, xo, TILE, nugget=1e-8,
            use_mp=True, use_tlr=True, band_size=1,
            max_rank_fraction=0.95,
        )
        # Ranks and footprint of the plan: its planned-low-rank tiles
        # are exact blocks until their settle, so the helper ranks them.
        out[method] = ranked_plan(matrix, rep.plan)
    return out


def test_ordering_ablation(ordering_plans, write_artifact, benchmark):
    rows = []
    stats = {}
    for method, plan in ordering_plans.items():
        ranks = list(plan.meta["ranks"].values())
        counts = plan.counts()
        total = sum(counts.values())
        fp64_frac = counts.get("dense/FP64", 0) / total
        nbytes = plan_summary(plan)["bytes_planned"]
        profile = PlanProfile.from_plan(plan, label=method)
        est = estimate_cholesky(
            profile, 2_000_000, 1350, A64FX, nodes=1024, band_size=2
        )
        stats[method] = dict(
            mean_rank=float(np.mean(ranks)),
            fp64_frac=fp64_frac,
            nbytes=nbytes,
            time=est.time_s,
        )
        rows.append([
            method, stats[method]["mean_rank"], fp64_frac,
            nbytes / 1e6, est.time_s,
        ])
    table = format_table(
        ["ordering", "mean_offdiag_rank", "frac_dense_fp64", "matrix_MB",
         "projected_2M@1024n_s"],
        rows,
        title=(
            "Ordering ablation — Morton/Hilbert vs random on the same "
            f"{N}-point Matérn problem (tile {TILE})"
        ),
        float_fmt="{:.4g}",
    )
    write_artifact("ordering_ablation", table)

    # Locality-preserving orderings must beat random on every axis.
    for curve in ("morton", "hilbert", "kdtree"):
        assert stats[curve]["mean_rank"] < stats["random"]["mean_rank"]
        assert stats[curve]["nbytes"] < stats["random"]["nbytes"]
        assert stats[curve]["time"] < stats["random"]["time"]

    gen = np.random.default_rng(0)
    pts = gen.uniform(size=(2000, 2))
    benchmark(order_points, pts, "morton")


def test_hilbert_at_least_as_local_as_morton(ordering_plans, benchmark):
    """Hilbert's stronger locality shows up as equal-or-lower mean rank
    (small margins at this size; the assertion allows a 10% slack)."""
    morton_rank = np.mean(list(ordering_plans["morton"].meta["ranks"].values()))
    hilbert_rank = np.mean(list(ordering_plans["hilbert"].meta["ranks"].values()))
    assert hilbert_rank <= morton_rank * 1.1
    gen = np.random.default_rng(0)
    pts = gen.uniform(size=(2000, 2))
    benchmark(order_points, pts, "hilbert")
