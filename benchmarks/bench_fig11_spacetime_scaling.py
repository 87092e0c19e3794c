"""Fig. 11 — Matérn 2D space-time, strong correlation, 4096 and
48384 Fugaku nodes.

The paper: the MP+dense/TLR speedup is just under an order of magnitude
on 4096 nodes ("ranks are higher and opportunities for low precision
computations are rare") and shrinks further at 48384 nodes because of
strong-scaling limits ("there may not be enough tasks to keep the
computational resources busy") — while the memory-footprint gain
remains.  Reproduced with a strong-correlation *space-time* profile
measured from the Gneiting kernel plan.
"""

import numpy as np
import pytest

from repro.kernels import GneitingMaternKernel
from repro.ordering import order_points
from repro.perfmodel import A64FX, PlanProfile, estimate_cholesky
from repro.stats import format_table
from repro.tile import build_planned_covariance, ranked_plan

NODE_COUNTS = (4096, 48384)
MATRIX_N = 10_000_000  # "ten million geospatial locations"
DENSE_TILE = 2700
TLR_TILE = 2700  # the space-time runs share the dense tile size


@pytest.fixture(scope="module")
def spacetime_profile():
    """Offset-class profile of the ET-like strong-correlation
    space-time covariance (the Fig. 11 workload).

    Measured at the densest laptop-feasible sampling with uncapped
    ranks: the rank-saturation study in EXPERIMENTS.md shows ranks at
    fixed normalized offset decrease slowly toward their continuum
    epsilon-ranks as sampling densifies, so this measurement *bounds*
    the paper-scale ranks from above (conservative for TLR).
    """
    from repro.data import ET_THETA
    from repro.data.locations import space_time_locations

    kern = GneitingMaternKernel()
    x = space_time_locations(480, 12, seed=3, region="central_asia")
    x = x[order_points(x, "morton", space_time=True)]
    matrix, rep = build_planned_covariance(
        kern, ET_THETA, x, 60, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=1, max_rank_fraction=0.95,
    )
    return PlanProfile.from_plan(
        ranked_plan(matrix, rep.plan), label="spacetime-strong"
    )


def test_fig11_artifact_and_shape(spacetime_profile, write_artifact, benchmark):
    rows = []
    speedups = {}
    for nodes in NODE_COUNTS:
        dense = estimate_cholesky(
            PlanProfile.dense_fp64(), MATRIX_N, DENSE_TILE, A64FX, nodes=nodes
        )
        tlr = estimate_cholesky(
            spacetime_profile, MATRIX_N, TLR_TILE, A64FX,
            nodes=nodes, band_size=3,
        )
        speedups[nodes] = dense.time_s / tlr.time_s
        rows.append([
            nodes, dense.time_s, tlr.time_s, speedups[nodes],
            tlr.memory_reduction,
        ])
    table = format_table(
        ["nodes", "dense_fp64_s", "mp_tlr_s", "speedup", "mem_reduction"],
        rows,
        title=(
            f"Fig. 11 — space-time strong correlation, N={MATRIX_N:,} "
            "(aggregate model; paper: just under 10x at 4096 nodes, "
            "less at 48384)"
        ),
        float_fmt="{:.4g}",
    )
    write_artifact("fig11_spacetime_scaling", table)

    # Shape claims: TLR wins at 4096, by less than Fig. 10's WC;
    # the advantage shrinks at 48384 (strong-scaling limitation).
    assert 2.0 < speedups[4096] < 12.0
    assert speedups[48384] < speedups[4096]
    # Memory gain persists at both scales.
    assert all(r[4] > 0.3 for r in rows)

    benchmark(
        estimate_cholesky,
        spacetime_profile, MATRIX_N, TLR_TILE, A64FX, 4096,
    )


def test_fig11_spacetime_ranks_higher_than_space(
    spacetime_profile, correlation_profiles, write_artifact, benchmark
):
    """'ranks are higher' for the strongly correlated space-time data
    than for the weak-correlation space data of Fig. 10."""
    st_rank = float(np.mean(spacetime_profile.mean_rank[2:]))
    wc_rank = float(np.mean(correlation_profiles["weak"].mean_rank[2:]))
    write_artifact(
        "fig11_rank_comparison",
        "Fig. 11 companion — mean off-band tile rank: space-time strong "
        f"{st_rank:.1f} vs space weak {wc_rank:.1f}",
    )
    assert st_rank > wc_rank
    benchmark(lambda: np.mean(spacetime_profile.mean_rank))
