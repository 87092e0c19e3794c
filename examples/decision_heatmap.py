"""Adaptive decision heat map (paper Fig. 9) in the terminal.

Builds the covariance of a weakly and a strongly correlated Matérn
field, runs the full precision- and structure-aware planning, renders
the per-tile decisions as an ASCII heat map, and reports memory
footprints — the textual Fig. 9.

Run:  python examples/decision_heatmap.py
"""

import numpy as np

from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.perfmodel import A64FX, PlanProfile, estimate_cholesky
from repro.tile import build_planned_covariance, plan_summary, ranked_plan

GLYPHS = """
legend:  8 = dense FP64    4 = dense FP32    2 = dense FP16
         l = low-rank FP64 h = low-rank FP32 (lower triangle only)
"""


def render(plan) -> str:
    pgrid = plan.precision_grid()
    sgrid = plan.structure_grid()
    symbol = {64: "8", 32: "4", 16: "2", 0: " "}
    lines = []
    for i in range(plan.nt):
        row = []
        for j in range(plan.nt):
            g = symbol[int(pgrid[i, j])]
            if sgrid[i, j] == 2:
                g = {"8": "l", "4": "h", "2": "q"}[g]
            row.append(g)
        lines.append(" ".join(row))
    return "\n".join(lines)


def main() -> None:
    gen = np.random.default_rng(9)
    x = gen.uniform(size=(1200, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()

    print(GLYPHS)
    for label, rng_ in (("weak (WC)", 0.03), ("strong (SC)", 0.3)):
        theta = np.array([1.0, rng_, 0.5])
        # Fixed band: Algorithm 2's performance-model tuning is only
        # meaningful at production tile sizes (see bench_alg2); the
        # laptop-scale numerics use the scale-free rank criterion.
        matrix, report = build_planned_covariance(
            kern, theta, x, 60, nugget=1e-8,
            use_mp=True, use_tlr=True, band_size=2,
        )
        # Planned-low-rank tiles are exact blocks until their settle:
        # rank them as the settle would for the map and the footprint.
        plan = ranked_plan(matrix, report.plan)
        summary = plan_summary(plan)
        planned_bytes = summary["bytes_planned"]
        dense_bytes = summary["bytes_dense_fp64"]
        print(
            f"--- {label} correlation, {plan.nt}x{plan.nt} tiles, "
            f"auto band = {plan.band_size_dense} ---"
        )
        print(render(plan))
        print(
            f"footprint {planned_bytes / 1e6:6.2f} MB vs dense FP64 "
            f"{dense_bytes / 1e6:6.2f} MB "
            f"({1 - planned_bytes / dense_bytes:.0%} reduction)"
        )
        # Project to the paper's configuration (1M matrix, tile 2700).
        est = estimate_cholesky(
            PlanProfile.from_plan(plan), 1_000_000, 2700, A64FX,
            nodes=1024, band_size=3,
        )
        print(
            f"projected at 1M/tile-2700: {est.storage_bytes / 1e9:7.0f} GB "
            f"vs 4000 GB dense "
            f"(paper Fig. 9: 915 GB WC / 1830 GB SC)\n"
        )


if __name__ == "__main__":
    main()
