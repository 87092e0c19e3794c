"""Drivers for the kernel-level and decision-map experiments
(Figs. 5, 8, 9)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..perfmodel.cholesky import estimate_cholesky
from ..perfmodel.crossover import crossover_rank, gemm_ratio_curve
from ..perfmodel.machine import A64FX, MachineSpec
from ..perfmodel.profiles import PlanProfile
from ..stats.summaries import format_table
from ..tile.decisions import TilePlan

__all__ = ["CrossoverStudy", "run_fig5", "DecisionMapStudy", "run_fig9"]


@dataclass
class CrossoverStudy:
    """Fig. 5: dense vs TLR GEMM across ranks."""

    tile_size: int
    ranks: np.ndarray
    tlr_times: np.ndarray
    dense_times: np.ndarray
    crossover: int

    def table(self) -> str:
        rows = [
            [int(r), t, d, d / t]
            for r, t, d in zip(self.ranks, self.tlr_times, self.dense_times)
        ]
        return format_table(
            ["rank", "tlr_gemm_s", "dense_gemm_s", "dense/tlr"],
            rows,
            title=(
                f"Fig. 5-style crossover study, tile {self.tile_size} "
                f"(crossover rank = {self.crossover})"
            ),
            float_fmt="{:.4g}",
        )


def run_fig5(
    tile_size: int = 2700,
    *,
    ranks: np.ndarray | None = None,
    machine: MachineSpec = A64FX,
) -> CrossoverStudy:
    """The Fig. 5 analysis at any tile size."""
    xover = crossover_rank(tile_size, machine)
    if ranks is None:
        ranks = np.unique(
            np.linspace(max(xover // 8, 1), 3 * xover, 12, dtype=int)
        )
    tlr, dense, _ = gemm_ratio_curve(tile_size, ranks, machine)
    return CrossoverStudy(
        tile_size=tile_size, ranks=np.asarray(ranks),
        tlr_times=tlr, dense_times=dense, crossover=xover,
    )


@dataclass
class DecisionMapStudy:
    """Fig. 9: a measured decision map + projected footprint."""

    plan: TilePlan
    projected_gb: float
    dense_gb: float

    @property
    def reduction(self) -> float:
        return 1.0 - self.projected_gb / self.dense_gb

    def ascii_map(self) -> str:
        glyph = {64: "8", 32: "4", 16: "2", 0: " "}
        pgrid = self.plan.precision_grid()
        sgrid = self.plan.structure_grid()
        lines = []
        for i in range(self.plan.nt):
            row = []
            for j in range(self.plan.nt):
                g = glyph[int(pgrid[i, j])]
                if sgrid[i, j] == 2:
                    g = {"8": "l", "4": "h", "2": "q"}[g]
                row.append(g)
            lines.append("".join(row))
        return "\n".join(lines)


def run_fig9(
    correlation_range: float = 0.03,
    *,
    n: int = 1200,
    tile_size: int = 60,
    paper_n: int = 1_000_000,
    paper_tile: int = 2700,
    machine: MachineSpec = A64FX,
    seed: int = 9,
) -> DecisionMapStudy:
    """Measure a decision map and project its footprint to the paper's
    configuration."""
    from ..kernels.matern import MaternKernel
    from ..ordering import order_points
    from ..tile.assembly import build_planned_covariance, ranked_plan

    gen = np.random.default_rng(seed)
    x = gen.uniform(size=(n, 2))
    x = x[order_points(x, "morton")]
    matrix, rep = build_planned_covariance(
        MaternKernel(), np.array([1.0, correlation_range, 0.5]),
        x, tile_size, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=2,
    )
    plan = ranked_plan(matrix, rep.plan)
    profile = PlanProfile.from_plan(plan)
    est = estimate_cholesky(
        profile, paper_n, paper_tile, machine, nodes=1024, band_size=3
    )
    dense_gb = 8.0 * paper_n * paper_n / 2 / 1e9
    return DecisionMapStudy(
        plan=plan,
        projected_gb=est.storage_bytes / 1e9,
        dense_gb=dense_gb,
    )
