"""Scaling experiment drivers (Figs. 7, 10, 11).

Shared pipeline: measure an offset-class profile on a real
laptop-scale plan, then project with the aggregate estimator across
node counts and matrix sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.gneiting import GneitingMaternKernel
from ..kernels.matern import MaternKernel
from ..ordering import order_points
from ..perfmodel.cholesky import ScaleEstimate, estimate_cholesky
from ..perfmodel.machine import A64FX, MachineSpec
from ..perfmodel.profiles import PlanProfile
from ..stats.summaries import format_table
from ..tile.assembly import build_planned_covariance, ranked_plan

__all__ = [
    "measure_profile",
    "measure_spacetime_profile",
    "ScalingStudy",
    "run_space_scaling",
    "run_spacetime_scaling",
]


def measure_profile(
    correlation_range: float,
    *,
    n: int = 1800,
    tile_size: int = 60,
    smoothness: float = 0.5,
    seed: int = 2022,
    label: str = "",
) -> PlanProfile:
    """Measure the offset-class profile of a Matérn space problem under
    the full MP+TLR decision pipeline (uncapped ranks for projection)."""
    gen = np.random.default_rng(seed)
    x = gen.uniform(size=(n, 2))
    x = x[order_points(x, "morton")]
    matrix, rep = build_planned_covariance(
        MaternKernel(), np.array([1.0, correlation_range, smoothness]),
        x, tile_size, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=1, max_rank_fraction=0.95,
    )
    return PlanProfile.from_plan(
        ranked_plan(matrix, rep.plan), label=label or f"a={correlation_range}"
    )


def measure_spacetime_profile(
    theta: np.ndarray,
    *,
    n_space: int = 480,
    n_slots: int = 12,
    tile_size: int = 60,
    seed: int = 3,
    label: str = "spacetime",
) -> PlanProfile:
    """Profile of a Gneiting space-time problem (Fig. 11 workload)."""
    from ..data.locations import space_time_locations

    x = space_time_locations(n_space, n_slots, seed=seed,
                             region="central_asia")
    x = x[order_points(x, "morton", space_time=True)]
    matrix, rep = build_planned_covariance(
        GneitingMaternKernel(), theta, x, tile_size, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=1, max_rank_fraction=0.95,
    )
    return PlanProfile.from_plan(ranked_plan(matrix, rep.plan), label=label)


@dataclass
class ScalingStudy:
    """Time-to-solution across node counts for dense vs TLR."""

    matrix_n: int
    node_counts: tuple[int, ...]
    dense: dict[int, ScaleEstimate] = field(default_factory=dict)
    tlr: dict[int, ScaleEstimate] = field(default_factory=dict)
    label: str = ""

    def speedup(self, nodes: int) -> float:
        return self.dense[nodes].time_s / self.tlr[nodes].time_s

    def table(self) -> str:
        rows = [
            [nodes, self.dense[nodes].time_s, self.tlr[nodes].time_s,
             self.speedup(nodes), self.tlr[nodes].memory_reduction]
            for nodes in self.node_counts
        ]
        return format_table(
            ["nodes", "dense_fp64_s", "mp_tlr_s", "speedup", "mem_reduction"],
            rows,
            title=self.label or f"scaling study, N={self.matrix_n:,}",
            float_fmt="{:.4g}",
        )


def run_space_scaling(
    profile: PlanProfile,
    *,
    matrix_n: int = 9_000_000,
    node_counts: tuple[int, ...] = (2048, 4096, 8192, 16384),
    dense_tile: int = 2700,
    tlr_tile: int = 1350,
    band_size: int = 2,
    machine: MachineSpec = A64FX,
) -> ScalingStudy:
    """The Fig. 10 protocol for one correlation profile."""
    study = ScalingStudy(
        matrix_n=matrix_n, node_counts=tuple(node_counts),
        label=f"Fig. 10-style study ({profile.label}), N={matrix_n:,}",
    )
    dense_profile = PlanProfile.dense_fp64()
    for nodes in node_counts:
        study.dense[nodes] = estimate_cholesky(
            dense_profile, matrix_n, dense_tile, machine, nodes
        )
        study.tlr[nodes] = estimate_cholesky(
            profile, matrix_n, tlr_tile, machine, nodes,
            band_size=band_size,
        )
    return study


def run_spacetime_scaling(
    profile: PlanProfile,
    *,
    matrix_n: int = 10_000_000,
    node_counts: tuple[int, ...] = (4096, 48384),
    tile: int = 2700,
    band_size: int = 3,
    machine: MachineSpec = A64FX,
) -> ScalingStudy:
    """The Fig. 11 protocol (shared tile size, two node counts)."""
    study = ScalingStudy(
        matrix_n=matrix_n, node_counts=tuple(node_counts),
        label=f"Fig. 11-style study ({profile.label}), N={matrix_n:,}",
    )
    dense_profile = PlanProfile.dense_fp64()
    for nodes in node_counts:
        study.dense[nodes] = estimate_cholesky(
            dense_profile, matrix_n, tile, machine, nodes
        )
        study.tlr[nodes] = estimate_cholesky(
            profile, matrix_n, tile, machine, nodes, band_size=band_size
        )
    return study
