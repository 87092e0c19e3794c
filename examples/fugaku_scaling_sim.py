"""Fugaku-scale scaling study (paper Figs. 7, 10, 11), simulated.

Pipeline:

1. build a real adaptive tile plan on a laptop-scale covariance and
   measure its offset-class profile;
2. execute the *actual* task DAG of a moderate problem on a simulated
   multi-node A64FX machine (discrete-event simulation with
   communication and on-demand precision conversions);
3. project the profile to the paper's matrix sizes and node counts
   with the aggregate per-step estimator, printing a Fig. 10-style
   table.

Run:  python examples/fugaku_scaling_sim.py
"""

import numpy as np

from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.perfmodel import A64FX, PlanProfile, estimate_cholesky
from repro.runtime import SimConfig, cholesky_tasks, simulate_tasks
from repro.stats import format_table
from repro.tile import build_planned_covariance, ranked_plan


def main() -> None:
    # --- 1: measure a real adaptive plan ---------------------------------
    gen = np.random.default_rng(7)
    x = gen.uniform(size=(1500, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()
    theta = np.array([1.0, 0.03, 0.5])  # weak correlation (Fig. 10 WC)
    matrix, report = build_planned_covariance(
        kern, theta, x, 60, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=1,
    )
    plan = ranked_plan(matrix, report.plan)
    print(f"measured plan ({plan.nt}x{plan.nt} tiles): {plan.counts()}")
    profile = PlanProfile.from_plan(plan, label="weak")

    # --- 2: discrete-event simulation of the real DAG ---------------------
    tasks = list(cholesky_tasks(plan.nt))
    for nodes in (1, 4, 16):
        trace = simulate_tasks(
            tasks, plan.layout, plan, SimConfig(nodes=nodes, machine=A64FX)
        )
        s = trace.summary()
        print(
            f"DAG simulation, {nodes:2d} nodes: makespan "
            f"{s['makespan_s'] * 1e3:8.2f} ms, parallel efficiency "
            f"{s['parallel_efficiency']:.2f}, comm "
            f"{s['comm_gbytes'] * 1e3:.2f} MB, "
            f"{int(s['conversions'])} precision conversions"
        )

    # --- 3: project to Fugaku scale (Fig. 10) ------------------------------
    n = 9_000_000
    rows = []
    for nodes in (2048, 4096, 8192, 16384):
        dense = estimate_cholesky(
            PlanProfile.dense_fp64(), n, 2700, A64FX, nodes=nodes
        )
        tlr = estimate_cholesky(
            profile, n, 1350, A64FX, nodes=nodes, band_size=2
        )
        rows.append([
            nodes, dense.time_s, dense.sustained_pflops,
            tlr.time_s, dense.time_s / tlr.time_s, tlr.memory_reduction,
        ])
    print()
    print(format_table(
        ["nodes", "dense_s", "dense_Pflops", "mp_tlr_s", "speedup",
         "mem_reduction"],
        rows,
        title=f"Fig. 10-style projection, Matérn 2D WC, N={n:,}",
        float_fmt="{:.3g}",
    ))
    print(
        "\nThe paper reports up to 12x at 16K nodes; our conservative "
        "TLR-kernel efficiency (calibrated to Fig. 5's crossover) lands "
        "in the same band — see EXPERIMENTS.md."
    )


if __name__ == "__main__":
    main()
