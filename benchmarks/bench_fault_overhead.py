"""Fault-tolerance overhead — makespan inflation vs MTBF and
checkpoint interval.

At the paper's 48,384 Fugaku nodes the application-level MTBF is hours,
not weeks, yet the paper's runs model a failure-free machine.  This
bench injects seeded node crashes into the discrete-event simulator,
sweeps the mean-time-between-failures and the coordinated-checkpoint
interval, and compares the measured makespan inflation against the
Young/Daly first-order waste prediction.  Runs are bit-reproducible per
seed — the property the resilience tests pin — and the artifact records
the failure schedule summary alongside the inflation.
"""

import numpy as np
import pytest

from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.perfmodel import application_mtbf, daly_interval, expected_waste
from repro.runtime import (
    CheckpointConfig,
    FaultModel,
    SimConfig,
    build_dag,
    cholesky_tasks,
    simulate_tasks,
)
from repro.stats import format_table
from repro.tile import build_planned_covariance, ranked_plan

NODES = 4
SEED = 11


@pytest.fixture(scope="module")
def fault_problem():
    gen = np.random.default_rng(21)
    x = gen.uniform(size=(360, 2))
    x = x[order_points(x, "morton")]
    mat, report = build_planned_covariance(
        MaternKernel(), np.array([1.0, 0.08, 0.5]), x, 40,
        nugget=1e-8, use_mp=True, use_tlr=True, band_size=2,
    )
    plan = ranked_plan(mat, report.plan)
    tasks = list(cholesky_tasks(mat.nt))
    dag = build_dag(tasks)
    base = simulate_tasks(
        tasks, mat.layout, plan, SimConfig(nodes=NODES), dag=dag
    )
    return mat.layout, plan, tasks, dag, base


def _run(fault_problem, faults=None, checkpoint=None):
    layout, plan, tasks, dag, _ = fault_problem
    cfg = SimConfig(nodes=NODES, faults=faults, checkpoint=checkpoint)
    return simulate_tasks(tasks, layout, plan, cfg, dag=dag)


def test_makespan_inflation_vs_mtbf(fault_problem, write_artifact, benchmark):
    """Inflation grows monotonically as the machine gets flakier."""
    *_, base = fault_problem
    ms = base.makespan
    rows = []
    inflations = {}
    for factor in (64.0, 16.0, 4.0, 2.0):
        fm = FaultModel(
            node_mtbf_s=factor * ms, restart_s=ms / 100, seed=SEED
        )
        ck = CheckpointConfig(interval_s=ms / 10, cost_s=ms / 500)
        trace = _run(fault_problem, faults=fm, checkpoint=ck)
        inflation = trace.makespan / ms
        inflations[factor] = inflation
        rows.append([
            factor,
            trace.recovery_count,
            trace.checkpoint_count,
            trace.summary()["resilience_overhead_s"] / ms,
            inflation,
        ])
    write_artifact(
        "fault_overhead_mtbf",
        format_table(
            [
                "node_mtbf/makespan",
                "recoveries",
                "checkpoints",
                "overhead/makespan",
                "inflation",
            ],
            rows,
            title=(
                f"Fault overhead vs MTBF ({NODES} nodes, seeded "
                "crashes, checkpoint every makespan/10)"
            ),
            float_fmt="{:.3g}",
        ),
    )
    assert all(v >= 1.0 for v in inflations.values())
    assert inflations[2.0] > inflations[64.0]

    fm = FaultModel(node_mtbf_s=4 * ms, restart_s=ms / 100, seed=SEED)
    benchmark(_run, fault_problem, fm, CheckpointConfig(ms / 10, ms / 500))


def test_checkpoint_interval_sweep(fault_problem, write_artifact):
    """Sweep the checkpoint interval around the Daly optimum and put the
    measured inflation next to the first-order waste prediction."""
    *_, base = fault_problem
    ms = base.makespan
    node_mtbf = 2.0 * ms
    restart = ms / 100
    cost = ms / 200
    app_mtbf = application_mtbf(node_mtbf, NODES)
    daly = daly_interval(cost, app_mtbf, restart)
    fm = FaultModel(node_mtbf_s=node_mtbf, restart_s=restart, seed=SEED)

    rows = []
    measured = {}
    for mult in (0.25, 1.0, 4.0, 16.0):
        interval = mult * daly
        trace = _run(
            fault_problem, faults=fm,
            checkpoint=CheckpointConfig(interval_s=interval, cost_s=cost),
        )
        measured[mult] = trace.makespan
        rows.append([
            mult,
            interval / ms,
            expected_waste(interval, cost, app_mtbf, restart),
            trace.makespan / ms,
        ])
    no_ck = _run(fault_problem, faults=fm)
    rows.append(["none", float("inf"), 1.0, no_ck.makespan / ms])
    write_artifact(
        "fault_overhead_interval",
        format_table(
            ["interval/daly", "interval/makespan", "daly_waste", "inflation"],
            rows,
            title=(
                f"Checkpoint interval sweep (node MTBF = 2x makespan, "
                f"Daly optimum = {daly / ms:.3f}x makespan)"
            ),
            float_fmt="{:.3g}",
        ),
    )
    # The Young/Daly prediction is convex with its minimum at the
    # optimum; the simulated machine agrees on the gross trend: a
    # near-optimal interval beats both no checkpointing and a
    # pathologically long interval.
    assert measured[1.0] < no_ck.makespan
    assert measured[1.0] <= measured[16.0]


def test_failure_schedule_reproducible(fault_problem, write_artifact):
    """Same seed -> bit-identical failure schedule and makespan;
    different seed -> different realization."""
    *_, base = fault_problem
    ms = base.makespan
    ck = CheckpointConfig(interval_s=ms / 10, cost_s=ms / 500)

    def run(seed):
        fm = FaultModel(node_mtbf_s=2 * ms, restart_s=ms / 100, seed=seed)
        return _run(fault_problem, faults=fm, checkpoint=ck)

    a, b, c = run(SEED), run(SEED), run(SEED + 1)
    assert a.makespan == b.makespan
    assert [
        (r.uid, r.kind, r.node, r.core, r.start, r.end) for r in a.records
    ] == [(r.uid, r.kind, r.node, r.core, r.start, r.end) for r in b.records]
    assert c.makespan != a.makespan
    write_artifact(
        "fault_overhead_reproducibility",
        format_table(
            ["seed", "makespan/base", "recoveries", "reexecuted"],
            [
                [SEED, a.makespan / ms, a.recovery_count, a.reexecuted_tasks],
                [SEED, b.makespan / ms, b.recovery_count, b.reexecuted_tasks],
                [SEED + 1, c.makespan / ms, c.recovery_count, c.reexecuted_tasks],
            ],
            title="Seeded fault injection is bit-reproducible",
            float_fmt="{:.6g}",
        ),
    )
