"""Tests for the discrete-event simulator (the executors' identity
with ``tile_cholesky`` lives in ``test_execution_matrix.py``)."""

import numpy as np
import pytest

from repro.exceptions import SchedulingError
from repro.perfmodel import A64FX
from repro.runtime import (
    SimConfig,
    build_dag,
    cholesky_tasks,
    critical_path_length,
    simulate_tasks,
    validate_schedule,
)
from repro.tile import build_planned_covariance


@pytest.fixture(scope="module")
def planned_problem():
    from repro.kernels import MaternKernel
    from repro.ordering import order_points

    gen = np.random.default_rng(21)
    x = gen.uniform(size=(240, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()
    theta = np.array([1.0, 0.08, 0.5])
    mat, report = build_planned_covariance(
        kern, theta, x, 40, nugget=1e-8, use_mp=True, use_tlr=True, band_size=2
    )
    return mat, report


class TestSimulator:
    def test_schedule_valid(self, planned_problem):
        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        dag = build_dag(tasks)
        trace = simulate_tasks(
            tasks, mat.layout, report.plan, SimConfig(nodes=4), dag=dag
        )
        start, end = trace.start_end_maps()
        validate_schedule(dag, start, end)

    def test_makespan_at_least_critical_path(self, planned_problem):
        """Simulated makespan >= duration-weighted critical path
        (lower bound must hold without comm)."""
        from repro.perfmodel.kernelmodel import task_time
        from repro.runtime.simulator import shape_for_task

        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        dag = build_dag(tasks)
        cfg = SimConfig(nodes=4, model_comm=False)
        trace = simulate_tasks(tasks, mat.layout, report.plan, cfg, dag=dag)
        durations = {
            t.uid: task_time(shape_for_task(t, mat.layout, report.plan), A64FX)
            for t in tasks
        }
        cp = critical_path_length(dag, durations)
        assert trace.makespan >= cp * (1 - 1e-9)

    def test_makespan_at_most_serial(self, planned_problem):
        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        cfg = SimConfig(nodes=2, model_comm=False)
        trace = simulate_tasks(tasks, mat.layout, report.plan, cfg)
        serial = sum(r.duration for r in trace.records)
        assert trace.makespan <= serial * (1 + 1e-9)

    def test_more_nodes_not_slower(self, planned_problem):
        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        t1 = simulate_tasks(
            tasks, mat.layout, report.plan,
            SimConfig(nodes=1, model_comm=False),
        ).makespan
        t4 = simulate_tasks(
            tasks, mat.layout, report.plan,
            SimConfig(nodes=4, model_comm=False),
        ).makespan
        assert t4 <= t1 * (1 + 1e-9)

    def test_comm_adds_time(self, planned_problem):
        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        without = simulate_tasks(
            tasks, mat.layout, report.plan,
            SimConfig(nodes=4, model_comm=False),
        )
        with_comm = simulate_tasks(
            tasks, mat.layout, report.plan, SimConfig(nodes=4)
        )
        assert with_comm.makespan >= without.makespan
        assert with_comm.total_comm_bytes > 0

    def test_single_node_no_comm(self, planned_problem):
        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        trace = simulate_tasks(tasks, mat.layout, report.plan, SimConfig(nodes=1))
        assert trace.total_comm_bytes == 0

    def test_conversions_counted_in_mp_plan(self, planned_problem):
        mat, report = planned_problem
        counts = mat.structure_counts()
        assert len(counts) > 1  # mixed plan
        tasks = list(cholesky_tasks(mat.nt))
        trace = simulate_tasks(tasks, mat.layout, report.plan, SimConfig(nodes=4))
        assert trace.total_conversions > 0

    def test_grid_mismatch_rejected(self, planned_problem):
        from repro.runtime import BlockCyclic2D

        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        cfg = SimConfig(nodes=4, grid=BlockCyclic2D(1, 2))
        with pytest.raises(SchedulingError):
            simulate_tasks(tasks, mat.layout, report.plan, cfg)

    def test_panel_priority_also_valid(self, planned_problem):
        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        dag = build_dag(tasks)
        trace = simulate_tasks(
            tasks, mat.layout, report.plan,
            SimConfig(nodes=4, priority="panel"), dag=dag,
        )
        start, end = trace.start_end_maps()
        validate_schedule(dag, start, end)

    def test_trace_summary_fields(self, planned_problem):
        mat, report = planned_problem
        tasks = list(cholesky_tasks(mat.nt))
        trace = simulate_tasks(tasks, mat.layout, report.plan, SimConfig(nodes=2))
        s = trace.summary()
        assert s["tasks"] == len(tasks)
        assert 0 < s["parallel_efficiency"] <= 1.0
        assert s["load_imbalance"] >= 1.0
