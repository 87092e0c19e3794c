"""Tests for the task-graph formulation of the triangular solve."""

import numpy as np
import pytest
from scipy import linalg as sla

from repro.exceptions import SchedulingError
from repro.runtime import (
    SimConfig,
    Task,
    build_dag,
    forward_solve_tasks,
    simulate_tasks,
    validate_schedule,
)
from repro.tile import (
    build_planned_covariance,
    forward_solve,
    tile_apply,
    tile_cholesky,
)


def execute_forward_solve_tasks(factor, tasks, b):
    """Interpret a :func:`forward_solve_tasks` stream (RHS blocks keyed
    ``(i, -1)``) against a real factor and right-hand side: GEMM tasks
    apply ``y_i -= L_ij y_j``, TRSM tasks the diagonal solve — the real
    counterpart of the simulated prediction phase."""
    layout = factor.layout
    y = np.asarray(b, dtype=np.float64).copy()
    if y.shape[0] != factor.n:
        raise SchedulingError("rhs dimension does not match the factor")
    for task in tasks:
        sl_i = layout.block_slice(task.output[0])
        if task.op == "gemm":
            lij, (j, _) = task.inputs
            y[sl_i] -= tile_apply(factor.get(*lij), y[layout.block_slice(j)])
        elif task.op == "trsm":
            (lii,) = task.inputs
            y[sl_i] = sla.solve_triangular(
                factor.get(*lii).to_dense64(), y[sl_i],
                lower=True, check_finite=False,
            )
        else:
            raise SchedulingError(
                f"unexpected op {task.op!r} in a solve stream"
            )
    return y


@pytest.fixture(scope="module")
def factored():
    from repro.kernels import MaternKernel
    from repro.ordering import order_points

    gen = np.random.default_rng(77)
    x = gen.uniform(size=(200, 2))
    x = x[order_points(x, "morton")]
    mat, rep = build_planned_covariance(
        MaternKernel(), np.array([1.0, 0.1, 0.5]), x, 40, nugget=1e-8,
        use_tlr=True, band_size=2,
    )
    fac, _ = tile_cholesky(mat, tile_tol=rep.tile_tol)
    return fac, rep


class TestSolveStream:
    def test_matches_block_solve(self, factored, rng):
        fac, _ = factored
        tasks = list(forward_solve_tasks(fac.nt))
        b = rng.standard_normal(200)
        y_stream = execute_forward_solve_tasks(fac, tasks, b)
        y_direct = forward_solve(fac, b)
        np.testing.assert_allclose(y_stream, y_direct, atol=1e-12)

    def test_multiple_rhs(self, factored, rng):
        fac, _ = factored
        tasks = list(forward_solve_tasks(fac.nt))
        b = rng.standard_normal((200, 3))
        y = execute_forward_solve_tasks(fac, tasks, b)
        np.testing.assert_allclose(y, forward_solve(fac, b), atol=1e-12)

    def test_rhs_not_mutated(self, factored, rng):
        fac, _ = factored
        b = rng.standard_normal(200)
        b0 = b.copy()
        execute_forward_solve_tasks(fac, list(forward_solve_tasks(fac.nt)), b)
        np.testing.assert_array_equal(b, b0)

    def test_dimension_mismatch(self, factored):
        fac, _ = factored
        with pytest.raises(SchedulingError):
            execute_forward_solve_tasks(
                fac, list(forward_solve_tasks(fac.nt)), np.zeros(13)
            )

    def test_rejects_foreign_ops(self, factored, rng):
        fac, _ = factored
        bad = [Task(0, "syrk", 0, output=(0, -1), inputs=((0, 0),))]
        with pytest.raises(SchedulingError):
            execute_forward_solve_tasks(fac, bad, rng.standard_normal(200))


class TestSolveDag:
    def test_sequential_chain_structure(self):
        """Row i's TRSM depends on all its GEMM updates; GEMM(i, j)
        depends on row j's TRSM (reads y_j)."""
        tasks = list(forward_solve_tasks(4))
        dag = build_dag(tasks)
        trsm = {t.output[0]: t for t in tasks if t.op == "trsm"}
        for t in tasks:
            if t.op == "gemm":
                j = t.inputs[1][0]
                assert dag.has_edge(trsm[j].uid, t.uid)

    def test_simulatable(self, factored):
        fac, rep = factored
        tasks = list(forward_solve_tasks(fac.nt))
        dag = build_dag(tasks)
        trace = simulate_tasks(
            tasks, fac.layout, rep.plan, SimConfig(nodes=2), dag=dag
        )
        start, end = trace.start_end_maps()
        validate_schedule(dag, start, end)
        assert trace.makespan > 0
