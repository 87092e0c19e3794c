"""Tests for task objects and the PTG-style generators."""

from collections import Counter

import pytest

from repro.runtime import (
    Task,
    cholesky_task_count,
    cholesky_tasks,
    forward_solve_tasks,
)
from repro.runtime.taskgraph import cholesky_op_counts, cholesky_task


class TestTask:
    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            Task(0, "axpy", 0, output=(0, 0))

    def test_tiles_output_first(self):
        t = Task(1, "gemm", 0, output=(2, 1), inputs=((2, 0), (1, 0)))
        assert t.tiles == ((2, 1), (2, 0), (1, 0))

    def test_frozen(self):
        t = Task(0, "potrf", 0, output=(0, 0))
        with pytest.raises(AttributeError):
            t.op = "trsm"


class TestCholeskyTasks:
    def test_count_matches_closed_form(self):
        for nt in range(13):
            tasks = list(cholesky_tasks(nt))
            assert len(tasks) == cholesky_task_count(nt)
            assert cholesky_op_counts(nt) == Counter(t.op for t in tasks)

    def test_one_task_built_without_the_stream(self):
        for nt in range(1, 9):
            for task in cholesky_tasks(nt):
                m, n = task.output
                assert cholesky_task(
                    nt, task.op, task.k, m, n if task.op == "gemm" else None
                ) == task

    def test_uids_sequential(self):
        tasks = list(cholesky_tasks(5))
        assert [t.uid for t in tasks] == list(range(len(tasks)))

    def test_nt1_single_potrf(self):
        tasks = list(cholesky_tasks(1))
        assert len(tasks) == 1
        assert tasks[0].op == "potrf"

    def test_nt3_structure(self):
        ops = [t.op for t in cholesky_tasks(3)]
        assert ops == [
            "potrf", "trsm", "trsm", "syrk", "syrk", "gemm",
            "potrf", "trsm", "syrk",
            "potrf",
        ]

    def test_outputs_in_lower_triangle(self):
        for t in cholesky_tasks(6):
            i, j = t.output
            assert 0 <= j <= i < 6

    def test_gemm_inputs_are_panel_tiles(self):
        for t in cholesky_tasks(6):
            if t.op == "gemm":
                (m, k1), (n, k2) = t.inputs
                assert k1 == k2 == t.k
                assert t.output == (m, n)
                assert k1 < n < m

    def test_each_tile_written(self):
        """Every lower tile is written at least once (as output)."""
        nt = 5
        written = {t.output for t in cholesky_tasks(nt)}
        expected = {(i, j) for i in range(nt) for j in range(i + 1)}
        assert written == expected


class TestForwardSolveTasks:
    def test_counts(self):
        tasks = list(forward_solve_tasks(4))
        # i GEMMs per row i, one TRSM per row.
        assert len(tasks) == 6 + 4

    def test_rhs_column_convention(self):
        for t in forward_solve_tasks(4):
            assert t.output[1] == -1

    def test_base_uid_offset(self):
        tasks = list(forward_solve_tasks(3, base_uid=100))
        assert tasks[0].uid == 100
