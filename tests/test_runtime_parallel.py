"""Tests for the threaded parallel execution engine."""

import numpy as np
import pytest

from repro.exceptions import SchedulingError
from repro.runtime import execute_cholesky_parallel
from repro.tile import build_planned_covariance, tile_cholesky
from tests.conftest import random_spd_tilematrix
from tests.test_execution_matrix import units_own_their_columns


@pytest.fixture(scope="module")
def planned():
    from repro.kernels import MaternKernel
    from repro.ordering import order_points

    gen = np.random.default_rng(99)
    x = gen.uniform(size=(300, 2))
    x = x[order_points(x, "morton")]
    mat, rep = build_planned_covariance(
        MaternKernel(), np.array([1.0, 0.1, 0.5]), x, 50, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=2,
    )
    return mat, rep


class TestParallelEngine:
    def test_matches_sequential_dense(self):
        tm = random_spd_tilematrix(96, 16, seed=4)
        ref, _ = tile_cholesky(tm.copy())
        par, report = execute_cholesky_parallel(tm, workers=4)
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), par.to_dense(lower_only=True)
        )
        assert report.tasks == len(list(__import__(
            "repro.runtime", fromlist=["cholesky_tasks"]
        ).cholesky_tasks(6)))

    def test_matches_sequential_adaptive(self, planned):
        mat, rep = planned
        ref, _ = tile_cholesky(mat.copy(), tile_tol=rep.tile_tol)
        par, _ = execute_cholesky_parallel(
            mat.copy(), workers=3, tile_tol=rep.tile_tol
        )
        np.testing.assert_allclose(
            ref.to_dense(lower_only=True), par.to_dense(lower_only=True),
            atol=1e-12,
        )

    def test_single_worker(self):
        tm = random_spd_tilematrix(48, 16, seed=5)
        ref, _ = tile_cholesky(tm.copy())
        par, report = execute_cholesky_parallel(tm, workers=1)
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), par.to_dense(lower_only=True)
        )
        assert report.max_concurrency == 1

    def test_concurrency_observed(self):
        """With many workers and a wide DAG, at least two tasks must
        have been in flight simultaneously at some point.  Sized so one
        worker cannot drain the DAG before the others have started:
        1540 tasks are well over 100 ms of work, where the 220 of a
        10 x 10 tiling took one worker ~20 ms — a handful of
        interpreter time slices, which it won about one fresh run in
        ten on two cores."""
        tm = random_spd_tilematrix(960, 48, seed=6)
        _, report = execute_cholesky_parallel(tm, workers=4)
        assert report.max_concurrency >= 2

    def test_indefinite_matrix_raises(self):
        from repro.tile import TileMatrix

        a = np.diag([1.0, -4.0, 1.0, 1.0])
        tm = TileMatrix.from_dense(a, 2)
        with pytest.raises(SchedulingError):
            execute_cholesky_parallel(tm, workers=2)

    def test_zero_workers_rejected(self):
        tm = random_spd_tilematrix(8, 4, seed=7)
        with pytest.raises(SchedulingError):
            execute_cholesky_parallel(tm, workers=0)

    def test_repeatable(self):
        """Two parallel runs on copies give identical factors (the
        dependence structure serializes every conflicting update)."""
        tm = random_spd_tilematrix(120, 24, seed=8)
        f1, _ = execute_cholesky_parallel(tm.copy(), workers=4)
        f2, _ = execute_cholesky_parallel(tm.copy(), workers=4)
        np.testing.assert_array_equal(
            f1.to_dense(lower_only=True), f2.to_dense(lower_only=True)
        )


class TestStressChaos:
    @staticmethod
    def _traced_stress(matrix, workers):
        """``(factor, report, spans)`` of a seeded-chaos run under
        retry, traced."""
        from repro.obs import Telemetry
        from repro.resilience import ChaosConfig, RetryPolicy

        telemetry = Telemetry()
        factor, report = execute_cholesky_parallel(
            matrix,
            workers=workers,
            retry=RetryPolicy(
                max_attempts=4, base_delay_s=0.0, max_delay_s=0.0
            ),
            chaos=ChaosConfig(seed=20220101, tile_nan_rate=0.05),
            telemetry=telemetry,
        )
        return factor, report, len(telemetry.tracer.spans)

    @pytest.mark.parametrize("workers", [4, 8])
    def test_chaos_stress_matches_sequential(self, workers):
        """Many workers + seeded tile corruption, traced: the retry
        policy absorbs every injected fault, the factor still matches
        the sequential engine bit for bit, every unit touched only its
        own column, and the span count, chaos events and retries are
        the width-1 run's — the threads' shared tallies (run timeline,
        injector, task body) lose nothing."""
        tm = random_spd_tilematrix(240, 24, seed=11)
        ref, _ = tile_cholesky(tm.copy())
        _, one, one_spans = self._traced_stress(tm.copy(), 1)
        with units_own_their_columns(workers):
            par, report, spans = self._traced_stress(tm.copy(), workers)
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), par.to_dense(lower_only=True)
        )
        assert report.chaos_events > 0
        assert report.stats.retries >= report.chaos_events
        assert (spans, report.chaos_events, report.stats.retries) == (
            one_spans, one.chaos_events, one.stats.retries,
        )
