"""Tests for the multiprocess shared-memory execution backend."""

import os
import signal

import numpy as np
import pytest

from repro.core.variants import get_variant
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    NotPositiveDefiniteError,
    SchedulingError,
    WorkerLostError,
)
from repro.resilience import (
    ChaosConfig,
    Deadline,
    RetryPolicy,
)
from repro.runtime import (
    BlockCyclic2D,
    ProcessPoolEngine,
    blas_clamp_for,
    clamp_blas_threads,
    cholesky_tasks,
    model_comm_volume,
)
from repro.runtime.blasclamp import BLAS_THREAD_ENV
from repro.tile import (
    SharedTileStore,
    TileMatrix,
    build_planned_covariance,
    leaked_segments,
    tile_cholesky,
)
from repro.tile.shm import tile_view
from tests.conftest import random_spd_tilematrix

GOLDEN_VARIANTS = (
    "dense-fp64", "mp-dense", "mp-dense-tlr", "mp-dense-tlr-recover",
)


@pytest.fixture(autouse=True)
def no_leaked_shm():
    """Every test — success or failure path — must unlink its shared
    memory; a leaked segment is a bug regardless of what else passed."""
    yield
    assert leaked_segments() == []


def golden_problem(variant: str, nt: int, tile: int = 16):
    from repro.kernels import MaternKernel
    from repro.ordering import order_points

    config = get_variant(variant)
    gen = np.random.default_rng(99)
    x = gen.uniform(size=(nt * tile, 2))
    x = x[order_points(x, "morton")]
    return build_planned_covariance(
        MaternKernel(), np.array([1.0, 0.1, 0.5]), x, tile,
        nugget=1e-8, **config.assembly_kwargs(),
    )


class TestSharedTileStore:
    def test_round_trip_planned_matrix(self):
        """Dense, low-rank, and reduced-precision tiles all survive the
        shared-memory round trip byte-exactly."""
        mat, _ = golden_problem("mp-dense-tlr", 8)
        ref = mat.to_dense()
        store = SharedTileStore(mat.layout)
        try:
            handles = store.put_matrix(mat)
            out = store.read_into(TileMatrix(mat.layout))
            np.testing.assert_array_equal(ref, out.to_dense())
            for index in handles:
                orig, back = mat.get(*index), out.get(*index)
                assert type(orig) is type(back)
                assert orig.precision == back.precision
        finally:
            store.close()

    def test_views_are_zero_copy(self):
        """A worker-side tile view aliases the segment buffer — no
        payload copy for locally-owned reads."""
        tm = random_spd_tilematrix(32, 16, seed=3)
        store = SharedTileStore(tm.layout)
        try:
            handles = store.put_matrix(tm)
            h = handles[(0, 0)]
            seg = store._segments[h.a.segment]
            tile = tile_view(h, seg.buf, None)
            assert tile.data.base is not None  # aliases the segment
        finally:
            store.close()

    def test_close_is_idempotent_and_unlinks(self):
        tm = random_spd_tilematrix(32, 16, seed=3)
        store = SharedTileStore(tm.layout)
        store.put_matrix(tm)
        store.close()
        store.close()
        assert leaked_segments() == []


class TestBitIdentity:
    @pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
    @pytest.mark.parametrize("nt", [4, 8])
    def test_matches_sequential_golden(self, variant, nt):
        """Every shipped variant factors bit-identically to the
        sequential engine on the process backend."""
        mat, rep = golden_problem(variant, nt)
        ref, _ = tile_cholesky(mat.copy(), tile_tol=rep.tile_tol)
        with ProcessPoolEngine(workers=3) as engine:
            par, report = engine.execute(mat.copy(), tile_tol=rep.tile_tol)
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), par.to_dense(lower_only=True)
        )
        assert report.tasks == len(list(cholesky_tasks(nt)))
        assert report.workers == 3

    def test_matches_threaded_dense(self):
        from repro.runtime import execute_cholesky_parallel

        tm = random_spd_tilematrix(96, 16, seed=4)
        thr, _ = execute_cholesky_parallel(tm.copy(), workers=4)
        with ProcessPoolEngine(workers=4) as engine:
            par, _ = engine.execute(tm.copy())
        np.testing.assert_array_equal(
            thr.to_dense(lower_only=True), par.to_dense(lower_only=True)
        )

    def test_second_execute_reuses_live_workers(self):
        """One persistent pool across calls: the second factorization
        re-arms the live workers and stays bit-identical."""
        mat, rep = golden_problem("mp-dense-tlr", 8)
        ref, _ = tile_cholesky(mat.copy(), tile_tol=rep.tile_tol)
        with ProcessPoolEngine(workers=2) as engine:
            for _ in range(2):
                par, report = engine.execute(
                    mat.copy(), tile_tol=rep.tile_tol
                )
                np.testing.assert_array_equal(
                    ref.to_dense(lower_only=True),
                    par.to_dense(lower_only=True),
                )
                assert report.grouping == "per-tile"
                assert report.batches == report.batched_tasks == 0

    def test_single_worker(self):
        tm = random_spd_tilematrix(48, 16, seed=5)
        ref, _ = tile_cholesky(tm.copy())
        with ProcessPoolEngine(workers=1) as engine:
            par, report = engine.execute(tm.copy())
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), par.to_dense(lower_only=True)
        )
        assert report.max_concurrency == 1
        assert report.blas_clamp is None  # one worker: BLAS unclamped


class TestFailureSemantics:
    def test_indefinite_matrix_unwraps_npd(self):
        a = np.diag([1.0, -4.0, 1.0, 1.0])
        tm = TileMatrix.from_dense(a, 2)
        with ProcessPoolEngine(workers=2) as engine:
            with pytest.raises(SchedulingError) as err:
                engine.execute(tm)
        cause = err.value.__cause__
        assert isinstance(cause, NotPositiveDefiniteError)
        assert cause.tile_index == (0, 0)

    def test_killed_worker_raises_not_hangs(self):
        """SIGKILL on a worker surfaces WorkerLostError (a
        SchedulingError), tears the pool down, and leaves the engine
        reusable — the next execute starts a fresh pool."""
        tm = random_spd_tilematrix(96, 16, seed=6)
        engine = ProcessPoolEngine(workers=2)
        try:
            engine.start()
            os.kill(engine._procs[1].pid, signal.SIGKILL)
            with pytest.raises(WorkerLostError) as err:
                engine.execute(tm.copy())
            assert isinstance(err.value, SchedulingError)
            assert err.value.rank == 1
            assert err.value.exitcode == -signal.SIGKILL
            assert not engine.started  # pool torn down, nothing alive
            ref, _ = tile_cholesky(tm.copy())
            par, _ = engine.execute(tm.copy())  # fresh pool
            np.testing.assert_array_equal(
                ref.to_dense(lower_only=True), par.to_dense(lower_only=True)
            )
        finally:
            engine.close()

    def test_expired_deadline_drains_and_raises(self):
        tm = random_spd_tilematrix(96, 16, seed=7)
        with ProcessPoolEngine(workers=2) as engine:
            with pytest.raises(DeadlineExceededError) as err:
                engine.execute(tm, deadline=Deadline(0.0))
        assert err.value.budget_s == 0.0
        assert err.value.where == "ProcessPoolEngine.execute"

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolEngine(workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolEngine(workers=3, grid=BlockCyclic2D(2, 2))


class TestChaosParity:
    def test_chaos_schedule_independent(self):
        """Seeded chaos keys on (seed, epoch, uid, attempt), so the
        injected events — and the recovered factor — are identical
        whatever the worker count or interleaving."""
        tm = random_spd_tilematrix(128, 16, seed=11)
        runs = {}
        for workers in (1, 3):
            with ProcessPoolEngine(workers=workers) as engine:
                par, report = engine.execute(
                    tm.copy(),
                    retry=RetryPolicy(
                        max_attempts=4, base_delay_s=0.0, max_delay_s=0.0
                    ),
                    chaos=ChaosConfig(seed=7, tile_nan_rate=0.05),
                )
            runs[workers] = (
                par.to_dense(lower_only=True),
                report.chaos_events,
                report.stats.retries,
            )
        assert runs[1][1] > 0
        assert runs[1][1:] == runs[3][1:]
        np.testing.assert_array_equal(runs[1][0], runs[3][0])


class TestCommAccounting:
    def test_measured_matches_model_on_dense_plan(self):
        """The executor's measured CommStats equals the simulator's
        wire-format prediction byte-for-byte on a dense plan."""
        from repro.analysis import plan_from_matrix

        mat, _ = golden_problem("dense-fp64", 8)
        plan = plan_from_matrix(mat)
        with ProcessPoolEngine(workers=4) as engine:
            _, report = engine.execute(mat)
            modeled = model_comm_volume(
                plan, engine.grid, list(cholesky_tasks(8))
            )
        measured = report.comm
        assert measured.remote_reads == modeled.remote_reads
        assert measured.local_reads == modeled.local_reads
        assert measured.remote_bytes == modeled.remote_bytes

    def test_golden_comm_check_clean(self):
        from repro.analysis import check_golden_comm

        report = check_golden_comm(nt=4, workers=2)
        assert report.ok

    def test_single_worker_all_local(self):
        tm = random_spd_tilematrix(64, 16, seed=12)
        with ProcessPoolEngine(workers=1) as engine:
            _, report = engine.execute(tm)
        assert report.comm.remote_reads == 0
        assert report.comm.remote_bytes == 0
        assert report.comm.local_reads > 0


class TestBlasClamp:
    def test_clamp_divides_cores(self):
        assert blas_clamp_for(4, cores=8) == 2
        assert blas_clamp_for(2, cores=8) == 4
        assert blas_clamp_for(16, cores=8) == 1
        assert blas_clamp_for(1, cores=8) == 8

    def test_cores_are_the_affinity_mask_not_the_machine(self, monkeypatch):
        """``os.cpu_count()`` ignores ``taskset`` / a container's
        cpuset; pool widths and the clamp must not."""
        from repro.runtime import execute_cholesky_batched

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert blas_clamp_for(1) == 1
        _, report = execute_cholesky_batched(
            random_spd_tilematrix(64, 16, seed=14), workers=4
        )
        assert report.workers == 1 and report.placement == "inline"

    def test_context_sets_and_restores_env(self):
        name = BLAS_THREAD_ENV[0]
        before = os.environ.get(name)
        with clamp_blas_threads(4, cores=8) as clamp:
            assert clamp == 2
            assert os.environ[name] == "2"
        assert os.environ.get(name) == before

    def test_report_records_clamp(self):
        tm = random_spd_tilematrix(64, 16, seed=13)
        with ProcessPoolEngine(workers=2) as engine:
            _, report = engine.execute(tm)
        assert report.blas_clamp == blas_clamp_for(2)
        assert report.blas_clamp >= 1


class TestBackendWiring:
    @pytest.fixture(scope="class")
    def problem(self):
        from repro.ordering import order_points

        gen = np.random.default_rng(99)
        x = gen.uniform(size=(200, 2))
        x = x[order_points(x, "morton")]
        z = gen.standard_normal(200)
        return x, z

    def test_loglikelihood_backends_agree(self, problem):
        from repro.core.likelihood import loglikelihood
        from repro.kernels import MaternKernel

        x, z = problem
        theta = np.array([1.0, 0.1, 0.5])
        variant = get_variant("mp-dense-tlr")
        values = {
            name: loglikelihood(
                MaternKernel(), theta, x, z, tile_size=40,
                variant=variant.with_(**execution), nugget=1e-8,
            ).value
            for name, execution in (
                ("sequential", {}),
                ("thread", {"backend": "thread", "workers": 2}),
                ("process", {"backend": "process", "workers": 2}),
            )
        }
        assert values["sequential"] == values["thread"] == values["process"]

    def test_fit_mle_process_bit_equal(self, problem):
        from repro.core.mle import fit_mle
        from repro.kernels import MaternKernel

        x, z = problem
        fits = {
            backend: fit_mle(
                MaternKernel(), x, z, tile_size=40,
                variant=get_variant("mp-dense").with_(
                    backend=backend, workers=2
                ),
                nugget=1e-8, max_iter=5,
            )
            for backend in ("thread", "process")
        }
        assert fits["thread"].loglik == fits["process"].loglik
        assert fits["thread"].history == fits["process"].history
        np.testing.assert_array_equal(
            fits["thread"].theta, fits["process"].theta
        )

    def test_evaluation_engine_close_and_reuse(self, problem):
        from repro.core.engine import EvaluationEngine
        from repro.kernels import MaternKernel

        x, z = problem
        theta = np.array([1.0, 0.1, 0.5])
        with EvaluationEngine(
            MaternKernel(), x, z, tile_size=40,
            variant=get_variant("mp-dense").with_(
                workers=2, backend="process"
            ),
            nugget=1e-8,
        ) as engine:
            first = engine.evaluate(theta).value
            engine.close()  # pool restarts lazily on the next evaluate
            again = engine.evaluate(theta).value
        assert first == again

    def test_variant_backend_validation(self):
        from repro.core.variants import VariantConfig

        cfg = VariantConfig(name="t", backend="process")
        assert cfg.backend == "process"
        assert VariantConfig(name="t").backend == "thread"
        for gone in ("mpi", "auto", "sequential"):
            with pytest.raises(ConfigurationError):
                VariantConfig(name="t", backend=gone)

    def test_unknown_backend_rejected(self, problem):
        from repro.core.likelihood import loglikelihood
        from repro.kernels import MaternKernel

        x, z = problem
        with pytest.raises(ConfigurationError):
            loglikelihood(
                MaternKernel(), np.array([1.0, 0.1, 0.5]), x, z,
                tile_size=40, nugget=1e-8,
                variant=get_variant("dense-fp64").with_(backend="mpi"),
            )

    def test_model_backend_round_trip(self, problem):
        from repro.core.model import ExaGeoStatModel

        x, z = problem
        results = {}
        for backend in ("thread", "process"):
            model = ExaGeoStatModel(
                kernel="matern",
                variant=get_variant("mp-dense").with_(
                    backend=backend, workers=2
                ),
                tile_size=40, nugget=1e-8,
            )
            model.fit(x, z, theta0=np.array([1.0, 0.1, 0.5]), max_iter=3)
            results[backend] = (model.theta_, model.loglik_)
        assert results["thread"][1] == results["process"][1]
        np.testing.assert_array_equal(
            results["thread"][0], results["process"][0]
        )
