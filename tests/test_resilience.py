"""Tests for the production resilience layer (PR 6).

Covers four layers:

* the primitives — :class:`~repro.resilience.RetryPolicy`,
  :class:`~repro.resilience.Deadline`,
  :class:`~repro.resilience.CircuitBreaker`, ``require_finite``,
  ``degradation_steps`` and the :class:`ResilienceConfig` wiring;
* the threaded DAG executor — worker crashes drain the pool instead
  of deadlocking, seeded chaos is bit-reproducible, retries absorb
  transient injected faults, deadlines cancel cooperatively;
* the fit path — the graceful degradation ladder ends in a finite
  loglikelihood under total FP16-overflow corruption, input NaN/inf
  is rejected at the API boundary, ``time_budget_s`` is honored;
* the serving path — thread-safe cross-covariance LRU under
  concurrent predicts, batch retry, the consecutive-failure circuit
  breaker with its cache-clearing safe rebuild, and
  ``deadline_s`` expiry without thread leaks.

The pinned-value tests at the bottom freeze the hooks-disabled
results bit-for-bit: resilience must be zero-effect when off.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import ExaGeoStatModel, loglikelihood
from repro.core.engine import EvaluationEngine
from repro.core.mle import fit_mle
from repro.core.serving import PredictionEngine
from repro.core.variants import DENSE_FP64, MP_DENSE, MP_DENSE_TLR
from repro.data import sample_gaussian_field
from repro.exceptions import (
    ChaosError,
    ConfigurationError,
    DeadlineExceededError,
    NotPositiveDefiniteError,
    NumericalCorruptionError,
    ParameterError,
    SchedulingError,
)
from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.resilience import (
    ChaosConfig,
    ChaosInjector,
    CircuitBreaker,
    Deadline,
    DegradationPolicy,
    ResilienceConfig,
    RetryPolicy,
    degradation_steps,
    require_finite,
)
from repro.runtime import execute_cholesky_parallel
from repro.tile.precision import Precision
from repro.tile.tile import DenseTile
from tests.conftest import random_spd_tilematrix

THETA = np.array([1.0, 0.1, 0.5])
NUGGET = 1.0e-8

#: No real sleeping in tests; still three attempts.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)


@pytest.fixture(scope="module")
def pinned():
    """The pinned dataset behind every bit-identity constant below."""
    gen = np.random.default_rng(42)
    x = gen.uniform(size=(120, 2))
    x = x[order_points(x, "morton")]
    x_test = gen.uniform(size=(25, 2))
    kern = MaternKernel()
    z = sample_gaussian_field(kern, THETA, x, seed=7)
    return kern, x, z, x_test


@pytest.fixture(scope="module")
def small():
    """A 64-point problem: fast enough for chaos/fit tests."""
    gen = np.random.default_rng(11)
    x = gen.uniform(size=(64, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()
    z = sample_gaussian_field(kern, THETA, x, seed=3)
    return kern, x, z


def _spawn(*fns):
    threads = [threading.Thread(target=fn) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        p = RetryPolicy()
        assert p.delay_s(2, site=5) == p.delay_s(2, site=5)
        # Exponential growth through the early attempts ...
        assert p.delay_s(3) > p.delay_s(1)
        # ... capped (including jitter headroom) at max_delay_s.
        assert p.delay_s(50) <= p.max_delay_s * (1.0 + p.jitter)

    def test_classification(self):
        p = RetryPolicy()
        assert p.is_retryable(NumericalCorruptionError("x", tile_index=(0, 0)))
        assert p.is_retryable(ChaosError("x", site="t"))
        # A deterministic indefinite matrix is NOT transient.
        assert not p.is_retryable(NotPositiveDefiniteError("x"))
        assert not p.is_retryable(ValueError("x"))

    def test_call_retries_then_succeeds(self):
        observed = []

        def flaky(attempt):
            if attempt < 3:
                raise ChaosError("transient", site="t")
            return attempt

        result = FAST_RETRY.call(
            flaky, site=7, on_retry=lambda a, e: observed.append(a)
        )
        assert result == 3
        assert observed == [1, 2]

    def test_call_exhausts_budget(self):
        calls = []

        def always(attempt):
            calls.append(attempt)
            raise ChaosError("persistent", site="t")

        with pytest.raises(ChaosError):
            FAST_RETRY.call(always)
        assert calls == [1, 2, 3]

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def bad(attempt):
            calls.append(attempt)
            raise NotPositiveDefiniteError("indefinite")

        with pytest.raises(NotPositiveDefiniteError):
            FAST_RETRY.call(bad)
        assert calls == [1]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)


class TestDeadlineAndCancellation:
    def test_after_none_propagates(self):
        assert Deadline.after(None) is None
        assert isinstance(Deadline.after(1.0), Deadline)

    def test_expiry(self):
        d = Deadline(0.0)
        assert d.expired
        assert d.remaining() <= 0.0
        with pytest.raises(DeadlineExceededError, match="deadline"):
            d.check("unit test")

    def test_live_deadline_passes(self):
        d = Deadline(60.0)
        assert not d.expired
        d.check("unit test")  # must not raise


class TestCircuitBreaker:
    def test_trips_at_threshold_and_recovers(self):
        tripped = []
        br = CircuitBreaker(threshold=3, on_trip=lambda: tripped.append(1))
        assert not br.record_failure()
        assert not br.record_failure()
        assert br.record_failure()  # third consecutive: trip
        assert br.open and br.trips == 1 and tripped == [1]
        # Already open: further failures do not re-trip.
        assert not br.record_failure()
        assert br.trips == 1
        # Half-open semantics: the next success closes it.
        br.record_success()
        assert not br.open and br.consecutive_failures == 0

    def test_success_resets_streak(self):
        br = CircuitBreaker(threshold=2)
        br.record_failure()
        br.record_success()
        assert not br.record_failure()  # streak restarted
        assert not br.open

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)

    def test_snapshot_consistent_after_trip(self):
        tripped = []
        breaker = CircuitBreaker(threshold=3, on_trip=lambda: tripped.append(1))
        for _ in range(3):
            breaker.record_failure()
        consecutive, trips, is_open = breaker.snapshot()
        assert (consecutive, trips, is_open) == (3, 1, True)
        assert tripped == [1]

    def test_snapshot_matches_properties(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        consecutive, trips, is_open = breaker.snapshot()
        assert consecutive == breaker.consecutive_failures == 1
        assert trips == breaker.trips == 0
        assert is_open is breaker.open is False

    def test_health_report_uses_atomic_snapshot(self):
        # Regression for the torn read: health() must compose the three
        # breaker fields from one locked snapshot, never observing a
        # streak at the threshold without its trip counted.
        kernel = MaternKernel()
        theta = np.array([1.0, 0.1, 0.5])
        gen = np.random.default_rng(3)
        x = gen.uniform(size=(32, 2))
        z = gen.standard_normal(32)
        result = loglikelihood(
            kernel, theta, x, z, tile_size=16, variant="dense-fp64",
            nugget=1.0e-8,
        )
        engine = PredictionEngine(kernel, theta, x, z, result.factor)
        stop = threading.Event()
        torn = []

        def hammer():
            while not stop.is_set():
                engine._breaker.record_failure()
                engine._breaker.record_success()

        def observe():
            for _ in range(500):
                health = engine.health()
                if (
                    health.consecutive_failures >= engine._breaker.threshold
                    and not health.breaker_open
                ):
                    torn.append(health)
            stop.set()

        _spawn(hammer, observe)
        assert torn == []


class TestRequireFinite:
    def test_nan_names_argument_and_index(self):
        arr = np.zeros(9)
        arr[4] = np.nan
        with pytest.raises(ParameterError, match=r"'obs'.*NaN.*flat index 4"):
            require_finite("obs", arr)

    def test_inf_detected(self):
        with pytest.raises(ValueError, match="infinite value"):
            require_finite("x", np.array([[0.0, np.inf]]))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError, match="empty"):
            require_finite("x", np.empty(0))

    def test_clean_passes(self):
        require_finite("x", np.ones((3, 2)))  # must not raise


class TestDegradationLadderShape:
    def test_tlr_widens_band_then_falls_to_dense(self):
        steps = degradation_steps(MP_DENSE_TLR, DegradationPolicy())
        assert len(steps) == 2
        assert steps[0].use_tlr  # band widened, structure kept
        band0 = MP_DENSE_TLR.band_size if isinstance(
            MP_DENSE_TLR.band_size, int) else 2
        assert steps[0].band_size > band0
        assert steps[-1].name == "dense-fp64"
        assert not steps[-1].use_mp and not steps[-1].use_tlr
        assert steps[-1].workers == MP_DENSE_TLR.workers

    def test_mp_dense_falls_straight_to_fp64(self):
        steps = degradation_steps(MP_DENSE, DegradationPolicy())
        assert [s.name for s in steps] == ["dense-fp64"]

    def test_every_rung_keeps_the_execution_settings(self):
        for backend, batch in (("process", False), ("thread", True)):
            v = MP_DENSE_TLR.with_(workers=3, backend=backend, batch=batch)
            for step in degradation_steps(v, DegradationPolicy()):
                assert (step.workers, step.backend, step.batch) \
                    == (3, backend, batch), step.name

    def test_dense_fp64_has_nowhere_to_fall(self):
        assert degradation_steps(DENSE_FP64, DegradationPolicy()) == []

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            DegradationPolicy(max_failure_fraction=1.5)
        with pytest.raises(ConfigurationError):
            DegradationPolicy(min_evaluations=0)
        with pytest.raises(ConfigurationError):
            DegradationPolicy(widen_band_factor=1)


class TestResilienceConfig:
    def test_inert_config_is_inert(self):
        cfg = ResilienceConfig()
        assert not cfg.chaos_enabled
        assert not cfg.task_level
        assert not cfg.active
        assert cfg.resolve_chaos() is None
        assert cfg.bind() is cfg

    def test_zero_rate_chaos_stays_disabled(self):
        cfg = ResilienceConfig(chaos=ChaosConfig())
        assert not cfg.chaos_enabled and not cfg.task_level

    def test_layer_activation(self):
        assert ResilienceConfig(retry=FAST_RETRY).task_level
        deg = ResilienceConfig(degradation=DegradationPolicy())
        assert deg.active and not deg.task_level
        assert ResilienceConfig(
            chaos=ChaosConfig(tile_nan_rate=0.1)).task_level

    def test_bind_shares_one_injector(self):
        cfg = ResilienceConfig(chaos=ChaosConfig(tile_nan_rate=0.1))
        bound = cfg.bind()
        assert isinstance(bound.chaos, ChaosInjector)
        assert bound.bind() is bound  # re-binding is a no-op
        assert bound.resolve_chaos() is bound.chaos


class TestChaosInjector:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(tile_nan_rate=1.5)
        with pytest.raises(ConfigurationError):
            ChaosConfig(task_delay_s=-1.0)

    def test_schedule_is_seeded_not_stateful(self):
        """Two injectors with one config fail the identical task set."""
        cfg = ChaosConfig(seed=21, task_fail_rate=0.4)

        def failures(injector):
            epoch = injector.next_epoch()
            failed = set()
            for uid in range(60):
                try:
                    injector.perturb_task(epoch, uid, 1)
                except ChaosError:
                    failed.add(uid)
            return failed

        a, b = failures(ChaosInjector(cfg)), failures(ChaosInjector(cfg))
        assert a == b and 0 < len(a) < 60

    def test_retry_rerolls_the_fate(self):
        """Attempt k+1 draws a fresh decision — the transient model."""
        inj = ChaosInjector(ChaosConfig(seed=21, task_fail_rate=0.5))
        epoch = inj.next_epoch()
        outcomes = set()
        for attempt in range(1, 9):
            try:
                inj.perturb_task(epoch, 3, attempt)
                outcomes.add("ok")
            except ChaosError:
                outcomes.add("fail")
        assert outcomes == {"ok", "fail"}

    def test_overflow_corruption_targets_fp16_only(self):
        inj = ChaosInjector(ChaosConfig(seed=1, tile_overflow_rate=1.0))
        safe = DenseTile(np.eye(4), Precision.FP64)
        assert inj.corrupt_tile(safe, 1, 0, 1) is safe  # untouched
        fp16 = DenseTile(np.eye(4), Precision.FP16)
        hit = inj.corrupt_tile(fp16, 1, 0, 1)
        assert hit is not fp16
        assert np.abs(hit.to_dense64()).max() >= 6.5e4  # overflows binary16
        assert inj.stats.corrupted_tiles == 1

    def test_nan_corruption_is_a_copy(self):
        inj = ChaosInjector(ChaosConfig(seed=1, tile_nan_rate=1.0))
        tile = DenseTile(np.eye(4), Precision.FP64)
        hit = inj.corrupt_tile(tile, 1, 5, 1)
        assert np.isnan(hit.to_dense64()).sum() == 1
        assert np.array_equal(tile.to_dense64(), np.eye(4))  # original intact


# ----------------------------------------------------------------------
# Threaded DAG executor: crashes, chaos, deadlines
# ----------------------------------------------------------------------
class TestExecutorResilience:
    def test_worker_crash_drains_pool(self):
        """A crashing task must propagate its error and join every
        worker — the seed executor deadlocked here (satellite 1).
        Without retry the first call's injection is the failure, at
        either width; a corrupted POTRF output is caught at tile
        ``(0, 0)``."""
        tm = random_spd_tilematrix(96, 16, seed=4)
        before = threading.active_count()
        for workers in (1, 4):
            with pytest.raises(SchedulingError) as excinfo:
                execute_cholesky_parallel(
                    tm.copy(), workers=workers,
                    chaos=ChaosConfig(seed=2, task_fail_rate=1.0),
                )
            assert isinstance(excinfo.value.__cause__, ChaosError)
            with pytest.raises(SchedulingError) as excinfo:
                execute_cholesky_parallel(
                    tm.copy(), workers=workers,
                    chaos=ChaosConfig(seed=2, tile_nan_rate=1.0),
                )
            cause = excinfo.value.__cause__
            assert isinstance(cause, NumericalCorruptionError)
            assert cause.tile_index == (0, 0)
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before:
            assert time.monotonic() < deadline, "worker threads leaked"
            time.sleep(0.01)

    def test_retry_absorbs_transient_chaos_bit_identically(self):
        """Re-rolled attempts recompute the same tiles, so a run whose
        injected failures are all absorbed matches the plain run."""
        from repro.tile import tile_cholesky

        tm = random_spd_tilematrix(96, 16, seed=4)
        ref, _ = tile_cholesky(tm.copy())
        par, report = execute_cholesky_parallel(
            tm, workers=4,
            retry=RetryPolicy(max_attempts=8, base_delay_s=0.0,
                              max_delay_s=0.0),
            chaos=ChaosConfig(seed=6, task_fail_rate=0.2),
        )
        assert report.chaos_events > 0 and report.stats.retries > 0
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), par.to_dense(lower_only=True)
        )

    def test_expired_deadline_cancels_cleanly(self):
        tm = random_spd_tilematrix(96, 16, seed=4)
        before = threading.active_count()
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            execute_cholesky_parallel(tm, workers=4, deadline=Deadline(0.0))
        assert time.monotonic() - t0 < 5.0
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before:
            assert time.monotonic() < deadline, "worker threads leaked"
            time.sleep(0.01)


class TestChaosReproducibility:
    def test_seeded_likelihood_chaos_is_bit_reproducible(self, small):
        """The whole chaos experiment — values, retry tallies and
        injection counts — repeats bit-for-bit."""
        kern, x, z = small

        def one_run():
            injector = ChaosInjector(
                ChaosConfig(seed=17, tile_nan_rate=0.15)
            )
            cfg = ResilienceConfig(retry=FAST_RETRY, chaos=injector)
            result = loglikelihood(
                kern, THETA, x, z, tile_size=16,
                variant="mp-dense-tlr-recover", nugget=NUGGET,
                resilience=cfg,
            )
            return (result.value, result.stats.retries,
                    injector.stats.events)

        first, second = one_run(), one_run()
        assert first == second
        assert first[2] > 0, "chaos at 15% injected nothing"


# ----------------------------------------------------------------------
# Fit path: degradation ladder, budgets, validation
# ----------------------------------------------------------------------
class TestFitDegradation:
    def test_ladder_recovers_finite_loglik_under_fp16_overflow(self, small):
        """With every FP16 tile overflow-corrupted on every attempt,
        only the FP64 rung can complete — and the report must record
        the journey."""
        kern, x, z = small
        fp16_variant = MP_DENSE.with_(
            name="mp-band-fp16", mp_mode="band",
            mp_fp64_band=1, mp_fp32_band=2,
        )
        cfg = ResilienceConfig(
            retry=FAST_RETRY,
            degradation=DegradationPolicy(max_failure_fraction=0.5),
            chaos=ChaosConfig(seed=29, tile_overflow_rate=1.0),
        )
        result = fit_mle(
            kern, x, z, tile_size=16, variant=fp16_variant,
            theta0=THETA, max_iter=3, nugget=NUGGET, resilience=cfg,
        )
        assert np.isfinite(result.loglik)
        assert result.variant == "dense-fp64"
        deg = result.degradation
        assert deg is not None and deg.recovered
        assert deg.variant_path[0] == "mp-band-fp16"
        assert deg.variant_path[-1] == "dense-fp64"
        assert all(a.step == "downgrade" for a in deg.actions)
        assert len(deg.actions) >= 1
        # attempts counts the first rung too: one per variant tried.
        assert deg.attempts == len(deg.variant_path)

    def test_healthy_fit_records_no_degradation(self, small):
        kern, x, z = small
        plain = fit_mle(kern, x, z, tile_size=16, variant="mp-dense-tlr",
                        theta0=THETA, max_iter=4, nugget=NUGGET)
        guarded = fit_mle(
            kern, x, z, tile_size=16, variant="mp-dense-tlr",
            theta0=THETA, max_iter=4, nugget=NUGGET,
            resilience=ResilienceConfig(degradation=DegradationPolicy()),
        )
        assert guarded.degradation is None
        assert guarded.variant == plain.variant
        np.testing.assert_array_equal(guarded.theta, plain.theta)
        assert guarded.loglik == plain.loglik

    def test_zero_time_budget_raises_clearly(self, small):
        kern, x, z = small
        with pytest.raises(ParameterError, match="budget"):
            fit_mle(kern, x, z, tile_size=16, variant="dense-fp64",
                    theta0=THETA, max_iter=3, nugget=NUGGET,
                    time_budget_s=0.0)

    def test_generous_time_budget_changes_nothing(self, small):
        kern, x, z = small
        plain = fit_mle(kern, x, z, tile_size=16, variant="dense-fp64",
                        theta0=THETA, max_iter=3, nugget=NUGGET)
        budgeted = fit_mle(kern, x, z, tile_size=16, variant="dense-fp64",
                           theta0=THETA, max_iter=3, nugget=NUGGET,
                           time_budget_s=300.0)
        np.testing.assert_allclose(budgeted.theta, plain.theta, rtol=1e-12)
        np.testing.assert_allclose(budgeted.loglik, plain.loglik,
                                   rtol=1e-12)


class TestEvaluationEngineHealth:
    def test_health_tracks_failures_and_streaks(self, small):
        kern, x, z = small
        engine = EvaluationEngine(kern, x, z, tile_size=16,
                                  variant="mp-dense-tlr", nugget=NUGGET)
        engine.evaluate(THETA)
        h = engine.health()
        assert (h.calls, h.failures) == (1, 0)
        assert h.ok and h.error_rate == 0.0
        with pytest.raises(ValueError):
            engine.evaluate(np.array([1.0, -0.5, 0.5]))
        h = engine.health()
        assert (h.calls, h.failures, h.consecutive_failures) == (2, 1, 1)
        assert not h.ok and 0.0 < h.error_rate <= 0.5
        assert "1 failure" in h.summary()
        engine.evaluate(THETA)  # success closes the streak
        assert engine.health().consecutive_failures == 0


class TestInputValidation:
    """NaN/inf rejected at the boundary, by name."""

    def test_loglikelihood_rejects_bad_observations(self, small):
        kern, x, z = small
        bad = z.copy()
        bad[5] = np.nan
        with pytest.raises(ValueError, match=r"'z'.*flat index 5"):
            loglikelihood(kern, THETA, x, bad, tile_size=16,
                          variant="dense-fp64", nugget=NUGGET)

    def test_loglikelihood_rejects_bad_locations(self, small):
        kern, x, z = small
        bad = x.copy()
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="'x'"):
            loglikelihood(kern, THETA, bad, z, tile_size=16,
                          variant="dense-fp64", nugget=NUGGET)

    def test_fit_mle_rejects_bad_inputs(self, small):
        kern, x, z = small
        bad = x.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="'x'"):
            fit_mle(kern, bad, z, tile_size=16, variant="dense-fp64",
                    theta0=THETA, max_iter=2, nugget=NUGGET)

    def test_model_surface_rejects_bad_inputs(self, small):
        kern, x, z = small
        model = ExaGeoStatModel(kernel="matern", variant="dense-fp64",
                                tile_size=16, nugget=NUGGET)
        bad_z = z.copy()
        bad_z[1] = np.inf
        with pytest.raises(ValueError, match="'z'"):
            model.fit(x, bad_z, theta0=THETA, max_iter=2)
        model.set_params(THETA, x, z)
        x_new = np.full((4, 2), 0.5)
        bad_new = x_new.copy()
        bad_new[3, 0] = np.nan
        with pytest.raises(ValueError, match="'x_new'"):
            model.predict(bad_new)
        with pytest.raises(ValueError, match="'z_test'"):
            model.score(x_new, np.array([0.0, np.nan, 0.0, 0.0]))

    def test_prediction_engine_rejects_bad_test_points(self, small):
        kern, x, z = small
        factor = loglikelihood(kern, THETA, x, z, tile_size=16,
                               variant="dense-fp64", nugget=NUGGET).factor
        engine = PredictionEngine(kern, THETA, x, z, factor, batch=8)
        with pytest.raises(ValueError, match="'x_test'"):
            engine.predict(np.array([[0.1, np.nan]]))


# ----------------------------------------------------------------------
# Serving path: LRU under threads, batch retry, breaker, deadlines
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_state(pinned):
    kern, x, z, x_test = pinned
    factor = loglikelihood(kern, THETA, x, z, tile_size=30,
                           variant="mp-dense-tlr", nugget=NUGGET).factor
    return kern, x, z, x_test, factor


class TestServingResilience:
    def test_concurrent_predicts_are_consistent(self, serving_state):
        """Hammer one engine from many threads with a cache small
        enough to churn; results must match the serial reference and
        the stats ledger must stay coherent."""
        kern, x, z, x_test, factor = serving_state
        engine = PredictionEngine(
            kern, THETA, x, z, factor, batch=8,
            cross_cache_bytes=24_000,  # ~1-2 entries: forces eviction
        )
        ref = engine.predict(x_test, return_uncertainty=True)
        results, errors = [None] * 8, []

        def hammer(i):
            try:
                results[i] = engine.predict(x_test, return_uncertainty=True)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for res in results:
            np.testing.assert_array_equal(res.mean, ref.mean)
            np.testing.assert_array_equal(res.variance, ref.variance)
        stats = engine.stats()
        assert stats.predict_calls == 9
        assert stats.cross_hits + stats.cross_misses == stats.batches
        assert 0 <= stats.cross_cache_bytes <= 24_000
        assert stats.weight_solves == 1  # amortization survived the race

    def test_batch_retry_absorbs_chaos_bit_identically(self, serving_state):
        kern, x, z, x_test, factor = serving_state
        plain = PredictionEngine(kern, THETA, x, z, factor, batch=8)
        ref = plain.predict(x_test, return_uncertainty=True)
        chaotic = PredictionEngine(
            kern, THETA, x, z, factor, batch=8,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=5, base_delay_s=0.0,
                                  max_delay_s=0.0),
                chaos=ChaosConfig(seed=5, batch_fail_rate=0.5),
            ),
        )
        got = chaotic.predict(x_test, return_uncertainty=True)
        np.testing.assert_array_equal(got.mean, ref.mean)
        np.testing.assert_array_equal(got.variance, ref.variance)
        stats = chaotic.stats()
        assert stats.batch_retries > 0 and stats.failed_calls == 0
        health = chaotic.health()
        assert health.retries == stats.batch_retries and health.ok

    def test_unretried_chaos_surfaces_and_counts(self, serving_state):
        kern, x, z, x_test, factor = serving_state
        engine = PredictionEngine(
            kern, THETA, x, z, factor, batch=8,
            resilience=ResilienceConfig(
                chaos=ChaosConfig(seed=5, batch_fail_rate=1.0),
            ),
        )
        with pytest.raises(ChaosError):
            engine.predict(x_test)
        stats = engine.stats()
        assert stats.failed_calls == 1 and stats.predict_calls == 0

    def test_circuit_breaker_trips_clears_cache_and_recovers(
        self, serving_state
    ):
        kern, x, z, x_test, factor = serving_state
        engine = PredictionEngine(kern, THETA, x, z, factor, batch=8)
        engine.predict(x_test, return_uncertainty=True)  # warm the LRU
        assert engine.stats().cross_cache_bytes > 0
        for _ in range(3):
            with pytest.raises(DeadlineExceededError):
                engine.predict(x_test, deadline_s=0.0)
        health = engine.health()
        assert health.breaker_open and health.breaker_trips == 1
        assert health.consecutive_failures == 3
        # The trip's safe rebuild dropped every cached cross panel.
        assert engine.stats().cross_cache_bytes == 0
        # Half-open: the next clean call closes the breaker.
        engine.predict(x_test)
        health = engine.health()
        assert health.ok and not health.breaker_open
        assert health.breaker_trips == 1
        assert health.failures == 3 and health.calls == 5

    def test_deadline_cancels_without_leaking_threads(self, serving_state):
        """An expired deadline raises promptly, leaves no thread
        behind, and discards any partial arrays."""
        kern, x, z, x_test, factor = serving_state
        engine = PredictionEngine(kern, THETA, x, z, factor, batch=4)
        before = threading.active_count()
        t0 = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            engine.predict(x_test, return_uncertainty=True, deadline_s=0.0)
        assert time.monotonic() - t0 < 5.0
        limit = time.monotonic() + 5.0
        while threading.active_count() > before:
            assert time.monotonic() < limit, "predict leaked threads"
            time.sleep(0.01)
        assert engine.stats().predict_calls == 0

    def test_generous_deadline_changes_nothing(self, serving_state):
        kern, x, z, x_test, factor = serving_state
        engine = PredictionEngine(kern, THETA, x, z, factor, batch=8)
        ref = engine.predict(x_test, return_uncertainty=True)
        got = engine.predict(x_test, return_uncertainty=True,
                             deadline_s=300.0)
        np.testing.assert_array_equal(got.mean, ref.mean)
        np.testing.assert_array_equal(got.variance, ref.variance)


# ----------------------------------------------------------------------
# Pinned bit-identity: resilience off == the pre-PR results
# ----------------------------------------------------------------------
#: Frozen outputs of the pinned dataset (rng(42), 120 points, tile 30).
#: The ``mp-dense-tlr`` ones pin the range-finder compression's bits
#: (tile 30, cap 15: sketch width 19), as they pinned ``gesdd``'s before,
#: and the float64 update formula ``C - (A V_B) U_B^T`` / ``C - A B^T``
#: (the fit's log-likelihood and the variance sum moved in the last bit
#: when it replaced the factor-form updates).  ``THETA``'s nu = 0.5 is a
#: closed form; the fit's later evaluations (nu = 0.42...) generate from
#: the Matern table, which moved the fit's log-likelihood in the last
#: bits once more (theta-hat unchanged).
PINNED_LOGLIK_TLR = -125.01857506084644
PINNED_LOGLIK_DENSE = -125.01857507037556
PINNED_FIT_THETA = (0.9698549256785878, 0.17606490896788304,
                    0.4232580533692424)
PINNED_FIT_LOGLIK = -121.32082011917544
PINNED_FIT_NFEV = 22
PINNED_MEAN_SUM = -12.108876459362989
PINNED_VARIANCE_SUM = 11.353603361709304


class TestPinnedBitIdentity:
    def test_loglikelihood_pinned(self, pinned):
        kern, x, z, _ = pinned
        tlr = loglikelihood(kern, THETA, x, z, tile_size=30,
                            variant="mp-dense-tlr", nugget=NUGGET)
        dense = loglikelihood(kern, THETA, x, z, tile_size=30,
                              variant="dense-fp64", nugget=NUGGET)
        assert tlr.value == PINNED_LOGLIK_TLR
        assert dense.value == PINNED_LOGLIK_DENSE

    def test_inert_hooks_do_not_move_a_bit(self, pinned):
        kern, x, z, _ = pinned
        for cfg in (
            ResilienceConfig(),
            ResilienceConfig(chaos=ChaosConfig()),
            ResilienceConfig(degradation=DegradationPolicy()),
        ):
            got = loglikelihood(kern, THETA, x, z, tile_size=30,
                                variant="mp-dense-tlr", nugget=NUGGET,
                                resilience=cfg)
            assert got.value == PINNED_LOGLIK_TLR

    def test_fit_pinned_with_and_without_inert_hooks(self, pinned):
        kern, x, z, _ = pinned
        for resilience in (None, ResilienceConfig()):
            fit = fit_mle(kern, x, z, tile_size=30, variant="mp-dense-tlr",
                          theta0=THETA, max_iter=10, nugget=NUGGET,
                          resilience=resilience)
            assert tuple(fit.theta) == PINNED_FIT_THETA
            assert fit.loglik == PINNED_FIT_LOGLIK
            assert fit.nfev == PINNED_FIT_NFEV
            assert fit.degradation is None

    def test_predict_pinned_with_and_without_inert_hooks(
        self, serving_state
    ):
        kern, x, z, x_test, factor = serving_state
        # Dataset guard: the pinned constants are meaningless if the
        # generator recipe drifts.
        assert float(x_test.sum()) == 20.796803192033227  # lint: ignore[LINT002]
        for resilience in (None, ResilienceConfig()):
            engine = PredictionEngine(kern, THETA, x, z, factor, batch=16,
                                      resilience=resilience)
            pred = engine.predict(x_test, return_uncertainty=True)
            assert float(pred.mean.sum()) == PINNED_MEAN_SUM
            assert float(pred.variance.sum()) == PINNED_VARIANCE_SUM
