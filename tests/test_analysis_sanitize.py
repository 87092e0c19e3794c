"""Tests for the dynamic concurrency sanitizer (repro.analysis.sanitize)."""

import json
import threading

import numpy as np
import pytest

from repro.analysis import sanitize as S
from repro.analysis.diagnostics import Severity
from repro.core.likelihood import loglikelihood
from repro.core.serving import PredictionEngine
from repro.core.variants import get_variant
from repro.exceptions import DeadlockDetectedError
from repro.kernels import MaternKernel
from repro.resilience.health import CircuitBreaker
from repro.tile.geometry import GeometryCache
from repro.tile.matrix import TileMatrix


@pytest.fixture
def sanitizer():
    """Enabled sanitizer state, always restored on exit."""
    state = S.enable_sanitizer()
    try:
        yield state
    finally:
        S.disable_sanitizer()


def _race_rules(report):
    return sorted({d.rule for d in report.diagnostics if d.rule.startswith("RACE")})


def _spawn(*fns):
    threads = [threading.Thread(target=fn) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestSyntheticRaces:
    def test_write_write_race_detected(self, sanitizer):
        # Raw threads with no locks and no instrumented fork/join edges:
        # the two writes are unordered by construction, so detection is
        # deterministic regardless of the actual interleaving.
        def writer():
            S.sanitized_access("k", "fixture.counter", write=True, site="writer")

        _spawn(writer, writer)
        report = sanitizer.report()
        assert "RACE001" in _race_rules(report)
        assert any(d.severity is Severity.ERROR for d in report.diagnostics)

    def test_write_write_race_deterministic_across_runs(self):
        def one_run():
            state = S.enable_sanitizer()
            try:
                def writer():
                    S.sanitized_access(
                        "k", "fixture.counter", write=True, site="writer"
                    )

                _spawn(writer, writer)
                return _race_rules(state.report())
            finally:
                S.disable_sanitizer()

        runs = [one_run() for _ in range(5)]
        assert all(r == runs[0] for r in runs)
        assert "RACE001" in runs[0]

    def test_race_in_both_text_and_json_output(self, sanitizer):
        def writer():
            S.sanitized_access("k", "fixture.counter", write=True, site="writer")

        _spawn(writer, writer)
        report = sanitizer.report()
        assert "RACE001" in report.render_text()
        payload = json.loads(report.to_json())
        assert "RACE001" in {f["rule"] for f in payload["findings"]}
        assert payload["ok"] is False

    def test_read_write_race_detected(self, sanitizer):
        def writer():
            S.sanitized_access("k", "fixture.value", write=True, site="writer")

        def reader():
            S.sanitized_access("k", "fixture.value", write=False, site="reader")

        _spawn(writer, reader)
        rules = _race_rules(sanitizer.report())
        assert "RACE001" in rules or "RACE002" in rules

    def test_common_lock_orders_accesses(self, sanitizer):
        lock = S.sanitized_lock(name="fixture.lock")

        def writer():
            with lock:
                S.sanitized_access("k", "fixture.counter", write=True, site="w")

        _spawn(writer, writer)
        report = sanitizer.report()
        assert report.errors == []

    def test_single_thread_never_races(self, sanitizer):
        for _ in range(10):
            S.sanitized_access("k", "fixture.solo", write=True, site="main")
        assert sanitizer.report().diagnostics == []


class TestLocksetDiscipline:
    def test_hb_only_ordering_warns_race003(self, sanitizer):
        # Thread A writes, then (after joining A) thread B writes: a
        # real-time ordering the sanitizer cannot attribute to any lock
        # or instrumented edge... so stage it with an instrumented lock
        # used only for the handoff, not around the accesses.
        handoff = S.sanitized_lock(name="fixture.handoff")
        handoff.acquire()

        def first():
            S.sanitized_access("k", "fixture.staged", write=True, site="a")
            handoff.release()  # publishes a's clock

        def second():
            handoff.acquire()  # joins a's clock -> ordered, but lockset
            handoff.release()  # intersection at the accesses is empty
            S.sanitized_access("k", "fixture.staged", write=True, site="b")

        _spawn(first, second)
        report = sanitizer.report()
        assert report.errors == []
        assert "RACE003" in _race_rules(report)

    def test_expect_lock_false_exempts_race003(self, sanitizer):
        handoff = S.sanitized_lock(name="fixture.handoff")
        handoff.acquire()

        def first():
            S.sanitized_access(
                "k", "fixture.tile", write=True, site="a", expect_lock=False
            )
            handoff.release()

        def second():
            handoff.acquire()
            handoff.release()
            S.sanitized_access(
                "k", "fixture.tile", write=True, site="b", expect_lock=False
            )

        _spawn(first, second)
        assert sanitizer.report().diagnostics == []


class TestLockProtocol:
    def test_reacquire_raises_deadlock_error(self, sanitizer):
        lock = S.sanitized_lock(name="fixture.lock")
        with lock:
            with pytest.raises(DeadlockDetectedError):
                lock.acquire()
        report = sanitizer.report()
        assert "RACE005" in _race_rules(report)

    def test_rlock_reacquire_allowed(self, sanitizer):
        lock = S.sanitized_lock(threading.RLock(), name="fixture.rlock")
        with lock:
            with lock:
                pass
        assert _race_rules(sanitizer.report()) == []

    def test_nonblocking_probe_never_deadlock_errors(self, sanitizer):
        # Condition's _is_owned fallback probes with acquire(False); a
        # held lock must answer False, not raise.
        lock = S.sanitized_lock(name="fixture.lock")
        with lock:
            assert lock.acquire(False) is False
        assert _race_rules(sanitizer.report()) == []

    def test_lock_order_inversion_warns(self, sanitizer):
        a = S.sanitized_lock(name="fixture.a")
        b = S.sanitized_lock(name="fixture.b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        report = sanitizer.report()
        assert "RACE004" in _race_rules(report)
        assert report.errors == []  # inversion is a warning

    def test_consistent_order_no_inversion(self, sanitizer):
        a = S.sanitized_lock(name="fixture.a")
        b = S.sanitized_lock(name="fixture.b")
        for _ in range(3):
            with a:
                with b:
                    pass
        assert _race_rules(sanitizer.report()) == []

    def test_condition_integration(self, sanitizer):
        # A Condition wrapping a sanitized lock exercises the
        # _release_save/_acquire_restore/_is_owned fallbacks.
        lock = S.sanitized_lock(name="fixture.cond")
        cond = threading.Condition(lock)
        seen = []

        def waiter():
            with cond:
                while not seen:
                    cond.wait(timeout=5.0)

        def notifier():
            with cond:
                seen.append(1)
                cond.notify_all()

        _spawn(waiter, notifier)
        assert sanitizer.report().errors == []


class TestForkJoinEdges:
    def test_pool_fork_join_orders_accesses(self, sanitizer):
        from concurrent.futures import ThreadPoolExecutor

        def work():
            S.sanitized_access("k", "fixture.pooled", write=True, site="task")

        with ThreadPoolExecutor(max_workers=2) as pool:
            pool.submit(work).result()
            pool.submit(work).result()
        # Each write is ordered through submit (fork) and result (join),
        # so no error; the lockset is empty but single... per-thread
        # serialization keeps RACE003 away only if the same pool thread
        # ran both — accept either outcome but never an error.
        assert sanitizer.report().errors == []

    def test_shutdown_joins_unconsumed_futures(self, sanitizer):
        from concurrent.futures import ThreadPoolExecutor

        def work():
            S.sanitized_access("k", "fixture.dropped", write=True, site="task")

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(work)  # result() never called
        # The shutdown join still publishes the worker's clock.
        S.sanitized_access("k", "fixture.dropped", write=True, site="main")
        assert sanitizer.report().errors == []


class TestInstrumentationLifecycle:
    def test_patches_fully_restored(self):
        before = (
            TileMatrix.get, TileMatrix.set,
            GeometryCache.__init__, PredictionEngine.__init__,
            CircuitBreaker.__init__,
        )
        S.enable_sanitizer()
        try:
            assert TileMatrix.get is not before[0]
            assert S.sanitizer_active()
        finally:
            S.disable_sanitizer()
        after = (
            TileMatrix.get, TileMatrix.set,
            GeometryCache.__init__, PredictionEngine.__init__,
            CircuitBreaker.__init__,
        )
        assert after == before
        assert not S.sanitizer_active()

    def test_double_enable_rejected(self):
        S.enable_sanitizer()
        try:
            with pytest.raises(RuntimeError):
                S.enable_sanitizer()
        finally:
            S.disable_sanitizer()

    def test_access_is_noop_when_disabled(self):
        S.sanitized_access("k", "fixture.off", write=True)
        assert S.sanitizer_report().diagnostics == []


def _fit_and_predict():
    """A small threaded fit + parallel predict with NO sanitizer hooks
    in play — the bit-identity reference path."""
    kernel = MaternKernel()
    theta = np.array([1.0, 0.1, 0.5])
    gen = np.random.default_rng(7)
    x = gen.uniform(size=(64, 2))
    z = gen.standard_normal(64)
    x_test = gen.uniform(size=(32, 2))
    result = loglikelihood(
        kernel, theta, x, z, tile_size=16,
        variant=get_variant("dense-fp64").with_(workers=2),
        nugget=1.0e-8, cache=GeometryCache(),
    )
    engine = PredictionEngine(
        kernel, theta, x, z, result.factor,
        cache=GeometryCache(), batch=8,
    )
    pred = engine.predict(x_test, return_uncertainty=True)
    return result.value, pred.mean, pred.variance


class TestBitIdentity:
    def test_sanitizer_off_paths_bit_identical(self):
        value_a, mean_a, var_a = _fit_and_predict()
        # An enable/disable cycle in between must leave no residue.
        state = S.enable_sanitizer()
        try:
            assert state is not None
        finally:
            S.disable_sanitizer()
        value_b, mean_b, var_b = _fit_and_predict()
        assert value_a == value_b
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(var_a, var_b)

    def test_sanitized_run_same_numerics(self):
        # Instrumentation observes; it must not perturb the numbers.
        value_a, mean_a, var_a = _fit_and_predict()
        S.enable_sanitizer()
        try:
            value_b, mean_b, var_b = _fit_and_predict()
        finally:
            S.disable_sanitizer()
        assert value_a == value_b
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(var_a, var_b)


class TestWorkload:
    def test_clean_tree_reports_zero_races(self):
        report = S.run_sanitized_workload()
        assert _race_rules(report) == []
        assert report.ok
        # The coverage line proves the instrumentation actually saw the
        # engines run.
        info = [d for d in report.diagnostics if d.rule == "SANITIZE"]
        assert len(info) == 1
        assert "access event" in info[0].message

    def test_workload_deterministic_at_fixed_seed(self):
        first = _race_rules(S.run_sanitized_workload(seed=123))
        second = _race_rules(S.run_sanitized_workload(seed=123))
        assert first == second == []

    def test_workload_via_cli_json(self, capsys):
        from repro.__main__ import main as cli_main

        code = cli_main(["analyze", "--sanitize-run", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        rules = {f["rule"] for f in payload["findings"]}
        assert "SANITIZE" in rules
        assert not any(r.startswith("RACE") for r in rules)


class TestBreakerSnapshot:
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
