"""Optimizer checkpoint/resume and MLE driver budget guards."""

import json
import os

import numpy as np
import pytest

from repro.core import fit_mle
from repro.core.engine import EvaluationEngine
from repro.data import uniform_locations
from repro.data.synthetic import sample_gaussian_field
from repro.exceptions import (
    ConfigurationError,
    NotPositiveDefiniteError,
    ParameterError,
)
from repro.kernels import ExponentialKernel, MaternKernel
from repro.optim import load_checkpoint, particle_swarm, save_checkpoint
from repro.resilience import DegradationPolicy, ResilienceConfig


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def rosenbrock_batch(pos):
    return [rosenbrock(p) for p in pos]


class TestCheckpointFile:
    def test_missing_file_returns_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "nope.json"), kind="pso") is None

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, kind="nelder-mead", state={"it": 1})
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, kind="pso")

    def test_foreign_file_rejected(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"hello": "world"}')
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, kind="pso")

    def test_corrupt_file_rejected(self, tmp_path):
        path = str(tmp_path / "corrupt.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, kind="pso")

    def test_arrays_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        state = {"a": np.arange(6.0).reshape(2, 3), "n": np.int64(3)}
        save_checkpoint(path, kind="x", state=state)
        loaded = load_checkpoint(path, kind="x")
        np.testing.assert_array_equal(np.asarray(loaded["a"]), state["a"])
        assert loaded["n"] == 3


class TestPSOResume:
    def test_round_trip_equality(self, tmp_path):
        """The swarm *and* its bit-generator state must survive the
        round trip: positions, velocities, bests, and every subsequent
        random draw."""
        bounds = [(-3.0, 3.0), (-3.0, 3.0)]
        path = str(tmp_path / "pso.json")
        kwargs = dict(n_particles=12, seed=4, patience=100)
        full = particle_swarm(rosenbrock_batch, bounds, max_iter=60, **kwargs)
        particle_swarm(
            rosenbrock_batch, bounds, max_iter=25,
            checkpoint_path=path, checkpoint_every=4, **kwargs,
        )
        resumed = particle_swarm(
            rosenbrock_batch, bounds, max_iter=60,
            checkpoint_path=path, checkpoint_every=4, **kwargs,
        )
        assert np.array_equal(full.x, resumed.x)
        assert full.fun == resumed.fun
        assert full.nfev == resumed.nfev
        assert full.history == resumed.history


@pytest.fixture(scope="module")
def small_field():
    gen = np.random.default_rng(11)
    x = gen.uniform(size=(120, 2))
    kernel = MaternKernel()
    theta = np.array([1.0, 0.12, 0.5])
    sigma = kernel.covariance_matrix(theta, x, nugget=1e-6)
    z = np.linalg.cholesky(sigma) @ gen.standard_normal(120)
    return kernel, theta, x, z


class _Crash(Exception):
    """Stands in for a driver killed mid-fit."""


@pytest.fixture
def evaluations(monkeypatch):
    """Count ``EvaluationEngine.evaluate`` calls; ``crash_after[0] = k``
    makes the (k + 1)-th call raise :class:`_Crash`."""
    calls = [0]
    crash_after = [None]
    real = EvaluationEngine.evaluate

    def spy(self, theta, **kwargs):
        if crash_after[0] is not None and calls[0] >= crash_after[0]:
            raise _Crash
        calls[0] += 1
        return real(self, theta, **kwargs)

    monkeypatch.setattr(EvaluationEngine, "evaluate", spy)
    return calls, crash_after


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.theta, want.theta)
    for name in ("loglik", "nfev", "nit", "converged", "history",
                 "failed_evaluations", "stopped_on"):
        assert getattr(got, name) == getattr(want, name), name


class TestFitResume:
    """A checkpoint is the fit's evaluation log; COBYQA is deterministic,
    so a fit replaying the log continues where the logged one stopped."""

    def test_round_trip_equality(self, small_field, tmp_path, evaluations):
        """Interrupted by ``max_iter`` and resumed, the fit equals the
        uninterrupted one — replayed evaluations count toward ``nfev``
        — but runs fewer likelihoods."""
        kernel, theta, x, z = small_field
        calls, _ = evaluations
        path = str(tmp_path / "mle.json")
        whole = fit_mle(kernel, x, z, tile_size=40, theta0=theta, max_iter=20)
        fit_mle(kernel, x, z, tile_size=40, theta0=theta, max_iter=8,
                checkpoint_path=path)
        calls[0] = 0
        resumed = fit_mle(kernel, x, z, tile_size=40, theta0=theta,
                          max_iter=20, checkpoint_path=path)
        assert_same_fit(resumed, whole)
        assert 0 < calls[0] < whole.nfev

    def test_crashed_fit_resumes_bitwise(
        self, small_field, tmp_path, evaluations
    ):
        kernel, theta, x, z = small_field
        calls, crash_after = evaluations
        path = str(tmp_path / "mle.json")
        kwargs = dict(tile_size=40, theta0=theta, max_iter=12)
        whole = fit_mle(kernel, x, z, **kwargs)
        calls[0], crash_after[0] = 0, 9
        with pytest.raises(_Crash):
            fit_mle(kernel, x, z, checkpoint_path=path, **kwargs)
        calls[0], crash_after[0] = 0, None
        resumed = fit_mle(kernel, x, z, checkpoint_path=path, **kwargs)
        assert_same_fit(resumed, whole)
        assert calls[0] == whole.nfev - 9

    def test_checkpointing_does_not_change_result(self, small_field, tmp_path):
        kernel, theta, x, z = small_field
        kwargs = dict(tile_size=40, theta0=theta, max_iter=10)
        plain = fit_mle(kernel, x, z, **kwargs)
        ck = fit_mle(kernel, x, z, checkpoint_path=str(tmp_path / "mle.json"),
                     **kwargs)
        assert_same_fit(ck, plain)

    def test_downgrading_fit_with_checkpoint_equals_without(
        self, tmp_path, monkeypatch
    ):
        """Every ``mp-dense-tlr`` evaluation breaks down, so the fit
        downgrades; the second rung must start its own search rather
        than resume the first rung's log."""
        kernel = ExponentialKernel()
        theta = np.array([1.0, 0.1])
        x = uniform_locations(200, seed=3)
        z = sample_gaussian_field(kernel, theta, x, seed=3)
        real = EvaluationEngine.evaluate

        def evaluate(self, th, **kwargs):
            if self.cfg.name == "mp-dense-tlr":
                raise NotPositiveDefiniteError("forced breakdown")
            return real(self, th, **kwargs)

        monkeypatch.setattr(EvaluationEngine, "evaluate", evaluate)
        policy = DegradationPolicy(max_failure_fraction=0.5, min_evaluations=2)
        kwargs = dict(tile_size=50, variant="mp-dense-tlr", theta0=theta,
                      nugget=1e-8,
                      resilience=ResilienceConfig(degradation=policy))
        plain = fit_mle(kernel, x, z, **kwargs)
        ck = fit_mle(kernel, x, z, checkpoint_path=str(tmp_path / "mle.json"),
                     **kwargs)
        assert plain.degradation.variant_path == [
            "mp-dense-tlr", "mp-dense-tlr+band4"]
        assert ck.degradation.variant_path == plain.degradation.variant_path
        assert_same_fit(ck, plain)
        assert not np.array_equal(ck.theta, theta)

    def test_log_of_another_fit_rejected(self, small_field, tmp_path):
        kernel, theta, x, z = small_field
        path = str(tmp_path / "mle.json")
        fit_mle(kernel, x, z, tile_size=40, theta0=theta, max_iter=2,
                checkpoint_path=path)
        with pytest.raises(ConfigurationError, match="different fit"):
            fit_mle(kernel, x, z, tile_size=40, theta0=theta * 1.1,
                    max_iter=2, checkpoint_path=path)

    def test_nelder_mead_checkpoint_rejected(self, small_field, tmp_path):
        """The optimizer-state checkpoints older fits wrote cannot be
        replayed."""
        kernel, theta, x, z = small_field
        path = str(tmp_path / "mle.json")
        save_checkpoint(path, kind="nelder-mead", state={
            "it": 5, "simplex": np.zeros((4, 3)), "values": np.zeros(4),
            "nfev": 9, "history": [0.0]})
        with pytest.raises(ConfigurationError, match="nelder-mead"):
            fit_mle(kernel, x, z, tile_size=40, theta0=theta, max_iter=2,
                    checkpoint_path=path)

    def test_log_is_keyed_by_variant(self, small_field, tmp_path):
        kernel, theta, x, z = small_field
        path = str(tmp_path / "mle.json")
        fit = fit_mle(kernel, x, z, tile_size=40, theta0=theta, max_iter=2,
                      checkpoint_path=path)
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)["state"]
        assert list(state) == ["dense-fp64"]
        assert len(state["dense-fp64"]) == fit.nfev
        u, value = state["dense-fp64"][0]
        assert len(u) == len(theta)
        assert value == -fit.history[0]


class TestFitBudget:
    def test_max_nfev_stops_with_best_seen(self, small_field):
        kernel, theta, x, z = small_field
        result = fit_mle(kernel, x, z, tile_size=40, theta0=theta, max_nfev=12)
        assert result.stopped_on == "max_nfev"
        assert result.nfev == 12
        assert not result.converged
        assert np.isfinite(result.loglik)

    def test_zero_time_budget_raises(self, small_field):
        kernel, theta, x, z = small_field
        with pytest.raises(ParameterError):
            fit_mle(kernel, x, z, tile_size=40, theta0=theta, time_budget_s=0.0)

    def test_checkpoint_passthrough_resumes(self, small_field, tmp_path):
        kernel, theta, x, z = small_field
        path = str(tmp_path / "mle.json")
        first = fit_mle(
            kernel, x, z, tile_size=40, theta0=theta,
            max_iter=6, checkpoint_path=path,
        )
        assert os.path.exists(path)
        resumed = fit_mle(
            kernel, x, z, tile_size=40, theta0=theta,
            max_iter=12, checkpoint_path=path,
        )
        assert resumed.nit > first.nit

    def test_replayed_evaluations_spend_the_budget(
        self, small_field, tmp_path, evaluations
    ):
        """A resumed fit does not grant itself a fresh ``max_nfev``."""
        kernel, theta, x, z = small_field
        calls, _ = evaluations
        path = str(tmp_path / "mle.json")
        kwargs = dict(tile_size=40, theta0=theta, max_nfev=8)
        first = fit_mle(kernel, x, z, checkpoint_path=path, **kwargs)
        calls[0] = 0
        again = fit_mle(kernel, x, z, checkpoint_path=path, **kwargs)
        assert calls[0] == 0
        assert again.stopped_on == "max_nfev"
        assert_same_fit(again, first)
