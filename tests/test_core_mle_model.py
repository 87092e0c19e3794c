"""Tests for the MLE driver and the ExaGeoStatModel API."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import ExaGeoStatModel
from repro.core import fit_mle
from repro.data import simulate_matern_dataset, soil_moisture_surrogate
from repro.exceptions import ReproError, ShapeError


@pytest.fixture(scope="module")
def dataset():
    return simulate_matern_dataset(220, "medium", seed=99)


class TestFitMLE:
    def test_recovers_parameters_roughly(self, dataset):
        res = fit_mle(
            dataset.kernel, dataset.x, dataset.z,
            tile_size=40, theta0=dataset.theta_true, max_iter=60,
        )
        # Single realization at n=220: generous tolerances.
        assert res.theta[0] == pytest.approx(dataset.theta_true[0], rel=1.0)
        assert res.theta[1] == pytest.approx(dataset.theta_true[1], rel=1.0)
        assert res.loglik > -1e6

    def test_improves_on_initial_guess(self, dataset):
        from repro.core import loglikelihood

        theta0 = np.array([2.0, 0.05, 1.0])
        initial = loglikelihood(
            dataset.kernel, theta0, dataset.x, dataset.z, tile_size=40
        ).value
        res = fit_mle(
            dataset.kernel, dataset.x, dataset.z,
            tile_size=40, theta0=theta0, max_iter=50,
        )
        assert res.loglik >= initial

    def test_variants_agree(self, dataset):
        """Table I's core claim at laptop scale: the three variants land
        on nearly the same estimates."""
        results = {
            v: fit_mle(
                dataset.kernel, dataset.x, dataset.z,
                tile_size=40, theta0=dataset.theta_true, max_iter=40,
                variant=v,
            )
            for v in ("dense-fp64", "mp-dense", "mp-dense-tlr")
        }
        base = results["dense-fp64"].theta
        for name, res in results.items():
            np.testing.assert_allclose(res.theta, base, rtol=0.2)

    def test_history_monotone_nonincreasing_best(self, dataset):
        res = fit_mle(
            dataset.kernel, dataset.x, dataset.z,
            tile_size=40, theta0=dataset.theta_true, max_iter=30,
        )
        # history records the best loglik per iteration: non-decreasing.
        hist = res.history
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))

    def test_counts_failed_evaluations(self, dataset):
        res = fit_mle(
            dataset.kernel, dataset.x, dataset.z,
            tile_size=40, theta0=dataset.theta_true, max_iter=10,
        )
        assert res.failed_evaluations >= 0
        assert res.nfev > 0

    def test_signature_has_two_optimizer_settings(self):
        """COBYQA's trust radius runs from a fixed 0.3 down to ``xatol``
        and ``max_iter`` caps its iterations: nothing else to set."""
        assert list(inspect.signature(fit_mle).parameters) == [
            "kernel", "x", "z", "tile_size", "variant", "theta0", "nugget",
            "max_iter", "xatol", "max_nfev", "time_budget_s",
            "checkpoint_path", "cache", "resilience", "telemetry",
        ]

    def test_import_leaves_scipy_optimize_unloaded(self):
        """``scipy.optimize`` costs every ``import repro`` ~140 ms; only
        a fit imports it (a fresh interpreter: this one has it)."""
        script = (
            "import sys, repro, repro.core, repro.optim\n"
            "sys.exit('scipy.optimize' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0


class TestExaGeoStatModel:
    def test_fit_predict_workflow(self):
        data = soil_moisture_surrogate(n_train=300, n_test=40, seed=2)
        model = ExaGeoStatModel(kernel="matern", variant="mp-dense-tlr",
                                tile_size=40)
        model.fit(data.x_train, data.z_train,
                  theta0=data.theta_true, max_iter=30)
        assert model.fitted
        pred = model.predict(data.x_test, return_uncertainty=True)
        assert pred.mean.shape == (40,)
        assert np.all(pred.variance >= -1e-9)
        mspe = model.score(data.x_test, data.z_test)
        assert mspe < np.mean(data.z_test**2)

    def test_summary_layout(self):
        data = soil_moisture_surrogate(n_train=250, n_test=30, seed=3)
        model = ExaGeoStatModel(tile_size=40)
        model.fit(data.x_train, data.z_train,
                  theta0=data.theta_true, max_iter=20)
        s = model.summary()
        assert {"variant", "loglik", "variance", "range", "smoothness"} <= set(s)
        assert s["n"] == 250

    def test_predict_before_fit_raises(self):
        model = ExaGeoStatModel()
        with pytest.raises(ReproError):
            model.predict(np.zeros((3, 2)))

    def test_set_params_skips_fitting(self):
        data = soil_moisture_surrogate(n_train=200, n_test=30, seed=4)
        model = ExaGeoStatModel(tile_size=40)
        model.set_params(data.theta_true, data.x_train, data.z_train)
        mspe = model.score(data.x_test, data.z_test)
        assert mspe < np.mean(data.z_test**2)

    def test_unknown_kernel_alias(self):
        with pytest.raises(ShapeError):
            ExaGeoStatModel(kernel="rbf-magic")

    def test_ordering_is_internal(self):
        """Shuffled input produces the same predictions (the model
        reorders internally)."""
        data = soil_moisture_surrogate(n_train=200, n_test=20, seed=6)
        gen = np.random.default_rng(0)
        perm = gen.permutation(200)
        m1 = ExaGeoStatModel(tile_size=40)
        m1.set_params(data.theta_true, data.x_train, data.z_train)
        m2 = ExaGeoStatModel(tile_size=40)
        m2.set_params(data.theta_true, data.x_train[perm], data.z_train[perm])
        p1 = m1.predict(data.x_test).mean
        p2 = m2.predict(data.x_test).mean
        np.testing.assert_allclose(p1, p2, atol=1e-8)

    def test_mismatched_xy_lengths(self):
        model = ExaGeoStatModel()
        with pytest.raises(ShapeError):
            model.fit(np.zeros((5, 2)), np.zeros(4))

    def test_space_time_model(self):
        from repro.data import et_surrogate

        data = et_surrogate(n_space=40, n_slots=6, n_test=40, seed=8)
        model = ExaGeoStatModel(kernel="gneiting", variant="mp-dense",
                                tile_size=40, nugget=1e-8)
        model.set_params(data.theta_true, data.x_train, data.z_train)
        mspe = model.score(data.x_test, data.z_test)
        assert mspe < np.mean(data.z_test**2)
