"""Tests for MLE uncertainty quantification and conditional simulation."""

import numpy as np
import pytest

from repro.core import (
    conditional_simulation,
    kriging_predict,
    loglikelihood,
    mle_uncertainty,
    observed_information,
    profile_likelihood,
)
from repro.exceptions import ParameterError
from repro.kernels import MaternKernel
from repro.ordering import order_points


@pytest.fixture(scope="module")
def fitted():
    """A dataset with its MLE (computed once)."""
    from repro.core import fit_mle
    from repro.data import sample_gaussian_field

    kern = MaternKernel()
    gen = np.random.default_rng(404)
    x = gen.uniform(size=(220, 2))
    x = x[order_points(x, "morton")]
    theta_true = np.array([1.0, 0.1, 0.5])
    z = sample_gaussian_field(kern, theta_true, x, seed=405)
    res = fit_mle(kern, x, z, tile_size=44, theta0=theta_true, max_iter=80)
    return kern, x, z, theta_true, res.theta


class TestObservedInformation:
    def test_symmetric_positive_definite(self, fitted):
        kern, x, z, _, theta_hat = fitted
        info = observed_information(kern, theta_hat, x, z, tile_size=44)
        np.testing.assert_allclose(info, info.T, atol=1e-6 * np.abs(info).max())
        assert np.linalg.eigvalsh(info).min() > 0.0

    def test_scales_with_data(self, fitted):
        """Twice the data ≈ twice the information (order of magnitude)."""
        from repro.data import sample_gaussian_field

        kern, x, z, theta_true, theta_hat = fitted
        gen = np.random.default_rng(406)
        x2 = gen.uniform(size=(440, 2))
        x2 = x2[order_points(x2, "morton")]
        z2 = sample_gaussian_field(kern, theta_true, x2, seed=407)
        i1 = observed_information(kern, theta_true, x, z, tile_size=44)
        i2 = observed_information(kern, theta_true, x2, z2, tile_size=44)
        # Compare the variance curvature (most stable entry).
        assert i2[0, 0] > i1[0, 0]


    def test_default_call_builds_geometry_once(self, fitted, monkeypatch):
        """Without ``cache=`` the 1 + 2p + 2p(p-1) evaluations share one
        engine's geometry, and the Hessian is the one the uncached
        evaluations give, bit for bit."""
        import repro.tile.geometry as geometry
        from repro.core.uq import _steps

        kern, x, z, _, theta_hat = fitted
        builds = []
        build = geometry.build_tile_geometry
        monkeypatch.setattr(
            geometry, "build_tile_geometry",
            lambda *a, **k: builds.append(1) or build(*a, **k),
        )
        info = observed_information(kern, theta_hat, x, z, tile_size=44)
        assert len(builds) == 1
        profile = profile_likelihood(
            kern, theta_hat, x, z, "range", [0.08, 0.1], tile_size=44)
        assert len(builds) == 2

        def f(theta):
            return loglikelihood(kern, theta, x, z, tile_size=44).value

        assert profile[1] == f(np.array([theta_hat[0], 0.1, theta_hat[2]]))
        p, h = len(theta_hat), _steps(kern, theta_hat, 1.0e-3)
        eye = np.eye(p)
        for i in range(p):
            for j in range(i, p):
                ei, ej = h[i] * eye[i], h[j] * eye[j]
                if i == j:
                    want = (
                        f(theta_hat + ei) - 2.0 * f(theta_hat) + f(theta_hat - ei)
                    ) / h[i] ** 2
                else:
                    want = (
                        f(theta_hat + ei + ej) - f(theta_hat + ei - ej)
                        - f(theta_hat - ei + ej) + f(theta_hat - ei - ej)
                    ) / (4.0 * h[i] * h[j])
                assert info[i, j] == info[j, i] == -want


class TestMLEUncertainty:
    def test_intervals_cover_truth(self, fitted):
        kern, x, z, theta_true, theta_hat = fitted
        uq = mle_uncertainty(kern, theta_hat, x, z, tile_size=44, level=0.99)
        for k in range(3):
            assert uq.lower[k] <= theta_true[k] * 1.5
        # At 99%, truth inside the interval for at least 2 of 3 params
        # (single realization, small n).
        inside = sum(
            uq.lower[k] <= theta_true[k] <= uq.upper[k] for k in range(3)
        )
        assert inside >= 2

    def test_se_positive_and_finite(self, fitted):
        kern, x, z, _, theta_hat = fitted
        uq = mle_uncertainty(kern, theta_hat, x, z, tile_size=44)
        assert np.all(uq.standard_errors > 0)
        assert np.all(np.isfinite(uq.standard_errors))

    def test_named_interval(self, fitted):
        kern, x, z, _, theta_hat = fitted
        uq = mle_uncertainty(kern, theta_hat, x, z, tile_size=44)
        lo, hi = uq.interval("range")
        assert lo < theta_hat[1] < hi

    def test_summary_rows(self, fitted):
        kern, x, z, _, theta_hat = fitted
        uq = mle_uncertainty(kern, theta_hat, x, z, tile_size=44)
        rows = uq.summary_rows()
        assert len(rows) == 3
        assert rows[0][0] == "variance"

    def test_variants_give_close_uncertainty(self, fitted):
        """UQ under MP+TLR matches dense FP64 (the approximations do
        not distort the curvature)."""
        kern, x, z, _, theta_hat = fitted
        u1 = mle_uncertainty(kern, theta_hat, x, z, tile_size=44,
                             variant="dense-fp64")
        u2 = mle_uncertainty(kern, theta_hat, x, z, tile_size=44,
                             variant="mp-dense-tlr")
        np.testing.assert_allclose(
            u1.standard_errors, u2.standard_errors, rtol=0.2
        )


class TestProfileLikelihood:
    def test_peaks_near_theta_hat(self, fitted):
        kern, x, z, _, theta_hat = fitted
        values = np.linspace(0.5 * theta_hat[1], 2.0 * theta_hat[1], 9)
        prof = profile_likelihood(
            kern, theta_hat, x, z, "range", values, tile_size=44
        )
        best = values[int(np.argmax(prof))]
        assert abs(best - theta_hat[1]) <= 0.6 * theta_hat[1]

    def test_unknown_parameter(self, fitted):
        kern, x, z, _, theta_hat = fitted
        with pytest.raises(ParameterError):
            profile_likelihood(
                kern, theta_hat, x, z, "wiggliness", np.array([1.0]),
                tile_size=44,
            )


class TestConditionalSimulation:
    @pytest.fixture(scope="class")
    def setup(self, fitted):
        kern, x, z, theta_true, theta_hat = fitted
        gen = np.random.default_rng(408)
        x_test = gen.uniform(size=(30, 2))
        factor = loglikelihood(kern, theta_hat, x, z, tile_size=44).factor
        return kern, x, z, theta_hat, x_test, factor

    def test_moments_match_kriging(self, setup):
        kern, x, z, theta_hat, x_test, factor = setup
        draws = conditional_simulation(
            kern, theta_hat, x, z, x_test, factor, size=400, seed=1
        )
        pred = kriging_predict(
            kern, theta_hat, x, z, x_test, factor, return_uncertainty=True
        )
        se = pred.standard_error()
        # Monte Carlo error at 400 draws: ~3 sd tolerance.
        np.testing.assert_allclose(
            draws.mean(axis=0), pred.mean, atol=4 * se.max() / np.sqrt(400) * 3 + 0.05
        )
        np.testing.assert_allclose(draws.std(axis=0), se, atol=0.12)

    def test_exact_at_training_points(self, setup):
        kern, x, z, theta_hat, _, factor = setup
        draws = conditional_simulation(
            kern, theta_hat, x, z, x[:5], factor, size=20, seed=2
        )
        np.testing.assert_allclose(
            draws, np.tile(z[:5], (20, 1)), atol=1e-3
        )

    def test_single_draw_shape(self, setup):
        kern, x, z, theta_hat, x_test, factor = setup
        one = conditional_simulation(
            kern, theta_hat, x, z, x_test, factor, seed=3
        )
        assert one.shape == (30,)

    def test_seeded_reproducible(self, setup):
        kern, x, z, theta_hat, x_test, factor = setup
        d1 = conditional_simulation(
            kern, theta_hat, x, z, x_test, factor, size=3, seed=4
        )
        d2 = conditional_simulation(
            kern, theta_hat, x, z, x_test, factor, size=3, seed=4
        )
        np.testing.assert_array_equal(d1, d2)

    def test_dimension_check(self, setup):
        from repro.exceptions import ShapeError

        kern, x, z, theta_hat, x_test, factor = setup
        with pytest.raises(ShapeError):
            conditional_simulation(
                kern, theta_hat, x, z[:10], x_test, factor
            )
