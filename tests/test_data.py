"""Tests for location generators, GRF sampling, surrogates, splits,
and preprocessing."""

import numpy as np
import pytest

from repro.data import (
    CORRELATION_RANGES,
    ET_THETA,
    ET_THETA_PAPER,
    SOIL_MOISTURE_THETA,
    detrend_linear,
    et_raw_panel,
    et_surrogate,
    gaussianity_diagnostics,
    monthly_climatology_residuals,
    region_locations,
    sample_gaussian_field,
    simulate_matern_dataset,
    soil_moisture_surrogate,
    space_time_locations,
    train_test_split,
    uniform_locations,
)
from repro.exceptions import ShapeError


class TestLocations:
    def test_uniform_count_and_box(self):
        x = uniform_locations(100, seed=1, aspect=2.0)
        assert x.shape == (100, 2)
        assert x[:, 0].max() <= 2.0 and x[:, 1].max() <= 1.0

    def test_uniform_seeded(self):
        np.testing.assert_array_equal(
            uniform_locations(10, seed=3), uniform_locations(10, seed=3)
        )

    def test_region_aspect(self):
        x = region_locations(500, "central_asia", seed=5)
        assert x[:, 0].max() > 1.2  # wide region

    def test_unknown_region(self):
        with pytest.raises(ShapeError):
            region_locations(10, "atlantis")

    def test_space_time_stack(self):
        x = space_time_locations(10, 4, seed=6)
        assert x.shape == (40, 3)
        np.testing.assert_array_equal(np.unique(x[:, 2]), [0.0, 1.0, 2.0, 3.0])
        # Same spatial points in every slot.
        np.testing.assert_array_equal(x[:10, :2], x[10:20, :2])


class TestSampling:
    def test_zero_mean_unit_variance_statistics(self, matern):
        theta = np.array([1.0, 0.05, 0.5])
        x = uniform_locations(300, seed=7)
        fields = sample_gaussian_field(matern, theta, x, seed=8, size=50)
        assert fields.shape == (50, 300)
        assert abs(fields.mean()) < 0.05
        assert fields.var() == pytest.approx(1.0, rel=0.15)

    def test_single_realization_1d(self, matern):
        x = uniform_locations(50, seed=9)
        z = sample_gaussian_field(matern, np.array([1.0, 0.1, 0.5]), x, seed=10)
        assert z.shape == (50,)

    def test_seeded_reproducible(self, matern):
        x = uniform_locations(40, seed=11)
        theta = np.array([1.0, 0.1, 0.5])
        z1 = sample_gaussian_field(matern, theta, x, seed=12)
        z2 = sample_gaussian_field(matern, theta, x, seed=12)
        np.testing.assert_array_equal(z1, z2)

    def test_empirical_covariance_matches(self, matern):
        """Sample covariance over many replicates approaches Sigma."""
        theta = np.array([1.0, 0.2, 0.5])
        x = uniform_locations(30, seed=13)
        fields = sample_gaussian_field(matern, theta, x, seed=14, size=3000)
        emp = np.cov(fields.T)
        sigma = matern.covariance_matrix(theta, x)
        assert np.max(np.abs(emp - sigma)) < 0.15

    def test_matern_dataset_labels(self):
        data = simulate_matern_dataset(60, "weak", seed=15)
        assert data.theta_true[1] == CORRELATION_RANGES["weak"]
        assert data.n == 60


class TestSplit:
    def test_sizes_and_disjoint(self):
        x = uniform_locations(50, seed=16)
        z = np.arange(50, dtype=float)
        xtr, ztr, xte, zte = train_test_split(x, z, n_test=10, seed=17)
        assert len(xtr) == 40 and len(xte) == 10
        all_z = np.sort(np.concatenate([ztr, zte]))
        np.testing.assert_array_equal(all_z, z)

    def test_invalid_n_test(self):
        x = uniform_locations(10, seed=18)
        with pytest.raises(ShapeError):
            train_test_split(x, np.zeros(10), n_test=10)


class TestSurrogates:
    def test_soil_moisture_uses_table1_theta(self):
        np.testing.assert_allclose(SOIL_MOISTURE_THETA, [0.672, 0.173, 0.4358])
        data = soil_moisture_surrogate(n_train=150, n_test=20, seed=19)
        assert data.n_train == 150 and data.n_test == 20
        np.testing.assert_array_equal(data.theta_true, SOIL_MOISTURE_THETA)

    def test_soil_moisture_variance_scale(self):
        data = soil_moisture_surrogate(n_train=600, n_test=60, seed=20)
        assert data.z_train.var() == pytest.approx(0.672, rel=0.5)

    def test_et_theta_clamped_but_paper_recorded(self):
        assert ET_THETA_PAPER[4] == pytest.approx(3.4941)
        assert 0 < ET_THETA[4] <= 1.0
        np.testing.assert_array_equal(ET_THETA[[0, 1, 2, 3, 5]],
                                      ET_THETA_PAPER[[0, 1, 2, 3, 5]])

    def test_et_surrogate_shapes(self):
        data = et_surrogate(n_space=30, n_slots=6, n_test=30, seed=21)
        assert data.x_train.shape[1] == 3
        assert data.n_train == 150
        assert len(data.x_test) == 30


class TestPreprocess:
    def test_climatology_residuals(self):
        history = np.ones((20, 12, 5)) * np.arange(12)[None, :, None]
        target = np.arange(12)[:, None] * np.ones((12, 5)) + 2.0
        resid = monthly_climatology_residuals(history, target)
        np.testing.assert_allclose(resid, 2.0)

    def test_climatology_shape_check(self):
        with pytest.raises(ShapeError):
            monthly_climatology_residuals(np.ones((5, 12, 4)), np.ones((12, 3)))

    def test_detrend_removes_linear_surface(self, rng):
        locs = rng.uniform(size=(80, 2))
        values = 3.0 + 2.0 * locs[:, 0] - 1.5 * locs[:, 1]
        resid = detrend_linear(values, locs)
        np.testing.assert_allclose(resid, 0.0, atol=1e-10)

    def test_detrend_preserves_stationary_part(self, rng):
        locs = rng.uniform(size=(100, 2))
        noise = rng.standard_normal(100)
        values = noise + 5.0 * locs[:, 0]
        resid = detrend_linear(values, locs)
        assert np.corrcoef(resid, locs[:, 0])[0, 1] == pytest.approx(0.0, abs=0.05)

    def test_detrend_multi_field(self, rng):
        locs = rng.uniform(size=(50, 2))
        fields = np.vstack([locs[:, 0], locs[:, 1]])
        resid = detrend_linear(fields, locs)
        assert resid.shape == (2, 50)
        np.testing.assert_allclose(resid, 0.0, atol=1e-10)

    def test_gaussianity_diagnostics_on_normal(self, rng):
        diag = gaussianity_diagnostics(rng.standard_normal(5000))
        assert abs(diag["skewness"]) < 0.15
        assert abs(diag["excess_kurtosis"]) < 0.3

    def test_full_et_pipeline_recovers_stationarity(self):
        """Raw panel -> climatology removal -> detrend yields residuals
        whose spatial linear trend is gone and whose moments are
        near-Gaussian (the paper's preprocessing claim)."""
        space, history, target = et_raw_panel(n_space=40, n_years=8, seed=22)
        resid = monthly_climatology_residuals(history, target)
        detrended = detrend_linear(resid, space)
        for month in range(12):
            corr_x = np.corrcoef(detrended[month], space[:, 0])[0, 1]
            assert abs(corr_x) < 0.3
        diag = gaussianity_diagnostics(detrended)
        assert abs(diag["skewness"]) < 1.0
