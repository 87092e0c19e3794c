"""Tests for tiled triangular solves and logdet."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tile import (
    backward_solve,
    build_planned_covariance,
    forward_solve,
    tile_apply,
    tile_cholesky,
    tile_logdet,
    DenseTile,
    LowRankTile,
)
from tests.conftest import random_spd_tilematrix


@pytest.fixture(scope="module")
def factored():
    tm = random_spd_tilematrix(70, 16, seed=9)
    dense = tm.to_dense()
    fac, _ = tile_cholesky(tm)
    return fac, dense


class TestTileApply:
    def test_dense(self, rng):
        a = rng.standard_normal((5, 4))
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(tile_apply(DenseTile(a), x), a @ x)
        y = rng.standard_normal((5, 2))
        np.testing.assert_allclose(
            tile_apply(DenseTile(a), y, transpose=True), a.T @ y
        )

    def test_low_rank(self, rng):
        u = rng.standard_normal((5, 2))
        v = rng.standard_normal((4, 2))
        t = LowRankTile(u, v)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(tile_apply(t, x), u @ v.T @ x)
        y = rng.standard_normal(5)
        np.testing.assert_allclose(
            tile_apply(t, y, transpose=True), v @ u.T @ y
        )

    def test_zero_rank(self):
        t = LowRankTile(np.zeros((5, 0)), np.zeros((4, 0)))
        out = tile_apply(t, np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(5))


class TestSolves:
    def test_forward(self, factored, rng):
        fac, dense = factored
        ref = np.linalg.cholesky(dense)
        b = rng.standard_normal(70)
        y = forward_solve(fac, b)
        np.testing.assert_allclose(ref @ y, b, atol=1e-10)

    def test_backward(self, factored, rng):
        fac, dense = factored
        ref = np.linalg.cholesky(dense)
        b = rng.standard_normal(70)
        x = backward_solve(fac, b)
        np.testing.assert_allclose(ref.T @ x, b, atol=1e-10)

    def test_full_solve_residual(self, factored, rng):
        fac, dense = factored
        b = rng.standard_normal(70)
        x = backward_solve(fac, forward_solve(fac, b))
        np.testing.assert_allclose(dense @ x, b, atol=1e-9)

    def test_multiple_rhs(self, factored, rng):
        fac, dense = factored
        b = rng.standard_normal((70, 5))
        x = backward_solve(fac, forward_solve(fac, b))
        np.testing.assert_allclose(dense @ x, b, atol=1e-9)

    def test_rhs_not_mutated(self, factored, rng):
        fac, _ = factored
        b = rng.standard_normal(70)
        b0 = b.copy()
        forward_solve(fac, b)
        np.testing.assert_array_equal(b, b0)

    def test_dimension_mismatch(self, factored):
        fac, _ = factored
        with pytest.raises(ShapeError):
            forward_solve(fac, np.zeros(13))

    def test_solve_with_lr_factor(self, matern, theta_matern, locations_200, rng):
        """Solves must work when the factor holds low-rank tiles."""
        mat, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_tlr=True, band_size=1,
        )
        sigma = matern.covariance_matrix(theta_matern, locations_200, nugget=1e-8)
        fac, _ = tile_cholesky(mat, tile_tol=report.tile_tol)
        assert any(k.startswith("lr/") for k in fac.structure_counts())
        b = rng.standard_normal(200)
        x = backward_solve(fac, forward_solve(fac, b))
        rel = np.linalg.norm(sigma @ x - b) / np.linalg.norm(b)
        assert rel < 1e-5


class TestLogdet:
    def test_matches_slogdet(self, factored):
        fac, dense = factored
        _, ref = np.linalg.slogdet(dense)
        assert tile_logdet(fac) == pytest.approx(ref, rel=1e-10)

    def test_identity_zero(self):
        from repro.tile import TileMatrix

        tm = TileMatrix.from_dense(np.eye(20), 6)
        fac, _ = tile_cholesky(tm)
        assert tile_logdet(fac) == pytest.approx(0.0, abs=1e-12)
