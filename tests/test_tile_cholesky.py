"""Tests for the tiled Cholesky factorization (all variants)."""

import numpy as np
import pytest

from repro.exceptions import NotPositiveDefiniteError
from repro.tile import (
    TileMatrix,
    build_planned_covariance,
    tile_cholesky,
)
from tests.conftest import random_spd_tilematrix


class TestDenseFP64:
    def test_matches_lapack(self):
        tm = random_spd_tilematrix(64, 16, seed=1)
        ref = np.linalg.cholesky(tm.to_dense())
        fac, stats = tile_cholesky(tm)
        np.testing.assert_allclose(
            fac.to_dense(lower_only=True), ref, atol=1e-11
        )
        assert stats.kernel_counts["potrf"] == 4

    def test_ragged_tiles(self):
        tm = random_spd_tilematrix(57, 16, seed=2)
        ref = np.linalg.cholesky(tm.to_dense())
        fac, _ = tile_cholesky(tm)
        np.testing.assert_allclose(fac.to_dense(lower_only=True), ref, atol=1e-11)

    def test_single_tile(self):
        tm = random_spd_tilematrix(12, 16, seed=3)
        ref = np.linalg.cholesky(tm.to_dense())
        fac, stats = tile_cholesky(tm)
        np.testing.assert_allclose(fac.to_dense(lower_only=True), ref, atol=1e-12)
        assert stats.kernel_counts == {"potrf": 1}

    def test_kernel_counts_closed_form(self):
        tm = random_spd_tilematrix(80, 16, seed=4)
        nt = 5
        _, stats = tile_cholesky(tm)
        assert stats.kernel_counts["potrf"] == nt
        assert stats.kernel_counts["trsm"] == nt * (nt - 1) // 2
        assert stats.kernel_counts["syrk"] == nt * (nt - 1) // 2
        assert stats.kernel_counts["gemm"] == nt * (nt - 1) * (nt - 2) // 6

    def test_indefinite_raises(self):
        a = np.diag([1.0, 1.0, -1.0, 1.0])
        tm = TileMatrix.from_dense(a, 2)
        with pytest.raises(NotPositiveDefiniteError):
            tile_cholesky(tm)


class TestApproximateVariants:
    @pytest.fixture(scope="class")
    def problem(self):
        gen = np.random.default_rng(42)
        from repro.kernels import MaternKernel
        from repro.ordering import order_points

        x = gen.uniform(size=(250, 2))
        x = x[order_points(x, "morton")]
        kern = MaternKernel()
        theta = np.array([1.0, 0.1, 0.5])
        sigma = kern.covariance_matrix(theta, x, nugget=1e-8)
        ref = np.linalg.cholesky(sigma)
        return kern, theta, x, sigma, ref

    def _factor(self, problem, **kwargs):
        kern, theta, x, sigma, ref = problem
        mat, report = build_planned_covariance(
            kern, theta, x, 50, nugget=1e-8, **kwargs
        )
        fac, stats = tile_cholesky(mat, tile_tol=report.tile_tol)
        return fac, stats, sigma, ref

    def test_mp_dense_close_to_fp64(self, problem):
        fac, _, sigma, ref = self._factor(problem, use_mp=True)
        low = fac.to_dense(lower_only=True)
        rel = np.linalg.norm(low @ low.T - sigma) / np.linalg.norm(sigma)
        assert rel < 1e-5

    def test_tlr_close_to_fp64(self, problem):
        fac, _, sigma, ref = self._factor(
            problem, use_tlr=True, band_size=2
        )
        low = fac.to_dense(lower_only=True)
        rel = np.linalg.norm(low @ low.T - sigma) / np.linalg.norm(sigma)
        assert rel < 1e-6

    def test_mp_tlr_close_to_fp64(self, problem):
        fac, _, sigma, ref = self._factor(
            problem, use_mp=True, use_tlr=True, band_size=2
        )
        low = fac.to_dense(lower_only=True)
        rel = np.linalg.norm(low @ low.T - sigma) / np.linalg.norm(sigma)
        assert rel < 1e-5

    def test_tlr_keeps_low_rank_structure(self, problem):
        fac, stats, _, _ = self._factor(problem, use_tlr=True, band_size=1)
        counts = fac.structure_counts()
        assert any(k.startswith("lr/") for k in counts)
        # Every off-band tile arrived owing its one truncation and was
        # settled once; those that could not get under the cap are the
        # factor's dense off-diagonal tiles.  No low-rank tile existed
        # to be densified.
        kept = sum(not t.is_low_rank for (i, j), t in fac.items() if i != j)
        assert stats.truncations == fac.nt * (fac.nt - 1) // 2
        assert stats.kept_dense == kept < stats.truncations
        assert stats.densified_tiles == 0

    def test_tighter_tolerance_more_accurate(self, problem):
        kern, theta, x, sigma, _ = problem
        errs = []
        for tol in (1e-4, 1e-8):
            mat, report = build_planned_covariance(
                kern, theta, x, 50, nugget=1e-8,
                use_tlr=True, tlr_tol=tol, band_size=1,
            )
            fac, _ = tile_cholesky(mat, tile_tol=report.tile_tol)
            low = fac.to_dense(lower_only=True)
            errs.append(np.linalg.norm(low @ low.T - sigma))
        assert errs[1] < errs[0]
