"""Unit + property tests for low-rank compression primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CompressionError
from repro.tile import DenseTile, Precision
from repro.tile.compression import (
    compress_block,
    compress_tile,
    rank_of_block,
    recompress,
    truncated_svd,
)


def low_rank_matrix(rng, m=30, n=24, rank=5, scale=1.0):
    return scale * (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)))


class TestTruncatedSVD:
    def test_error_within_tolerance(self, rng):
        a = rng.standard_normal((30, 30))
        tol = 0.5 * np.linalg.norm(a)
        u, v, err = truncated_svd(a, tol)
        assert np.linalg.norm(a - u @ v.T) <= tol + 1e-12
        assert err <= tol

    def test_exact_rank_recovery(self, rng):
        a = low_rank_matrix(rng, rank=4)
        u, v, err = truncated_svd(a, 1e-10)
        assert u.shape[1] == 4
        assert err < 1e-10

    def test_zero_matrix_rank_zero(self):
        u, v, err = truncated_svd(np.zeros((8, 6)), 1e-12)
        assert u.shape == (8, 0) and v.shape == (6, 0)
        assert err == 0.0

    def test_max_rank_violation_raises(self, rng):
        a = rng.standard_normal((20, 20))
        with pytest.raises(CompressionError):
            truncated_svd(a, 1e-14, max_rank=2)

    def test_rank_monotone_in_tolerance(self, rng):
        a = rng.standard_normal((25, 25))
        norm = np.linalg.norm(a)
        ranks = [
            truncated_svd(a, f * norm)[0].shape[1]
            for f in (1e-12, 1e-6, 1e-2, 0.5)
        ]
        assert ranks == sorted(ranks, reverse=True)

    @given(rank=st.integers(0, 8), tol_factor=st.floats(1e-10, 0.3))
    @settings(max_examples=25, deadline=None)
    def test_property_error_bound(self, rank, tol_factor):
        rng = np.random.default_rng(rank * 1000 + 1)
        a = (
            low_rank_matrix(rng, rank=rank)
            if rank
            else np.zeros((30, 24))
        )
        a = a + 1e-6 * rng.standard_normal(a.shape)
        tol = tol_factor * max(np.linalg.norm(a), 1e-30)
        u, v, err = truncated_svd(a, tol)
        assert np.linalg.norm(a - u @ v.T) <= tol * (1 + 1e-9)


class TestRankOfBlock:
    def test_matches_truncated_svd(self, rng):
        a = rng.standard_normal((20, 20))
        tol = 0.1 * np.linalg.norm(a)
        u, _, _ = truncated_svd(a, tol)
        assert rank_of_block(a, tol) == u.shape[1]


class TestCompressTile:
    def test_compress_block_returns_lowrank(self, rng):
        a = low_rank_matrix(rng, rank=3)
        t = compress_block(a, 1e-10, precision=Precision.FP32)
        assert t.rank == 3
        assert t.precision is Precision.FP32

    def test_compress_tile_inherits_precision(self, rng):
        dense = DenseTile(low_rank_matrix(rng, rank=2), Precision.FP32)
        lr = compress_tile(dense, 1e-8)
        assert lr.precision is Precision.FP32


class TestRecompress:
    def test_reduces_rank_of_padded_factors(self, rng):
        a = low_rank_matrix(rng, rank=3)
        u, v, _ = truncated_svd(a, 1e-12)
        # Pad with redundant columns.
        u_pad = np.hstack([u, u[:, :2]])
        v_pad = np.hstack([v, v[:, :2]])
        nu, nv = recompress(u_pad, v_pad, 1e-10)
        assert nu.shape[1] <= 3 + 1e-9
        np.testing.assert_allclose(nu @ nv.T, u_pad @ v_pad.T, atol=1e-8)

    def test_zero_rank_passthrough(self):
        u = np.zeros((5, 0))
        v = np.zeros((4, 0))
        nu, nv = recompress(u, v, 1e-8)
        assert nu.shape[1] == 0

    def test_error_bound(self, rng):
        u = rng.standard_normal((30, 10))
        v = rng.standard_normal((30, 10))
        a = u @ v.T
        tol = 0.05 * np.linalg.norm(a)
        nu, nv = recompress(u, v, tol)
        assert np.linalg.norm(a - nu @ nv.T) <= tol * (1 + 1e-9)

    def test_max_rank_enforced(self, rng):
        u = rng.standard_normal((20, 10))
        v = rng.standard_normal((20, 10))
        with pytest.raises(CompressionError):
            recompress(u, v, 1e-15, max_rank=2)
