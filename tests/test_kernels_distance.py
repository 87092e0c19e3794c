"""Unit tests for repro.kernels.distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ShapeError
from repro.kernels.distance import (
    as_locations,
    cross_distance,
    cross_space_time_lags,
    cross_sq_distance,
    split_space_time,
)


class TestAsLocations:
    def test_1d_promoted_to_column(self):
        out = as_locations([1.0, 2.0, 3.0])
        assert out.shape == (3, 1)

    def test_2d_passthrough(self):
        x = np.zeros((4, 2))
        assert as_locations(x).shape == (4, 2)

    def test_rejects_3d(self):
        with pytest.raises(ShapeError):
            as_locations(np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            as_locations(np.array([[0.0, np.nan]]))

    def test_rejects_wrong_dim(self):
        with pytest.raises(ShapeError):
            as_locations(np.zeros((3, 2)), dim=3)

    def test_casts_to_float64(self):
        out = as_locations(np.zeros((2, 2), dtype=np.float32))
        assert out.dtype == np.float64


class TestCrossDistance:
    def test_matches_bruteforce(self, rng):
        x1 = rng.uniform(size=(17, 3))
        x2 = rng.uniform(size=(9, 3))
        d = cross_distance(x1, x2)
        brute = np.array(
            [[np.linalg.norm(a - b) for b in x2] for a in x1]
        )
        np.testing.assert_allclose(d, brute, atol=1e-12)

    def test_zero_on_identical_points(self):
        x = np.array([[0.5, 0.5]])
        assert cross_distance(x, x)[0, 0] == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ShapeError):
            cross_distance(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_nonnegative_despite_cancellation(self, rng):
        base = rng.uniform(size=(50, 2)) * 1e6
        d2 = cross_sq_distance(base, base + 1e-9)
        assert np.all(d2 >= 0.0)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 3)),
            elements=st.floats(-100, 100),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality_to_origin(self, pts):
        """d(x, 0) <= d(x, y) + d(y, 0) for a fixed witness y."""
        origin = np.zeros((1, pts.shape[1]))
        y = np.full((1, pts.shape[1]), 0.5)
        dx0 = cross_distance(pts, origin)[:, 0]
        dxy = cross_distance(pts, y)[:, 0]
        dy0 = cross_distance(y, origin)[0, 0]
        assert np.all(dx0 <= dxy + dy0 + 1e-8)


class TestSpaceTime:
    def test_split(self):
        x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        s, t = split_space_time(x)
        np.testing.assert_array_equal(s, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(t, [3.0, 6.0])

    def test_split_needs_two_columns(self):
        with pytest.raises(ShapeError):
            split_space_time(np.zeros((3, 1)))

    def test_lags(self):
        x1 = np.array([[0.0, 0.0, 0.0]])
        x2 = np.array([[3.0, 4.0, 2.0], [0.0, 0.0, -1.0]])
        h, u = cross_space_time_lags(x1, x2)
        np.testing.assert_allclose(h, [[5.0, 0.0]])
        np.testing.assert_allclose(u, [[2.0, 1.0]])
