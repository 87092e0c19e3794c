"""Tests for bound transforms, the MLE fit's minimizer, and PSO."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fit_mle
from repro.data import uniform_locations
from repro.data.synthetic import sample_gaussian_field
from repro.exceptions import ParameterError
from repro.kernels import ExponentialKernel
from repro.kernels.base import ParameterSpec
from repro.optim import BoundTransform, particle_swarm

SPECS = (
    ParameterSpec("positive", 0.0, np.inf, 1.0),
    ParameterSpec("unit", 0.0, 1.0, 0.5),
    ParameterSpec("free", -np.inf, np.inf, 0.0),
    ParameterSpec("upper", -np.inf, 2.0, 0.0),
)


class TestBoundTransform:
    def test_roundtrip(self):
        tr = BoundTransform.from_specs(SPECS)
        theta = np.array([3.5, 0.25, -7.0, 1.5])
        u = tr.to_unconstrained(theta)
        np.testing.assert_allclose(tr.to_constrained(u), theta, rtol=1e-10)

    def test_constrained_always_in_bounds(self):
        tr = BoundTransform.from_specs(SPECS)
        for u in (np.full(4, -40.0), np.full(4, 40.0), np.zeros(4)):
            theta = tr.to_constrained(u)
            assert theta[0] > 0
            assert 0 < theta[1] < 1
            assert theta[3] < 2

    def test_out_of_bounds_rejected(self):
        tr = BoundTransform.from_specs(SPECS)
        with pytest.raises(ParameterError):
            tr.to_unconstrained(np.array([-1.0, 0.5, 0.0, 0.0]))
        with pytest.raises(ParameterError):
            tr.to_unconstrained(np.array([1.0, 1.5, 0.0, 0.0]))

    def test_length_mismatch(self):
        tr = BoundTransform.from_specs(SPECS)
        with pytest.raises(ParameterError):
            tr.to_unconstrained(np.zeros(2))

    def test_extreme_u_no_overflow(self):
        tr = BoundTransform.from_specs(SPECS)
        theta = tr.to_constrained(np.full(4, 1e8))
        assert np.all(np.isfinite(theta))

    @given(
        u=st.lists(st.floats(-30, 30), min_size=4, max_size=4)
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_from_free_space(self, u):
        tr = BoundTransform.from_specs(SPECS)
        theta = tr.to_constrained(np.array(u))
        u2 = tr.to_unconstrained(theta)
        theta2 = tr.to_constrained(u2)
        np.testing.assert_allclose(theta, theta2, rtol=1e-8, atol=1e-10)


class TestNelderMead:
    """The minimizer behind ``fit_mle`` (a Nelder–Mead simplex until
    SciPy's COBYQA replaced it), seen through the fit's evaluation log."""

    def test_history_best_nonincreasing(self, tmp_path):
        """``history`` is the running best of the logged evaluations:
        as a minimized objective it never increases, and it equals the
        running minimum of every evaluation value, step for step."""
        kernel = ExponentialKernel()
        theta = np.array([1.0, 0.1])
        x = uniform_locations(150, seed=5)
        z = sample_gaussian_field(kernel, theta, x, seed=5)
        path = str(tmp_path / "mle.json")
        res = fit_mle(kernel, x, z, tile_size=50, theta0=theta * 2.0,
                      max_iter=25, checkpoint_path=path)
        best = [-v for v in res.history]
        assert len(best) > 1 and best[-1] < best[0]
        assert all(b <= a for a, b in zip(best, best[1:]))
        with open(path, encoding="utf-8") as fh:
            log = json.load(fh)["state"]["dense-fp64"]
        values = np.array([v for _, v in log])
        assert len(values) == res.nfev
        running = np.minimum.accumulate(values)
        np.testing.assert_array_equal(best, running[np.isfinite(running)])
        assert best[-1] == -res.loglik


class TestPSO:
    def test_sphere(self):
        def batch(pos):
            return np.sum(pos**2, axis=1)

        res = particle_swarm(batch, [(-5, 5)] * 3, n_particles=20,
                             max_iter=60, seed=1)
        assert res.fun < 1e-2

    def test_respects_bounds(self):
        seen = []

        def batch(pos):
            seen.append(pos.copy())
            return np.sum(pos**2, axis=1)

        particle_swarm(batch, [(1.0, 2.0)] * 2, n_particles=8,
                       max_iter=10, seed=2)
        allpos = np.vstack(seen)
        assert np.all(allpos >= 1.0 - 1e-12)
        assert np.all(allpos <= 2.0 + 1e-12)

    def test_batch_evaluation_shape(self):
        shapes = []

        def batch(pos):
            shapes.append(pos.shape)
            return np.zeros(len(pos))

        particle_swarm(batch, [(-1, 1)] * 2, n_particles=12, max_iter=3,
                       seed=3, patience=100)
        assert all(s == (12, 2) for s in shapes)

    def test_history_nonincreasing(self):
        def batch(pos):
            return np.sum(pos**2, axis=1)

        res = particle_swarm(batch, [(-2, 2)] * 2, n_particles=10,
                             max_iter=20, seed=4)
        assert all(b <= a + 1e-12 for a, b in zip(res.history, res.history[1:]))

    def test_early_stop_on_stall(self):
        def batch(pos):
            return np.ones(len(pos))  # flat objective

        res = particle_swarm(batch, [(-1, 1)] * 2, n_particles=5,
                             max_iter=500, patience=3, seed=5)
        assert res.nit <= 10

    def test_handles_inf(self):
        def batch(pos):
            vals = np.sum(pos**2, axis=1)
            vals[pos[:, 0] < 0] = np.inf
            return vals

        res = particle_swarm(batch, [(-5, 5)] * 2, n_particles=15,
                             max_iter=40, seed=6)
        assert np.isfinite(res.fun)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            particle_swarm(lambda p: np.zeros(len(p)), [(1.0, 1.0)])

    def test_seeded_reproducible(self):
        def batch(pos):
            return np.sum((pos - 0.5) ** 2, axis=1)

        r1 = particle_swarm(batch, [(-1, 1)] * 2, n_particles=8,
                            max_iter=15, seed=7)
        r2 = particle_swarm(batch, [(-1, 1)] * 2, n_particles=8,
                            max_iter=15, seed=7)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.fun == r2.fun
