"""Tests for the batched prediction serving path (PR 4).

Covers three layers:

* :class:`~repro.tile.solve.PanelSolver` — multi-RHS blocked solves
  bit-identical to the seed per-call implementation (preserved below
  as ``ref_forward`` / ``ref_backward``), cast amortization, panel
  ``apply_lower`` and ``logdet``;
* :class:`~repro.core.serving.PredictionEngine` — invariance of
  repeated / streamed predicts on the caller's thread, cross-value cache,
  weight-solve amortization, seeded simulation; cross panels that are
  the same bytes at every width of the variant's generation slices;
* model wiring — content-hash invalidation on ``set_params``/``fit``
  and the negative-variance clamp at the source.
"""

import inspect
import logging
import threading

import numpy as np
import pytest
from scipy import linalg as sla

from repro.core import (
    ExaGeoStatModel,
    PredictionEngine,
    clamp_variance,
    conditional_simulation,
    kriging_predict,
)
from repro.core.variants import get_variant
from repro.exceptions import ShapeError
from repro.kernels import (
    AnisotropicMaternKernel,
    ExponentialKernel,
    GneitingMaternKernel,
    MaternKernel,
    base,
)
from repro.tile import (
    PanelSolver,
    apply_lower,
    backward_solve,
    build_planned_covariance,
    forward_solve,
    tile_apply,
    tile_cholesky,
    tile_logdet,
)
from tests.conftest import random_spd_tilematrix


# ----------------------------------------------------------------------
# The seed (pre-serving-engine) solve path, preserved verbatim as the
# bit-identity reference: per-call block substitution through
# ``tile_apply`` with a fresh float64 up-cast of every tile.
# ----------------------------------------------------------------------
def ref_forward(l_matrix, b):
    y = np.asarray(b, dtype=np.float64).copy()
    layout = l_matrix.layout
    for i in range(layout.nt):
        sl_i = layout.block_slice(i)
        acc = y[sl_i]
        for j in range(i):
            acc -= tile_apply(l_matrix.get(i, j), y[layout.block_slice(j)])
        lii = l_matrix.get(i, i).to_dense64()
        y[sl_i] = sla.solve_triangular(lii, acc, lower=True, check_finite=False)
    return y


def ref_backward(l_matrix, y):
    x = np.asarray(y, dtype=np.float64).copy()
    layout = l_matrix.layout
    for i in range(layout.nt - 1, -1, -1):
        sl_i = layout.block_slice(i)
        acc = x[sl_i]
        for j in range(i + 1, layout.nt):
            acc -= tile_apply(
                l_matrix.get(j, i), x[layout.block_slice(j)], transpose=True
            )
        lii = l_matrix.get(i, i).to_dense64()
        x[sl_i] = sla.solve_triangular(
            lii, acc, lower=True, trans="T", check_finite=False
        )
    return x


@pytest.fixture(scope="module")
def dense_factor():
    tm = random_spd_tilematrix(70, 16, seed=9)
    dense = tm.to_dense()  # before factoring: tile_cholesky works in place
    fac, _ = tile_cholesky(tm)
    return fac, dense


@pytest.fixture(scope="module")
def tlr_factor(matern, theta_matern, locations_200):
    mat, report = build_planned_covariance(
        matern, theta_matern, locations_200, 40, nugget=1e-8,
        use_tlr=True, band_size=1,
    )
    fac, _ = tile_cholesky(mat, tile_tol=report.tile_tol)
    assert any(k.startswith("lr/") for k in fac.structure_counts())
    return fac


class TestPanelSolverBitIdentity:
    """The rewrite must not change a single bit of dense-FP64 output."""

    @pytest.mark.parametrize("shape", [(70,), (70, 1), (70, 17)])
    def test_dense_fp64(self, dense_factor, rng, shape):
        fac, _ = dense_factor
        b = rng.standard_normal(shape)
        np.testing.assert_array_equal(forward_solve(fac, b), ref_forward(fac, b))
        np.testing.assert_array_equal(backward_solve(fac, b), ref_backward(fac, b))

    @pytest.mark.parametrize("shape", [(200,), (200, 5)])
    def test_lr_factor(self, tlr_factor, rng, shape):
        """Bit-identity holds through low-rank (and rank-0) tiles too."""
        b = rng.standard_normal(shape)
        np.testing.assert_array_equal(
            forward_solve(tlr_factor, b), ref_forward(tlr_factor, b)
        )
        np.testing.assert_array_equal(
            backward_solve(tlr_factor, b), ref_backward(tlr_factor, b)
        )

    def test_repeated_solver_calls_identical(self, dense_factor, rng):
        fac, _ = dense_factor
        solver = PanelSolver(fac)
        b = rng.standard_normal((70, 3))
        first = solver.solve(b)
        np.testing.assert_array_equal(solver.solve(b), first)
        np.testing.assert_array_equal(
            first, ref_backward(fac, ref_forward(fac, b))
        )


class TestPanelSolver:
    def test_casts_amortize_to_stored_tiles(self, dense_factor, rng):
        fac, _ = dense_factor
        solver = PanelSolver(fac)
        for _ in range(4):
            solver.solve(rng.standard_normal(70))
        assert solver.casts == len(fac.keys())
        assert solver.solves == 8  # 4 forward + 4 backward sweeps

    def test_solve_accuracy_within_variant_budget(
        self, matern, theta_matern, locations_200, rng
    ):
        """TLR-factor solves stay within the variant's Frobenius
        accuracy budget (amplified by a generous condition factor)."""
        cfg = get_variant("mp-dense-tlr")
        mat, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40,
            nugget=1e-8, **cfg.assembly_kwargs(),
        )
        fac, _ = tile_cholesky(mat, tile_tol=report.tile_tol)
        sigma = matern.covariance_matrix(theta_matern, locations_200, nugget=1e-8)
        b = rng.standard_normal((200, 4))
        x = PanelSolver(fac).solve(b)
        rel = np.linalg.norm(sigma @ x - b) / np.linalg.norm(b)
        assert rel < 1.0e3 * cfg.mp_accuracy

    def test_apply_lower_matches_dense(self, dense_factor, rng):
        fac, dense = dense_factor
        ell = np.linalg.cholesky(dense)
        v = rng.standard_normal((70, 6))
        np.testing.assert_allclose(apply_lower(fac, v), ell @ v, atol=1e-9)
        # Round-trip: apply then forward-solve is the identity.
        solver = PanelSolver(fac)
        np.testing.assert_allclose(
            solver.forward(solver.apply_lower(v)), v, atol=1e-9
        )

    def test_logdet_matches_tile_logdet(self, dense_factor):
        fac, dense = dense_factor
        assert PanelSolver(fac).logdet() == pytest.approx(
            tile_logdet(fac), rel=1e-14
        )

    def test_shape_errors(self, dense_factor):
        fac, _ = dense_factor
        solver = PanelSolver(fac)
        with pytest.raises(ShapeError):
            solver.forward(np.zeros(13))
        with pytest.raises(ShapeError):
            solver.apply_lower(np.zeros(13))


# ----------------------------------------------------------------------
# PredictionEngine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_setup(matern, theta_matern, locations_200, spd_dense_200):
    _, z = spd_dense_200
    cfg = get_variant("mp-dense-tlr")
    mat, report = build_planned_covariance(
        matern, theta_matern, locations_200, 40,
        nugget=1e-8, **cfg.assembly_kwargs(),
    )
    fac, _ = tile_cholesky(mat, tile_tol=report.tile_tol)
    gen = np.random.default_rng(100)
    x_test = gen.uniform(size=(57, 2))
    return matern, theta_matern, locations_200, z, fac, x_test


class TestPredictionEngine:
    def test_weights_solved_once(self, serving_setup):
        kern, theta, x, z, fac, x_test = serving_setup
        engine = PredictionEngine(kern, theta, x, z, fac)
        for _ in range(3):
            engine.predict(x_test, return_uncertainty=True)
        for _ in engine.predict_iter(x_test, batch=16,
                                     return_uncertainty=True):
            pass
        engine.simulate(x_test, size=2, seed=1)
        stats = engine.stats()
        assert stats.weight_solves == 1
        assert stats.tile_casts == len(fac.keys())
        assert stats.cross_hits >= 2

    def test_repeated_predicts_bit_identical(self, serving_setup):
        kern, theta, x, z, fac, x_test = serving_setup
        engine = PredictionEngine(kern, theta, x, z, fac)
        p1 = engine.predict(x_test, return_uncertainty=True)
        p2 = engine.predict(x_test, return_uncertainty=True)
        np.testing.assert_array_equal(p1.mean, p2.mean)
        np.testing.assert_array_equal(p1.variance, p2.variance)

    def test_stream_matches_batch(self, serving_setup):
        kern, theta, x, z, fac, x_test = serving_setup
        engine = PredictionEngine(kern, theta, x, z, fac)
        p = engine.predict(x_test, return_uncertainty=True, batch=16)
        chunks = list(
            engine.predict_iter(x_test, return_uncertainty=True, batch=16)
        )
        assert len(chunks) > 1 and all(len(c.mean) <= 16 for c in chunks)
        # A stream is one call, however many batches it yields.
        stats = engine.stats()
        assert stats.predict_calls == engine.health().calls == 2
        assert stats.predictions == 2 * len(x_test)
        np.testing.assert_array_equal(
            np.concatenate([c.mean for c in chunks]), p.mean
        )
        np.testing.assert_array_equal(
            np.concatenate([c.variance for c in chunks]), p.variance
        )

    def test_batches_run_on_the_callers_thread(
        self, serving_setup, monkeypatch
    ):
        """Batches run one after another on the calling thread, and
        no prediction API asks for a width: an element-wise kernel's
        cross panel takes it from the variant (``TestCrossPanelWidth``)."""
        kern, theta, x, z, fac, x_test = serving_setup
        engine = PredictionEngine(kern, theta, x, z, fac)
        ref = engine.predict(x_test, return_uncertainty=True, batch=8)
        seen = []
        serve = engine._serve_batch

        def spy(*args, **kwargs):
            seen.append(threading.get_ident())
            return serve(*args, **kwargs)

        monkeypatch.setattr(engine, "_serve_batch", spy)
        got = engine.predict(x_test, return_uncertainty=True, batch=8)
        assert seen == [threading.get_ident()] * -(-len(x_test) // 8)
        np.testing.assert_array_equal(got.mean, ref.mean)
        np.testing.assert_array_equal(got.variance, ref.variance)
        for api in (PredictionEngine, PredictionEngine.predict,
                    kriging_predict, ExaGeoStatModel.predict):
            assert "workers" not in inspect.signature(api).parameters
        assert not hasattr(engine, "workers")

    def test_matches_kriging_predict(self, serving_setup):
        """The one-shot wrapper and a held engine serve the same
        numbers (same batch split, same arithmetic)."""
        kern, theta, x, z, fac, x_test = serving_setup
        engine = PredictionEngine(kern, theta, x, z, fac, batch=32)
        held = engine.predict(x_test, return_uncertainty=True)
        ones = kriging_predict(
            kern, theta, x, z, x_test, fac,
            return_uncertainty=True, batch=32,
        )
        np.testing.assert_array_equal(held.mean, ones.mean)
        np.testing.assert_array_equal(held.variance, ones.variance)

    def test_cross_cache_respects_byte_budget(self, serving_setup):
        kern, theta, x, z, fac, x_test = serving_setup
        budget = 2 * 200 * 16 * 8  # roughly two 16-wide cross panels
        engine = PredictionEngine(
            kern, theta, x, z, fac, batch=16, cross_cache_bytes=budget
        )
        engine.predict(x_test)
        assert engine.stats().cross_cache_bytes <= budget

    def test_variance_nonnegative_at_training_points(self, serving_setup):
        """Predicting at training locations drives Eq. 5 to ~0 where
        TLR rounding can push it negative; the clamp keeps it at 0."""
        kern, theta, x, z, fac, _ = serving_setup
        engine = PredictionEngine(kern, theta, x, z, fac)
        pred = engine.predict(x[:64], return_uncertainty=True)
        assert np.all(pred.variance >= 0.0)
        assert np.all(np.isfinite(pred.standard_error()))

    def test_simulate_seeded_reproducible(self, serving_setup):
        kern, theta, x, z, fac, x_test = serving_setup
        engine = PredictionEngine(kern, theta, x, z, fac)
        d1 = engine.simulate(x_test, size=3, seed=11)
        d2 = engine.simulate(x_test, size=3, seed=11)
        np.testing.assert_array_equal(d1, d2)
        assert d1.shape == (3, len(x_test))

    def test_shape_validation(self, serving_setup):
        kern, theta, x, z, fac, _ = serving_setup
        with pytest.raises(ShapeError):
            PredictionEngine(kern, theta, x, z[:-1], fac)
        with pytest.raises(ShapeError):
            PredictionEngine(kern, theta, x[:-1], z[:-1], fac)
        engine = PredictionEngine(kern, theta, x, z, fac)
        with pytest.raises(ShapeError):
            engine.score(np.zeros((5, 2)), np.zeros(4))


# ----------------------------------------------------------------------
# cross panels at the variant's width
# ----------------------------------------------------------------------
_WIDTH_CASES = {
    "exponential": (ExponentialKernel(), [1.0, 0.1], 2),
    "matern-0.8": (MaternKernel(), [1.0, 0.1, 0.8], 2),
    "gneiting": (GneitingMaternKernel(), [1.0, 0.3, 0.8, 0.5, 0.6, 0.4], 3),
}


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names: list[str] = []
    start = threading.Thread.start

    def spy(self):
        names.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names


def _served_state(kernel, theta, dim, seed=5):
    gen = np.random.default_rng(seed)
    x = gen.uniform(size=(90, dim))
    theta = np.asarray(theta)
    mat, _ = build_planned_covariance(kernel, theta, x, 30, nugget=1e-6)
    fac, _ = tile_cholesky(mat)
    return kernel, theta, x, gen.standard_normal(90), fac, gen.uniform(size=(50, dim))


def _width(workers):
    return get_variant("dense-fp64").with_(workers=workers)


class TestCrossPanelWidth:
    """An element-wise kernel's cross panel is one flat buffer in
    slices dealt over the variant's ``workers``; each slice writes its
    own part, so predictions are the same bytes at every width."""

    @pytest.mark.parametrize("case", sorted(_WIDTH_CASES))
    @pytest.mark.parametrize("chunk", [base.GEOMETRY_CHUNK, 37])
    def test_same_bytes_at_every_width(self, case, chunk, monkeypatch, started):
        # 37 entries: slice boundaries cut through every panel, and the
        # 90 x 7 ragged batches are many slices; at the default size a
        # whole batch is below one slice.
        monkeypatch.setattr(base, "GEOMETRY_CHUNK", chunk)
        state = _served_state(*_WIDTH_CASES[case])
        for batch in (7, 50):
            preds = [
                PredictionEngine(*state[:5], variant=_width(w), batch=batch)
                .predict(state[5], return_uncertainty=True)
                for w in (1, 2, 3)
            ]
            for pred in preds[1:]:
                np.testing.assert_array_equal(pred.mean, preds[0].mean)
                np.testing.assert_array_equal(pred.variance, preds[0].variance)
            one_shot = kriging_predict(
                *state[:4], state[5], state[4], return_uncertainty=True,
                batch=batch,
            )
            np.testing.assert_array_equal(one_shot.mean, preds[0].mean)
            np.testing.assert_array_equal(one_shot.variance, preds[0].variance)
        # The width is used where there is more than one slice to deal.
        assert bool(started) == (chunk < 90 * 50)

    def test_per_tile_kernel_starts_no_thread(self, started):
        kernel = AnisotropicMaternKernel()
        assert not kernel.elementwise_geometry
        theta = [1.0, 0.2, 0.1, 0.3, 0.5]
        state = _served_state(kernel, theta, 2)
        x_test = state[5]
        model = ExaGeoStatModel(kernel, _width(3), tile_size=30, nugget=1e-6)
        model.set_params(state[1], state[2], state[3])
        model.serving_engine()  # the factorization may use the width
        started.clear()
        got = model.predict(x_test, return_uncertainty=True, batch=16)
        assert started == []
        model.variant = _width(1)
        model._invalidate_serving()
        ref = model.predict(x_test, return_uncertainty=True, batch=16)
        np.testing.assert_array_equal(got.mean, ref.mean)
        np.testing.assert_array_equal(got.variance, ref.variance)

    def test_streaming_leaves_the_geometry_cache_alone(self):
        kernel, theta, x, z, _, x_test = _served_state(
            *_WIDTH_CASES["matern-0.8"])
        model = ExaGeoStatModel(kernel, _width(2), tile_size=30, nugget=1e-6)
        model.set_params(theta, x, z)
        model.predict(x_test, return_uncertainty=True)
        cache = model._cache
        pairs, misses = list(cache._pairs), cache.misses
        stream = list(model.serving_engine().predict_iter(
            x_test, return_uncertainty=True, batch=8))
        assert len(stream) > cache.maxsize
        assert list(cache._pairs) == pairs and cache.misses == misses
        full = model.predict(x_test, return_uncertainty=True, batch=8)
        np.testing.assert_array_equal(
            np.concatenate([p.mean for p in stream]), full.mean)
        np.testing.assert_array_equal(
            np.concatenate([p.variance for p in stream]), full.variance)

    def test_predict_batch_span_says_how_the_panel_was_generated(self):
        from repro.obs import Telemetry

        kernel, theta, x, z, fac, x_test = _served_state(
            *_WIDTH_CASES["exponential"])
        telemetry = Telemetry()
        engine = PredictionEngine(
            kernel, theta, x, z, fac, variant=_width(2), telemetry=telemetry)
        engine.predict(x_test, batch=20)
        spans = telemetry.tracer.by_name("predict_batch")
        assert [s.attrs["chunks"] for s in spans] == [
            -(-90 * width // base.GEOMETRY_CHUNK) for width in (20, 20, 10)
        ]
        assert all(s.attrs["elementwise"] and s.attrs["workers"] == 2
                   for s in spans)


class TestSimulationReusesThePanel:
    @pytest.mark.parametrize("case", ["exponential", "matern-0.8"])
    def test_draws_match_a_fresh_simulation(self, case):
        """The engine's panel and half-solve give the draws of a
        simulation that evaluates the kernel and sweeps afresh."""
        kernel, theta, x, z, fac, x_test = _served_state(*_WIDTH_CASES[case])
        engine = PredictionEngine(kernel, theta, x, z, fac, variant=_width(3))
        fresh = conditional_simulation(
            kernel, theta, x, z, x_test, fac, size=3, seed=21)
        np.testing.assert_array_equal(
            engine.simulate(x_test, size=3, seed=21), fresh)

    def test_predicted_grid_is_simulated_without_a_forward_sweep(self):
        state = _served_state(*_WIDTH_CASES["matern-0.8"])
        x_test = state[5]

        def simulate_after(engine):
            before = engine.stats()
            engine.simulate(x_test, size=2, seed=3)
            after = engine.stats()
            return (after.cross_hits - before.cross_hits,
                    after.cross_misses - before.cross_misses,
                    after.solves - before.solves)

        cold = simulate_after(PredictionEngine(*state[:5]))
        warm_engine = PredictionEngine(*state[:5])
        warm_engine.predict(x_test, return_uncertainty=True)
        warm = simulate_after(warm_engine)
        assert cold[:2] == (0, 1) and warm[:2] == (1, 0)
        assert warm[2] == cold[2] - 1  # the forward half-solve

    def test_panel_shapes_are_checked(self, serving_setup):
        kern, theta, x, z, fac, x_test = serving_setup
        with pytest.raises(ShapeError):
            conditional_simulation(
                kern, theta, x, z, x_test, fac, cross=np.zeros((3, 3)))


# ----------------------------------------------------------------------
# clamp + model wiring
# ----------------------------------------------------------------------
class TestClampVariance:
    def test_counts_and_clamps(self, caplog):
        v = np.array([0.5, -1e-12, 0.0, -3e-9])
        with caplog.at_level(logging.DEBUG, logger="repro.core.serving"):
            out, count = clamp_variance(v, where="unit-test")
        assert count == 2
        np.testing.assert_array_equal(out, [0.5, 0.0, 0.0, 0.0])
        assert any("unit-test" in r.message for r in caplog.records)

    def test_clean_input_untouched(self, caplog):
        v = np.array([0.5, 0.1])
        with caplog.at_level(logging.DEBUG, logger="repro.core.serving"):
            out, count = clamp_variance(v)
        assert count == 0
        assert out is v  # no copy on the clean path
        assert not caplog.records


class TestModelServingWiring:
    @pytest.fixture()
    def fitted_model(self, locations_200, spd_dense_200, theta_matern):
        from repro import ExaGeoStatModel

        _, z = spd_dense_200
        model = ExaGeoStatModel(
            kernel="matern", variant="mp-dense-tlr", tile_size=40,
            nugget=1e-8,
        )
        model.set_params(theta_matern, locations_200, z)
        return model

    def test_engine_built_once_per_state(self, fitted_model, rng):
        x_new = rng.uniform(size=(20, 2))
        fitted_model.predict(x_new)
        fitted_model.predict(x_new, return_uncertainty=True)
        fitted_model.score(x_new, rng.standard_normal(20))
        assert fitted_model._engine_builds == 1
        assert fitted_model.serving_engine().stats().weight_solves == 1

    def test_set_params_invalidates(self, fitted_model, rng, theta_matern,
                                    locations_200, spd_dense_200):
        _, z = spd_dense_200
        x_new = rng.uniform(size=(10, 2))
        p_old = fitted_model.predict(x_new)
        fitted_model.set_params(theta_matern * 1.5, locations_200, z)
        p_new = fitted_model.predict(x_new)
        assert fitted_model._engine_builds == 2
        assert not np.array_equal(p_old.mean, p_new.mean)
        # Restoring the original state serves the original numbers.
        fitted_model.set_params(theta_matern, locations_200, z)
        np.testing.assert_array_equal(
            fitted_model.predict(x_new).mean, p_old.mean
        )

    def test_simulate_matches_engine(self, fitted_model, rng):
        x_new = rng.uniform(size=(15, 2))
        d_model = fitted_model.simulate(x_new, size=2, seed=4)
        d_engine = fitted_model.serving_engine().simulate(
            x_new, size=2, seed=4
        )
        np.testing.assert_array_equal(d_model, d_engine)
        assert fitted_model._engine_builds == 1

