"""MLE hot-path engine: geometry cache, warm hints, parallel execution.

Covers the equivalence contracts of the evaluation engine:

* ``from_geometry`` reproduces direct kernel evaluation per kernel
  (bit-identical except the anisotropic Matérn, whose quadratic form
  rounds differently; that one matches to ``allclose``);
* geometry caching is invisible to results across an optimizer trace,
  and stale reuse is structurally impossible (content-hashed keys,
  explicit-geometry validation);
* parallel factorization matches sequential per variant (bit-identical
  for dense FP64, value-identical for the mixed-precision variants);
* ``mp-dense-tlr`` (accumulate exactly, truncate once) stays inside the
  budget its ``tlr_tol`` implies — log-likelihood, fitted optimum and
  MSPE against the dense reference;
* replicated likelihoods route through the recovery ladder.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EvaluationEngine,
    ExaGeoStatModel,
    fit_mle,
    loglikelihood,
    loglikelihood_dense_reference,
    loglikelihood_replicated,
)
from repro.core.variants import get_variant
from repro.exceptions import ConfigurationError
from repro.kernels import (
    AnisotropicMaternKernel,
    BivariateMaternKernel,
    ExponentialKernel,
    GaussianKernel,
    GneitingMaternKernel,
    MaternKernel,
    NuggetKernel,
    stack_bivariate,
)
from repro.ordering import order_points
from repro.tile import (
    GeometryCache,
    build_planned_covariance,
    build_tile_geometry,
)

N = 240
TILE = 40


def _locations(n=N, d=2, seed=99):
    gen = np.random.default_rng(seed)
    x = gen.uniform(size=(n, d))
    return x[order_points(x[:, :2], "morton")]


def _observations(kernel, theta, x, seed=7):
    sigma = kernel.covariance_matrix(theta, x, nugget=1e-8)
    gen = np.random.default_rng(seed)
    return np.linalg.cholesky(sigma) @ gen.standard_normal(len(x))


@pytest.fixture(scope="module")
def xz():
    kern = MaternKernel()
    theta = np.array([1.0, 0.1, 0.5])
    x = _locations()
    z = _observations(kern, theta, x)
    return kern, theta, x, z


# ----------------------------------------------------------------------
# from_geometry equivalence per kernel
# ----------------------------------------------------------------------

def _kernel_cases():
    x2 = _locations(60, 2)
    x3 = _locations(60, 3)  # last column doubles as time
    xb = stack_bivariate(_locations(30, 2))
    return [
        ("matern", MaternKernel(), None, x2, True),
        ("exponential", ExponentialKernel(), None, x2, True),
        ("gaussian", GaussianKernel(), None, x2, True),
        ("gneiting", GneitingMaternKernel(), None, x3, True),
        ("anisotropic", AnisotropicMaternKernel(), None, x2, False),
        ("bivariate", BivariateMaternKernel(), None, xb, True),
        ("nugget", NuggetKernel(MaternKernel()), None, x2, True),
    ]


@pytest.mark.parametrize(
    "name,kernel,theta,x,exact",
    _kernel_cases(),
    ids=[c[0] for c in _kernel_cases()],
)
def test_from_geometry_matches_direct(name, kernel, theta, x, exact):
    theta = kernel.default_theta() if theta is None else theta
    half = len(x) // 2
    xa, xb = x[:half], x[half:]
    # Same-set (diagonal tile) form.
    same = kernel(theta, xa)
    via_same = kernel.from_geometry(theta, kernel.prepare_geometry(xa))
    # Cross-set (off-diagonal tile) form.
    cross = kernel(theta, xa, xb)
    via_cross = kernel.from_geometry(theta, kernel.prepare_geometry(xa, xb))
    if exact:
        np.testing.assert_array_equal(via_same, same)
        np.testing.assert_array_equal(via_cross, cross)
    else:
        np.testing.assert_allclose(via_same, same, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(via_cross, cross, rtol=1e-12, atol=1e-14)


def test_cached_assembly_bit_identical(xz):
    kern, theta, x, _ = xz
    cache = GeometryCache()
    direct, _ = build_planned_covariance(kern, theta, x, TILE, nugget=1e-8)
    cached, _ = build_planned_covariance(
        kern, theta, x, TILE, nugget=1e-8, cache=cache
    )
    assert cache.misses == 1
    for key, tile in direct.items():
        np.testing.assert_array_equal(
            cached.get(*key).to_dense64(), tile.to_dense64()
        )
    # Second build hits.
    build_planned_covariance(kern, theta, x, TILE, nugget=1e-8, cache=cache)
    assert cache.hits == 1


# ----------------------------------------------------------------------
# Cache correctness: invariance along a fit, impossible staleness
# ----------------------------------------------------------------------

def test_fit_trace_invariant_under_cache(xz):
    kern, theta, x, z = xz
    kwargs = dict(
        tile_size=TILE, variant="mp-dense-tlr", nugget=1e-8,
        theta0=theta, max_nfev=5, max_iter=5,
    )
    off = fit_mle(kern, x, z, cache=False, **kwargs)
    on = fit_mle(kern, x, z, cache=True, **kwargs)
    assert off.nfev == on.nfev
    assert off.loglik == on.loglik
    np.testing.assert_array_equal(off.theta, on.theta)
    np.testing.assert_array_equal(off.history, on.history)


def test_engine_reuses_geometry_and_warms_hints(xz):
    kern, theta, x, z = xz
    eng = EvaluationEngine(
        kern, x, z, tile_size=TILE, variant="mp-dense-tlr", nugget=1e-8
    )
    first = eng.evaluate(theta)
    second = eng.evaluate(theta * 1.01)
    stats = eng.stats()
    assert stats.evaluations == 2
    assert stats.geometry_misses == 1
    assert stats.geometry_hits == 1
    assert stats.warm_tiles == len(first.report.ranks)
    assert np.isfinite(second.value)


def test_changed_locations_never_reuse_geometry(xz):
    kern, theta, x, z = xz
    cache = GeometryCache()
    loglikelihood(
        kern, theta, x, z, tile_size=TILE, nugget=1e-8, cache=cache
    )
    assert (cache.hits, cache.misses) == (0, 1)
    # Perturbing one coordinate changes the content hash: miss, not hit.
    x2 = x.copy()
    x2[3, 0] += 1e-9
    loglikelihood(
        kern, theta, x2, z, tile_size=TILE, nugget=1e-8, cache=cache
    )
    assert (cache.hits, cache.misses) == (0, 2)


def test_explicit_stale_geometry_rejected(xz):
    kern, theta, x, z = xz
    geom = build_tile_geometry(kern, x, TILE)
    x2 = x.copy()
    x2[0, 1] += 1e-9
    with pytest.raises(ConfigurationError):
        build_planned_covariance(kern, theta, x2, TILE, geometry=geom)
    with pytest.raises(ConfigurationError):
        # Wrong tile size is caught too.
        build_planned_covariance(kern, theta, x, TILE + 1, geometry=geom)


# ----------------------------------------------------------------------
# Parallel equivalence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_dense_fp64_bit_identical(xz, workers):
    kern, theta, x, z = xz
    seq = loglikelihood(kern, theta, x, z, tile_size=TILE, nugget=1e-8)
    par = loglikelihood(
        kern, theta, x, z, tile_size=TILE, nugget=1e-8,
        variant=get_variant("dense-fp64").with_(workers=workers),
    )
    assert par.value == seq.value
    assert par.logdet == seq.logdet
    for key, tile in seq.factor.items():
        np.testing.assert_array_equal(
            par.factor.get(*key).to_dense64(), tile.to_dense64()
        )


@pytest.mark.parametrize("variant", ["mp-dense", "mp-dense-tlr"])
@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_variants_value_identical(xz, variant, workers):
    kern, theta, x, z = xz
    seq = loglikelihood(
        kern, theta, x, z, tile_size=TILE, variant=variant, nugget=1e-8
    )
    par = loglikelihood(
        kern, theta, x, z, tile_size=TILE, nugget=1e-8,
        variant=get_variant(variant).with_(workers=workers),
    )
    assert par.value == seq.value
    # Same representation decisions tile by tile.
    for key, tile in seq.factor.items():
        assert par.factor.get(*key).is_low_rank == tile.is_low_rank


def test_workers_threads_through_variant_config(xz):
    kern, theta, x, z = xz
    cfg = get_variant("mp-dense-tlr")
    from dataclasses import replace

    par_cfg = replace(cfg, name="mp-dense-tlr-w2", workers=2)
    seq = loglikelihood(
        kern, theta, x, z, tile_size=TILE, variant=cfg, nugget=1e-8
    )
    par = loglikelihood(
        kern, theta, x, z, tile_size=TILE, variant=par_cfg, nugget=1e-8
    )
    assert par.value == seq.value


# ----------------------------------------------------------------------
# the low-rank update's accuracy budget, and recovery routing
# ----------------------------------------------------------------------

def test_mp_dense_tlr_stays_inside_the_tlr_budget(xz):
    """Log-likelihood, the fitted optimum and MSPE of ``mp-dense-tlr``
    against the dense reference, all inside the benchmark harness's
    budget ``100 n max(mp_accuracy, tlr_tol)``."""
    kern, theta, x, z = xz
    cfg = get_variant("mp-dense-tlr")
    budget = 100.0 * len(x) * max(cfg.mp_accuracy, cfg.tlr_tol)

    def reference(at):
        return loglikelihood_dense_reference(kern, at, x, z, nugget=1e-8)

    tlr = loglikelihood(
        kern, theta, x, z, tile_size=TILE, variant=cfg, nugget=1e-8
    )
    assert tlr.stats.truncations > 0  # the low-rank update path ran
    assert abs(tlr.value - reference(theta)) <= budget

    held = np.arange(len(x)) % 6 == 0
    fits = {}
    for variant in ("dense-fp64", "mp-dense-tlr"):
        model = ExaGeoStatModel(
            kern, variant, tile_size=TILE, nugget=1e-8, ordering="none"
        ).fit(x[~held], z[~held], theta0=theta, max_iter=20)
        fits[variant] = model.theta_, model.score(x[held], z[held])
    (theta_ref, mspe_ref), (theta_tlr, mspe_tlr) = fits.values()
    # Two surfaces within ``budget`` of each other have maxima within
    # ``2 budget`` of each other on the reference surface.
    assert abs(reference(theta_tlr) - reference(theta_ref)) <= 2.0 * budget
    np.testing.assert_allclose(theta_tlr, theta_ref, rtol=budget)
    assert abs(mspe_tlr - mspe_ref) <= budget * mspe_ref


def test_mp_dense_tlr_results_have_no_history(xz, tmp_path):
    """The range-finder compression is a function of the tile alone, so
    an evaluation is one of ``theta`` alone: an engine that has warm
    rank hints from other iterates, a fresh engine and the one-shot
    call agree to the bit, and a fit resumed from its checkpoint (no
    hints, new cache) lands where the uninterrupted one does."""
    kern, theta, x, z = xz
    kwargs = dict(tile_size=TILE, variant="mp-dense-tlr", nugget=1e-8)
    warm = EvaluationEngine(kern, x, z, **kwargs)
    for scale in (0.7, 1.4):  # hints from far-away iterates: some stale
        warm.evaluate(theta * scale)
    results = {
        "warm": warm.evaluate(theta),
        "cold": EvaluationEngine(kern, x, z, **kwargs).evaluate(theta),
        "one-shot": loglikelihood(kern, theta, x, z, **kwargs),
    }
    def compressed(result):
        """How an evaluation compressed its tiles: at assembly (none
        here) and at the settles (``python -m repro profile``'s tally)."""
        stats = result.stats
        settled = stats.truncations - stats.kept_dense
        at_settle = {"certified": stats.certified,
                     "fallback": settled - stats.certified,
                     "over_cap": stats.kept_dense}
        return {key: result.report.compressed[key] + at_settle[key]
                for key in at_settle}

    cold = compressed(results["cold"])
    assert cold["certified"] > 0  # the sketch ran here
    assert sum(cold.values()) == sum(results["cold"].report.plan.use_lr.values())
    for got in results.values():
        for name in ("value", "logdet", "quadratic"):
            assert getattr(got, name) == getattr(results["one-shot"], name)
        assert got.report.ranks == results["one-shot"].report.ranks
        assert compressed(got) == cold

    fit = dict(theta0=theta, checkpoint_every=2, **kwargs)
    whole = fit_mle(kern, x, z, max_iter=8, **fit)
    path = str(tmp_path / "fit.json")
    fit_mle(kern, x, z, max_iter=4, checkpoint_path=path, **fit)
    resumed = fit_mle(kern, x, z, max_iter=8, checkpoint_path=path, **fit)
    assert resumed.nfev < whole.nfev  # it did resume
    assert resumed.loglik == whole.loglik
    np.testing.assert_array_equal(resumed.theta, whole.theta)


def test_truncations_bounded_by_planned_low_rank_tiles():
    """The tlr-fit-serve workload in miniature (exponential kernel,
    nugget 1e-6, Morton order, 20 x 20 tiles): a planned-low-rank tile
    is truncated exactly once per factorization, however many Schur
    updates it absorbed — it arrives from the assembly owing that
    truncation, so no low-rank tile is ever densified."""
    kern = ExponentialKernel()
    theta = np.array([1.0, 0.1])
    x = _locations(n=400, seed=1)
    z = _observations(kern, theta, x)
    result = loglikelihood(
        kern, theta, x, z, tile_size=20, variant="mp-dense-tlr",
        nugget=1e-6,
    )
    planned = sum(result.report.plan.use_lr.values())
    stats = result.stats
    assert 0 < stats.truncations == planned < stats.kernel_counts["gemm"]
    assert stats.densified_tiles == 0
    assert stats.kept_dense < stats.truncations
    kept = sum(
        not tile.is_low_rank
        for key, tile in result.factor.items()
        if result.report.plan.use_lr[key]
    )
    assert kept == stats.kept_dense


def test_replicated_routes_through_recovery(xz):
    kern, theta, x, _ = xz
    gen = np.random.default_rng(11)
    reps = gen.standard_normal((3, len(x)))
    # The recovery variant must produce values, not raise, and agree
    # with the plain variant when no rescue is needed.
    plain = loglikelihood_replicated(
        kern, theta, x, reps, tile_size=TILE,
        variant="mp-dense-tlr", nugget=1e-8,
    )
    recovered = loglikelihood_replicated(
        kern, theta, x, reps, tile_size=TILE,
        variant="mp-dense-tlr-recover", nugget=1e-8,
    )
    assert recovered.shape == (3,)
    np.testing.assert_allclose(recovered, plain, rtol=1e-8)


def test_replicated_recovery_rescues_indefinite():
    # A near-singular covariance (duplicated locations, no nugget) that
    # breaks the aggressive variant must be rescued by the ladder.
    kern = MaternKernel()
    theta = np.array([1.0, 0.8, 2.5])
    gen = np.random.default_rng(5)
    x = gen.uniform(size=(96, 2))
    x = x[order_points(x, "morton")]
    reps = gen.standard_normal((2, len(x)))
    values = loglikelihood_replicated(
        kern, theta, x, reps, tile_size=24,
        variant="mp-dense-tlr-recover",
    )
    assert np.all(np.isfinite(values))
