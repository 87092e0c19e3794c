"""The Matérn table of approximate variants' generation.

An approximate variant (``use_mp`` / ``use_tlr``) generates a Matérn
covariance at a Bessel smoothness from a per-evaluation cubic table of
``log M_nu`` over log-distance; everything else stays on the exact
``kve`` path, byte for byte.  Covered here: the table's error against
:func:`matern_correlation` and the certificate it reports, its fallback
to the exact bytes, exact zero distances, the exact paths' bytes, the
table's independence of every execution setting, and the prediction
cross panels that spend the same budget.
"""

import hashlib

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from repro.core import PredictionEngine, get_variant
from repro.core.simulation import conditional_simulation
from repro.data import uniform_locations
from repro.kernels import ExponentialKernel, MaternKernel, matern_correlation
from repro.kernels.matern import DistanceGeometry
from repro.obs import Telemetry
from repro.tile import (
    GeometryCache,
    build_planned_covariance,
    build_tile_geometry,
    tile_cholesky,
)

#: The benchmark workloads' observation network: the first n of
#: ``uniform_locations(n + 200, seed=20220101)``, n = 1800 and 3600.
WORKLOAD_SEED = 20220101

#: nu over the kernel's range (0, 5), half-integers skipped (their
#: closed forms never take the table).
SMOOTHNESS = (0.1, 0.27, 0.4358, 0.8, 1.2, 1.94, 2.2, 3.1, 3.7, 4.95)
RANGES = (0.02, 0.05, 0.1, 0.2, 0.5)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module", params=[1800, 3600], ids=["n1800", "n3600"])
def workload_distances(request):
    """Distances over one workload's positive-distance span — its two
    ends exactly, a log-uniform sweep between them — plus coincident
    points (exact zeros)."""
    n = request.param
    x = uniform_locations(n + 200, seed=WORKLOAD_SEED)[:n]
    d = pdist(x)
    lo, hi = float(d[d > 0].min()), float(d.max())
    gen = np.random.default_rng(n)
    sweep = np.exp(gen.uniform(np.log(lo), np.log(hi), size=20_000))
    return np.concatenate([[lo, hi, 0.0], sweep, np.zeros(7), d[:5_000]])


class TestTableAccuracy:
    def test_error_within_its_certificate_over_the_sweep(
        self, workload_distances
    ):
        kernel = MaternKernel()
        flat = DistanceGeometry(workload_distances, same=False)
        positive = workload_distances > 0.0
        for nu in SMOOTHNESS:
            for rng in RANGES:
                theta = np.array([2.0, rng, nu])
                values, rtol = kernel.from_flat_geometry(
                    theta, flat, accuracy=1e-10
                )
                cell = (nu, rng)
                assert 0.0 < rtol <= 1e-10, cell  # the table was taken
                exact = 2.0 * matern_correlation(workload_distances / rng, nu)
                err = np.abs(values[positive] / exact[positive] - 1.0).max()
                assert err <= rtol, (cell, err, rtol)
                assert (values[~positive] == 2.0).all(), cell

    @pytest.mark.parametrize("nugget", [0.0, 0.05])
    def test_zero_distance_is_exactly_the_variance(self, nugget):
        kernel = MaternKernel(nugget=nugget)
        d = np.concatenate([np.zeros(3), np.geomspace(1e-3, 1.4, 5000)])
        values, rtol = kernel.from_flat_geometry(
            np.array([2.0, 0.1, 0.8]), DistanceGeometry(d, same=True),
            accuracy=1e-10,
        )
        assert rtol > 0.0
        assert (values[:3] == 2.0 + nugget).all()
        assert (values[3:] < 2.0).all()

    def test_a_target_tighter_than_the_table_is_the_exact_path(self):
        kernel = MaternKernel()
        theta = np.array([1.0, 0.1, 0.8])
        x = uniform_locations(300, seed=11)
        exact, _ = build_planned_covariance(kernel, theta, x, 50, nugget=1e-6)
        tight, report = build_planned_covariance(
            kernel, theta, x, 50, nugget=1e-6, use_mp=True, mp_accuracy=1e-14,
        )
        assert report.generation_rtol == 0.0
        for key, tile in exact.items():
            assert tight.get(*key).to_dense64().tobytes() == tile.data.tobytes()
        flat = build_tile_geometry(kernel, x, 50).flat
        values, rtol = kernel.from_flat_geometry(theta, flat, accuracy=1e-16)
        reference, _ = kernel.from_flat_geometry(theta, flat)
        assert rtol == 0.0 and values.tobytes() == reference.tobytes()

    def test_closed_forms_and_one_distance_stay_exact(self):
        kernel = MaternKernel()
        d = np.geomspace(1e-3, 1.4, 2000)
        for theta, flat in (
            (np.array([1.0, 0.1, 1.5]), DistanceGeometry(d, same=False)),
            (np.array([1.0, 0.1, 0.8]),
             DistanceGeometry(np.full(10, 0.3), same=False)),
            (np.array([1.0, 0.1, 0.8]),
             DistanceGeometry(np.zeros(10), same=True)),
        ):
            values, rtol = kernel.from_flat_geometry(theta, flat, accuracy=1e-8)
            reference, _ = kernel.from_flat_geometry(theta, flat)
            assert rtol == 0.0 and values.tobytes() == reference.tobytes()


# ----------------------------------------------------------------------
# Exact paths keep their bytes; the table is schedule-free
# ----------------------------------------------------------------------

#: Digests of the exact paths' values at nu = 0.8, taken before the
#: table existed (same data as ``exact_case``).  The reference's entry
#: is the covariance it factors: its ``potrf`` rounds differently at
#: different BLAS thread counts, its generation must not move at all.
EXACT_DIGESTS = {
    "dense-fp64": "4066f6c36c338af0",
    "reference": "718256ef0f842b39",
    "cross": "7229cf88a027d520",
    "simulation": "492a6e4e47992fc1",
}


@pytest.fixture(scope="module")
def exact_case():
    gen = np.random.default_rng(2022)
    x = gen.uniform(size=(150, 2))
    x_test = gen.uniform(size=(40, 2))
    z = gen.standard_normal(150)
    return MaternKernel(), np.array([1.3, 0.12, 0.8]), x, x_test, z


class TestExactPathsStayExact:
    def test_exact_values_keep_their_bytes(self, exact_case):
        kernel, theta, x, x_test, z = exact_case
        matrix, report = build_planned_covariance(
            kernel, theta, x, 40, nugget=1e-6
        )
        assert report.generation_rtol == 0.0
        got = {
            "dense-fp64": _digest(*(t.data for _, t in sorted(matrix.items()))),
            "reference": _digest(kernel.covariance_matrix(
                theta, x, nugget=1e-6)),
        }
        factor = tile_cholesky(matrix)[0]
        engine = PredictionEngine(
            kernel, theta, x, z, factor, variant="dense-fp64"
        )
        cross, rtol = engine._cross_values(x_test, use_cache=False)
        assert rtol == 0.0
        got["cross"] = _digest(cross)
        got["simulation"] = _digest(conditional_simulation(
            kernel, theta, x, z, x_test, factor, size=3, seed=5))
        assert got == EXACT_DIGESTS

    def test_table_bytes_ignore_every_execution_setting(
        self, exact_case, monkeypatch
    ):
        import repro.kernels.base as base

        kernel, theta, x, _, _ = exact_case
        x = np.vstack([x, x[:5]])  # coincident points
        digests = set()
        for chunk in (base.GEOMETRY_CHUNK, 777):
            monkeypatch.setattr(base, "GEOMETRY_CHUNK", chunk)
            for source in ("geometry", "cache", "neither"):
                for workers in (1, 2, 3):
                    for batch in (False, True):
                        given = {}
                        if source == "geometry":
                            given["geometry"] = build_tile_geometry(kernel, x, 40)
                        elif source == "cache":
                            given["cache"] = GeometryCache()
                        matrix, report = build_planned_covariance(
                            kernel, theta, x, 40, nugget=1e-6, use_mp=True,
                            use_tlr=True, workers=workers, batch=batch,
                            **given,
                        )
                        assert report.generation_rtol > 0.0
                        digests.add((
                            _digest(*(t.to_dense64() for _, t in
                                      sorted(matrix.items()))),
                            report.generation_rtol,
                        ))
        assert len(digests) == 1

    def test_generate_span_says_which_path_ran(self, exact_case):
        kernel, theta, x, _, _ = exact_case
        for use_mp, table in ((False, False), (True, True)):
            telemetry = Telemetry()
            _, report = build_planned_covariance(
                kernel, theta, x, 40, use_mp=use_mp, telemetry=telemetry,
            )
            (span,) = telemetry.tracer.by_name("generate")
            assert span.attrs["table"] is table
            assert span.attrs["rtol"] == report.generation_rtol
            assert (report.generation_rtol > 0.0) is table

    def test_table_span_is_a_property_of_the_geometry(self, exact_case):
        kernel, _, x, _, _ = exact_case
        flat = build_tile_geometry(kernel, x, 40).flat
        lo, hi = flat.positive_span
        assert lo == flat.r[flat.r > 0].min() and hi == flat.r.max()
        assert flat.positive_span is flat.positive_span  # computed once


# ----------------------------------------------------------------------
# Prediction cross panels spend the variant's budget
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def served(exact_case):
    """``exact_case`` with the exact factor every engine below serves."""
    kernel, theta, x, x_test, z = exact_case
    matrix, _ = build_planned_covariance(kernel, theta, x, 40, nugget=1e-6)
    return kernel, theta, x, x_test, z, tile_cholesky(matrix)[0]


class TestPredictionPanels:
    def test_panel_is_within_its_certificate(self, served):
        kernel, theta, x, x_test, z, factor = served
        engine = PredictionEngine(kernel, theta, x, z, factor, variant="mp-dense")
        panel, rtol = engine._cross_values(x_test, use_cache=False)
        assert 0.0 < rtol <= 1e-10
        exact = kernel(theta, x, x_test)
        assert np.abs(panel / exact - 1.0).max() <= rtol

    def test_panel_bytes_ignore_width_cache_and_api(self, served, monkeypatch):
        import repro.kernels.base as base

        kernel, theta, x, x_test, z, factor = served
        monkeypatch.setattr(base, "GEOMETRY_CHUNK", 777)  # many slices
        panels, preds = set(), set()
        for workers in (1, 2, 3):
            for cache in (None, GeometryCache()):
                engine = PredictionEngine(
                    kernel, theta, x, z, factor, cache=cache,
                    variant=get_variant("mp-dense").with_(workers=workers),
                )
                compute = engine._cross_values

                def spy(*args, **kwargs):
                    cross, rtol = compute(*args, **kwargs)
                    panels.add((_digest(cross), rtol))
                    return cross, rtol

                monkeypatch.setattr(engine, "_cross_values", spy)
                whole = engine.predict(
                    x_test, return_uncertainty=True, batch=len(x_test))
                (streamed,) = engine.predict_iter(
                    x_test, return_uncertainty=True, batch=len(x_test))
                for pred in (whole, streamed):
                    preds.add(_digest(pred.mean, pred.variance))
        assert len(panels) == 1 and len(preds) == 1
        assert next(iter(panels))[1] > 0.0

    def test_prediction_is_within_1e9_of_the_exact_panel(self, served):
        kernel, theta, x, x_test, z, factor = served
        approx, exact = (
            PredictionEngine(kernel, theta, x, z, factor, variant=variant)
            .predict(x_test, return_uncertainty=True)
            for variant in ("mp-dense", "dense-fp64")
        )
        assert np.abs(approx.mean - exact.mean).max() <= 1e-9
        assert np.abs(approx.variance - exact.variance).max() <= 1e-9

    @pytest.mark.parametrize("case", [
        "tight-budget", "nu-1.5", "exponential", "dense-fp64",
    ])
    def test_exact_panels_keep_their_bytes(self, served, case):
        kernel, theta, x, x_test, z, factor = served
        variant = get_variant("mp-dense")
        if case == "tight-budget":
            variant = variant.with_(mp_accuracy=1e-14)
        elif case == "nu-1.5":
            theta = np.array([1.3, 0.12, 1.5])
        elif case == "exponential":
            kernel, theta = ExponentialKernel(), np.array([1.3, 0.12])
        else:
            variant = "dense-fp64"
        engine = PredictionEngine(kernel, theta, x, z, factor, variant=variant)
        panel, rtol = engine._cross_values(x_test, use_cache=False)
        reference, _ = kernel.from_flat_geometry(theta, DistanceGeometry(
            kernel.prepare_geometry(x, x_test).r.reshape(-1), same=False))
        assert rtol == 0.0
        assert panel.tobytes() == reference.tobytes()

    def test_predict_batch_span_reports_the_panel(self, served):
        kernel, theta, x, x_test, z, factor = served
        for variant, table in (("mp-dense", True), ("dense-fp64", False)):
            telemetry = Telemetry()
            engine = PredictionEngine(
                kernel, theta, x, z, factor, variant=variant,
                telemetry=telemetry,
            )
            (_, rtol) = engine._cross_values(x_test, use_cache=False)
            for _ in range(2):  # the second call is a cache hit
                engine.predict(x_test, batch=len(x_test))
            assert engine.stats().cross_hits == 1
            spans = telemetry.tracer.by_name("predict_batch")
            assert [(s.attrs["table"], s.attrs["rtol"]) for s in spans] == [
                (table, rtol)
            ] * 2
