"""Batched kernel execution layer: stacked kernels, the panel sweep
and batched covariance generation.

The load-bearing property is the bit-identity contract: every stacked
call must reproduce the per-tile kernels slice for slice, so routing a
factorization (or a whole fit) through the batched layer changes no
result bits.
"""

import numpy as np
import pytest

from repro.core.variants import get_variant
from repro.exceptions import NotPositiveDefiniteError
from repro.kernels import (
    ExponentialKernel,
    GaussianKernel,
    MaternKernel,
    PoweredExponentialKernel,
)
from repro.ordering import order_points
from repro.runtime import execute_cholesky_batched
from repro.tile import (
    DenseTile,
    Precision,
    build_planned_covariance,
    stacked_gemm,
    stacked_trsm,
    tile_cholesky,
)
from repro.tile import kernels as K
from tests.conftest import random_spd_tilematrix

VARIANTS = ("dense-fp64", "mp-dense", "mp-dense-tlr", "mp-dense-tlr-recover")


def _dense_tiles(count, shape, seed, precision=Precision.FP64):
    gen = np.random.default_rng(seed)
    return [
        DenseTile(gen.standard_normal(shape), precision)
        for _ in range(count)
    ]


def _spd_tiles(count, n, seed, precision=Precision.FP64):
    gen = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = gen.standard_normal((n, n))
        out.append(DenseTile(a @ a.T / n + np.eye(n), precision))
    return out


class TestBatchedKernelsEquivalence:
    @pytest.mark.parametrize(
        "precision", [Precision.FP64, Precision.FP32, Precision.FP16]
    )
    def test_stacked_gemm_matches_per_tile(self, precision):
        """A run of ``C`` facing pieces of a panel column stored at
        other precisions, one shared ``B``."""
        parts = [
            _dense_tiles(2, (8, 6), 1, Precision.FP64),
            _dense_tiles(3, (8, 6), 2, Precision.FP16),
            _dense_tiles(1, (8, 6), 3, Precision.FP32),
        ]
        (b,) = _dense_tiles(1, (7, 6), 4, Precision.FP32)
        c = _dense_tiles(6, (8, 7), 5, precision)
        ref = [K.gemm(ai, b, ci) for ai, ci in zip(sum(parts, []), c)]
        stack = np.stack([ci.data for ci in c])
        before = stack.copy()
        for a_parts in (parts, [parts[0]]):
            rows = sum(len(part) for part in a_parts)
            got = stacked_gemm(
                [np.stack([t.data for t in part]) for part in a_parts],
                b.data, stack[:rows], precision,
            )
            assert got.dtype == precision.dtype and got.flags.c_contiguous
            assert not np.shares_memory(got, stack)
            for r, g in zip(ref, got):
                np.testing.assert_array_equal(g, r.data)
        np.testing.assert_array_equal(stack, before)

    @pytest.mark.parametrize(
        "precision", [Precision.FP64, Precision.FP32, Precision.FP16]
    )
    def test_trsm_matches_per_tile(self, precision):
        low = K.potrf(_spd_tiles(1, 6, 6)[0])
        tiles = _dense_tiles(5, (8, 6), 7, precision)
        ref = [K.trsm(low, t) for t in tiles]
        stack = stacked_trsm(low, np.stack([t.data for t in tiles]), precision)
        assert stack.dtype == precision.dtype and stack.flags.c_contiguous
        for r, g in zip(ref, stack):
            np.testing.assert_array_equal(g, r.data)


class TestBatchedDispatcher:
    @pytest.mark.parametrize("nt", [4, 8])
    def test_dense_fp64_bit_identical(self, nt):
        tm = random_spd_tilematrix(nt * 16, 16, seed=nt)
        ref, ref_stats = tile_cholesky(tm.copy())
        got, report = execute_cholesky_batched(tm.copy())
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), got.to_dense(lower_only=True)
        )
        assert ref_stats.kernel_counts == report.stats.kernel_counts
        assert isinstance(report.stats.kernel_counts, dict)
        assert report.batched_tasks + report.fallback_tasks == report.tasks

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("nt", [4, 8])
    def test_planned_variants_bit_identical(self, variant, nt, matern, theta_matern):
        """All four shipped variants factor bit-identically through the
        batched dispatcher (MP/TLR included: batching regroups the same
        per-tile operations)."""
        cfg = get_variant(variant)
        gen = np.random.default_rng(100 + nt)
        x = gen.uniform(size=(nt * 24, 2))
        x = x[order_points(x, "morton")]
        mat, rep = build_planned_covariance(
            matern, theta_matern, x, 24, nugget=1e-8, **cfg.assembly_kwargs()
        )
        ref, _ = tile_cholesky(mat.copy(), tile_tol=rep.tile_tol)
        got, _ = execute_cholesky_batched(mat.copy(), tile_tol=rep.tile_tol)
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), got.to_dense(lower_only=True)
        )

    def test_workers_deterministic(self):
        """Multi-worker dispatch (clamp off: real threads even on
        few-core hosts) reproduces the single-worker result exactly."""
        tm = random_spd_tilematrix(160, 16, seed=21)
        one, _ = execute_cholesky_batched(tm.copy(), workers=1)
        many, report = execute_cholesky_batched(
            tm.copy(), workers=4, clamp=False
        )
        np.testing.assert_array_equal(
            one.to_dense(lower_only=True), many.to_dense(lower_only=True)
        )
        assert report.workers == 4

    def test_indefinite_raises_npd(self):
        from repro.tile import TileMatrix

        a = np.diag([1.0, -4.0, 1.0, 1.0])
        tm = TileMatrix.from_dense(a, 2)
        with pytest.raises(NotPositiveDefiniteError):
            execute_cholesky_batched(tm)

    def test_zero_workers_rejected(self):
        from repro.exceptions import SchedulingError

        tm = random_spd_tilematrix(8, 4, seed=25)
        with pytest.raises(SchedulingError):
            execute_cholesky_batched(tm, workers=0)


class TestBatchedLikelihood:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loglikelihood_batch_equals_per_tile(self, variant, matern,
                                                 theta_matern, locations_200):
        from repro.core.likelihood import loglikelihood

        gen = np.random.default_rng(30)
        z = gen.standard_normal(200)
        ref = loglikelihood(
            matern, theta_matern, locations_200, z, tile_size=40,
            variant=variant, nugget=1e-8,
        )
        got = loglikelihood(
            matern, theta_matern, locations_200, z, tile_size=40,
            variant=get_variant(variant).with_(batch=True), nugget=1e-8,
        )
        assert got.value == ref.value
        assert got.logdet == ref.logdet
        assert got.quadratic == ref.quadratic

    def test_engine_batch_knob(self, matern, theta_matern, locations_200):
        from repro.core.engine import EvaluationEngine

        gen = np.random.default_rng(31)
        z = gen.standard_normal(200)
        ref = EvaluationEngine(
            matern, locations_200, z, tile_size=40, variant="mp-dense-tlr",
            nugget=1e-8,
        ).evaluate(theta_matern)
        got = EvaluationEngine(
            matern, locations_200, z, tile_size=40,
            variant=get_variant("mp-dense-tlr").with_(batch=True),
            nugget=1e-8,
        ).evaluate(theta_matern)
        assert got.value == ref.value

    def test_model_batch_knob(self, locations_200):
        from repro import ExaGeoStatModel

        gen = np.random.default_rng(33)
        z = gen.standard_normal(200)
        kwargs = dict(kernel="matern", tile_size=40, nugget=1e-8)
        fit_kwargs = dict(theta0=np.array([1.0, 0.1, 0.5]), max_iter=4)
        variant = get_variant("mp-dense-tlr")
        ref = ExaGeoStatModel(variant=variant, **kwargs).fit(
            locations_200, z, **fit_kwargs
        )
        got = ExaGeoStatModel(
            variant=variant.with_(batch=True), **kwargs
        ).fit(locations_200, z, **fit_kwargs)
        assert got.loglik_ == ref.loglik_
        np.testing.assert_array_equal(got.theta_, ref.theta_)

    def test_deadline_runs_on_the_sweep(self, matern, theta_matern,
                                        locations_200):
        """A deadline does not drop batching: the sweep polls it at
        panel boundaries (tests/test_execution_matrix.py pins the
        expired case), and an unexpired one changes no result bit."""
        from repro.core.likelihood import loglikelihood
        from repro.resilience import Deadline

        gen = np.random.default_rng(32)
        z = gen.standard_normal(200)
        got = loglikelihood(
            matern, theta_matern, locations_200, z, tile_size=40,
            variant=get_variant("dense-fp64").with_(batch=True), nugget=1e-8,
            deadline=Deadline.after(60.0),
        )
        ref = loglikelihood(
            matern, theta_matern, locations_200, z, tile_size=40,
            variant="dense-fp64", nugget=1e-8,
        )
        assert got.value == ref.value


class TestBatchedGeneration:
    KERNELS = [
        (MaternKernel(), np.array([1.0, 0.1, 0.8])),  # generic-nu kve path
        (MaternKernel(), np.array([1.0, 0.1, 0.5])),  # closed form
        (ExponentialKernel(), np.array([1.0, 0.1])),
        (GaussianKernel(), np.array([1.0, 0.1])),
        (PoweredExponentialKernel(), np.array([1.0, 0.1, 1.5])),  # base fallback
    ]

    @pytest.mark.parametrize("kernel,theta", KERNELS)
    def test_from_geometry_batch_bit_identical(self, kernel, theta):
        gen = np.random.default_rng(40)
        x = gen.uniform(size=(90, 2))
        geoms = [
            kernel.prepare_geometry(x[:30]),  # same-set (diagonal form)
            kernel.prepare_geometry(x[:30], x[30:60]),
            kernel.prepare_geometry(x[30:60], x[60:]),
        ]
        ref = [kernel.from_geometry(theta, g) for g in geoms]
        got = kernel.from_geometry_batch(theta, geoms)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g, r)

    def test_from_geometry_batch_spacetime(self, gneiting):
        gen = np.random.default_rng(41)
        x = np.column_stack([
            gen.uniform(size=(60, 2)), np.repeat(np.arange(6.0), 10)
        ])
        theta = np.array([1.0, 0.1, 0.5, 1.0, 0.5, 0.5])
        geoms = [
            gneiting.prepare_geometry(x[:20]),
            gneiting.prepare_geometry(x[:20], x[20:]),
        ]
        ref = [gneiting.from_geometry(theta, g) for g in geoms]
        got = gneiting.from_geometry_batch(theta, geoms)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g, r)

    def test_concat_split_roundtrip(self):
        from repro.kernels.base import concat_flat, split_flat

        gen = np.random.default_rng(42)
        arrays = [gen.standard_normal(s) for s in [(3, 4), (2, 2), (5,)]]
        flat, shapes = concat_flat(arrays)
        back = split_flat(flat, shapes)
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)
        flat_empty, shapes_empty = concat_flat([])
        assert flat_empty.size == 0 and shapes_empty == []

    def test_assembly_batch_bit_identical(self, matern, theta_matern,
                                          locations_200):
        ref, ref_rep = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_mp=True, use_tlr=True,
        )
        got, got_rep = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_mp=True, use_tlr=True, batch=True,
        )
        np.testing.assert_array_equal(
            ref.to_dense(lower_only=True), got.to_dense(lower_only=True)
        )
        assert got_rep.global_norm == ref_rep.global_norm

    def test_generate_blocks_need_norms_off(self, matern, theta_matern,
                                            locations_200):
        from repro.tile.assembly import _generate_blocks
        from repro.tile.layout import TileLayout

        layout = TileLayout(200, 40)
        blocks, norms, total = _generate_blocks(
            matern, theta_matern, locations_200, layout, 1e-8,
            need_norms=False,
        )
        assert norms == {} and total == 0.0
        full, full_norms, full_total = _generate_blocks(
            matern, theta_matern, locations_200, layout, 1e-8,
        )
        assert full_total > 0.0 and len(full_norms) == len(full)
        for key in full:
            np.testing.assert_array_equal(blocks[key], full[key])


class TestCholeskyStatsCounter:
    def test_count_batch_merges_into_plain_dict(self):
        from collections import Counter

        from repro.tile import CholeskyStats

        stats = CholeskyStats()
        stats.count("potrf")
        stats.count_batch(Counter({"gemm": 3, "trsm": 2}))
        stats.count_batch(["gemm", "syrk"])
        assert type(stats.kernel_counts) is dict
        assert stats.kernel_counts == {
            "potrf": 1, "gemm": 4, "trsm": 2, "syrk": 1
        }
