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
from repro.exceptions import NotPositiveDefiniteError, ShapeError
from repro.kernels import (
    AnisotropicMaternKernel,
    BivariateMaternKernel,
    ExponentialKernel,
    GaussianKernel,
    GneitingMaternKernel,
    MaternKernel,
    NuggetKernel,
    PoweredExponentialKernel,
    stack_bivariate,
)
from repro.ordering import order_points
from repro.runtime import execute_cholesky_batched
from repro.tile import (
    DenseTile,
    GeometryCache,
    LowRankTile,
    Precision,
    build_planned_covariance,
    build_tile_geometry,
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
    def test_stacked_gemm_in_place(self, precision):
        """``out=c_stack`` (the sweep's hook-free update) writes the
        fresh result's bytes into the run's own stack."""
        parts = [np.stack([t.data for t in _dense_tiles(3, (8, 6), 1)])]
        (b,) = _dense_tiles(1, (7, 6), 4, Precision.FP32)
        stack = np.stack([c.data for c in _dense_tiles(3, (8, 7), 5, precision)])
        fresh = stacked_gemm(parts, b.data, stack, precision)
        got = stacked_gemm(parts, b.data, stack, precision, out=stack)
        assert got is stack and got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("rank", [0, 1, 4])
    def test_stacked_gemm_low_rank_b_matches_per_tile(self, rank):
        """A float64 run — dense FP64 rows and accumulating
        planned-low-rank rows of any storage — against a low-rank
        ``B``: ``(A V_B) U_B^T`` per slice, whatever ``A`` is."""
        gen = np.random.default_rng(rank)
        b = LowRankTile(gen.standard_normal((7, rank)),
                        gen.standard_normal((6, rank)), Precision.FP32)
        a = [
            *_dense_tiles(2, (8, 6), 1, Precision.FP64),
            LowRankTile(gen.standard_normal((8, 2)),
                        gen.standard_normal((6, 2)), Precision.FP32),
            *_dense_tiles(1, (8, 6), 3, Precision.FP16),
        ]
        owed = (1e-9, 3)
        c = [
            DenseTile(gen.standard_normal((8, 7))),
            LowRankTile(gen.standard_normal((8, 2)),
                        gen.standard_normal((7, 2)), Precision.FP32),
            DenseTile(gen.standard_normal((8, 7)), Precision.FP16, owed),
            DenseTile(gen.standard_normal((8, 7))),
        ]
        ref = [K.gemm(ai, b, ci, tol=owed[0], max_rank=owed[1])
               for ai, ci in zip(a, c)]
        stack = np.stack([ci.to_dense64() for ci in c])
        wide = np.stack([ai.to_dense64() for ai in a])
        for parts in ([wide], [wide[:2], wide[2:3], wide[3:]]):
            got = stacked_gemm(parts, b, stack, Precision.FP64)
            assert got.dtype == np.float64 and not np.shares_memory(got, stack)
            for r, g in zip(ref, got):
                assert g.tobytes() == r.data.tobytes()
        assert [r.owed for r in ref] == [None, owed, owed, None]
        with pytest.raises(ShapeError):
            stacked_gemm([wide], b, np.zeros(stack.shape, np.float32),
                         Precision.FP32)

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
        y = gen.uniform(size=(45, 2)) * 3.0  # unrelated locations
        geoms = [
            kernel.prepare_geometry(x[:30]),  # same-set (diagonal form)
            kernel.prepare_geometry(x[:30], x[30:60]),
            kernel.prepare_geometry(x[30:60], x[60:]),
            kernel.prepare_geometry(y[:17], y[17:]),
            kernel.prepare_geometry(y),
        ]
        ref = [kernel.from_geometry(theta, g) for g in geoms]
        got = kernel.from_geometry_batch(theta, geoms)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g, r)
        assert kernel.from_geometry_batch(theta, []) == []

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


# ----------------------------------------------------------------------
# One generation path: every kernel x geometry source x workers x batch
# reproduces the per-tile loop it replaced, byte for byte
# ----------------------------------------------------------------------

def _generation_kernels():
    gen = np.random.default_rng(43)
    x2 = gen.uniform(size=(100, 2))
    x2 = x2[order_points(x2, "morton")]
    xt = np.column_stack([x2, np.repeat(np.arange(5.0), 20)])
    xb = stack_bivariate(x2[:50])
    return [
        # element-wise: one flat buffer in slices
        ("matern-bessel", MaternKernel(), [1.0, 0.1, 0.8], x2),
        ("matern-closed", MaternKernel(), [1.0, 0.1, 1.5], x2),
        ("matern-own-nugget", MaternKernel(nugget=0.05), [1.0, 0.1, 0.8], x2),
        ("exponential", ExponentialKernel(), [1.0, 0.1], x2),
        ("gaussian", GaussianKernel(), [1.0, 0.05], x2),
        ("powered", PoweredExponentialKernel(), [1.0, 0.1, 1.5], x2),
        ("gneiting", GneitingMaternKernel(), [1.0, 0.1, 0.5, 1.0, 0.5, 0.5], xt),
        # evaluated tile by tile
        ("anisotropic", AnisotropicMaternKernel(), [1.0, 0.2, 0.1, 0.3, 0.8], x2),
        ("bivariate", BivariateMaternKernel(), [1.0, 1.0, 0.1, 0.5, 1.0, 0.5], xb),
        ("nugget(matern)", NuggetKernel(MaternKernel()), [1.0, 0.1, 0.8, 0.01], x2),
        ("nugget(aniso)", NuggetKernel(AnisotropicMaternKernel()),
         [1.0, 0.2, 0.1, 0.3, 0.8, 0.01], x2),
    ]


#: ``(n, tile, chunk)``; ``chunk`` shrinks the slice length so small
#: inputs cross slice boundaries (``None``: the shipped constant).
_GENERATION_LAYOUTS = {
    "ragged-last-tile": (100, 32, 1000),   # slice ends inside tiles
    "one-tile": (40, 64, 1000),            # nt = 1, two slices
    "below-one-slice": (24, 10, 1000),     # fewer entries than a slice
    "shipped-slice": (100, 32, None),
}


#: The cells whose approximate plan generates from the Matern table.
_TABLE_KERNELS = ("matern-bessel", "matern-own-nugget")


def _per_tile_reference(kernel, theta, x, tile, nugget, *, prepared):
    """The per-tile loop ``_generate_blocks`` ran before there was one
    path: from prepared geometry, or (``prepared=False``) by calling
    the kernel on the location pair."""
    from repro.tile.layout import TileLayout

    layout = TileLayout(len(x), tile)
    blocks, norms, total = {}, {}, 0.0
    for i, j in layout.lower_tiles():
        rows, cols = x[layout.block_slice(i)], x[layout.block_slice(j)]
        pair = (rows,) if i == j else (rows, cols)
        if prepared:
            block = kernel.from_geometry(theta, kernel.prepare_geometry(*pair))
        else:
            block = kernel(theta, *pair)
        if i == j:
            block = 0.5 * (block + block.T)
            block[np.diag_indices_from(block)] += nugget
        blocks[(i, j)] = block
        norms[(i, j)] = float(np.linalg.norm(block))
        total += (1.0 if i == j else 2.0) * norms[(i, j)] ** 2
    return blocks, norms, float(np.sqrt(total))


class TestOneGenerationPath:
    @pytest.mark.parametrize("layout_case", list(_GENERATION_LAYOUTS))
    @pytest.mark.parametrize(
        "name,kernel,theta,x", _generation_kernels(),
        ids=[c[0] for c in _generation_kernels()],
    )
    def test_matches_per_tile_loop(self, name, kernel, theta, x, layout_case,
                                   monkeypatch):
        import repro.kernels.base as base

        n, tile, chunk = _GENERATION_LAYOUTS[layout_case]
        if chunk is not None:
            monkeypatch.setattr(base, "GEOMETRY_CHUNK", chunk)
        theta, x, nugget = np.asarray(theta), x[:n], 1e-8
        plans = {}
        for source in ("geometry", "cache", "neither"):
            # Without geometry the per-tile kernels keep the direct call
            # (the anisotropic kernel's prepared geometry rounds
            # differently from it).
            blocks, norms, total = _per_tile_reference(
                kernel, theta, x, tile, nugget,
                prepared=source != "neither" or kernel.elementwise_geometry,
            )
            for workers in (1, 2, 3):
                for batch in (False, True):
                    given = {}
                    if source == "geometry":
                        given["geometry"] = build_tile_geometry(kernel, x, tile)
                    elif source == "cache":
                        given["cache"] = GeometryCache()
                    mat, rep = build_planned_covariance(
                        kernel, theta, x, tile, nugget=nugget,
                        workers=workers, batch=batch, **given,
                    )
                    cell = (name, layout_case, source, workers, batch)
                    assert rep.tile_norms == norms, cell
                    assert rep.global_norm == total, cell
                    for key, block in blocks.items():
                        assert mat.get(*key).data.tobytes() == block.tobytes(), (
                            cell, key)
                    _, planned = build_planned_covariance(
                        kernel, theta, x, tile, nugget=nugget, use_mp=True,
                        use_tlr=True, mp_accuracy=1e-6, tlr_tol=1e-6,
                        workers=workers, batch=batch, **given,
                    )
                    # An approximate variant generates a Bessel-smoothness
                    # Matern from its table: norms within the certified
                    # error of the exact ones; every other kernel exactly.
                    rtol = planned.generation_rtol
                    assert (rtol > 0.0) == (name in _TABLE_KERNELS), cell
                    if rtol:
                        for key, norm in norms.items():
                            assert abs(planned.tile_norms[key] - norm) <= (
                                rtol * norm), (cell, key)
                    else:
                        assert planned.tile_norms == norms, cell
                    plans.setdefault(source, set()).add((
                        tuple(sorted(planned.plan.precisions.items())),
                        tuple(sorted(planned.plan.use_lr.items())),
                        tuple(sorted(planned.ranks.items())),
                        tuple(sorted(planned.tile_norms.items())), rtol,
                    ))
        # One plan and one set of norms whatever workers / batch were,
        # and for an element-wise kernel whatever the geometry came from.
        assert all(len(seen) == 1 for seen in plans.values())
        if kernel.elementwise_geometry:
            assert len(set.union(*plans.values())) == 1

    def test_kernel_nugget_lands_on_exact_zero_distances_only(self):
        """The flat buffer keeps the exact-zero self-distances of the
        diagonal tiles, and only those entries receive the kernel's
        own nugget — also when a slice boundary cuts the tile."""
        kernel = MaternKernel(nugget=0.25)
        theta = np.array([2.0, 0.1, 0.8])
        x = np.random.default_rng(44).uniform(size=(300, 2))
        geometry = build_tile_geometry(kernel, x, 200)  # 40 000-entry tile
        assert int((geometry.flat.r == 0.0).sum()) == len(x)
        mat, _ = build_planned_covariance(
            kernel, theta, x, 200, geometry=geometry, workers=2)
        dense = mat.to_dense()
        np.testing.assert_array_equal(np.diag(dense), np.full(len(x), 2.25))
        off = dense[~np.eye(len(x), dtype=bool)]
        assert off.max() < 2.0

    def test_tile_geometry_is_views_of_one_buffer(self):
        kernel = GneitingMaternKernel()
        gen = np.random.default_rng(45)
        x = np.column_stack([gen.uniform(size=(70, 2)), np.arange(70.0) % 7])
        geometry = build_tile_geometry(kernel, x, 32)
        keys = geometry.layout.lower_tiles()
        assert list(geometry.tiles) == keys
        for name in ("h", "u"):
            flat = getattr(geometry.flat, name)
            assert flat.ndim == 1 and flat.size == geometry.layout.lower_entries()
            pos = 0
            for key in keys:
                view = getattr(geometry.tile(*key), name)
                assert view.shape == geometry.layout.tile_shape(*key)
                assert np.shares_memory(view, flat[pos:pos + view.size])
                pos += view.size
        assert geometry.nbytes == 2 * 8 * geometry.layout.lower_entries()
        # A per-tile kernel keeps per-tile arrays and no flat buffer.
        assert build_tile_geometry(
            AnisotropicMaternKernel(), x[:, :2], 32).flat is None


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
