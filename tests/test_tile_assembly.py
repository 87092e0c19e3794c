"""Tests for tile-wise covariance assembly and the planning pipeline."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.tile.kernels import settle
from repro.tile import (
    Precision,
    assemble_dense,
    build_planned_covariance,
    plan_summary,
    ranked_plan,
    tile_cholesky,
)


class TestAssembleDense:
    def test_matches_direct_covariance(self, matern, theta_matern, locations_200):
        tm = assemble_dense(matern, theta_matern, locations_200, 48, nugget=1e-8)
        direct = matern.covariance_matrix(theta_matern, locations_200, nugget=1e-8)
        np.testing.assert_allclose(tm.to_dense(), direct, atol=1e-13)

    def test_ragged_tiles(self, matern, theta_matern, locations_200):
        tm = assemble_dense(matern, theta_matern, locations_200, 37)
        assert tm.n == 200
        assert tm.complete


class TestPlannedDenseFP64:
    def test_all_dense_fp64(self, tiled_cov_200):
        mat, report = tiled_cov_200
        counts = mat.structure_counts()
        assert set(counts) == {"dense/FP64"}
        assert report.plan.band_size_dense == 1

    def test_global_norm_consistent(self, tiled_cov_200):
        mat, report = tiled_cov_200
        assert report.global_norm == pytest.approx(
            mat.global_fro_norm(), rel=1e-10
        )


class TestPlannedMP:
    def test_weak_correlation_demotes(self, matern, locations_200):
        theta = np.array([1.0, 0.03, 0.5])
        mat, report = build_planned_covariance(
            matern, theta, locations_200, 40, nugget=1e-8, use_mp=True
        )
        counts = mat.structure_counts()
        assert counts.get("dense/FP16", 0) + counts.get("dense/FP32", 0) > 0

    def test_strong_correlation_stays_fp64(self, matern, locations_200):
        theta = np.array([1.0, 0.3, 0.5])
        mat, _ = build_planned_covariance(
            matern, theta, locations_200, 40, nugget=1e-8, use_mp=True
        )
        counts = mat.structure_counts()
        assert counts.get("dense/FP16", 0) == 0

    def test_band_mode(self, matern, theta_matern, locations_200):
        mat, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_mp=True, mp_mode="band", mp_fp64_band=2, mp_fp32_band=3,
        )
        plan = report.plan
        assert plan.precision_of(1, 0) is Precision.FP64
        assert plan.precision_of(2, 0) is Precision.FP32
        assert plan.precision_of(4, 0) is Precision.FP16

    def test_mp_reduces_memory(self, matern, locations_200):
        theta = np.array([1.0, 0.03, 0.5])
        dense, _ = build_planned_covariance(
            matern, theta, locations_200, 40, nugget=1e-8
        )
        mp, _ = build_planned_covariance(
            matern, theta, locations_200, 40, nugget=1e-8, use_mp=True
        )
        assert mp.nbytes < dense.nbytes

    def test_unknown_mp_mode(self, matern, theta_matern, locations_200):
        with pytest.raises(ConfigurationError):
            build_planned_covariance(
                matern, theta_matern, locations_200, 40,
                use_mp=True, mp_mode="everything",
            )


class TestPlannedTLR:
    def test_lr_tiles_created(self, matern, theta_matern, locations_200):
        mat, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_tlr=True, band_size=1,
        )
        # A fixed band reads no rank: nothing is compressed at assembly,
        # every planned-low-rank tile leaves as its exact block owing
        # (tile_tol, max_rank), and the helper ranks it.
        assert report.ranks == {}
        planned = [key for key, lr in report.plan.use_lr.items() if lr]
        assert planned
        for key in planned:
            tile = mat.get(*key)
            assert tile.owed == (report.tile_tol, 20)
            assert tile.data.dtype == np.float64
        ranked = ranked_plan(mat, report.plan)
        assert any(k.startswith("lr/") for k in ranked.counts())
        assert set(ranked.meta["ranks"]) == set(planned)
        assert report.plan.meta["ranks"] == {}  # not modified
        factor, _ = tile_cholesky(mat, tile_tol=report.tile_tol)
        assert any(k.startswith("lr/") for k in factor.structure_counts())

    def test_compression_error_bound(self, matern, theta_matern, locations_200):
        """||A_tlr - A||_F <= ~ tlr_tol * ||A||_F (nt * tile_tol), with
        every planned-low-rank tile truncated as its settle would."""
        tol = 1e-6
        mat, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_tlr=True, tlr_tol=tol, band_size=1,
        )
        for key, tile in mat.items():
            if tile.owed is not None:
                mat.set(*key, settle(tile)[0])
        assert mat.settled and any(t.is_low_rank for _, t in mat.items())
        direct = matern.covariance_matrix(theta_matern, locations_200, nugget=1e-8)
        err = np.linalg.norm(mat.to_dense() - direct)
        assert err <= tol * report.global_norm * mat.nt

    def test_band_forced_dense(self, matern, theta_matern, locations_200):
        _, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_tlr=True, band_size=2,
        )
        plan = report.plan
        for j in range(plan.nt - 1):
            assert not plan.is_low_rank(j + 1, j)

    def test_fp16_lr_promoted_to_fp32(self, matern, locations_200):
        """LR tiles never store FP16 (Algorithm 2)."""
        theta = np.array([1.0, 0.03, 0.5])
        mat, report = build_planned_covariance(
            matern, theta, locations_200, 40, nugget=1e-8,
            use_mp=True, use_tlr=True, band_size=1,
        )
        assert "lr/FP16" not in report.plan.counts()
        owing = [tile for _, tile in mat.items() if tile.owed is not None]
        assert owing
        assert all(tile.precision is not Precision.FP16 for tile in owing)

    def test_tlr_reduces_memory(self, matern, theta_matern, locations_200):
        """TLR's memory lives in the settled factor, and the helper's
        ranks predict it before any factorization."""
        dense, _ = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8
        )
        tlr, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_tlr=True, band_size=1,
        )
        planned = plan_summary(ranked_plan(tlr, report.plan))
        assert planned["bytes_planned"] < dense.nbytes
        factor, _ = tile_cholesky(tlr, tile_tol=report.tile_tol)
        assert factor.nbytes < dense.nbytes

    def test_invalid_band_size(self, matern, theta_matern, locations_200):
        with pytest.raises(ConfigurationError):
            build_planned_covariance(
                matern, theta_matern, locations_200, 40,
                use_tlr=True, band_size=0,
            )

    def test_auto_band(self, matern, theta_matern, locations_200):
        _, report = build_planned_covariance(
            matern, theta_matern, locations_200, 40, nugget=1e-8,
            use_tlr=True, band_size="auto",
        )
        assert report.plan.band_size_dense >= 1

    def test_rank_decay_with_offset(self, matern, locations_200):
        """Morton-ordered covariance: mean rank at offset >= 2 is lower
        than at offset 1 (the premise of the band structure)."""
        theta = np.array([1.0, 0.1, 0.5])
        mat, report = build_planned_covariance(
            matern, theta, locations_200, 25, nugget=1e-8,
            use_tlr=True, band_size=1,
        )
        ranks = ranked_plan(mat, report.plan).meta["ranks"]
        near = [r for (i, j), r in ranks.items() if i - j == 1]
        far = [r for (i, j), r in ranks.items() if i - j >= 4]
        assert np.mean(far) < np.mean(near)


class TestGenerationBufferLifetime:
    """An element-wise kernel's blocks are views of one n^2/2 result
    buffer; the planned matrix must not keep it alive through a few of
    them."""

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("variant", ["dense-fp64", "mp-dense", "mp-dense-tlr"])
    def test_tiles_own_their_data_or_fill_their_base(
        self, matern, locations_200, variant, batch
    ):
        from repro.core.variants import get_variant

        theta = np.array([1.0, 0.03, 0.5])  # weak: FP64 and lower tiles mix
        mat, report = build_planned_covariance(
            matern, theta, locations_200, 40, nugget=1e-8, batch=batch,
            **get_variant(variant).assembly_kwargs(),
        )
        bases: dict[int, tuple[np.ndarray, int]] = {}
        for _, tile in mat.items():
            arrays = (tile.u, tile.v) if tile.is_low_rank else (tile.data,)
            for arr in arrays:
                if arr.base is not None:
                    base, viewed = bases.get(id(arr.base), (arr.base, 0))
                    bases[id(arr.base)] = (base, viewed + arr.nbytes)
        for base, viewed in bases.values():
            assert base.nbytes <= viewed
        precisions = set(report.plan.precisions.values())
        if variant == "dense-fp64":
            # Every tile views the one buffer, which they fill: no copy.
            ((base, viewed),) = bases.values()
            assert viewed == mat.nbytes
        else:
            # The mixed plan has FP64 tiles to copy out.
            assert Precision.FP64 in precisions and len(precisions) > 1
