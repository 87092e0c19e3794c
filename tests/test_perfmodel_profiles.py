"""Tests for offset-class profiles and the paper-scale estimator."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.perfmodel import (
    A64FX,
    CLASSES,
    PlanProfile,
    estimate_cholesky,
    project_classes,
)
from repro.tile import build_planned_covariance, ranked_plan


@pytest.fixture(scope="module")
def measured_profiles():
    from repro.kernels import MaternKernel
    from repro.ordering import order_points

    gen = np.random.default_rng(8)
    x = gen.uniform(size=(800, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()
    out = {}
    for name, rng_ in (("weak", 0.03), ("strong", 0.3)):
        mat, rep = build_planned_covariance(
            kern, np.array([1.0, rng_, 0.5]), x, 50, nugget=1e-8,
            use_mp=True, use_tlr=True, band_size=1,
        )
        out[name] = PlanProfile.from_plan(ranked_plan(mat, rep.plan), label=name)
    return out


class TestPlanProfile:
    def test_fractions_rows_sum_to_one(self, measured_profiles):
        for prof in measured_profiles.values():
            np.testing.assert_allclose(prof.fractions.sum(axis=1), 1.0)

    def test_diagonal_offset_all_dense_fp64(self, measured_profiles):
        prof = measured_profiles["weak"]
        assert prof.fractions[0, CLASSES.index("dense/FP64")] == 1.0

    def test_weak_has_more_low_precision(self, measured_profiles):
        weak = measured_profiles["weak"]
        strong = measured_profiles["strong"]
        weak_low = weak.class_fraction("dense/FP16") + weak.class_fraction(
            "lr/FP32"
        )
        strong_low = strong.class_fraction("dense/FP16") + strong.class_fraction(
            "lr/FP32"
        )
        assert weak_low > strong_low

    def test_dense_fp64_profile(self):
        prof = PlanProfile.dense_fp64()
        assert prof.class_fraction("dense/FP64") == 1.0

    def test_interpolation_preserves_normalization(self, measured_profiles):
        fr, mr = measured_profiles["weak"].at_offsets(500)
        np.testing.assert_allclose(fr.sum(axis=1), 1.0)
        assert mr.shape == (500,)
        assert np.all(mr >= 0)

    def test_interpolation_identity_at_same_nt(self, measured_profiles):
        prof = measured_profiles["weak"]
        fr, mr = prof.at_offsets(prof.nt)
        np.testing.assert_allclose(fr, prof.fractions, atol=1e-12)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanProfile(np.ones((3, 2)), np.zeros(3), 3)


class TestProjectClasses:
    def test_band_densifies(self, measured_profiles):
        fr, _ = project_classes(
            measured_profiles["weak"], 100, 2700, A64FX, band_size=5
        )
        lr_cols = [CLASSES.index("lr/FP64"), CLASSES.index("lr/FP32")]
        assert np.all(fr[:5, lr_cols] == 0.0)

    def test_crossover_densifies_high_ranks(self, measured_profiles):
        """At a tiny tile size the crossover rank is below measured
        ranks, so all LR mass must fold into dense."""
        from repro.perfmodel import crossover_rank

        fr, ranks = project_classes(
            measured_profiles["weak"], 50, 64, A64FX, band_size=1
        )
        lr_cols = [CLASSES.index("lr/FP64"), CLASSES.index("lr/FP32")]
        above = ranks >= crossover_rank(64, A64FX)
        assert above.any()
        assert np.all(fr[above][:, lr_cols] <= 1e-12)


class TestEstimateCholesky:
    def test_dense_reference_efficiency(self):
        """The dense FP64 estimate at a throughput-bound size must land
        near the ideal (flops / sustained-peak) time — the paper reports
        94-98% parallel efficiency at 1024 nodes."""
        prof = PlanProfile.dense_fp64()
        n = 1_000_000
        # Tile 800 as in Fig. 7 (large tiles would be chain-bound).
        est = estimate_cholesky(prof, n, 800, A64FX, nodes=1024)
        ideal = (n**3 / 3) / (1024 * 3.072e12 * 0.65)
        assert est.time_s == pytest.approx(ideal, rel=0.25)

    def test_flops_match_closed_form(self):
        prof = PlanProfile.dense_fp64()
        n, b = 270_000, 2700
        est = estimate_cholesky(prof, n, b, A64FX, nodes=64)
        assert est.flops == pytest.approx(n**3 / 3, rel=0.05)

    def test_tlr_beats_dense_at_scale(self, measured_profiles):
        """The headline: MP+dense/TLR time-to-solution is several times
        below dense FP64 at the paper's scales (Fig. 10)."""
        dense = estimate_cholesky(
            PlanProfile.dense_fp64(), 3_000_000, 2700, A64FX, nodes=4096
        )
        tlr = estimate_cholesky(
            measured_profiles["weak"], 3_000_000, 1350, A64FX,
            nodes=4096, band_size=2,
        )
        assert dense.time_s / tlr.time_s > 3.0

    def test_memory_reduction_band(self, measured_profiles):
        """Fig. 9 reports up to 79% footprint reduction for
        MP+dense/TLR; ours must be in a comparable band."""
        est = estimate_cholesky(
            measured_profiles["weak"], 1_000_000, 2700, A64FX,
            nodes=1024, band_size=3,
        )
        assert 0.5 <= est.memory_reduction <= 0.95

    def test_strong_scaling_saturates(self, measured_profiles):
        """Speedup from 4x nodes is sub-linear at fixed size (Fig. 11's
        strong-scaling limitation)."""
        times = [
            estimate_cholesky(
                measured_profiles["strong"], 1_000_000, 2700, A64FX,
                nodes=nodes, band_size=2,
            ).time_s
            for nodes in (4096, 16384)
        ]
        assert times[1] <= times[0]
        assert times[0] / times[1] < 4.0

    def test_dense_memory_equals_baseline(self):
        prof = PlanProfile.dense_fp64()
        est = estimate_cholesky(prof, 270_000, 2700, A64FX, nodes=16)
        assert est.storage_bytes == pytest.approx(est.dense_fp64_bytes)
        assert est.memory_reduction == pytest.approx(0.0, abs=1e-12)

    def test_matrix_smaller_than_tile_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_cholesky(PlanProfile.dense_fp64(), 100, 2700, A64FX, nodes=4)

    def test_bigger_matrix_takes_longer(self):
        prof = PlanProfile.dense_fp64()
        t1 = estimate_cholesky(prof, 1_000_000, 800, A64FX, nodes=1024).time_s
        t2 = estimate_cholesky(prof, 2_000_000, 800, A64FX, nodes=1024).time_s
        assert t2 > 4 * t1  # cubic growth
