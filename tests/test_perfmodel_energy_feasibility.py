"""Tests for the energy model and memory-feasibility analysis."""

import numpy as np
import pytest

from repro.perfmodel import (
    A64FX,
    PlanProfile,
    TaskShape,
    estimate_energy,
    max_feasible_n,
    storage_per_node,
    task_energy,
)
from repro.tile import Precision


@pytest.fixture(scope="module")
def weak_profile():
    from repro.kernels import MaternKernel
    from repro.ordering import order_points
    from repro.tile import build_planned_covariance, ranked_plan

    gen = np.random.default_rng(500)
    x = gen.uniform(size=(900, 2))
    x = x[order_points(x, "morton")]
    mat, rep = build_planned_covariance(
        MaternKernel(), np.array([1.0, 0.03, 0.5]), x, 60, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=1, max_rank_fraction=0.95,
    )
    return PlanProfile.from_plan(ranked_plan(mat, rep.plan))


class TestTaskEnergy:
    def test_positive(self):
        assert task_energy(TaskShape("gemm", 800)) > 0

    def test_fp32_cheaper_than_fp64(self):
        e64 = task_energy(TaskShape("gemm", 800, Precision.FP64))
        e32 = task_energy(TaskShape("gemm", 800, Precision.FP32))
        assert e32 < e64

    def test_low_rank_cheaper_than_dense(self):
        dense = task_energy(TaskShape("gemm", 1000))
        lr = task_energy(
            TaskShape("gemm", 1000, low_rank=True, ranks=(20, 20, 20))
        )
        assert lr < dense

    def test_energy_scale_plausible(self):
        """One 800^3 FP64 GEMM at ~60 pJ/flop: order 0.1 J."""
        e = task_energy(TaskShape("gemm", 800))
        assert 1e-3 < e < 10.0


class TestEstimateEnergy:
    def test_adaptive_saves_energy(self, weak_profile):
        dense = estimate_energy(PlanProfile.dense_fp64(), 500_000, 1350)
        adaptive = estimate_energy(weak_profile, 500_000, 1350, band_size=2)
        assert adaptive < dense
        assert dense / adaptive > 2.0

    def test_cubic_growth(self):
        prof = PlanProfile.dense_fp64()
        e1 = estimate_energy(prof, 250_000, 1250)
        e2 = estimate_energy(prof, 500_000, 1250)
        assert 6.0 < e2 / e1 < 10.0

    def test_joules_plausible_at_scale(self):
        """1M dense FP64 Cholesky: (1/3)e18 flops x 60 pJ ~ 2e7 J."""
        e = estimate_energy(PlanProfile.dense_fp64(), 1_000_000, 2000)
        assert 1e6 < e < 1e9


class TestFeasibility:
    def test_storage_matches_estimator(self, weak_profile):
        from repro.perfmodel import estimate_cholesky

        est = estimate_cholesky(weak_profile, 1_000_000, 2700, A64FX,
                                nodes=1024, band_size=3)
        per_node = storage_per_node(weak_profile, 1_000_000, 2700, 1024,
                                    band_size=3)
        assert per_node == pytest.approx(est.storage_bytes / 1024, rel=1e-9)

    def test_dense_9m_infeasible_at_2048(self):
        """The Fig. 10 point: 9M dense FP64 does not fit 2048 nodes."""
        dense = PlanProfile.dense_fp64()
        per_node = storage_per_node(dense, 9_000_000, 2700, 2048)
        assert per_node > 32e9

    def test_max_feasible_ordering(self, weak_profile):
        """MP+TLR always fits a (much) larger problem than dense."""
        dense_max = max_feasible_n(PlanProfile.dense_fp64(), 2048, 2700)
        tlr_max = max_feasible_n(weak_profile, 2048, 2700, band_size=3)
        assert tlr_max > 2 * dense_max

    def test_max_feasible_grows_with_nodes(self):
        dense = PlanProfile.dense_fp64()
        n1 = max_feasible_n(dense, 1024, 2700)
        n2 = max_feasible_n(dense, 4096, 2700)
        # Dense storage ~ n^2/2: 4x nodes -> 2x dimension.
        assert n2 == pytest.approx(2 * n1, rel=0.1)

    def test_feasible_result_actually_fits(self, weak_profile):
        n = max_feasible_n(weak_profile, 512, 2700, band_size=3)
        per_node = storage_per_node(weak_profile, n, 2700, 512, band_size=3)
        assert per_node <= 0.8 * 32e9 * 1.01

    def test_multiple_of_tile(self):
        n = max_feasible_n(PlanProfile.dense_fp64(), 256, 2700)
        assert n % 2700 == 0
