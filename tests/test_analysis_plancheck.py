"""Tests for the static plan verifier (repro.analysis.plancheck)."""

import numpy as np
import pytest

from repro.analysis import Severity, check_plan, plan_from_matrix
from repro.analysis.golden import GOLDEN_NTS, GOLDEN_VARIANTS, check_golden_plan
from repro.analysis.dagcheck import check_taskgraph
from repro.kernels import MaternKernel
from repro.perfmodel import A64FX
from repro.perfmodel.crossover import crossover_rank
from repro.runtime.dag import build_dag
from repro.runtime.taskgraph import cholesky_tasks
from repro.tile import Precision, TileLayout, build_planned_covariance
from repro.tile.decisions import TilePlan


def make_plan(nt=4, b=16, band=1):
    """All-dense all-FP64 plan: clean under every rule."""
    layout = TileLayout(nt * b, b)
    return TilePlan(
        layout=layout,
        precisions={k: Precision.FP64 for k in layout.lower_tiles()},
        use_lr={k: False for k in layout.lower_tiles()},
        band_size_dense=band,
        meta={"ranks": {}},
    )


def uniform_norms(plan, value=1.0):
    return {k: value for k in plan.layout.lower_tiles()}


class TestPlan001FrobeniusBudget:
    def test_demotion_below_budget_flagged(self):
        plan = make_plan()
        plan.precisions[(2, 0)] = Precision.FP16
        rep = check_plan(plan, tile_norms=uniform_norms(plan),
                         global_norm=4.0, u_high=1e-8)
        assert [d.rule for d in rep.errors] == ["PLAN001"]
        assert rep.errors[0].tile == (2, 0)

    def test_admissible_demotion_clean(self):
        plan = make_plan()
        plan.precisions[(2, 0)] = Precision.FP16
        # Loose application accuracy: FP16's predicted storage error
        # (~5e-4 for a unit-norm tile) stays under the budget.
        rep = check_plan(plan, tile_norms=uniform_norms(plan),
                         global_norm=4.0, u_high=1e-1)
        assert "PLAN001" not in rep.rule_ids()

    def test_skipped_without_norms(self):
        plan = make_plan()
        plan.precisions[(2, 0)] = Precision.FP16
        rep = check_plan(plan, u_high=1e-8)
        assert "PLAN001" not in rep.rule_ids()


class TestPlan002Fp16Range:
    def test_guaranteed_overflow_is_error(self):
        plan = make_plan()
        plan.precisions[(1, 0)] = Precision.FP16
        norms = uniform_norms(plan)
        norms[(1, 0)] = 2.0e6  # max entry >= 2e6/16 > 65504
        rep = check_plan(plan, tile_norms=norms)
        assert [d.rule for d in rep.errors] == ["PLAN002"]

    def test_possible_overflow_is_warning(self):
        plan = make_plan()
        plan.precisions[(1, 0)] = Precision.FP16
        norms = uniform_norms(plan)
        norms[(1, 0)] = 1.0e5  # norm > 65504, but max entry may fit
        rep = check_plan(plan, tile_norms=norms)
        assert rep.ok
        assert [d.rule for d in rep.warnings] == ["PLAN002"]

    def test_variance_cap_silences_overflow_warning(self):
        plan = make_plan()
        plan.precisions[(1, 0)] = Precision.FP16
        norms = uniform_norms(plan)
        norms[(1, 0)] = 1.0e5
        rep = check_plan(plan, tile_norms=norms, variance=1.0)
        assert "PLAN002" not in rep.rule_ids()

    def test_total_underflow_is_error(self):
        plan = make_plan()
        plan.precisions[(1, 0)] = Precision.FP16
        norms = uniform_norms(plan)
        norms[(1, 0)] = 1.0e-9  # below the binary16 smallest subnormal
        rep = check_plan(plan, tile_norms=norms)
        assert [d.rule for d in rep.errors] == ["PLAN002"]

    def test_in_range_fp16_clean(self):
        plan = make_plan()
        plan.precisions[(1, 0)] = Precision.FP16
        rep = check_plan(plan, tile_norms=uniform_norms(plan))
        assert "PLAN002" not in rep.rule_ids()


class TestPlan003DiagonalPinned:
    def test_narrowed_diagonal_flagged(self):
        plan = make_plan()
        plan.precisions[(1, 1)] = Precision.FP32
        rep = check_plan(plan)
        assert [d.rule for d in rep.errors] == ["PLAN003"]
        assert rep.errors[0].tile == (1, 1)

    def test_fp64_diagonal_clean(self):
        rep = check_plan(make_plan())
        assert rep.ok and len(rep) == 0


class TestPlan004DenseBand:
    def test_tlr_inside_band_flagged(self):
        plan = make_plan(band=2)
        plan.use_lr[(1, 0)] = True  # offset 1 < band 2
        plan.meta["ranks"] = {(1, 0): 4}
        rep = check_plan(plan)
        assert [d.rule for d in rep.errors] == ["PLAN004"]

    def test_tlr_outside_band_clean(self):
        plan = make_plan(band=1)
        plan.use_lr[(2, 0)] = True
        plan.meta["ranks"] = {(2, 0): 4}
        rep = check_plan(plan)
        assert "PLAN004" not in rep.rule_ids()


class TestPlan005RankAdmissibility:
    def test_rank_above_hard_cap_flagged(self):
        plan = make_plan()
        plan.use_lr[(3, 0)] = True
        plan.meta["ranks"] = {(3, 0): 9}  # cap = 0.5 * 16 = 8
        rep = check_plan(plan)
        assert [d.rule for d in rep.errors] == ["PLAN005"]

    def test_rank_at_cap_clean(self):
        plan = make_plan()
        plan.use_lr[(3, 0)] = True
        plan.meta["ranks"] = {(3, 0): 8}
        rep = check_plan(plan)
        assert "PLAN005" not in rep.rule_ids()

    def test_perfmodel_mode_uses_crossover(self):
        xover = crossover_rank(16, A64FX, Precision.FP64)
        plan = make_plan()
        plan.use_lr[(3, 0)] = True
        plan.meta["ranks"] = {(3, 0): xover}
        rep = check_plan(plan, machine=A64FX, structure_mode="perfmodel")
        assert [d.rule for d in rep.errors] == ["PLAN005"]
        plan.meta["ranks"] = {(3, 0): xover - 1}
        rep = check_plan(plan, machine=A64FX, structure_mode="perfmodel")
        assert "PLAN005" not in rep.rule_ids()

    def test_missing_rank_is_warning(self):
        plan = make_plan()
        plan.use_lr[(3, 0)] = True
        rep = check_plan(plan)
        assert rep.ok
        assert [d.rule for d in rep.warnings] == ["PLAN005"]


class TestPlan006NoFp16Tlr:
    def test_fp16_tlr_flagged(self):
        plan = make_plan()
        plan.use_lr[(2, 0)] = True
        plan.precisions[(2, 0)] = Precision.FP16
        plan.meta["ranks"] = {(2, 0): 4}
        rep = check_plan(plan)
        assert [d.rule for d in rep.errors] == ["PLAN006"]

    def test_fp32_tlr_clean(self):
        plan = make_plan()
        plan.use_lr[(2, 0)] = True
        plan.precisions[(2, 0)] = Precision.FP32
        plan.meta["ranks"] = {(2, 0): 4}
        rep = check_plan(plan)
        assert "PLAN006" not in rep.rule_ids()


class TestPlan007MapCoverage:
    def test_upper_triangle_key_flagged(self):
        plan = make_plan()
        plan.precisions[(0, 3)] = Precision.FP64
        rep = check_plan(plan)
        assert [d.rule for d in rep.errors] == ["PLAN007"]
        assert rep.errors[0].tile == (0, 3)

    def test_missing_key_flagged(self):
        plan = make_plan()
        del plan.use_lr[(2, 1)]
        rep = check_plan(plan)
        assert [d.rule for d in rep.errors] == ["PLAN007"]

    def test_exact_lower_triangle_clean(self):
        assert "PLAN007" not in check_plan(make_plan()).rule_ids()


class TestPlan010BandSize:
    def test_zero_band_flagged(self):
        plan = make_plan()
        plan.band_size_dense = 0
        rep = check_plan(plan)
        assert [d.rule for d in rep.errors] == ["PLAN010"]

    def test_unit_band_clean(self):
        assert "PLAN010" not in check_plan(make_plan(band=1)).rule_ids()


class TestPlanFromMatrix:
    def build(self, use_mp=True, use_tlr=False):
        gen = np.random.default_rng(7)
        x = gen.uniform(size=(64, 2))
        return build_planned_covariance(
            MaternKernel(), np.array([1.0, 0.1, 0.5]), x, 16,
            nugget=1e-8, use_mp=use_mp, use_tlr=use_tlr,
        )

    def test_roundtrip_matches_stored_tiles(self):
        matrix, rep = self.build()
        plan = plan_from_matrix(matrix)
        for key in plan.layout.lower_tiles():
            assert plan.precisions[key] is matrix.get(*key).precision
            assert plan.use_lr[key] == matrix.get(*key).is_low_rank

    def test_reconstructed_plan_checks_clean(self):
        matrix, _ = self.build()
        assert check_plan(plan_from_matrix(matrix)).ok


class TestSeededDefects:
    def test_three_seeded_defects_yield_exactly_three_rules(self):
        """A plan with a demoted-below-bound tile and a dense-band TLR
        tile, plus a DAG with one dropped dependence edge, must yield
        exactly PLAN001 + PLAN004 + DAG003."""
        plan = make_plan(band=2)
        plan.precisions[(2, 0)] = Precision.FP16  # demoted below budget
        plan.use_lr[(1, 0)] = True                # TLR inside dense band
        plan.meta["ranks"] = {(1, 0): 4}
        report = check_plan(plan, tile_norms=uniform_norms(plan),
                            global_norm=4.0, u_high=1e-8)

        tasks = list(cholesky_tasks(4))
        dag = build_dag(tasks)
        potrf0 = next(t for t in tasks if t.op == "potrf" and t.k == 0)
        trsm10 = next(t for t in tasks if t.op == "trsm"
                      and t.output == (1, 0))
        dag.remove_edge(potrf0.uid, trsm10.uid)  # dropped RAW edge
        report.extend(check_taskgraph(tasks, dag, layout=plan.layout))

        assert report.rule_ids() == ["DAG003", "PLAN001", "PLAN004"]
        assert not report.ok


class TestGoldenPlans:
    @pytest.mark.parametrize("variant", GOLDEN_VARIANTS)
    @pytest.mark.parametrize("nt", GOLDEN_NTS)
    def test_shipped_variant_analyzes_clean(self, variant, nt):
        report = check_golden_plan(variant, nt)
        assert report.ok, report.render_text(min_severity=Severity.ERROR)
