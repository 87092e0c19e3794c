"""End-to-end integration tests: the full paper pipeline at mini scale."""

import numpy as np
import pytest

from repro import ExaGeoStatModel
from repro.core import loglikelihood
from repro.data import et_surrogate, soil_moisture_surrogate
from repro.perfmodel import A64FX, PlanProfile, estimate_cholesky
from repro.runtime import SimConfig, cholesky_tasks, simulate_tasks


class TestSoilMoistureStudy:
    """Mini Table I: three variants on the soil-moisture surrogate."""

    @pytest.fixture(scope="class")
    def study(self):
        data = soil_moisture_surrogate(n_train=350, n_test=50, seed=101)
        results = {}
        for variant in ("dense-fp64", "mp-dense", "mp-dense-tlr"):
            model = ExaGeoStatModel(
                kernel="matern", variant=variant, tile_size=50
            )
            model.fit(data.x_train, data.z_train,
                      theta0=data.theta_true, max_iter=40)
            results[variant] = {
                "theta": model.theta_.copy(),
                "loglik": model.loglik_,
                "mspe": model.score(data.x_test, data.z_test),
            }
        return data, results

    def test_variants_agree_on_estimates(self, study):
        _, results = study
        base = results["dense-fp64"]["theta"]
        for variant, res in results.items():
            np.testing.assert_allclose(res["theta"], base, rtol=0.15)

    def test_variants_agree_on_mspe(self, study):
        _, results = study
        base = results["dense-fp64"]["{}".format("mspe")]
        for res in results.values():
            assert res["mspe"] == pytest.approx(base, rel=0.1)

    def test_logliks_close(self, study):
        _, results = study
        base = results["dense-fp64"]["loglik"]
        for res in results.values():
            assert res["loglik"] == pytest.approx(base, abs=1.0)

    def test_mspe_sane(self, study):
        data, results = study
        for res in results.values():
            assert res["mspe"] < np.var(data.z_test)


class TestSpaceTimeStudy:
    """Mini Table II: variant agreement on the ET surrogate."""

    def test_variants_agree(self):
        data = et_surrogate(n_space=45, n_slots=6, n_test=40, seed=102)
        logliks = {}
        for variant in ("dense-fp64", "mp-dense-tlr"):
            res = loglikelihood(
                data.kernel, data.theta_true, data.x_train, data.z_train,
                tile_size=45, variant=variant, nugget=1e-8,
            )
            logliks[variant] = res.value
        assert logliks["mp-dense-tlr"] == pytest.approx(
            logliks["dense-fp64"], abs=0.5
        )


class TestModelThenSimulate:
    """The full story: fit a model, then simulate its factorization's
    task graph on a Fugaku-like machine."""

    def test_pipeline(self):
        data = soil_moisture_surrogate(n_train=300, n_test=30, seed=103)
        model = ExaGeoStatModel(variant="mp-dense-tlr", tile_size=50)
        model.set_params(data.theta_true, data.x_train, data.z_train)
        result = model._likelihood_at_fit()
        plan = result.report.plan
        tasks = list(cholesky_tasks(plan.nt))
        trace = simulate_tasks(
            tasks, plan.layout, plan, SimConfig(nodes=4, machine=A64FX)
        )
        assert trace.makespan > 0
        # Then project the same plan to paper scale.
        profile = PlanProfile.from_plan(plan)
        est = estimate_cholesky(profile, 1_000_000, 2700, A64FX, nodes=1024,
                                band_size=2)
        dense = estimate_cholesky(
            PlanProfile.dense_fp64(), 1_000_000, 2700, A64FX, nodes=1024
        )
        assert est.time_s < dense.time_s
        # Medium correlation + a coarse (nt=6) measured profile: the
        # reduction is modest; weak-correlation profiles reach ~80%.
        assert est.memory_reduction > 0.1


class TestOrderingMatters:
    def test_morton_lowers_ranks_vs_random(self):
        """The paper's 'proper ordering' claim: Morton ordering yields
        lower off-diagonal tile ranks than random ordering."""
        from repro.kernels import MaternKernel
        from repro.ordering import order_points
        from repro.tile import build_planned_covariance, ranked_plan

        gen = np.random.default_rng(104)
        x = gen.uniform(size=(400, 2))
        kern = MaternKernel()
        theta = np.array([1.0, 0.1, 0.5])

        def mean_rank(ordering):
            xo = x[order_points(x, ordering, seed=1)]
            mat, rep = build_planned_covariance(
                kern, theta, xo, 50, nugget=1e-8, use_tlr=True, band_size=1
            )
            return np.mean(list(ranked_plan(mat, rep.plan).meta["ranks"].values()))

        assert mean_rank("morton") < mean_rank("random")

    def test_morton_increases_demotions_vs_random(self):
        from repro.kernels import MaternKernel
        from repro.ordering import order_points
        from repro.tile import build_planned_covariance

        gen = np.random.default_rng(105)
        x = gen.uniform(size=(400, 2))
        kern = MaternKernel()
        theta = np.array([1.0, 0.03, 0.5])

        def low_precision_tiles(ordering):
            xo = x[order_points(x, ordering, seed=2)]
            mat, _ = build_planned_covariance(
                kern, theta, xo, 50, nugget=1e-8, use_mp=True
            )
            counts = mat.structure_counts()
            return counts.get("dense/FP16", 0) + counts.get("dense/FP32", 0)

        assert low_precision_tiles("morton") >= low_precision_tiles("random")


class TestPSOTrainsModel:
    def test_pso_mle_on_small_dataset(self):
        """PSO (Section VI-D) finds parameters with likelihood close to
        the truth's likelihood."""
        from repro.data import simulate_matern_dataset
        from repro.optim import particle_swarm

        data = simulate_matern_dataset(120, "medium", seed=106)

        def batch(positions):
            out = []
            for theta in positions:
                try:
                    res = loglikelihood(
                        data.kernel, theta, data.x, data.z, tile_size=40
                    )
                    out.append(-res.value)
                except Exception:
                    out.append(np.inf)
            return out

        bounds = [(0.1, 3.0), (0.01, 0.5), (0.1, 2.0)]
        res = particle_swarm(batch, bounds, n_particles=10, max_iter=12,
                             seed=107)
        truth_nll = -loglikelihood(
            data.kernel, data.theta_true, data.x, data.z, tile_size=40
        ).value
        assert res.fun <= truth_nll + 5.0
