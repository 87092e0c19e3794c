"""Tests for the second wave of extensions: nugget kernel, k-d tree
ordering, Chrome traces, and the CLI."""

import json

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.kernels import MaternKernel, NuggetKernel
from repro.ordering import kdtree_order, order_points
from repro.tile import (
    build_planned_covariance,
    ranked_plan,
)


class TestNuggetKernel:
    def test_param_names_extend_base(self):
        kern = NuggetKernel(MaternKernel())
        assert kern.param_names == ("variance", "range", "smoothness", "nugget")

    def test_diagonal_gets_nugget(self, rng):
        kern = NuggetKernel(MaternKernel())
        x = rng.uniform(size=(12, 2))
        theta = np.array([1.0, 0.1, 0.5, 0.3])
        c = kern.covariance_matrix(theta, x)
        np.testing.assert_allclose(np.diag(c), 1.3, rtol=1e-12)

    def test_cross_covariance_no_nugget(self, rng):
        kern = NuggetKernel(MaternKernel())
        x1 = rng.uniform(size=(5, 2))
        x2 = rng.uniform(size=(6, 2))
        theta = np.array([1.0, 0.1, 0.5, 0.3])
        c = kern(theta, x1, x2)
        base = MaternKernel()(theta[:3], x1, x2)
        np.testing.assert_allclose(c, base)

    def test_variance_includes_nugget(self):
        kern = NuggetKernel(MaternKernel())
        assert kern.variance(np.array([1.0, 0.1, 0.5, 0.3])) == pytest.approx(1.3)

    def test_nugget_estimable(self, rng):
        """MLE recovers a substantial nugget (within a loose factor)."""
        from repro.core import fit_mle
        from repro.data import sample_gaussian_field

        kern = NuggetKernel(MaternKernel())
        x = rng.uniform(size=(250, 2))
        x = x[order_points(x, "morton")]
        theta_true = np.array([1.0, 0.15, 0.8, 0.4])
        z = sample_gaussian_field(kern, theta_true, x, seed=9)
        res = fit_mle(kern, x, z, tile_size=50, theta0=theta_true,
                      max_iter=60)
        assert 0.1 < res.theta[3] < 1.0

    def test_split_theta(self):
        kern = NuggetKernel(MaternKernel())
        base, nug = kern.split_theta(np.array([1.0, 0.1, 0.5, 0.2]))
        assert nug == pytest.approx(0.2)
        assert base.shape == (3,)


class TestKDTreeOrdering:
    def test_is_permutation(self, rng):
        x = rng.uniform(size=(137, 2))
        perm = kdtree_order(x)
        assert sorted(perm) == list(range(137))

    def test_deterministic(self, rng):
        x = rng.uniform(size=(64, 2))
        np.testing.assert_array_equal(kdtree_order(x), kdtree_order(x))

    def test_leaves_are_spatially_tight(self, rng):
        """Points within a leaf are closer on average than random
        groups of the same size."""
        x = rng.uniform(size=(256, 2))
        perm = kdtree_order(x, leaf_size=16)
        xp = x[perm]

        def mean_group_diameter(pts):
            total = 0.0
            for g in range(0, 256, 16):
                block = pts[g : g + 16]
                total += np.linalg.norm(
                    block - block.mean(axis=0), axis=1
                ).mean()
            return total

        assert mean_group_diameter(xp) < 0.6 * mean_group_diameter(x)

    def test_dispatcher_integration(self, rng):
        x = rng.uniform(size=(50, 2))
        perm = order_points(x, "kdtree")
        assert sorted(perm) == list(range(50))

    def test_space_time_dispatch(self, rng):
        space = rng.uniform(size=(10, 2))
        x = np.vstack([
            np.column_stack([space, np.full(10, float(t))]) for t in range(2)
        ])
        perm = order_points(x, "kdtree", space_time=True)
        xp = x[perm]
        for i in range(0, 20, 2):
            assert np.allclose(xp[i, :2], xp[i + 1, :2])

    def test_invalid_leaf(self, rng):
        with pytest.raises(ShapeError):
            kdtree_order(rng.uniform(size=(10, 2)), leaf_size=0)

    def test_reduces_ranks_like_morton(self, rng):
        from repro.kernels import MaternKernel as MK

        x = rng.uniform(size=(400, 2))
        theta = np.array([1.0, 0.1, 0.5])

        def mean_rank(method):
            xo = x[order_points(x, method, seed=3)]
            mat, rep = build_planned_covariance(
                MK(), theta, xo, 50, nugget=1e-8, use_tlr=True, band_size=1
            )
            return np.mean(list(ranked_plan(mat, rep.plan).meta["ranks"].values()))

        assert mean_rank("kdtree") < 0.6 * mean_rank("random")


class TestChromeTrace:
    def test_events_serializable(self):
        from repro.runtime.trace import ExecutionTrace, TaskRecord

        tr = ExecutionTrace(nodes=2, cores_per_node=1)
        tr.add(TaskRecord(0, "potrf", 0, 0, 0.0, 1.0, flops=5.0))
        tr.add(TaskRecord(1, "gemm", 1, 0, 1.0, 2.5, comm_bytes=10.0))
        events = tr.to_chrome_trace()
        text = json.dumps(events)
        loaded = json.loads(text)
        assert len(loaded) == 2
        assert loaded[0]["ph"] == "X"
        assert loaded[1]["pid"] == 1
        assert loaded[1]["dur"] == pytest.approx(1.5e6)


class TestCLI:
    def test_info(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        assert "repro" in capsys.readouterr().out

    def test_crossover(self, capsys):
        from repro.__main__ import main

        assert main(["crossover", "--tile", "800"]) == 0
        out = capsys.readouterr().out
        assert "crossover rank" in out

    def test_scaling(self, capsys):
        from repro.__main__ import main

        assert main(["scaling", "--nodes", "1024", "--matrix", "2000000"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_unknown_command(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
