"""Shared benchmark fixtures.

Every bench file reproduces one table/figure of the paper: it runs the
(scaled-down or simulated) experiment once per session, writes a
human-readable artifact to ``benchmarks/out/``, asserts the paper's
*shape* claims, and times a representative hot kernel with
pytest-benchmark.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.perfmodel import PlanProfile
from repro.tile import build_planned_covariance, ranked_plan

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def write_artifact(artifact_dir):
    """Write (and echo) a named experiment artifact."""

    def _write(name: str, text: str) -> pathlib.Path:
        path = artifact_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[artifact] {path}\n{text}")
        return path

    return _write


@pytest.fixture(scope="session")
def correlation_profiles():
    """Measured offset-class profiles for weak/medium/strong Matérn
    correlation — the calibration input of every scaling figure.

    Measured once per session on an 1800-point Morton-ordered plan
    (tile 60, nt = 30), under the full MP+dense/TLR decision pipeline.
    """
    gen = np.random.default_rng(2022)
    x = gen.uniform(size=(1800, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()
    profiles = {}
    plans = {}
    for name, rng_ in (("weak", 0.03), ("medium", 0.1), ("strong", 0.3)):
        # Uncapped ranks (max_rank_fraction=0.95): the projection to
        # paper scale re-applies the structure decision at the target
        # tile size, so the profile must record true ranks, not the
        # laptop-scale cap.
        matrix, rep = build_planned_covariance(
            kern, np.array([1.0, rng_, 0.5]), x, 60, nugget=1e-8,
            use_mp=True, use_tlr=True, band_size=1, max_rank_fraction=0.95,
        )
        plans[name] = ranked_plan(matrix, rep.plan)
        profiles[name] = PlanProfile.from_plan(plans[name], label=name)
    profiles["mp-dense"] = _mp_dense_profile(kern, x)
    profiles["dense"] = PlanProfile.dense_fp64()
    profiles["_plans"] = plans
    return profiles


def _mp_dense_profile(kern, x):
    _, rep = build_planned_covariance(
        kern, np.array([1.0, 0.03, 0.5]), x, 60, nugget=1e-8, use_mp=True
    )
    return PlanProfile.from_plan(rep.plan, label="mp-dense")
