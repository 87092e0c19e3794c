"""Fig. 6 — boxplots of Matérn parameter estimates on synthetic data.

The paper fits 100 replicates of 50K-location synthetic fields at
weak/medium/strong spatial correlation with the three compute variants
and shows that the adaptive variants recover the generating parameters
as well as dense FP64.  Scaled here to ``REPS`` replicates of ``N``
locations; the artifact prints the five-number summaries per
(correlation, variant, parameter) — the textual Fig. 6.
"""

import numpy as np
import pytest

from repro.core import fit_mle
from repro.data import CORRELATION_RANGES, simulate_matern_dataset
from repro.stats import boxplot_summary, format_table

REPS = 10          # paper: 100
N = 256            # paper: 50_000
TILE = 64
VARIANTS = ("dense-fp64", "mp-dense", "mp-dense-tlr")
PARAMS = ("variance", "range", "smoothness")


@pytest.fixture(scope="module")
def fig6_estimates():
    """estimates[corr][variant] -> (REPS, 3) array of theta hats."""
    out = {}
    for corr in CORRELATION_RANGES:
        out[corr] = {v: [] for v in VARIANTS}
        for rep in range(REPS):
            data = simulate_matern_dataset(N, corr, seed=5000 + rep)
            for variant in VARIANTS:
                # fit_mle's default iteration cap: 40 stopped COBYQA
                # short of the optimum on the strong-correlation ridge.
                res = fit_mle(
                    data.kernel, data.x, data.z,
                    tile_size=TILE, variant=variant,
                    theta0=data.theta_true,
                )
                out[corr][variant].append(res.theta)
        for variant in VARIANTS:
            out[corr][variant] = np.array(out[corr][variant])
    return out


def test_fig6_artifact_and_recovery(fig6_estimates, write_artifact, benchmark):
    rows = []
    for corr, true_range in CORRELATION_RANGES.items():
        truth = {"variance": 1.0, "range": true_range, "smoothness": 0.5}
        for variant in VARIANTS:
            thetas = fig6_estimates[corr][variant]
            for p, pname in enumerate(PARAMS):
                s = boxplot_summary(thetas[:, p])
                rows.append([
                    corr, variant, pname, truth[pname],
                    s.q1, s.median, s.q3,
                ])
    table = format_table(
        ["correlation", "variant", "parameter", "truth", "q1", "median", "q3"],
        rows,
        title=(
            f"Fig. 6 — parameter recovery over {REPS} replicates of "
            f"{N}-location synthetic fields (paper: 100 x 50K)"
        ),
    )
    write_artifact("fig6_param_boxplots", table)

    # Shape claims: medians near truth; variants agree with dense FP64.
    for corr, true_range in CORRELATION_RANGES.items():
        truth = np.array([1.0, true_range, 0.5])
        dense_med = np.median(fig6_estimates[corr]["dense-fp64"], axis=0)
        # Variance and range medians within 50% of truth (n is small).
        assert abs(dense_med[0] - truth[0]) / truth[0] < 0.5
        assert abs(dense_med[1] - truth[1]) / truth[1] < 0.6
        for variant in VARIANTS[1:]:
            med = np.median(fig6_estimates[corr][variant], axis=0)
            np.testing.assert_allclose(med, dense_med, rtol=0.3, atol=0.05)

    # Payload: one likelihood evaluation (the unit of Fig. 6's cost).
    from repro.core import loglikelihood

    data = simulate_matern_dataset(N, "medium", seed=1)
    benchmark(
        lambda: loglikelihood(
            data.kernel, data.theta_true, data.x, data.z, tile_size=TILE
        ).value
    )


def test_fig6_iqr_covers_truth_for_range(fig6_estimates, write_artifact, benchmark):
    """The Fig. 6 visual check: the truth line falls inside (or near)
    the interquartile box for the range parameter in most cells."""
    hits = 0
    cells = 0
    for corr, true_range in CORRELATION_RANGES.items():
        for variant in VARIANTS:
            s = boxplot_summary(fig6_estimates[corr][variant][:, 1])
            cells += 1
            lo = s.q1 - 0.5 * (s.q3 - s.q1)
            hi = s.q3 + 0.5 * (s.q3 - s.q1)
            hits += int(lo <= true_range <= hi)
    assert hits >= cells - 2
    benchmark(boxplot_summary, fig6_estimates["weak"]["dense-fp64"][:, 0])
