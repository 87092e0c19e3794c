"""Separability ablation (paper Section VII-B).

"Some studies drop this value [the nonseparability parameter] to
reduce the complexity of the optimization process from six parameters
to five.  However, it may dramatically impact the prediction accuracy
as illustrated in [40]."

We reproduce that claim on the ET surrogate: fit the space-time model
with beta free (nonseparable) vs pinned to ~0 (separable) and compare
held-out MSPE and log-likelihood.
"""

import pytest

from repro import ExaGeoStatModel
from repro.data import et_surrogate
from repro.stats import format_table

#: COBYQA iterations for the 6-parameter fits: enough to converge.
MAX_ITER = 400


@pytest.fixture(scope="module")
def strongly_interacting_results():
    """The effect the paper warns about needs a genuinely interacting
    field: generate with beta = 0.9 and compare the fits."""
    from repro.data import ET_THETA
    from repro.data.locations import space_time_locations
    from repro.data.split import train_test_split
    from repro.data.synthetic import sample_gaussian_field
    from repro.kernels import GneitingMaternKernel

    kern = GneitingMaternKernel()
    theta = ET_THETA.copy()
    theta[5] = 0.9  # strong space-time interaction
    x = space_time_locations(60, 10, seed=4321, region="central_asia")
    z = sample_gaussian_field(kern, theta, x, seed=4322, jitter=1e-8)
    x_tr, z_tr, x_te, z_te = train_test_split(x, z, n_test=80, seed=4323)
    out = {}
    for label, beta_fixed in (("nonseparable", None), ("separable", 1e-11)):
        model = ExaGeoStatModel(
            kernel="gneiting", variant="mp-dense-tlr", tile_size=60,
            nugget=1e-8,
        )
        theta0 = theta.copy()
        if beta_fixed is not None:
            theta0[5] = beta_fixed
        # On the beta ~ 0.9 ridge COBYQA converges after ~240
        # iterations; stopped at the default 150, the nonseparable fit
        # predicts no better than the separable one.
        model.fit(x_tr, z_tr, theta0=theta0, max_iter=MAX_ITER)
        assert model.result_.converged
        fitted = model.theta_.copy()
        if beta_fixed is not None:
            fitted[5] = beta_fixed
            model.set_params(fitted, x_tr, z_tr)
        out[label] = {
            "theta": fitted,
            "mspe": model.score(x_te, z_te),
        }
    return theta, out


def test_strong_interaction_separable_predicts_worse(
    strongly_interacting_results, write_artifact, benchmark
):
    theta_true, res = strongly_interacting_results
    write_artifact(
        "separability_strong_interaction",
        format_table(
            ["model", "beta", "MSPE"],
            [[label, r["theta"][5], r["mspe"]] for label, r in res.items()],
            title=(
                "Separability ablation, strong interaction (generating "
                "beta = 0.9): the paper's 'may dramatically impact the "
                "prediction accuracy'"
            ),
            float_fmt="{:.4g}",
        ),
    )
    assert res["nonseparable"]["theta"][5] > 0.3
    assert res["nonseparable"]["mspe"] < res["separable"]["mspe"]
    benchmark(lambda: res["nonseparable"]["mspe"])


@pytest.fixture(scope="module")
def separability_results():
    data = et_surrogate(n_space=60, n_slots=10, n_test=80, seed=1234)
    out = {}
    for label, beta_fixed in (("nonseparable", None), ("separable", 1e-11)):
        model = ExaGeoStatModel(
            kernel="gneiting", variant="mp-dense-tlr", tile_size=60,
            nugget=1e-8,
        )
        theta0 = data.theta_true.copy()
        if beta_fixed is not None:
            theta0[5] = beta_fixed
            # Pin beta at ~0: started at 1e-11 it sits ~25 logit units
            # from any value that matters, and COBYQA (initial trust
            # radius 0.3) leaves it there, so the fit moves the other
            # five parameters (we fit, then force beta back).
        model.fit(data.x_train, data.z_train, theta0=theta0,
                  max_iter=MAX_ITER)
        assert model.result_.converged
        theta = model.theta_.copy()
        if beta_fixed is not None:
            theta[5] = beta_fixed
            model.set_params(theta, data.x_train, data.z_train)
        out[label] = {
            "theta": theta,
            "mspe": model.score(data.x_test, data.z_test),
            "loglik": model.loglik_,
        }
    return data, out


def test_separability_matters(separability_results, write_artifact, benchmark):
    data, res = separability_results
    table = format_table(
        ["model", "beta", "MSPE", "loglik(fit)"],
        [
            [label, r["theta"][5], r["mspe"],
             r["loglik"] if r["loglik"] is not None else float("nan")]
            for label, r in res.items()
        ],
        title=(
            "Separability ablation — nonseparable (beta free) vs "
            "separable (beta ~ 0) space-time model on the ET surrogate "
            "(generating beta = 0.186)"
        ),
        float_fmt="{:.4g}",
    )
    write_artifact("separability_ablation", table)

    # The nonseparable fit recovers a clearly positive interaction and
    # predicts at least as well as the separable restriction.
    assert res["nonseparable"]["theta"][5] > 0.02
    assert res["nonseparable"]["mspe"] <= res["separable"]["mspe"] * 1.02

    model = ExaGeoStatModel(kernel="gneiting", variant="mp-dense-tlr",
                            tile_size=60, nugget=1e-8)
    model.set_params(data.theta_true, data.x_train, data.z_train)
    benchmark(lambda: model.score(data.x_test, data.z_test))
