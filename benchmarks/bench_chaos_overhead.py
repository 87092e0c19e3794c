"""Resilience-hook overhead: disabled hooks must cost (almost) nothing.

The resilience layer's contract is *zero-overhead when off*: with
``resilience=None`` the executors take the original code paths, and
with an inert config (no retry, zero-rate chaos) every hook
short-circuits on one ``None``/rate check per task.  This bench times
repeated likelihood evaluations and batched predictions in three
configurations —

* ``plain``  — ``resilience=None`` (the seed path);
* ``inert``  — zero-rate :class:`~repro.resilience.ChaosConfig`
  (hooks installed, nothing fires);
* ``chaos``  — 5% tile-NaN injection with retries absorbing the
  corruption (the price of an actual chaos experiment, for scale);

asserts the ``plain`` and ``inert`` results are bit-identical, and
writes ``benchmarks/out/BENCH_chaos_overhead.json``.
``BENCH_CHAOS_N`` scales the dataset (default 600, tile 40).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import loglikelihood
from repro.core.serving import PredictionEngine
from repro.data import sample_gaussian_field
from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.resilience import ChaosConfig, ResilienceConfig, RetryPolicy

N = int(os.environ.get("BENCH_CHAOS_N", "600"))
TILE = 40
VARIANT = "mp-dense-tlr-recover"
REPEATS = 5
THETA = np.array([1.0, 0.1, 0.5])
NUGGET = 1.0e-8

INERT = ResilienceConfig(chaos=ChaosConfig())  # every rate zero
CHAOS = ResilienceConfig(
    retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0),
    chaos=ChaosConfig(seed=13, tile_nan_rate=0.05),
)


def _dataset():
    gen = np.random.default_rng(2)
    x = gen.uniform(size=(N, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()
    z = sample_gaussian_field(kern, THETA, x, seed=9)
    return kern, x, z


def _median_time(fn, repeats=REPEATS):
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def test_chaos_hook_overhead(artifact_dir, benchmark):
    kern, x, z = _dataset()

    def loglik(resilience):
        return loglikelihood(
            kern, THETA, x, z, tile_size=TILE, variant=VARIANT,
            nugget=NUGGET, resilience=resilience,
        )

    t_plain, r_plain = _median_time(lambda: loglik(None))
    t_inert, r_inert = _median_time(lambda: loglik(INERT))
    t_chaos, r_chaos = _median_time(lambda: loglik(CHAOS))

    # Serving: same three configurations over a repeated batch grid.
    gen = np.random.default_rng(3)
    x_test = gen.uniform(size=(200, 2))

    def serve(resilience):
        engine = PredictionEngine(
            kern, THETA, x, z, loglik(None).factor,
            batch=50, resilience=resilience,
        )
        return engine.predict(x_test, return_uncertainty=True)

    t_serve_plain, p_plain = _median_time(lambda: serve(None), repeats=3)
    t_serve_inert, p_inert = _median_time(lambda: serve(INERT), repeats=3)

    overhead_fit = t_inert / t_plain - 1.0
    overhead_serve = t_serve_inert / t_serve_plain - 1.0
    record = {
        "experiment": "chaos_overhead",
        "n": N,
        "tile_size": TILE,
        "variant": VARIANT,
        "repeats": REPEATS,
        "seconds": {
            "loglik_plain": round(t_plain, 4),
            "loglik_inert_hooks": round(t_inert, 4),
            "loglik_chaos_5pct_nan": round(t_chaos, 4),
            "predict_plain": round(t_serve_plain, 4),
            "predict_inert_hooks": round(t_serve_inert, 4),
        },
        "overhead_fraction": {
            "loglik_inert": round(overhead_fit, 4),
            "predict_inert": round(overhead_serve, 4),
        },
        "chaos_run": {
            "loglik": r_chaos.value,
            "retries": r_chaos.stats.retries,
            "recovered": r_chaos.recovery is not None,
        },
        "bit_identical_inert": bool(r_inert.value == r_plain.value),
    }
    path = artifact_dir / "BENCH_chaos_overhead.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n[artifact] {path}\n{json.dumps(record, indent=2)}")

    # Inert hooks must not change a single bit of any result.
    assert r_inert.value == r_plain.value
    assert r_inert.logdet == r_plain.logdet
    np.testing.assert_array_equal(p_inert.mean, p_plain.mean)
    np.testing.assert_array_equal(p_inert.variance, p_plain.variance)
    # The chaos run must still end finite (retries + recovery absorb it).
    assert np.isfinite(r_chaos.value)
    # The overhead fractions are recorded, not asserted: a shared
    # runner's timing must not fail CI.
