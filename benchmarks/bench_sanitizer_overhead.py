"""Concurrency-sanitizer overhead: off must be free, on must be usable.

The sanitizer's contract mirrors the resilience layer's: with
:func:`~repro.analysis.sanitize.enable_sanitizer` never called, the
only residue in the production code is the DAG executor's one-call
``_make_lock`` indirection — so fits and predictions must stay
bit-identical to the pre-instrumentation tree.  With it enabled, every
tile access, cache operation, counter update, and lock edge pays a
bookkeeping callback; that slowdown is the price of a race-checked run
and is measured here for the record (CI runs the sanitized workload,
so its cost must stay sane).

Times repeated threaded likelihood evaluations and parallel batched
predictions in two configurations —

* ``off`` — sanitizer never enabled (the seed path);
* ``on``  — full instrumentation recording lockset + happens-before
  events;

asserts the two produce bit-identical numerics and that the sanitized
run reports zero findings, and writes
``benchmarks/out/BENCH_sanitizer_overhead.json``.
``BENCH_SANITIZE_N`` scales the dataset (default 400, tile 25).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.analysis.sanitize import disable_sanitizer, enable_sanitizer
from repro.core import get_variant, loglikelihood
from repro.core.serving import PredictionEngine
from repro.data import sample_gaussian_field
from repro.kernels import MaternKernel
from repro.ordering import order_points
from repro.tile.geometry import GeometryCache

N = int(os.environ.get("BENCH_SANITIZE_N", "400"))
TILE = 25
REPEATS = 3
WORKERS = 4
THETA = np.array([1.0, 0.1, 0.5])
NUGGET = 1.0e-8


def _dataset():
    gen = np.random.default_rng(2)
    x = gen.uniform(size=(N, 2))
    x = x[order_points(x, "morton")]
    kern = MaternKernel()
    z = sample_gaussian_field(kern, THETA, x, seed=9)
    x_test = gen.uniform(size=(120, 2))
    return kern, x, z, x_test


def _median_time(fn, repeats=REPEATS):
    times = []
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


def test_sanitizer_overhead(artifact_dir, benchmark):
    kern, x, z, x_test = _dataset()

    def fit_and_predict():
        result = loglikelihood(
            kern, THETA, x, z, tile_size=TILE,
            variant=get_variant("dense-fp64").with_(workers=WORKERS),
            nugget=NUGGET, cache=GeometryCache(),
        )
        engine = PredictionEngine(
            kern, THETA, x, z, result.factor,
            cache=GeometryCache(), batch=30,
        )
        pred = engine.predict(x_test, return_uncertainty=True)
        return result, pred

    t_off, (r_off, p_off) = _median_time(fit_and_predict)

    state = enable_sanitizer()
    try:
        t_on, (r_on, p_on) = _median_time(fit_and_predict)
        findings = state.report()
        events = state.stats.events
    finally:
        disable_sanitizer()

    # Back to the plain path: a second uninstrumented run must again be
    # bit-identical (enable/disable leaves no residue).
    _, (r_off2, p_off2) = _median_time(fit_and_predict, repeats=1)

    slowdown = t_on / t_off
    record = {
        "experiment": "sanitizer_overhead",
        "n": N,
        "tile_size": TILE,
        "workers": WORKERS,
        "repeats": REPEATS,
        "seconds": {
            "fit_predict_off": round(t_off, 4),
            "fit_predict_sanitized": round(t_on, 4),
        },
        "sanitized_slowdown_x": round(slowdown, 2),
        "sanitized_events": events,
        "sanitized_findings": len(findings.diagnostics),
        "bit_identical_off": bool(
            r_off.value == r_off2.value
            and np.array_equal(p_off.mean, p_off2.mean)
            and np.array_equal(p_off.variance, p_off2.variance)
        ),
        "bit_identical_instrumented": bool(
            r_off.value == r_on.value
            and np.array_equal(p_off.mean, p_on.mean)
            and np.array_equal(p_off.variance, p_on.variance)
        ),
    }
    path = artifact_dir / "BENCH_sanitizer_overhead.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\n[artifact] {path}\n{json.dumps(record, indent=2)}")

    # Sanitizer-off runs are the seed path: bit-identical across the
    # enable/disable cycle.
    assert record["bit_identical_off"]
    # Instrumentation observes, never perturbs.
    assert record["bit_identical_instrumented"]
    # The clean tree must stay clean under instrumentation.
    assert findings.diagnostics == [], findings.render_text()
    assert events > 0
