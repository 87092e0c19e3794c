"""Tests for the unified telemetry layer (tracer, metrics, exporters,
and the instrumented real execution paths)."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import (
    EngineStats,
    PredictionEngine,
    ServingStats,
    fit_mle,
    get_variant,
    loglikelihood,
)
from repro.core.model import ExaGeoStatModel
from repro.exceptions import ChaosError
from repro.kernels import MaternKernel
from repro.obs import MetricsRegistry, Telemetry, maybe_span
from repro.obs.export import op_breakdown, render_prometheus
from repro.obs.tracer import Tracer, current_span_id, span_tuple
from repro.ordering import order_points
from repro.resilience import (
    ChaosConfig,
    ChaosInjector,
    ChaosStats,
    HealthReport,
    ResilienceConfig,
    RetryPolicy,
)
from repro.runtime import CommStats, ParallelRunReport
from repro.tile import CholeskyStats

THETA = np.array([1.0, 0.1, 0.5])
NUGGET = 1.0e-8


@pytest.fixture(scope="module")
def problem():
    gen = np.random.default_rng(42)
    x = gen.uniform(size=(160, 2))
    x = x[order_points(x, "morton")]
    kernel = MaternKernel()
    sigma = kernel.covariance_matrix(THETA, x, nugget=NUGGET)
    z = np.linalg.cholesky(sigma) @ gen.standard_normal(160)
    return kernel, x, z


def _value(snap, name):
    """The one unlabelled series of metric ``name`` in a snapshot."""
    (series,) = snap[name]["series"]
    assert series["labels"] == {}
    return series["value"]


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_contextvar_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer_sid:
            assert current_span_id() == outer_sid
            with tracer.span("inner"):
                pass
        assert current_span_id() is None
        outer, inner = tracer.by_name("outer")[0], tracer.by_name("inner")[0]
        assert inner.parent == outer.sid
        assert outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_explicit_parent_overrides_context(self):
        tracer = Tracer()
        with tracer.span("a") as a_sid:
            with tracer.span("b", parent=None):
                pass
            with tracer.span("c", parent=a_sid):
                pass
        assert tracer.by_name("b")[0].parent is None
        assert tracer.by_name("c")[0].parent == a_sid

    def test_exception_annotates_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        span = tracer.by_name("doomed")[0]
        assert span.attrs["error"] == "ValueError"

    def test_cross_process_merge_ordering(self):
        tracer = Tracer()
        root = tracer.add_span("root", 0.0, 10.0)
        # Worker records arrive per rank, out of global time order.
        tracer.merge_foreign(
            [span_tuple("potrf", 3.0, 4.0, {"uid": 2}),
             span_tuple("trsm", 1.0, 2.0, {"uid": 1})],
            pid=1, parent=root,
        )
        tracer.merge_foreign(
            [span_tuple("gemm", 2.5, 3.5, {"uid": 3})], pid=2, parent=root,
        )
        merged = tracer.sorted_spans()
        assert [s.name for s in merged] == ["root", "trsm", "gemm", "potrf"]
        assert [s.pid for s in merged] == [0, 1, 2, 1]
        assert all(s.parent == root for s in merged[1:])
        assert tracer.origin() == 0.0


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "count", ("op",))
        c.inc(2, "potrf")
        c.inc(1, "potrf")
        with pytest.raises(ValueError):
            c.inc(-1, "potrf")
        g = reg.gauge("g", "gauge")
        g.set(5)
        g.inc(-2)
        h = reg.histogram("h_seconds", "hist", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 2.0):
            h.observe(v)
        snap = reg.snapshot()
        assert snap["c_total"]["series"][0]["value"] == 3.0
        assert snap["g"]["series"][0]["value"] == 3.0
        hs = snap["h_seconds"]["series"][0]
        # bisect_left => le semantics: 0.1 falls in the 0.1 bucket.
        assert hs["buckets"] == {"0.1": 2, "1.0": 3, "+Inf": 4}
        assert hs["count"] == 4
        assert hs["sum"] == pytest.approx(2.65)

    def test_kind_and_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", "d", ("op",))
        with pytest.raises(ValueError):
            reg.gauge("m", "d", ("op",))
        with pytest.raises(ValueError):
            reg.counter("m", "d", ("other",))

    def test_cardinality_bound(self):
        reg = MetricsRegistry(max_series=2)
        c = reg.counter("bound_total", "d", ("uid",))
        for uid in range(5):
            c.inc(1, uid)
        snap = reg.snapshot()
        series = snap["bound_total"]["series"]
        labels = [s["labels"] for s in series]
        assert {"overflow": "1"} in labels
        assert len(series) == 3  # two real series + the overflow sink
        assert reg.dropped_series == 3
        text = render_prometheus(reg)
        assert 'bound_total{overflow="1"} 3' in text
        assert "repro_metrics_dropped_series 3" in text


# ----------------------------------------------------------------------
# the registry mirrors the stats dataclasses
# ----------------------------------------------------------------------
#: class -> (family prefix, class kind, {field: kind that overrides it}).
MIRRORED = {
    CholeskyStats: ("repro_cholesky", "counter", {"max_rank_seen": "gauge"}),
    ParallelRunReport: ("repro_parallel_run", "counter", {
        "workers": "gauge", "max_concurrency": "gauge",
        "blas_clamp": "gauge", "wall_time_s": "histogram",
    }),
    CommStats: ("repro_comm", "counter", {}),
    EngineStats: ("repro_engine", "gauge", {}),
    ServingStats: ("repro_serving", "gauge", {}),
    ChaosStats: ("repro_chaos", "gauge", {}),
    HealthReport: ("repro_health", "gauge", {}),
}


def _filled(cls):
    """An instance of ``cls`` with a distinct non-zero value in every
    numeric field and two keys in every dict field; returns it with
    ``{field: value}`` for exactly those fields."""
    values = {}
    for i, f in enumerate(dataclasses.fields(cls), start=2):
        if f.type == "bool":
            values[f.name] = True
        elif f.type in ("int", "float", "int | None"):
            values[f.name] = i + (0.5 if f.type == "float" else 0)
        elif f.type.startswith("dict"):
            values[f.name] = {"a": 100 + i, "b": 200 + i}
    return cls(**values), values


class TestMirror:
    @pytest.mark.parametrize("cls", MIRRORED, ids=lambda cls: cls.__name__)
    def test_snapshot_is_the_object(self, cls):
        prefix, class_kind, overrides = MIRRORED[cls]
        obj, values = _filled(cls)
        assert values, "no numeric field to mirror"
        reg = MetricsRegistry()
        reg.publish(obj)
        reg.publish(obj)
        snap = reg.snapshot()
        del snap["_meta"]
        want = {}
        for name, value in values.items():
            kind = overrides.get(name, class_kind)
            metric = f"{prefix}_{name}" + ("_total" if kind == "counter" else "")
            want[metric] = (kind, value)
        assert set(snap) == set(want)
        for metric, (kind, value) in want.items():
            assert snap[metric]["kind"] == kind, metric
            series = snap[metric]["series"]
            if isinstance(value, dict):
                # One labelled family; deltas add, snapshots overwrite.
                times = 2 if kind == "counter" else 1
                assert {
                    s["labels"]["key"]: s["value"] for s in series
                } == {key: times * v for key, v in value.items()}
            elif kind == "histogram":
                assert (series[0]["count"], series[0]["sum"]) == (2, 2 * value)
            else:
                times = 2 if kind == "counter" else 1
                assert _value(snap, metric) == times * value

    def test_breaker_state_reaches_the_exposition(self, problem):
        kernel, x, z = problem
        factor = loglikelihood(
            kernel, THETA, x, z, tile_size=40, nugget=NUGGET,
        ).factor
        telemetry = Telemetry()
        engine = PredictionEngine(
            kernel, THETA, x, z, factor, batch=8, telemetry=telemetry,
            resilience=ResilienceConfig(
                chaos=ChaosConfig(seed=5, batch_fail_rate=1.0),
            ),
        )
        for _ in range(3):
            with pytest.raises(ChaosError):
                engine.predict(x[:16])
        lines = telemetry.render_prometheus().splitlines()
        assert "repro_health_breaker_open 1" in lines
        assert "repro_health_breaker_trips 1" in lines
        assert "repro_health_consecutive_failures 3" in lines
        assert "repro_serving_failed_calls 3" in lines
        assert "repro_chaos_failed_batches 3" in lines

    def test_chaos_fit_publishes_injector_and_health(self, problem):
        kernel, x, z = problem
        telemetry = Telemetry()
        injector = ChaosInjector(ChaosConfig(seed=12, tile_nan_rate=0.3))
        result = fit_mle(
            kernel, x, z, tile_size=40, theta0=THETA, max_iter=3,
            nugget=NUGGET, telemetry=telemetry,
            resilience=ResilienceConfig(
                retry=RetryPolicy(
                    max_attempts=12, base_delay_s=0.0, max_delay_s=0.0
                ),
                chaos=injector,
            ),
        )
        snap = telemetry.registry.snapshot()
        tally = injector.stats
        assert _value(snap, "repro_chaos_corrupted_tiles") \
            == tally.corrupted_tiles > 0
        assert _value(snap, "repro_health_calls") == result.nfev
        # Every corrupted tile was retried, and the engine's health and
        # the per-factorization deltas agree on how often.
        assert _value(snap, "repro_health_retries") \
            == _value(snap, "repro_cholesky_retries_total") \
            == tally.corrupted_tiles

    def test_retries_appear_in_one_family(self, problem):
        kernel, x, z = problem
        telemetry = Telemetry()
        result = loglikelihood(
            kernel, THETA, x, z, tile_size=40, nugget=NUGGET,
            variant=get_variant("dense-fp64").with_(workers=2),
            telemetry=telemetry,
            resilience=ResilienceConfig(
                retry=RetryPolicy(
                    max_attempts=12, base_delay_s=0.0, max_delay_s=0.0
                ),
                chaos=ChaosConfig(seed=12, tile_nan_rate=0.3),
            ),
        )
        snap = telemetry.registry.snapshot()
        assert [name for name in snap if "retries" in name] \
            == ["repro_cholesky_retries_total"]
        assert _value(snap, "repro_cholesky_retries_total") \
            == result.stats.retries > 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    @pytest.fixture()
    def traced(self, problem):
        kernel, x, z = problem
        telemetry = Telemetry()
        result = loglikelihood(
            kernel, THETA, x, z, tile_size=40,
            variant=get_variant("mp-dense").with_(workers=2),
            nugget=NUGGET, telemetry=telemetry,
        )
        return result, telemetry

    def test_chrome_trace_schema(self, traced):
        _, telemetry = traced
        events = json.loads(json.dumps(telemetry.chrome_trace_events()))
        metas = [e for e in events if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in metas}
        assert any(
            e["name"] == "process_name" and e["args"]["name"] == "driver"
            for e in metas
        )
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in events)
        completes = [e for e in events if e["ph"] == "X"]
        assert completes, "no complete events exported"
        for e in completes:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            assert "span_id" in e["args"]

    def test_prometheus_schema(self, traced):
        _, telemetry = traced
        text = telemetry.render_prometheus()
        lines = text.splitlines()
        helps = [ln for ln in lines if ln.startswith("# HELP")]
        types = [ln for ln in lines if ln.startswith("# TYPE")]
        assert len(helps) == len(types) >= 4
        samples = [ln for ln in lines if ln and not ln.startswith("#")]
        for ln in samples:
            name, value = ln.rsplit(" ", 1)
            assert name.split("{", 1)[0].replace("_", "").isalnum(), ln
            float(value)  # every sample value parses
        assert any(
            ln.startswith("repro_cholesky_kernel_counts_total{") for ln in samples
        )

    def test_span_tree_well_formed(self, traced):
        """Every parent resolves, each child lies inside its parent's
        interval, and spans on one ``(pid, tid)`` lane — a lane runs
        one thing at a time — nest or are disjoint."""
        _, telemetry = traced
        eps = 1e-6  # clock slack (s)
        spans = telemetry.tracer.sorted_spans()
        assert spans
        by_sid = {s.sid: s for s in spans}
        lanes: dict[tuple[int, int], list] = {}
        for s in spans:
            assert s.start <= s.end, s.name
            if s.parent is not None:
                parent = by_sid[s.parent]
                assert parent.start - eps <= s.start, (s.name, parent.name)
                assert s.end <= parent.end + eps, (s.name, parent.name)
            lanes.setdefault((s.pid, s.tid), []).append(s)
        for members in lanes.values():
            members.sort(key=lambda s: (s.start, -s.end))
            for a, b in zip(members, members[1:]):
                nested = b.end <= a.end + eps
                disjoint = b.start >= a.end - eps
                assert nested or disjoint, (a.name, b.name)

    def test_breakdown_self_time(self, traced):
        _, telemetry = traced
        rows = op_breakdown(telemetry.tracer)
        names = [r["name"] for r in rows]
        assert "loglikelihood" in names and "factorize" in names
        for row in rows:
            assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9
        # parent self-time excludes child time: the loglikelihood span
        # contains generate + factorize + solve, so its self share is
        # strictly below its total.
        ll = next(r for r in rows if r["name"] == "loglikelihood")
        assert ll["self_s"] < ll["total_s"]

    def test_profile_dump_round_trip(self, traced):
        _, telemetry = traced
        dump = json.loads(json.dumps(telemetry.profile_dump()))
        assert set(dump) >= {"spans", "events", "breakdown", "metrics"}
        assert all(s["start_s"] >= 0.0 for s in dump["spans"])


# ----------------------------------------------------------------------
# instrumented execution paths
# ----------------------------------------------------------------------
class TestRealPaths:
    @pytest.mark.parametrize("workers", [
        pytest.param(2, id="thread-2"), pytest.param(1, id="sequential-1"),
    ])
    def test_traced_loglik_bit_identical(self, problem, workers):
        kernel, x, z = problem
        telemetry = Telemetry()
        kwargs = dict(
            tile_size=20, nugget=NUGGET,  # 8 x 8 tiles: low-rank updates
            variant=get_variant("mp-dense-tlr").with_(workers=workers),
        )
        plain = loglikelihood(kernel, THETA, x, z, **kwargs)
        traced = loglikelihood(
            kernel, THETA, x, z, telemetry=telemetry, **kwargs
        )
        assert traced.value == plain.value
        assert traced.logdet == plain.logdet
        assert len(telemetry.tracer) > 0
        # The low-rank settle tally: registry == stats == the one event.
        stats = traced.stats
        snap = telemetry.registry.snapshot()
        for name in ("truncations", "kept_dense", "certified"):
            (series,) = snap[f"repro_cholesky_{name}_total"]["series"]
            assert series["value"] == getattr(stats, name)
        (settle,) = [
            e for e in telemetry.tracer.sorted_events()
            if e.name == "lr_settle"
        ]
        assert settle.attrs["truncations"] == stats.truncations > 0
        assert settle.attrs["kept_dense"] == stats.kept_dense
        # The widest settled rank of the factor, not a GEMM's width.
        assert settle.attrs["max_rank"] == max(
            tile.rank for _, tile in traced.factor.items()
            if tile.is_low_rank
        )
        assert "max_width" not in settle.attrs
        # The generate span says what ran, not what was asked: Matern is
        # element-wise, 160 points are one slice (36 tiles of 20 x 20),
        # and nu = 1/2 is a closed form, so no table (certified rtol 0).
        (generate,) = telemetry.tracer.by_name("generate")
        assert generate.attrs == dict(
            nt=8, workers=workers, elementwise=True, chunks=1, table=False,
            rtol=0.0)
        # A fixed band in rank mode reads no rank before the
        # factorization: the assembly compresses nothing (no compress
        # span) and every off-band tile is compressed once, at its
        # settle — the 28 - 7 tiles off a band of 2, counted on the
        # stats, the same traced or not.
        assert telemetry.tracer.by_name("compress") == []
        assert set(traced.report.compressed.values()) == {0}
        assert stats.truncations == 21 and stats.certified > 0
        assert plain.stats == stats

    def test_thread_backend_span_nesting(self, problem):
        """A task-level hook rides the sweep's calls: kernel spans
        under ``"panel"`` spans under ``factorize``, one per call."""
        kernel, x, z = problem
        telemetry = Telemetry()
        loglikelihood(
            kernel, THETA, x, z, tile_size=40,
            variant=get_variant("mp-dense").with_(workers=2),
            nugget=NUGGET, telemetry=telemetry,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
        )
        factorize = telemetry.tracer.by_name("factorize")[0]
        # The span records what ran, resolved from the variant.
        assert factorize.attrs["placement"] == "thread"
        assert factorize.attrs["grouping"] == "stacked"
        assert factorize.attrs["workers"] == 2
        panels = telemetry.tracer.by_name("panel")
        assert panels and all(p.parent == factorize.sid for p in panels)
        by_sid = {p.sid: p for p in panels}
        calls = [
            s for s in telemetry.tracer.spans
            if s.name in ("potrf", "trsm", "syrk", "gemm")
        ]
        assert calls, "the hooked sweep emitted no kernel spans"
        for span in calls:
            panel = by_sid[span.parent]
            assert panel.start <= span.start <= span.end <= panel.end
        per_tile = [s for s in calls if not s.attrs["batched"]]
        assert per_tile and all(
            {"uid", "tile", "worker", "attempt"} <= set(s.attrs)
            for s in per_tile
        )

    def test_retried_stacked_call_says_so(self, problem):
        """Seeded chaos under retry: a stacked call that was re-run
        carries its attempt count, and the spans' extra attempts are
        exactly the report's retries."""
        kernel, x, z = problem
        telemetry = Telemetry()
        result = loglikelihood(
            kernel, THETA, x, z, tile_size=20,
            variant=get_variant("mp-dense").with_(workers=2),
            nugget=NUGGET, telemetry=telemetry,
            resilience=ResilienceConfig(
                retry=RetryPolicy(
                    max_attempts=12, base_delay_s=0.0, max_delay_s=0.0
                ),
                chaos=ChaosConfig(seed=12, tile_nan_rate=0.3),
            ),
        )
        calls = [
            s for s in telemetry.tracer.spans
            if s.name in ("potrf", "trsm", "syrk", "gemm")
        ]
        assert any(
            s.attrs["batched"] and s.attrs["attempt"] > 1 for s in calls
        )
        assert sum(s.attrs["attempt"] - 1 for s in calls) == (
            result.stats.retries
        )

    @pytest.mark.parametrize("batch", [False, True])
    def test_sweep_panel_spans(self, problem, batch):
        """Hook-free threads run the sweep, ``batch`` or not: one
        ``"panel"`` span per ``k``, a child per stacked call or
        per-tile leftover."""
        kernel, x, z = problem
        telemetry = Telemetry()
        variant = get_variant("mp-dense").with_(batch=batch, workers=2)
        plain = loglikelihood(
            kernel, THETA, x, z, tile_size=40, variant=variant,
            nugget=NUGGET,
        )
        traced = loglikelihood(
            kernel, THETA, x, z, tile_size=40, variant=variant,
            nugget=NUGGET, telemetry=telemetry,
        )
        assert traced.value == plain.value
        factorize = telemetry.tracer.by_name("factorize")[0]
        assert factorize.attrs["grouping"] == "stacked"
        panels = telemetry.tracer.by_name("panel")
        assert [p.attrs["panel"] for p in panels] == list(
            range(factorize.attrs["nt"])
        )
        assert all(p.parent == factorize.sid for p in panels)
        panel_sids = {p.sid for p in panels}
        calls = [
            s for s in telemetry.tracer.spans
            if s.name in ("potrf", "trsm", "syrk", "gemm")
        ]
        assert calls and all(s.parent in panel_sids for s in calls)
        stacked = [s for s in calls if s.attrs["batched"]]
        assert stacked and all(s.attrs["tasks"] > 1 for s in stacked)
        assert {s.name for s in stacked} == {"trsm", "gemm"}
        leftovers = [s for s in calls if not s.attrs["batched"]]
        assert all({"uid", "tile"} <= set(s.attrs) for s in leftovers)
        # Every tile op is inside exactly one call.
        assert sum(s.attrs["tasks"] for s in calls) == sum(
            traced.stats.kernel_counts.values()
        )

    def test_process_backend_merged_timeline(self, problem):
        kernel, x, z = problem
        telemetry = Telemetry()
        variant = get_variant("mp-dense").with_(backend="process", workers=2)
        plain = loglikelihood(
            kernel, THETA, x, z, tile_size=40, variant=variant,
            nugget=NUGGET,
        )
        traced = loglikelihood(
            kernel, THETA, x, z, tile_size=40, variant=variant,
            nugget=NUGGET, telemetry=telemetry,
        )
        assert traced.value == plain.value
        pids = {s.pid for s in telemetry.tracer.spans}
        assert pids == {0, 1, 2}
        factorize = telemetry.tracer.by_name("factorize")[0]
        worker_spans = [s for s in telemetry.tracer.spans if s.pid > 0]
        assert worker_spans
        assert all(s.parent == factorize.sid for s in worker_spans)
        # shared perf_counter epoch: worker spans sit inside the
        # driver's factorize window.
        assert all(
            factorize.start <= s.start <= s.end <= factorize.end
            for s in worker_spans
        )

    @pytest.mark.parametrize("variant", ["dense-fp64", "mp-dense-tlr"])
    def test_traced_fit_bit_identical(self, problem, variant):
        kernel, x, z = problem
        telemetry = Telemetry()
        kwargs = dict(
            tile_size=40, variant=variant, theta0=THETA, max_iter=4,
            nugget=NUGGET,
        )
        plain = fit_mle(kernel, x, z, **kwargs)
        traced = fit_mle(kernel, x, z, telemetry=telemetry, **kwargs)
        assert traced.loglik == plain.loglik
        assert traced.history == plain.history
        np.testing.assert_array_equal(traced.theta, plain.theta)
        events = [
            e for e in telemetry.tracer.sorted_events()
            if e.name == "mle_iteration"
        ]
        assert len(events) == plain.nfev
        first = events[0].attrs
        assert {"loglik", "theta", "rank_hist", "precision_mix",
                "nfev", "variant"} <= set(first)
        assert first["variant"] == variant
        # The settled factor's ranks: a TLR fit has low-rank tiles
        # although its assembly compresses none.
        assert bool(first["rank_hist"]) == (variant == "mp-dense-tlr")

    def test_model_predict_spans_and_stats(self, problem):
        kernel, x, z = problem
        telemetry = Telemetry()
        model = ExaGeoStatModel(
            kernel=kernel, variant="mp-dense", tile_size=40,
            telemetry=telemetry,
        )
        model.fit(x, z, theta0=THETA, max_iter=3)
        gen = np.random.default_rng(7)
        x_new = gen.uniform(size=(30, 2))
        model.predict(x_new, return_uncertainty=True, batch=10)
        predict = telemetry.tracer.by_name("predict")[0]
        batches = telemetry.tracer.by_name("predict_batch")
        assert len(batches) == 3
        assert all(b.parent == predict.sid for b in batches)
        snap = telemetry.registry.snapshot()
        assert _value(snap, "repro_serving_predictions") == 30
        assert _value(snap, "repro_health_breaker_open") == 0
        assert _value(snap, "repro_engine_evaluations") == model.result_.nfev

    def test_maybe_span_shares_null_context(self):
        assert maybe_span(None, "a") is maybe_span(None, "b")
        telemetry = Telemetry()
        with maybe_span(telemetry, "real", op="x") as sid:
            assert sid == current_span_id()
        assert telemetry.tracer.by_name("real")[0].attrs == {"op": "x"}
