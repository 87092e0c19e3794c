"""Central metrics registry: counters, gauges, histograms with labels.

The repository grew six shape-incompatible stats dataclasses
(`CholeskyStats`, `EngineStats`, `ServingStats`, `CommStats`,
`ChaosStats`, `ParallelRunReport`) across five subsystems.  The
:class:`MetricsRegistry` gives them one mouth: thin adapter functions
(:func:`record_cholesky_stats` et al.) translate each legacy object
into labelled series, so a single :meth:`MetricsRegistry.snapshot`
covers kernel counts, comm bytes, cache hit rates, retries,
degradations, clamp events, and circuit-breaker state — and one
Prometheus exposition (:func:`repro.obs.export.render_prometheus`)
serves them all.

Cardinality is bounded: the registry refuses to materialize more than
``max_series`` distinct label combinations per metric; excess
observations collapse into a single ``overflow="1"`` series and are
counted in ``dropped_series``, so a mislabelled hot loop can degrade
the *metrics*, never the process.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "record_cholesky_stats",
    "record_engine_stats",
    "record_serving_stats",
    "record_comm_stats",
    "record_chaos_stats",
    "record_run_report",
    "record_health",
]

#: Default histogram bucket upper bounds (seconds-flavored, but any
#: positive quantity works; +Inf is implicit).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Label tuple every over-cardinality observation collapses into.
_OVERFLOW = ("__overflow__",)


def _label_values(values: tuple) -> tuple:
    return tuple(str(v) for v in values)


@dataclass
class _Series:
    value: float = 0.0


@dataclass
class _HistSeries:
    counts: list = field(default_factory=list)
    total: float = 0.0
    n: int = 0


class _Metric:
    """Base: one named metric family with labelled child series."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labels: tuple):
        self._registry = registry
        self.name = name
        self.help = help
        self.labels = tuple(labels)
        self._series: dict = {}

    def _resolve(self, values: tuple) -> tuple:
        """Map label values onto a series key, collapsing overflow."""
        values = _label_values(values)
        if len(values) != len(self.labels):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labels}, "
                f"got {len(values)} values"
            )
        if values in self._series:
            return values
        if len(self._series) >= self._registry.max_series:
            self._registry._dropped += 1
            return _OVERFLOW
        return values

    def _series_labels(self, key: tuple) -> dict:
        if key == _OVERFLOW:
            return {"overflow": "1"}
        return dict(zip(self.labels, key))


class Counter(_Metric):
    """Monotone accumulator (``inc`` only)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, *values) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._registry._lock:
            key = self._resolve(values)
            series = self._series.setdefault(key, _Series())
            series.value += amount

    def value(self, *values) -> float:
        with self._registry._lock:
            series = self._series.get(_label_values(values))
            return 0.0 if series is None else series.value


class Gauge(_Metric):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def set(self, value: float, *values) -> None:
        with self._registry._lock:
            key = self._resolve(values)
            self._series.setdefault(key, _Series()).value = float(value)

    def inc(self, amount: float = 1.0, *values) -> None:
        with self._registry._lock:
            key = self._resolve(values)
            series = self._series.setdefault(key, _Series())
            series.value += amount

    def value(self, *values) -> float:
        with self._registry._lock:
            series = self._series.get(_label_values(values))
            return 0.0 if series is None else series.value


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, registry, name, help, labels, buckets):
        super().__init__(registry, name, help, labels)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, *values) -> None:
        with self._registry._lock:
            key = self._resolve(values)
            series = self._series.get(key)
            if series is None:
                # one slot per finite bucket + a trailing +Inf slot
                series = _HistSeries(counts=[0] * (len(self.buckets) + 1))
                self._series[key] = series
            series.counts[bisect_left(self.buckets, value)] += 1
            series.total += float(value)
            series.n += 1

    def cumulative(self, key: tuple) -> list:
        """Cumulative per-bucket counts (``le`` semantics, +Inf last)."""
        series = self._series[key]
        out, running = [], 0
        for c in series.counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """Thread-safe home of every metric family.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: calling
    twice with the same name returns the same object (and raises if
    the kind or labels differ), so adapters can run repeatedly —
    e.g. once per MLE evaluation — without bookkeeping.
    """

    def __init__(self, *, max_series: int = 256):
        self.max_series = int(max_series)
        self._lock = threading.Lock()
        self._metrics: dict = {}
        self._dropped = 0

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labels != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labels}"
                    )
                return existing
            metric = cls(self, name, help, tuple(labels), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels: tuple = (),
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    @property
    def dropped_series(self) -> int:
        """Observations collapsed into overflow series because a
        metric exceeded ``max_series`` label combinations."""
        with self._lock:
            return self._dropped

    def metrics(self) -> list:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> dict:
        """JSON-able dump of every series (the profile-dump payload)."""
        out = {}
        with self._lock:
            for name, metric in self._metrics.items():
                entry = {"kind": metric.kind, "help": metric.help,
                         "series": []}
                for key, series in metric._series.items():
                    labels = metric._series_labels(key)
                    if metric.kind == "histogram":
                        entry["series"].append({
                            "labels": labels,
                            "count": series.n,
                            "sum": series.total,
                            "buckets": dict(zip(
                                [str(b) for b in metric.buckets]
                                + ["+Inf"],
                                metric.cumulative(key),
                            )),
                        })
                    else:
                        entry["series"].append(
                            {"labels": labels, "value": series.value}
                        )
                out[name] = entry
            out["_meta"] = {"dropped_series": self._dropped,
                            "max_series": self.max_series}
        return out


# ----------------------------------------------------------------------
# Adapters: legacy stats objects -> registry series.
#
# Counters receive *deltas* (per-factorization / per-run objects);
# gauges receive cumulative process-lifetime values (engine/serving
# stats objects accumulate internally, so re-recording them must not
# double-count).
# ----------------------------------------------------------------------

def record_cholesky_stats(registry: MetricsRegistry, stats) -> None:
    """One factorization's :class:`~repro.tile.cholesky.CholeskyStats`."""
    kernels = registry.counter(
        "repro_cholesky_kernels_total",
        "Tile kernels executed by the Cholesky engines", ("op",),
    )
    for op, count in stats.kernel_counts.items():
        kernels.inc(count, op)
    registry.counter(
        "repro_cholesky_densified_tiles_total",
        "Low-rank tiles whose update accumulator went dense",
    ).inc(stats.densified_tiles)
    registry.counter(
        "repro_cholesky_truncations_total",
        "Accumulating low-rank tiles settled (truncated once)",
    ).inc(stats.truncations)
    registry.counter(
        "repro_cholesky_kept_dense_total",
        "Settles that could not get under max_rank (tile stays dense)",
    ).inc(stats.kept_dense)
    registry.counter(
        "repro_cholesky_retries_total",
        "Task retries inside factorization",
    ).inc(stats.retries)
    registry.gauge(
        "repro_cholesky_max_rank_seen",
        "Widest low-rank factor pair carried after a GEMM, last factorization",
    ).set(stats.max_rank_seen)


def record_engine_stats(registry: MetricsRegistry, stats) -> None:
    """Cumulative :class:`~repro.core.engine.EngineStats`."""
    registry.gauge(
        "repro_engine_evaluations",
        "Likelihood evaluations served by the evaluation engine",
    ).set(stats.evaluations)
    hits = registry.gauge(
        "repro_engine_geometry_cache",
        "Geometry cache traffic of the evaluation engine", ("result",),
    )
    hits.set(stats.geometry_hits, "hit")
    hits.set(stats.geometry_misses, "miss")
    registry.gauge(
        "repro_engine_warm_tiles",
        "Tiles kept warm across evaluations",
    ).set(stats.warm_tiles)


def record_serving_stats(registry: MetricsRegistry, stats) -> None:
    """Cumulative :class:`~repro.core.serving.ServingStats`."""
    gauge = registry.gauge(
        "repro_serving", "Prediction serving engine counters", ("field",),
    )
    for name in (
        "predict_calls", "predictions", "batches", "weight_solves",
        "tile_casts", "solves", "clamped_variances", "failed_calls",
        "batch_retries",
    ):
        gauge.set(getattr(stats, name), name)
    cross = registry.gauge(
        "repro_serving_cross_cache",
        "Cross-covariance cache traffic", ("result",),
    )
    cross.set(stats.cross_hits, "hit")
    cross.set(stats.cross_misses, "miss")
    registry.gauge(
        "repro_serving_cross_cache_bytes",
        "Bytes held by the cross-covariance cache",
    ).set(stats.cross_cache_bytes)


def record_comm_stats(registry: MetricsRegistry, stats) -> None:
    """One run's :class:`~repro.runtime.comm.CommStats` deltas."""
    reads = registry.counter(
        "repro_comm_tile_reads_total",
        "Tile reads by locality (owner-computes accounting)",
        ("locality",),
    )
    reads.inc(stats.remote_reads, "remote")
    reads.inc(stats.local_reads, "local")
    registry.counter(
        "repro_comm_remote_bytes_total",
        "Bytes moved across ownership boundaries",
    ).inc(stats.remote_bytes)


def record_chaos_stats(registry: MetricsRegistry, stats) -> None:
    """Cumulative :class:`~repro.resilience.chaos.ChaosStats`."""
    gauge = registry.gauge(
        "repro_chaos_injections",
        "Faults injected by the chaos hooks", ("kind",),
    )
    gauge.set(stats.corrupted_tiles, "corrupted_tile")
    gauge.set(stats.failed_tasks, "failed_task")
    gauge.set(stats.delayed_tasks, "delayed_task")
    gauge.set(stats.failed_batches, "failed_batch")


def record_run_report(registry: MetricsRegistry, report) -> None:
    """One execution's :class:`~repro.runtime.parallel.ParallelRunReport`
    (threaded / batched / process backends)."""
    registry.counter(
        "repro_run_tasks_total", "Tasks executed by the DAG executors",
    ).inc(report.tasks)
    registry.counter(
        "repro_run_retries_total", "Task retries in the DAG executors",
    ).inc(report.retries)
    registry.counter(
        "repro_run_chaos_events_total", "Chaos events hit during runs",
    ).inc(report.chaos_events)
    registry.counter(
        "repro_run_batches_total", "Fused batches dispatched",
    ).inc(report.batches)
    registry.counter(
        "repro_run_batched_tasks_total", "Tasks executed inside batches",
    ).inc(report.batched_tasks)
    registry.counter(
        "repro_run_fallback_tasks_total",
        "Batch members retried on the scalar path",
    ).inc(report.fallback_tasks)
    registry.gauge(
        "repro_run_workers", "Worker count of the last run",
    ).set(report.workers)
    registry.gauge(
        "repro_run_max_concurrency",
        "Peak concurrent tasks observed in the last run",
    ).set(report.max_concurrency)
    registry.histogram(
        "repro_run_wall_seconds", "Wall time of DAG executor runs",
    ).observe(report.wall_time_s)
    # report.stats (CholeskyStats) is NOT recorded here — the
    # likelihood layer records it once per evaluation, covering the
    # sequential path too, so executor-level recording would
    # double-count kernels.
    if report.comm is not None:
        record_comm_stats(registry, report.comm)


def record_health(registry: MetricsRegistry, health) -> None:
    """Serving :class:`~repro.resilience.health.HealthReport` — maps
    circuit-breaker state into gauges."""
    breaker = getattr(health, "breaker", None) or {}
    if isinstance(breaker, dict):
        consecutive = breaker.get("consecutive", 0)
        trips = breaker.get("trips", 0)
        is_open = breaker.get("is_open", False)
    else:  # snapshot object
        consecutive = getattr(breaker, "consecutive", 0)
        trips = getattr(breaker, "trips", 0)
        is_open = getattr(breaker, "is_open", False)
    registry.gauge(
        "repro_breaker_open",
        "1 when the serving circuit breaker is open",
    ).set(1.0 if is_open else 0.0)
    registry.gauge(
        "repro_breaker_consecutive_failures",
        "Consecutive serving failures seen by the breaker",
    ).set(consecutive)
    registry.gauge(
        "repro_breaker_trips", "Times the serving breaker has tripped",
    ).set(trips)
