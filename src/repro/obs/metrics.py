"""Central metrics registry: counters, gauges, histograms with labels.

The stats dataclasses the engines hand out (``CholeskyStats``,
``ParallelRunReport``, ``CommStats``, ``EngineStats``, ``ServingStats``,
``ChaosStats``, ``HealthReport``) are the only store of a run's facts;
:meth:`MetricsRegistry.publish` mirrors one of them into the registry
mechanically.  The naming rule (DESIGN.md §16):

* class -> family prefix: ``repro_`` + the snake-cased class name
  without its ``Stats`` / ``Report`` suffix (:func:`family_prefix`);
* field -> one metric ``<prefix>_<field>`` (numeric and bool fields;
  strings, ``None`` and nested stats objects are skipped — each object
  is published once, by the site that owns it);
* ``dict[str, number]`` field -> one metric with a ``key`` label;
* kind: the class's ``metric_kind`` — ``"counter"`` for a per-run delta
  (published values add, name gains ``_total``), ``"gauge"`` for a
  cumulative snapshot (published values overwrite) — unless the field
  overrides it with ``field(metadata={"metric": ...})``.

A new stats field therefore shows up in
:func:`repro.obs.export.render_prometheus` without anyone writing a
mapping.

Cardinality is bounded: the registry refuses to materialize more than
``max_series`` distinct label combinations per metric; excess
observations collapse into a single ``overflow="1"`` series and are
counted in ``dropped_series``, so a mislabelled hot loop can degrade
the *metrics*, never the process.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from numbers import Real

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram", "family_prefix"]

#: Default histogram bucket upper bounds (seconds-flavored, but any
#: positive quantity works; +Inf is implicit).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Label tuple every over-cardinality observation collapses into.
_OVERFLOW = ("__overflow__",)

#: Metric kind -> the method that takes a published value.
_WRITE = {"counter": "inc", "gauge": "set", "histogram": "observe"}


def family_prefix(cls: type) -> str:
    """``CholeskyStats`` -> ``repro_cholesky``, ``ParallelRunReport``
    -> ``repro_parallel_run``: the prefix of every metric mirrored
    from a ``cls`` instance."""
    stem = re.sub(r"(Stats|Report)$", "", cls.__name__)
    return "repro_" + re.sub(r"(?<!^)(?=[A-Z])", "_", stem).lower()


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
    the kind or labels differ), so :meth:`publish` can run repeatedly
    — e.g. once per MLE evaluation — without bookkeeping.
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

    def publish(self, obj) -> None:
        """Mirror one stats dataclass instance into the registry under
        names derived from its class and fields (the rule is in the
        module docstring).  ``type(obj).metric_kind`` says whether the
        values are a per-run delta or a cumulative snapshot."""
        cls = type(obj)
        prefix = family_prefix(cls)
        for f in fields(obj):
            value = getattr(obj, f.name)
            labelled = isinstance(value, dict)
            if not labelled and not isinstance(value, Real):
                continue
            kind = f.metadata.get("metric", cls.metric_kind)
            name = f"{prefix}_{f.name}"
            if kind == "counter":
                name += "_total"
            metric = getattr(self, kind)(
                name, f"{cls.__name__}.{f.name}",
                ("key",) if labelled else (),
            )
            write = getattr(metric, _WRITE[kind])
            if labelled:
                for key, item in value.items():
                    write(item, key)
            else:
                write(value)

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
