"""The :class:`Telemetry` façade: one object to thread through the
engines.

``telemetry=`` parameters across :func:`repro.core.mle.fit_mle`,
:func:`repro.core.likelihood.loglikelihood`,
:class:`~repro.core.engine.EvaluationEngine`,
:class:`~repro.core.serving.PredictionEngine`, and
:class:`~repro.core.model.ExaGeoStatModel` all accept one of these.
It bundles a :class:`~repro.obs.tracer.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`, and forwards the span /
event / record APIs so instrumented code holds a single handle.

Every instrumented call site is guarded by ``telemetry is None`` — the
one way to be off — so the untraced paths execute exactly the code
they executed before this layer existed.
"""

from __future__ import annotations

from contextlib import nullcontext

from .export import (
    chrome_trace_events,
    profile_dump,
    render_breakdown,
    render_prometheus,
    write_chrome_trace,
)
from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["Telemetry", "maybe_span"]

_NULL = nullcontext()


def maybe_span(telemetry: "Telemetry | None", name: str, **attrs):
    """``telemetry.span(...)`` or a shared no-op context manager.

    The one-line guard of every instrumented call site: ``None`` (the
    untraced path) costs a ``None`` check and nothing else.
    """
    if telemetry is None:
        return _NULL
    return telemetry.span(name, **attrs)


class Telemetry:
    """Tracer + metrics registry bundle (``max_series`` is the
    registry's label-cardinality bound)."""

    def __init__(self, *, max_series: int = 256):
        self.tracer = Tracer()
        self.registry = MetricsRegistry(max_series=max_series)

    # -- tracing -------------------------------------------------------
    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        self.tracer.event(name, **attrs)

    # -- metrics -------------------------------------------------------
    def record(self, stats) -> None:
        """Mirror one stats object into the registry
        (:meth:`MetricsRegistry.publish`)."""
        self.registry.publish(stats)

    # -- exports -------------------------------------------------------
    def chrome_trace_events(self) -> list:
        return chrome_trace_events(self.tracer)

    def write_chrome_trace(self, path) -> None:
        write_chrome_trace(path, self.tracer)

    def render_prometheus(self) -> str:
        return render_prometheus(self.registry)

    def profile_dump(self) -> dict:
        return profile_dump(self.tracer, self.registry)

    def render_breakdown(self) -> str:
        return render_breakdown(self.tracer)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry(spans={len(self.tracer.spans)}, "
            f"metrics={len(self.registry.metrics())})"
        )
