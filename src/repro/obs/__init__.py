"""Unified telemetry layer: span tracing, metrics, exporters.

Three pieces (DESIGN.md §16):

* :mod:`repro.obs.tracer` — context-var structured span tracer,
  thread-aware and cross-process (worker spans merge into one
  timeline);
* :mod:`repro.obs.metrics` — central :class:`MetricsRegistry`, a
  mechanical mirror of the stats dataclasses the engines hand out;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto),
  Prometheus text exposition, JSON profile dump, per-op breakdown.

:class:`Telemetry` bundles a tracer and a registry and is what the
``telemetry=`` parameters on the engines accept::

    from repro.obs import Telemetry

    telemetry = Telemetry()
    result = fit_mle(..., telemetry=telemetry)
    telemetry.write_chrome_trace("trace.json")   # open in Perfetto
    print(telemetry.render_prometheus())
"""

from .export import (
    chrome_trace_events,
    op_breakdown,
    profile_dump,
    render_breakdown,
    render_prometheus,
    write_chrome_trace,
)
from .metrics import MetricsRegistry
from .telemetry import Telemetry, maybe_span
from .tracer import Span, SpanEvent, Tracer, current_span_id

__all__ = [
    "Telemetry",
    "maybe_span",
    "Tracer",
    "Span",
    "SpanEvent",
    "current_span_id",
    "MetricsRegistry",
    "chrome_trace_events",
    "write_chrome_trace",
    "render_prometheus",
    "profile_dump",
    "op_breakdown",
    "render_breakdown",
]
