"""Structured span tracer: nested timed regions across threads and
processes.

The paper's performance story is built on measurement ("Timers;
Flops"); this tracer is the measurement backbone of the *real*
execution paths.  A :class:`Span` is one timed region with attributes
(op, tile index, worker slot, backend, attempt); spans nest through a
:class:`contextvars.ContextVar`, so ``fit_mle -> loglikelihood ->
assembly/factorize/solve -> per-task kernels`` forms a proper tree
without any explicit parent plumbing on the happy path.

Design constraints (pinned by tests and the overhead benchmark):

* **near-zero cost when off** — every instrumented call site checks
  ``telemetry is None`` and takes the original code path;
* **thread-aware** — spans carry the recording thread id; worker
  threads buffer locally and flush under one lock, so the hot loops
  never contend per task;
* **cross-process** — worker processes cannot share the buffer, so
  they record plain tuples (:func:`span_tuple`) and ship them back
  with task results; :meth:`Tracer.add_span` merges them into the
  parent's timeline under a synthetic process id.  All clocks are
  ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, shared across
  processes), and exporters normalize to the trace origin;
* **no numeric side effects** — tracing touches no kernel input or
  output; traced runs are bit-identical to untraced ones.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = ["Span", "SpanEvent", "Tracer", "current_span_id"]

#: Process id of the driver process in every exported timeline; pool
#: workers are merged as ``rank + 1``.
DRIVER_PID = 0

#: Sentinel: "no explicit parent passed — inherit the context parent".
_INHERIT = object()

#: The active span of the *current context* (one per thread; freshly
#: spawned threads start with ``None``, and the executors pass their
#: enclosing span explicitly instead).
_CURRENT: ContextVar["int | None"] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_span_id() -> int | None:
    """Span id enclosing the caller's context (``None`` outside any
    span or on a thread that never opened one)."""
    return _CURRENT.get()


@dataclass
class Span:
    """One completed timed region."""

    sid: int
    name: str
    parent: int | None
    start: float
    end: float
    pid: int = DRIVER_PID
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class SpanEvent:
    """One instantaneous event on the span stream (e.g. per-iteration
    MLE progress: loglik, theta, rank histogram, precision mix)."""

    name: str
    ts: float
    pid: int = DRIVER_PID
    tid: int = 0
    attrs: dict = field(default_factory=dict)


def span_tuple(name: str, start: float, end: float, attrs: dict) -> tuple:
    """Picklable span record for cross-process shipping: a worker
    cannot append to the parent's buffer, so it records these and the
    parent merges them via :meth:`Tracer.add_span`."""
    return (name, float(start), float(end), attrs)


class _SpanContext:
    """Context manager of one live span."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_sid",
                 "_start", "_token")

    def __init__(self, tracer: "Tracer", name: str, parent, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs

    def __enter__(self) -> int:
        self._sid = next(self._tracer._ids)
        if self._parent is _INHERIT:
            self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self._sid)
        self._start = time.perf_counter()
        return self._sid

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        tracer = self._tracer
        record = Span(
            sid=self._sid, name=self._name, parent=self._parent,
            start=self._start, end=end, pid=DRIVER_PID,
            tid=threading.get_ident(), attrs=self._attrs,
        )
        with tracer._lock:
            tracer.spans.append(record)
        return False


class Tracer:
    """Thread-safe buffer of completed spans and events.

    One tracer spans one workload (a fit, a serving session); it never
    resets implicitly, so a fit's hundreds of evaluations accumulate
    into a single timeline.  Spans are appended *at completion* — the
    buffer is insertion-ordered by end time per thread, and exporters
    sort by start time, which defines the merged cross-process
    ordering.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[SpanEvent] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, *, parent=_INHERIT, **attrs):
        """Context manager timing a region; yields the span id.

        ``parent`` defaults to the context's current span; executors
        pass the enclosing span id explicitly when crossing a thread
        or process boundary (fresh threads have no context parent).
        """
        return _SpanContext(self, name, parent, attrs)

    def event(self, name: str, *, parent=None, **attrs) -> None:
        """Record an instantaneous event."""
        record = SpanEvent(
            name=name, ts=time.perf_counter(), pid=DRIVER_PID,
            tid=threading.get_ident(), attrs=attrs,
        )
        with self._lock:
            self.events.append(record)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        pid: int = DRIVER_PID,
        tid: int = 0,
        attrs: dict | None = None,
    ) -> int:
        """Append a fully-formed span (executor buffers, merged worker
        records).  Returns the assigned span id."""
        sid = next(self._ids)
        record = Span(
            sid=sid, name=name, parent=parent, start=float(start),
            end=float(end), pid=pid, tid=tid,
            attrs={} if attrs is None else attrs,
        )
        with self._lock:
            self.spans.append(record)
        return sid

    def merge_foreign(
        self,
        records: "list[tuple] | tuple",
        *,
        pid: int,
        parent: int | None = None,
        tid: int | None = None,
    ) -> None:
        """Merge :func:`span_tuple` records shipped from a worker
        process into this timeline under process id ``pid``."""
        for name, start, end, attrs in records:
            self.add_span(
                name, start, end, parent=parent, pid=pid,
                tid=pid if tid is None else tid, attrs=dict(attrs),
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def sorted_spans(self) -> list[Span]:
        """Spans in merged timeline order (start time, then id) — the
        canonical cross-process ordering of exports and checks."""
        with self._lock:
            snapshot = list(self.spans)
        return sorted(snapshot, key=lambda s: (s.start, s.sid))

    def sorted_events(self) -> list[SpanEvent]:
        with self._lock:
            snapshot = list(self.events)
        return sorted(snapshot, key=lambda e: e.ts)

    def origin(self) -> float:
        """Earliest timestamp in the buffer (0.0 when empty); exports
        are normalized relative to this."""
        with self._lock:
            starts = [s.start for s in self.spans]
            starts.extend(e.ts for e in self.events)
        return min(starts) if starts else 0.0

    def annotate(self, sid: int, **attrs) -> None:
        """Add ``attrs`` to the completed span ``sid`` — what a region
        learns only as it ends (the generation's certified error)."""
        with self._lock:
            span = next(s for s in reversed(self.spans) if s.sid == sid)
            span.attrs.update(attrs)

    def by_name(self, name: str) -> list[Span]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(spans={len(self.spans)}, events={len(self.events)})"
