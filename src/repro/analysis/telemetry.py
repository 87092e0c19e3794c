"""Golden telemetry checks: the observability layer must tell the truth.

``python -m repro analyze --telemetry`` (and the CI telemetry job) runs
three executable invariants against a small deterministic traced
workload:

* **TELEM001** — the span tree must be well-formed: every parent
  reference resolves, children lie inside their parent's interval, and
  two spans on one ``(pid, tid)`` lane never partially overlap (they
  are nested or disjoint — a lane runs one thing at a time);
* **TELEM003** — the exporters must round-trip: the Chrome trace is
  valid JSON with schema-complete events, the profile dump survives
  ``json.dumps``/``loads``, and the Prometheus exposition parses;
* **TELEM004** — a traced evaluation must be bit-identical to the
  untraced one.

(Rule ids are stable, so the gap in the numbering stays: it was a
registry-vs-stats comparison, and the registry is now a mechanical
mirror of the stats objects — ``tests/test_observability.py`` pins the
mirror per class.)

Like the golden resilience checks these *execute* the real engines —
the tracer's claims about real runs cannot be proven from source text.
"""

from __future__ import annotations

import json

import numpy as np

from ..config import DEFAULT_SEED
from ..core.likelihood import loglikelihood
from ..core.variants import get_variant
from ..kernels import MaternKernel
from ..obs import Telemetry
from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = ["TELEM_RULES", "check_golden_telemetry"]

#: Telemetry rules enforced by :func:`check_golden_telemetry`.
TELEM_RULES: dict[str, str] = {
    "TELEM001": "malformed span tree (orphan parent, child escaping "
                "its parent, or partial overlap on one thread lane)",
    "TELEM003": "exporter output does not round-trip (invalid JSON, "
                "missing event fields, or unparsable Prometheus text)",
    "TELEM004": "telemetry changed results",
}

_TILE = 16
_NT = 4
_THETA = (1.0, 0.1, 0.5)
_NUGGET = 1.0e-8

#: Containment tolerance (s): perf_counter reads for a child's span
#: bracket happen strictly inside the parent's, but allow clock fuzz.
_EPS = 1.0e-6


def _golden_problem():
    gen = np.random.default_rng(DEFAULT_SEED)
    n = _NT * _TILE
    x = gen.uniform(size=(n, 2))
    z = gen.standard_normal(n)
    return MaternKernel(), np.asarray(_THETA), x, z


def _traced_run(**execution):
    """One traced likelihood on the golden problem under the given
    execution settings; returns ``(result, telemetry)``."""
    kernel, theta, x, z = _golden_problem()
    telemetry = Telemetry()
    result = loglikelihood(
        kernel, theta, x, z, tile_size=_TILE,
        variant=get_variant("mp-dense").with_(**execution),
        nugget=_NUGGET, telemetry=telemetry,
    )
    return result, telemetry


def _check_span_tree(report: AnalysisReport, telemetry: Telemetry) -> None:
    spans = telemetry.tracer.sorted_spans()
    if not spans:
        report.add(Diagnostic(
            "TELEM001", Severity.ERROR,
            "traced workload produced zero spans — nothing to verify",
        ))
        return
    by_sid = {s.sid: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent not in by_sid:
            report.add(Diagnostic(
                "TELEM001", Severity.ERROR,
                f"span {s.name!r} (sid {s.sid}) references missing "
                f"parent sid {s.parent}",
            ))
            continue
        if s.end < s.start:
            report.add(Diagnostic(
                "TELEM001", Severity.ERROR,
                f"span {s.name!r} (sid {s.sid}) ends before it starts",
            ))
        if s.parent is not None:
            p = by_sid[s.parent]
            if s.start < p.start - _EPS or s.end > p.end + _EPS:
                report.add(Diagnostic(
                    "TELEM001", Severity.ERROR,
                    f"span {s.name!r} [{s.start:.6f}, {s.end:.6f}] "
                    f"escapes parent {p.name!r} "
                    f"[{p.start:.6f}, {p.end:.6f}]",
                ))
    # One (pid, tid) lane runs one thing at a time: spans on it must
    # nest or be disjoint, never partially overlap.
    lanes: dict[tuple[int, int], list] = {}
    for s in spans:
        lanes.setdefault((s.pid, s.tid), []).append(s)
    for lane, members in lanes.items():
        members.sort(key=lambda s: (s.start, -s.end))
        for a, b in zip(members, members[1:]):
            overlap = b.start < a.end - _EPS
            nested = b.end <= a.end + _EPS
            if overlap and not nested:
                report.add(Diagnostic(
                    "TELEM001", Severity.ERROR,
                    f"lane {lane}: spans {a.name!r} and {b.name!r} "
                    f"partially overlap "
                    f"([{a.start:.6f},{a.end:.6f}] vs "
                    f"[{b.start:.6f},{b.end:.6f}])",
                ))


def _check_exporters(report: AnalysisReport, telemetry: Telemetry) -> None:
    # Chrome trace: valid JSON, schema-complete events.
    try:
        events = json.loads(json.dumps(telemetry.chrome_trace_events()))
    except (TypeError, ValueError) as exc:
        report.add(Diagnostic(
            "TELEM003", Severity.ERROR,
            f"chrome trace is not JSON-serializable: {exc}",
        ))
        return
    for ev in events:
        missing = [k for k in ("name", "ph", "pid", "tid") if k not in ev]
        if missing:
            report.add(Diagnostic(
                "TELEM003", Severity.ERROR,
                f"trace event {ev.get('name')!r} missing fields "
                f"{missing}",
            ))
            break
        if ev["ph"] == "X" and (ev.get("dur", -1) < 0 or ev.get("ts", -1) < 0):
            report.add(Diagnostic(
                "TELEM003", Severity.ERROR,
                f"complete event {ev['name']!r} has negative ts/dur",
            ))
            break
    # Profile dump: full JSON round-trip.
    try:
        dump = json.loads(json.dumps(telemetry.profile_dump()))
        for key in ("spans", "events", "breakdown", "metrics"):
            if key not in dump:
                report.add(Diagnostic(
                    "TELEM003", Severity.ERROR,
                    f"profile dump missing section {key!r}",
                ))
    except (TypeError, ValueError) as exc:
        report.add(Diagnostic(
            "TELEM003", Severity.ERROR,
            f"profile dump is not JSON-serializable: {exc}",
        ))
    # Prometheus text: every line a comment or NAME{...} VALUE.
    for line in telemetry.render_prometheus().splitlines():
        if not line or line.startswith("#"):
            continue
        body = line.rsplit(" ", 1)
        name = body[0].split("{", 1)[0]
        if len(body) != 2 or not name.replace("_", "").isalnum():
            report.add(Diagnostic(
                "TELEM003", Severity.ERROR,
                f"unparsable Prometheus line: {line!r}",
            ))
            break
        try:
            float(body[1])
        except ValueError:
            report.add(Diagnostic(
                "TELEM003", Severity.ERROR,
                f"non-numeric Prometheus sample: {line!r}",
            ))
            break


def _check_bit_identity(report: AnalysisReport) -> None:
    kernel, theta, x, z = _golden_problem()
    plain = loglikelihood(
        kernel, theta, x, z, tile_size=_TILE, variant="mp-dense",
        nugget=_NUGGET,
    )
    traced, _ = _traced_run()
    if traced.value != plain.value:
        report.add(Diagnostic(
            "TELEM004", Severity.ERROR,
            f"telemetry changed the loglikelihood: "
            f"{traced.value!r} != {plain.value!r}",
        ))


def check_golden_telemetry() -> AnalysisReport:
    """Run the golden telemetry invariants (rules in
    :data:`TELEM_RULES`) and narrate coverage with one INFO finding.

    The span-tree and exporter checks share one traced threaded run
    (``workers=2`` — multi-lane trees are where malformed nesting
    hides); the bit-identity check compares the sequential path traced
    and untraced.
    """
    report = AnalysisReport()
    _, telemetry = _traced_run(workers=2, backend="thread")
    _check_span_tree(report, telemetry)
    _check_exporters(report, telemetry)
    _check_bit_identity(report)
    status = "clean" if report.ok else f"{len(report.errors)} error(s)"
    report.add(Diagnostic(
        "GOLDEN", Severity.INFO,
        f"telemetry invariants {', '.join(TELEM_RULES)}: {status} "
        f"({len(telemetry.tracer)} span(s) checked, "
        f"{len(report)} finding(s))",
    ))
    return report
