"""Diagnostic objects shared by every static analyzer.

A :class:`Diagnostic` is one finding of a verifier rule: the rule id
(``"PLAN004"``, ``"LINT001"``, ...), a :class:`Severity`, a message,
and an optional location — a tile index for plan rules, a task uid for
DAG rules, a ``file:line`` pair for lint rules.  Analyzers accumulate
findings into an :class:`AnalysisReport`, which supports filtering,
aggregation, and text/JSON rendering for the CLI and the CI job.

The framework is deliberately runtime-free: analyzers never execute
kernels or factorizations, they inspect plans, task streams, and source
text, so a bad configuration is rejected before any flop is spent.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


__all__ = ["Severity", "Diagnostic", "AnalysisReport"]


class Severity(enum.IntEnum):
    """Ordered severity ladder.

    ``ERROR`` findings make a plan/graph/source unacceptable (the CLI
    exits non-zero); ``WARNING`` findings are suspicious but may be
    intentional; ``INFO`` findings are observations.
    """

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule at one location."""

    rule: str
    severity: Severity
    message: str
    tile: tuple[int, int] | None = None
    task: int | None = None
    file: str | None = None
    line: int | None = None

    @property
    def location(self) -> str:
        """Human-readable location string (empty when global)."""
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line is not None else self.file
        if self.task is not None:
            return f"task#{self.task}"
        if self.tile is not None:
            return f"tile({self.tile[0]},{self.tile[1]})"
        return ""

    def render(self) -> str:
        loc = self.location
        prefix = f"{loc}: " if loc else ""
        return f"{prefix}{self.severity.label}[{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        out: dict = {
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
        }
        if self.tile is not None:
            out["tile"] = list(self.tile)
        if self.task is not None:
            out["task"] = self.task
        if self.file is not None:
            out["file"] = self.file
        if self.line is not None:
            out["line"] = self.line
        return out


@dataclass
class AnalysisReport:
    """Ordered collection of diagnostics from one or more analyzers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "AnalysisReport | list[Diagnostic]") -> None:
        if isinstance(other, AnalysisReport):
            self.diagnostics.extend(other.diagnostics)
        else:
            self.diagnostics.extend(other)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def filter(
        self,
        *,
        severity: Severity | None = None,
        min_severity: Severity | None = None,
        rule: str | None = None,
    ) -> "AnalysisReport":
        """Sub-report matching the given criteria."""
        out = []
        for d in self.diagnostics:
            if severity is not None and d.severity is not severity:
                continue
            if min_severity is not None and d.severity < min_severity:
                continue
            if rule is not None and d.rule != rule:
                continue
            out.append(d)
        return AnalysisReport(out)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the report contains no error-severity findings."""
        return not self.errors

    def rule_ids(self) -> list[str]:
        """Sorted unique rule ids present in the report."""
        return sorted({d.rule for d in self.diagnostics})

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render_text(self, *, min_severity: Severity = Severity.INFO) -> str:
        """One line per finding plus a summary tail."""
        shown = self.filter(min_severity=min_severity)
        lines = [d.render() for d in shown]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics)} finding(s) total"
        )
        return "\n".join(lines)

    def to_json(self, *, indent: int | None = None) -> str:
        payload = {
            "findings": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "ok": self.ok,
        }
        return json.dumps(payload, indent=indent)
