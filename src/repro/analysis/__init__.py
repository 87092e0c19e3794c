"""Static verification layer: plan/DAG analyzers + numerical linter.

Four static analyzers share one diagnostics framework
(:mod:`repro.analysis.diagnostics`):

* :mod:`repro.analysis.plancheck` — verifies a
  :class:`~repro.tile.decisions.TilePlan` against the paper's
  invariants (Frobenius precision rule, Algorithm-2 dense band,
  crossover-admissible ranks) without touching tile data;
* :mod:`repro.analysis.dagcheck` — verifies task streams and
  dependence DAGs for read-before-write and WAW/RAW races under any
  scheduler;
* :mod:`repro.analysis.lint` — AST-level numerical-hygiene rules over
  the repository's own sources;
* :mod:`repro.analysis.lockcheck` — AST-level lock-discipline rules
  (guarded attributes, lock-order cycles, re-entry, lock rebinding)
  over the same sources.

:mod:`~repro.analysis.golden` runs the plan and DAG verifiers on every
shipped variant's small Matérn problem, and cross-checks the process
backend's measured traffic against the wire-format model.
``python -m repro analyze`` exposes the linter, the lock analyzer and
the traffic check on the CLI.
"""

from .dagcheck import DAG_RULES, check_dag, check_task_stream, check_taskgraph
from .diagnostics import AnalysisReport, Diagnostic, Severity
from .golden import (
    COMM_RULES,
    GOLDEN_NTS,
    GOLDEN_VARIANTS,
    check_golden_comm,
    check_golden_plan,
)
from .lint import LINT_RULES, lint_file, lint_paths, lint_source
from .lockcheck import (
    LOCK_RULES,
    check_lock_discipline,
    check_lock_paths,
    check_lock_source,
)
from .plancheck import PLAN_RULES, check_plan, plan_from_matrix

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "check_plan",
    "plan_from_matrix",
    "check_task_stream",
    "check_dag",
    "check_taskgraph",
    "lint_source",
    "lint_file",
    "lint_paths",
    "check_lock_source",
    "check_lock_paths",
    "check_lock_discipline",
    "check_golden_plan",
    "check_golden_comm",
    "GOLDEN_VARIANTS",
    "GOLDEN_NTS",
    "PLAN_RULES",
    "DAG_RULES",
    "LINT_RULES",
    "COMM_RULES",
    "LOCK_RULES",
]
