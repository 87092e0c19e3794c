"""Static verification layer: plan/DAG analyzers + numerical linter.

Four static analyzers share one diagnostics framework
(:mod:`repro.analysis.diagnostics`):

* :mod:`repro.analysis.plancheck` — verifies a
  :class:`~repro.tile.decisions.TilePlan` against the paper's
  invariants (Frobenius precision rule, Algorithm-2 dense band,
  crossover-admissible ranks, memory/fault budgets) *before* any
  factorization is paid for;
* :mod:`repro.analysis.dagcheck` — verifies task streams and
  dependence DAGs for read-before-write and WAW/RAW races under any
  scheduler;
* :mod:`repro.analysis.lint` — AST-level numerical-hygiene rules over
  the repository's own sources;
* :mod:`repro.analysis.lockcheck` — AST-level lock-discipline rules
  (guarded attributes, lock-order cycles, re-entry, ``threading`` API
  misuse) over the same sources.

The golden checks (:mod:`~repro.analysis.golden`,
:mod:`~repro.analysis.resilience`, :mod:`~repro.analysis.telemetry`)
run small seeded workloads and report through the same framework.

The ``validate_plan`` hooks in :func:`repro.tile.cholesky.tile_cholesky`
and :func:`repro.runtime.simulator.simulate_tasks` raise
:class:`~repro.exceptions.PlanValidationError` on error-severity
findings; ``python -m repro analyze`` exposes everything on the CLI.
"""

from .dagcheck import DAG_RULES, check_dag, check_task_stream, check_taskgraph
from .diagnostics import AnalysisReport, Diagnostic, Severity
from .golden import (
    COMM_RULES,
    GOLDEN_NTS,
    GOLDEN_VARIANTS,
    SERVE_RULES,
    check_golden_comm,
    check_golden_plan,
    check_golden_plans,
    check_golden_serving,
)
from .lint import LINT_RULES, lint_file, lint_paths, lint_source
from .lockcheck import (
    LOCK_RULES,
    check_lock_discipline,
    check_lock_paths,
    check_lock_source,
)
from .plancheck import PLAN_RULES, check_plan, plan_from_matrix
from .resilience import RES_RULES, check_golden_resilience
from .telemetry import TELEM_RULES, check_golden_telemetry

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
    "check_golden_plans",
    "check_golden_serving",
    "check_golden_comm",
    "check_golden_resilience",
    "check_golden_telemetry",
    "GOLDEN_VARIANTS",
    "GOLDEN_NTS",
    "PLAN_RULES",
    "DAG_RULES",
    "LINT_RULES",
    "SERVE_RULES",
    "COMM_RULES",
    "RES_RULES",
    "TELEM_RULES",
    "LOCK_RULES",
]
