"""Numerical-hygiene AST linter for the repository's own sources.

Nine custom rules target the failure modes of numerical codes — the
bugs that surface as irreproducible benchmarks or NaNs at step 40 of an
optimization rather than as exceptions:

========  ========  =====================================================
rule      severity  pattern
========  ========  =====================================================
LINT001   error     unseeded RNG construction (``default_rng()``,
                    ``RandomState()``, ``random.Random()`` with no seed)
LINT002   warning   ``==`` / ``!=`` against a float literal that is not
                    exactly representable in binary (e.g. ``x == 0.1``)
LINT003   error/    exception handler whose body is only ``pass``;
          warning   error for bare/broad handlers, warning for narrow
LINT004   error     mutable default argument (list/dict/set literal or
                    constructor call)
LINT005   warning   raw ``.astype(float16/float32)`` narrowing cast —
                    storage conversion should route through
                    ``repro.tile.precision.cast_storage``
LINT006   warning   SciPy linalg call (``cholesky``, ``solve_triangular``,
                    ``cho_factor``, ``cho_solve``; plain ``solve`` only on
                    a scipy.linalg-like module) without an explicit
                    ``check_finite=`` guard
LINT007   error     ``eval`` / ``exec``
LINT008   error     ``is`` / ``is not`` against a literal (identity of
                    ints/strs is an implementation detail)
LINT010   error     a tile kernel call (``K.potrf/trsm/syrk/gemm``,
                    ``stacked_trsm/gemm``) inside the ``repro``
                    package outside its three homes —
                    ``tile/cholesky.py`` (the reference loop),
                    ``tile/batch.py`` (the stacked kernels) and
                    ``runtime/taskcore.py`` (the one task core) —
                    i.e. a copy of the Cholesky task body growing
                    back in an executor
========  ========  =====================================================

A finding on a given line is suppressed by a trailing
``# lint: ignore`` comment (all rules) or ``# lint: ignore[LINT005]``
(listed rules only).  ``LINT000`` reports files that cannot be parsed.

Run over the repository with ``python -m repro analyze --lint src/``.
"""

from __future__ import annotations

import ast
import re
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = ["lint_source", "lint_file", "lint_paths", "LINT_RULES"]

#: Rule-id -> one-line description (the catalog rendered by the CLI).
LINT_RULES: dict[str, str] = {
    "LINT000": "source file cannot be parsed",
    "LINT001": "unseeded random-number-generator construction",
    "LINT002": "float equality against a non-representable literal",
    "LINT003": "exception handler silently swallows the exception",
    "LINT004": "mutable default argument",
    "LINT005": "raw narrowing astype; use repro.tile.precision.cast_storage",
    "LINT006": "linalg call without an explicit check_finite guard",
    "LINT007": "eval/exec",
    "LINT008": "identity comparison against a literal",
    "LINT010": "tile kernel called outside tile/cholesky.py, tile/batch.py "
               "and the task core",
}

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")

_RNG_CONSTRUCTORS = {"default_rng", "RandomState"}
_LINALG_GUARDED = {
    "cholesky", "solve_triangular", "cho_factor", "cho_solve", "solve",
}
# The generic name ``solve`` is only a SciPy call when the receiver is
# a scipy.linalg-looking module; solver *objects* (e.g. PanelSolver)
# expose .solve() without a check_finite parameter.
_GENERIC_SOLVE_BASES = {"scipy", "linalg", "sla", "la"}
_NARROW_DTYPES = {"float16", "float32", "half", "single"}
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}
_TILE_OPS = {"potrf", "trsm", "syrk", "gemm"}
_STACKED_OPS = {"stacked_trsm", "stacked_gemm"}
#: Package files allowed to call the tile kernels (LINT010).
_KERNEL_HOMES = (
    "repro/tile/cholesky.py", "repro/tile/batch.py",
    "repro/runtime/taskcore.py",
)


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """Per-line suppression map: ``None`` means all rules ignored."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = match.group(1)
            if rules is None:
                out[lineno] = None
            else:
                out[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
    return out


def _is_exact_float(value: float) -> bool:
    """True when the literal's decimal text round-trips exactly to its
    binary value (0.5, 1.0, ...), so ``==`` against it is deliberate."""
    try:
        return Decimal(repr(value)) == Decimal(value)
    except (InvalidOperation, ValueError, OverflowError):
        return True  # inf/nan: not a representability problem


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty for non-name chains)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _callee_name(func: ast.AST) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _names_narrow_dtype(node: ast.AST) -> bool:
    """True when an expression denotes a float16/float32 dtype."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.lower() in _NARROW_DTYPES
    chain = _attr_chain(node)
    return bool(chain) and chain[-1] in _NARROW_DTYPES


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, filename: str):
        self.filename = filename
        self.findings: list[Diagnostic] = []
        posix = Path(filename).as_posix()
        #: LINT010 polices the package only: tests and benchmarks time
        #: and pin single kernels on purpose.
        self.polices_kernels = (
            "repro/" in posix and not posix.endswith(_KERNEL_HOMES)
        )

    def _report(
        self, rule: str, severity: Severity, message: str, node: ast.AST
    ) -> None:
        self.findings.append(Diagnostic(
            rule, severity, message,
            file=self.filename, line=getattr(node, "lineno", None),
        ))

    # --- LINT001 / LINT005 / LINT006 / LINT007 ------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _callee_name(node.func)
        chain = _attr_chain(node.func)
        if not node.args and not node.keywords:
            if name in _RNG_CONSTRUCTORS or (
                name == "Random" and chain[:1] == ["random"]
            ):
                self._report(
                    "LINT001", Severity.ERROR,
                    f"{name}() constructed without a seed: results are "
                    "irreproducible; pass an explicit seed",
                    node,
                )
        if (
            name == "astype"
            and node.args
            and _names_narrow_dtype(node.args[0])
            and not any(k.arg == "casting" for k in node.keywords)
        ):
            self._report(
                "LINT005", Severity.WARNING,
                "raw narrowing astype drops precision implicitly; route "
                "storage conversion through cast_storage/compute_dtype",
                node,
            )
        if (
            name in _LINALG_GUARDED
            and chain[:1] not in (["np"], ["numpy"])
            and isinstance(node.func, ast.Attribute)
            and (name != "solve" or (chain and chain[0] in _GENERIC_SOLVE_BASES))
            and not any(k.arg == "check_finite" for k in node.keywords)
        ):
            self._report(
                "LINT006", Severity.WARNING,
                f"{name}() without an explicit check_finite= guard: "
                "non-finite inputs propagate silently (or pay a hidden "
                "validation pass); state the intent",
                node,
            )
        if self.polices_kernels and (
            name in _STACKED_OPS
            or (name in _TILE_OPS and chain[:-1] in (["K"], ["kernels"]))
        ):
            self._report(
                "LINT010", Severity.ERROR,
                f"{'.'.join(chain) or name}() is a Cholesky task body; "
                "executors schedule repro.runtime.taskcore.TaskBody "
                "instead of calling tile kernels themselves",
                node,
            )
        if name in ("eval", "exec") and isinstance(node.func, ast.Name):
            self._report(
                "LINT007", Severity.ERROR,
                f"{name}() on dynamically built strings is unsafe and "
                "untypecheckable",
                node,
            )
        self.generic_visit(node)

    # --- LINT002 / LINT008 --------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        comparators = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, comparators, comparators[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                for side in (lhs, rhs):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        and not _is_exact_float(side.value)
                    ):
                        self._report(
                            "LINT002", Severity.WARNING,
                            f"float equality against {side.value!r}, "
                            "which is not exactly representable in "
                            "binary; compare with a tolerance",
                            node,
                        )
                        break
            elif isinstance(op, (ast.Is, ast.IsNot)):
                for side in (lhs, rhs):
                    # None, True/False, and Ellipsis are singletons:
                    # identity against them is the correct idiom.
                    if isinstance(side, ast.Constant) \
                            and side.value is not None \
                            and side.value is not Ellipsis \
                            and not isinstance(side.value, bool):
                        self._report(
                            "LINT008", Severity.ERROR,
                            "identity comparison against a literal; "
                            "interning is an implementation detail — "
                            "use == / !=",
                            node,
                        )
                        break
        self.generic_visit(node)

    # --- LINT003 -------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        body_is_silent = all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis)
            for stmt in node.body
        )
        if body_is_silent:
            broad = node.type is None or (
                isinstance(node.type, ast.Name)
                and node.type.id in _BROAD_EXCEPTIONS
            )
            severity = Severity.ERROR if broad else Severity.WARNING
            what = (
                "bare/broad exception handler"
                if broad else "exception handler"
            )
            self._report(
                "LINT003", severity,
                f"{what} silently swallows the exception; handle, log, "
                "or re-raise it",
                node,
            )
        self.generic_visit(node)

    # --- LINT004 -------------------------------------------------------
    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (
                ast.List, ast.Dict, ast.Set,
                ast.ListComp, ast.DictComp, ast.SetComp,
            )) or (
                isinstance(default, ast.Call)
                and _callee_name(default.func) in (
                    "list", "dict", "set", "defaultdict", "deque",
                )
            )
            if mutable:
                self._report(
                    "LINT004", Severity.ERROR,
                    "mutable default argument is shared across calls; "
                    "default to None and construct inside the function",
                    default,
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_source(source: str, filename: str = "<string>") -> AnalysisReport:
    """Lint one source string; findings carry ``filename`` locations."""
    report = AnalysisReport()
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report.add(Diagnostic(
            "LINT000", Severity.ERROR,
            f"cannot parse: {exc.msg}",
            file=filename, line=exc.lineno,
        ))
        return report
    visitor = _LintVisitor(filename)
    visitor.visit(tree)
    suppressed = _suppressions(source)
    for finding in visitor.findings:
        rules = suppressed.get(finding.line, ...)
        if rules is None or (rules is not ... and finding.rule in rules):
            continue
        report.add(finding)
    return report


def lint_file(path: str | Path) -> AnalysisReport:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), filename=str(path))


def _iter_python_files(paths: list[str | Path]):
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in f.parts
                ):
                    continue
                yield f
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: list[str | Path]) -> AnalysisReport:
    """Lint every ``*.py`` file under the given files/directories."""
    report = AnalysisReport()
    for f in _iter_python_files(paths):
        report.extend(lint_file(f))
    return report
