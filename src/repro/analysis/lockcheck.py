"""Static lock-discipline analyzer for the repository's own sources.

The classes whose state threads share (the sweep's task body and run
recorder, the chaos injector, the tracer buffer, the serving engine,
the shared caches, the circuit breaker) follow one discipline: every class
that shares mutable state across threads owns a ``threading.Lock``
attribute, mutates its shared attributes only inside ``with
self._lock`` blocks, and never holds its lock while calling into
another lock-owning class in a conflicting order.  These rules verify
that discipline from the AST, before any thread runs:

========  ========  =====================================================
rule      severity  pattern
========  ========  =====================================================
LOCK001   error     attribute that is mutated under the class lock in
                    one method is mutated with *no* lock held in another
LOCK003   error     cycle in the inter-class lock-acquisition graph
                    (potential deadlock: two lock orders coexist)
LOCK004   error     non-reentrant ``threading.Lock`` re-acquired while
                    already held (lexically nested ``with``, or a call
                    to a method of the same class that takes the lock)
LOCK008   error     lock attribute rebound outside ``__init__``
                    (threads blocked on the old lock never see the new)
========  ========  =====================================================

Like every static analysis of a dynamic language this is heuristic:
lock ownership is recognized through ``self.<attr> =
threading.Lock()``-style assignments, cross-class edges through
``self.<attr> = OtherClass(...)`` constructor assignments, and dynamic
callbacks (``self._on_trip()``) are invisible.  The package takes its
locks only in ``with`` blocks and uses no ``RLock`` or ``Condition``,
so raw ``acquire()`` calls and re-entrant locks are not modelled.  What the AST cannot
see — that the panel sweep's units touch only their own columns — is
asserted by ``tests/test_execution_matrix.py`` at every pool width.

Run over the repository with ``python -m repro analyze --concurrency``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = [
    "LOCK_RULES",
    "check_lock_source",
    "check_lock_paths",
    "check_lock_discipline",
]

#: Rule-id -> one-line description (the catalog rendered by the CLI).
LOCK_RULES: dict[str, str] = {
    "LOCK001": "lock-guarded attribute mutated outside any lock scope",
    "LOCK003": "lock-order cycle in the acquisition graph (deadlock risk)",
    "LOCK004": "non-reentrant lock re-acquired while already held",
    "LOCK008": "lock attribute rebound outside __init__",
}

#: The constructor recognized as a lock object.
_LOCK_CONSTRUCTOR = "Lock"
#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "move_to_end", "appendleft",
    "popleft", "sort", "reverse",
}
_INIT_METHODS = {"__init__", "__new__", "__post_init__"}


def _attr_path(node: ast.AST) -> tuple[str, ...]:
    """``self.a.b`` -> ``("self", "a", "b")`` (empty for other shapes)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _constructor_name(value: ast.AST) -> str:
    """Class name of ``X(...)`` / ``mod.X(...)`` calls, else ``""``."""
    if isinstance(value, ast.Call):
        path = _attr_path(value.func)
        if path:
            return path[-1]
    return ""


@dataclass
class _Access:
    """One attribute access inside a method."""

    attr: str  # dotted path without the leading receiver
    write: bool
    held: frozenset[str]  # own-lock attrs lexically held
    line: int


@dataclass
class _MethodInfo:
    name: str
    line: int
    accesses: list[_Access] = field(default_factory=list)
    #: Own-lock attrs this method acquires anywhere in its body.
    acquires: set[str] = field(default_factory=set)
    #: ``self.<meth>()`` calls made while holding own locks.
    self_calls: list[tuple[str, frozenset[str], int]] = field(
        default_factory=list
    )
    #: ``self.<obj>.<meth>()`` calls made while holding locks:
    #: (obj attr, callee method, held own locks, line).
    foreign_calls: list[tuple[str, str, frozenset[str], int]] = field(
        default_factory=list
    )
    #: Own lock acquired while holding another: (held, acquired, line).
    lock_edges: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass
class _ClassInfo:
    name: str
    filename: str
    line: int
    #: Lock attributes.
    locks: set[str] = field(default_factory=set)
    #: attr -> class name assigned in __init__ (``self.x = Other()``).
    attr_classes: dict[str, str] = field(default_factory=dict)
    methods: dict[str, _MethodInfo] = field(default_factory=dict)

    @property
    def guarded(self) -> set[str]:
        """Attributes mutated under an own lock outside ``__init__``."""
        out: set[str] = set()
        for m in self.methods.values():
            if m.name in _INIT_METHODS:
                continue
            for a in m.accesses:
                if a.write and a.held:
                    out.add(a.attr)
        return out


class _MethodWalker:
    """Recursive walk of one method body tracking held locks."""

    def __init__(
        self,
        cls: _ClassInfo,
        info: _MethodInfo,
        findings: list[Diagnostic],
        filename: str,
        self_name: str,
    ):
        self.cls = cls
        self.info = info
        self.findings = findings
        self.filename = filename
        self.self_name = self_name
        self.held: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def _report(self, rule: str, severity: Severity, msg: str, line: int):
        self.findings.append(Diagnostic(
            rule, severity, msg, file=self.filename, line=line,
        ))

    def _own_lock_of(self, node: ast.AST) -> str | None:
        """Lock attr name when ``node`` is ``self.<lock>``."""
        path = _attr_path(node)
        if (
            len(path) == 2
            and path[0] == self.self_name
            and path[1] in self.cls.locks
        ):
            return path[1]
        return None

    def _record_access(self, path: tuple[str, ...], write: bool, line: int):
        if len(path) < 2 or path[0] != self.self_name:
            return
        attr = ".".join(path[1:])
        if path[1] in self.cls.locks:
            return  # the lock itself; LOCK008 handles rebinding
        self.info.accesses.append(_Access(
            attr=attr, write=write,
            held=frozenset(self.held), line=line,
        ))

    def _record_reads(self, node: ast.AST):
        """Record every ``self.x...`` load inside an expression."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, ast.Load
            ):
                path = _attr_path(sub)
                if len(path) >= 2 and path[0] == self.self_name:
                    self._record_access(
                        path, False, getattr(sub, "lineno", 0)
                    )

    # ------------------------------------------------------------------
    def walk(self, node: ast.AST) -> None:
        method = getattr(self, f"_walk_{type(node).__name__}", None)
        if method is not None:
            method(node)
        else:
            for child in ast.iter_child_nodes(node):
                self.walk(child)

    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.walk(stmt)

    # ------------------------------------------------------------------
    def _walk_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            lock = self._own_lock_of(item.context_expr)
            if lock is not None:
                self.info.acquires.add(lock)
                if lock in self.held:
                    self._report(
                        "LOCK004", Severity.ERROR,
                        f"{self.cls.name}.{self.info.name} re-enters "
                        f"non-reentrant lock self.{lock} it already "
                        "holds: this deadlocks at runtime",
                        node.lineno,
                    )
                for outer in self.held:
                    if outer != lock:
                        self.info.lock_edges.append(
                            (outer, lock, node.lineno)
                        )
                acquired.append(lock)
            else:
                self.walk(item.context_expr)
        if acquired:
            saved_held = self.held
            self.held = self.held + tuple(acquired)
            self.walk_body(node.body)
            self.held = saved_held
        else:
            self.walk_body(node.body)

    def _walk_While(self, node: ast.While) -> None:
        self._record_reads(node.test)
        self.walk_body(node.body)
        self.walk_body(node.orelse)

    def _walk_Assign(self, node: ast.Assign) -> None:
        ctor = _constructor_name(node.value)
        for target in node.targets:
            path = _attr_path(target)
            if (
                len(path) == 2
                and path[0] == self.self_name
                and ctor == _LOCK_CONSTRUCTOR
                and self.info.name not in _INIT_METHODS
            ):
                self._report(
                    "LOCK008", Severity.ERROR,
                    f"{self.cls.name}.{self.info.name} rebinds lock "
                    f"self.{path[1]} outside __init__: threads blocked "
                    "on the old lock will never observe the new one",
                    node.lineno,
                )
            if path and path[0] == self.self_name:
                self._record_access(path, True, node.lineno)
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = _attr_path(
                    target.value if isinstance(target, ast.Subscript)
                    else target
                )
                if base and base[0] == self.self_name:
                    self._record_access(base, True, node.lineno)
        self._record_reads(node.value)

    def _walk_AugAssign(self, node: ast.AugAssign) -> None:
        path = _attr_path(node.target)
        if not path and isinstance(node.target, ast.Subscript):
            path = _attr_path(node.target.value)
        if path and path[0] == self.self_name:
            self._record_access(path, True, node.lineno)
        self._record_reads(node.value)

    def _walk_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            recv_path = _attr_path(func.value)
            # Mutating method on a self attribute: a write access.
            if (
                func.attr in _MUTATORS
                and recv_path
                and recv_path[0] == self.self_name
            ):
                self._record_access(recv_path, True, node.lineno)
            # Call graph edges.
            if len(recv_path) == 1 and recv_path[0] == self.self_name:
                self.info.self_calls.append(
                    (func.attr, frozenset(self.held), node.lineno)
                )
            elif (
                len(recv_path) == 2
                and recv_path[0] == self.self_name
                and recv_path[1] in self.cls.attr_classes
            ):
                self.info.foreign_calls.append((
                    recv_path[1], func.attr,
                    frozenset(self.held), node.lineno,
                ))
        for child in ast.iter_child_nodes(node):
            self.walk(child)

    def _walk_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            path = _attr_path(node)
            if len(path) >= 2 and path[0] == self.self_name:
                self._record_access(path, False, node.lineno)
                return
        for child in ast.iter_child_nodes(node):
            self.walk(child)

    # Nested defs: walked with the same tracker — a closure mutating
    # self from a worker thread is exactly what we must see — but the
    # held-lock context does not flow into a deferred body.
    def _walk_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved_held = self.held
        self.held = ()
        self.walk_body(node.body)
        self.held = saved_held

    def _walk_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._walk_FunctionDef(node)  # type: ignore[arg-type]


def _collect_class(
    node: ast.ClassDef, filename: str, findings: list[Diagnostic]
) -> _ClassInfo:
    cls = _ClassInfo(name=node.name, filename=filename, line=node.lineno)
    # Pass A: lock attributes and attr -> class bindings (from any
    # method, so late-built locks are still recognized as locks).
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        self_name = item.args.args[0].arg if item.args.args else "self"
        for sub in ast.walk(item):
            if not isinstance(sub, ast.Assign):
                continue
            ctor = _constructor_name(sub.value)
            if not ctor:
                continue
            for target in sub.targets:
                path = _attr_path(target)
                if len(path) == 2 and path[0] == self_name:
                    if ctor == _LOCK_CONSTRUCTOR:
                        cls.locks.add(path[1])
                    elif item.name in _INIT_METHODS:
                        cls.attr_classes[path[1]] = ctor
    # Pass B: walk every method with the lock context tracker.
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        self_name = item.args.args[0].arg if item.args.args else "self"
        info = _MethodInfo(name=item.name, line=item.lineno)
        walker = _MethodWalker(cls, info, findings, filename, self_name)
        walker.walk_body(item.body)
        cls.methods[item.name] = info
    return cls


def _check_class_rules(
    cls: _ClassInfo, findings: list[Diagnostic]
) -> None:
    guarded = cls.guarded
    for m in cls.methods.values():
        if m.name in _INIT_METHODS:
            continue
        # LOCK001: guarded attribute mutated with no lock held.
        for a in m.accesses:
            if a.write and not a.held and a.attr in guarded:
                findings.append(Diagnostic(
                    "LOCK001", Severity.ERROR,
                    f"{cls.name}.{m.name} mutates self.{a.attr} with "
                    "no lock held, but the same attribute is guarded "
                    "by the class lock elsewhere: torn updates race "
                    "with the locked writers",
                    file=cls.filename, line=a.line,
                ))
        # LOCK004 (interprocedural, one level): calling a sibling
        # method that takes the held non-reentrant lock.
        for callee, held, line in m.self_calls:
            target = cls.methods.get(callee)
            if target is None:
                continue
            for lock in target.acquires:
                if lock in held:
                    findings.append(Diagnostic(
                        "LOCK004", Severity.ERROR,
                        f"{cls.name}.{m.name} holds self.{lock} and "
                        f"calls self.{callee}() which re-acquires it: "
                        "this deadlocks at runtime",
                        file=cls.filename, line=line,
                    ))


def _check_lock_graph(
    classes: dict[str, _ClassInfo], findings: list[Diagnostic]
) -> None:
    """LOCK003: cycles in the inter-class lock-acquisition graph.

    Nodes are qualified locks (``Class.attr``); an edge A -> B means
    some method acquires B while holding A — directly (nested ``with``)
    or through a one-level ``self.<obj>.<meth>()`` call into another
    lock-owning class.
    """
    graph = nx.DiGraph()
    sites: dict[tuple[str, str], tuple[str, int]] = {}

    def add_edge(src: str, dst: str, filename: str, line: int) -> None:
        if src == dst:
            return  # same-lock re-entry is LOCK004's business
        graph.add_edge(src, dst)
        sites.setdefault((src, dst), (filename, line))

    for cls in classes.values():
        for m in cls.methods.values():
            # Nested own locks: with self.a: with self.b: -> a -> b.
            for src_attr, dst_attr, line in m.lock_edges:
                add_edge(
                    f"{cls.name}.{src_attr}", f"{cls.name}.{dst_attr}",
                    cls.filename, line,
                )
            for obj, callee, held, line in m.foreign_calls:
                if not held:
                    continue
                other = classes.get(cls.attr_classes.get(obj, ""))
                if other is None:
                    continue
                target = other.methods.get(callee)
                if target is None:
                    continue
                for dst_lock in sorted(target.acquires):
                    for src_lock in sorted(held):
                        add_edge(
                            f"{cls.name}.{src_lock}",
                            f"{other.name}.{dst_lock}",
                            cls.filename, line,
                        )
    for cycle in sorted(nx.simple_cycles(graph)):
        first = (cycle[0], cycle[1 % len(cycle)])
        filename, line = sites.get(first, ("", 0))
        findings.append(Diagnostic(
            "LOCK003", Severity.ERROR,
            "lock-order cycle: " + " -> ".join(cycle + [cycle[0]]) +
            " — two threads taking these locks in opposite order "
            "deadlock; impose one global acquisition order",
            file=filename or None, line=line or None,
        ))


def _parse_file(
    source: str, filename: str, report: AnalysisReport
) -> tuple[dict[str, _ClassInfo], list[Diagnostic]]:
    """Collect classes + per-method findings for one source file."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError:
        return {}, []  # the lint layer reports parse failures (LINT000)
    findings: list[Diagnostic] = []
    classes: dict[str, _ClassInfo] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            cls = _collect_class(node, filename, findings)
            classes[cls.name] = cls
            _check_class_rules(cls, findings)
    return classes, findings


def check_lock_source(
    source: str, filename: str = "<string>"
) -> AnalysisReport:
    """Analyze one source string (class rules + its local lock graph)."""
    report = AnalysisReport()
    classes, findings = _parse_file(source, filename, report)
    report.extend(findings)
    graph_findings: list[Diagnostic] = []
    _check_lock_graph(classes, graph_findings)
    report.extend(graph_findings)
    return report


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


def check_lock_paths(paths: list[str | Path]) -> AnalysisReport:
    """Analyze every ``*.py`` file under the given files/directories.

    Class rules run per file; the lock-acquisition graph is built over
    *all* files together, so an A->B edge in one module and a B->A edge
    in another still close a LOCK003 cycle.
    """
    report = AnalysisReport()
    all_classes: dict[str, _ClassInfo] = {}
    for f in _iter_python_files(paths):
        source = f.read_text(encoding="utf-8")
        classes, findings = _parse_file(source, str(f), report)
        report.extend(findings)
        all_classes.update(classes)
    graph_findings: list[Diagnostic] = []
    _check_lock_graph(all_classes, graph_findings)
    report.extend(graph_findings)
    return report


def check_lock_discipline(
    paths: list[str | Path] | None = None,
) -> AnalysisReport:
    """Analyze the repository's own package (the CLI entry point).

    ``paths`` overrides the default target — the installed ``repro``
    package directory — which is what CI verifies.
    """
    if not paths:
        paths = [Path(__file__).resolve().parent.parent]
    return check_lock_paths(paths)
