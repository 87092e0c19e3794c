"""Dynamic concurrency sanitizer: lockset + happens-before checking.

The static side (:mod:`repro.analysis.lockcheck`) proves what the AST
can see; this module watches the *real threaded engines run*.  It is an
opt-in, Eraser-style checker with a vector-clock happens-before core:

* every sanitized lock tracks acquire/release edges — a release
  publishes the holder's vector clock, an acquire joins it, so two
  accesses serialized by any common lock are ordered;
* thread-pool ``submit``/``result`` are instrumented as fork/join
  edges, so the DAG executor's dependence discipline (task completion
  is published under the dispatch condition before a successor is
  released) shows up as genuine happens-before ordering;
* every *shared access* — tile reads/writes through
  :class:`~repro.tile.matrix.TileMatrix`, the serving engine's
  cross-covariance LRU, the geometry cache, the circuit-breaker and
  serving counters — is checked against the variable's access history.

A shared **write** unordered (by locks or dependence edges) with a
prior access is a race; both sides are reported:

========  ========  =====================================================
rule      severity  finding
========  ========  =====================================================
RACE001   error     two writes to one shared variable with no ordering
                    (no common lock, no happens-before path)
RACE002   error     a read and a write to one shared variable with no
                    ordering
RACE003   warning   multi-thread variable whose lockset intersection is
                    empty — every access was *ordered*, but only by
                    happens-before, not by any consistent lock (the
                    Eraser discipline violation; suppressed for
                    dependence-ordered variables such as tiles)
RACE004   warning   lock-order inversion observed at runtime (lock B
                    acquired under A somewhere, A under B elsewhere)
RACE005   error     a thread blocked on a non-reentrant sanitized lock
                    it already holds (the sanitizer raises
                    :class:`~repro.exceptions.DeadlockDetectedError`
                    instead of hanging)
========  ========  =====================================================

Instrumentation is installed by :func:`enable_sanitizer` as
monkeypatches (``TileMatrix.get/set``, the cache/engine/breaker
constructors and ``__setattr__``, ``ThreadPoolExecutor.submit`` /
``Future.result``, the DAG executor's lock seam) and fully removed by
:func:`disable_sanitizer` — with the sanitizer off the only residue in
the production code is the one-call ``_make_lock`` indirection, so the
uninstrumented paths are bit-identical to the plain tree (pinned by
``tests/test_analysis_sanitize.py`` and the overhead benchmark).

``python -m repro analyze --concurrency --sanitize-run`` drives a
small threaded fit plus batched serving under chaos injection through
the sanitizer (:func:`run_sanitized_workload`) and reports findings
like every other analyzer.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..exceptions import DeadlockDetectedError
from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = [
    "RACE_RULES",
    "SanitizerState",
    "sanitized_lock",
    "sanitized_access",
    "enable_sanitizer",
    "disable_sanitizer",
    "sanitizer_active",
    "sanitizer_report",
    "run_sanitized_workload",
]

#: Rule-id -> one-line description (the catalog rendered by the CLI).
RACE_RULES: dict[str, str] = {
    "RACE001": "write-write race: no common lock, no happens-before",
    "RACE002": "read-write race: no common lock, no happens-before",
    "RACE003": "shared variable ordered only by happens-before, "
               "never by a consistent lock",
    "RACE004": "lock-order inversion observed at runtime",
    "RACE005": "non-reentrant lock re-acquired by its holding thread",
}


# ----------------------------------------------------------------------
# core state
# ----------------------------------------------------------------------
#: OS thread idents are recycled — a thread started after another died
#: can report the same ``threading.get_ident()`` and would silently
#: inherit the dead thread's vector clock (masking races).  The
#: sanitizer therefore keys everything on its own never-reused ids,
#: handed out once per thread via thread-local storage.
_TLS = threading.local()
_NEXT_TID = itertools.count(1)


def _current_tid() -> int:
    tid = getattr(_TLS, "tid", None)
    if tid is None:
        tid = next(_NEXT_TID)
        _TLS.tid = tid
    return tid


@dataclass
class _Access:
    """One recorded access epoch: ``(thread, its clock component)``."""

    tid: int
    clk: int
    locks: frozenset[int]
    site: str


@dataclass
class _VarState:
    """Per-variable detector state (FastTrack-style epochs)."""

    label: str
    first_tid: int
    exclusive: bool = True
    multi_thread: bool = False
    expect_lock: bool = True
    lockset: frozenset[int] | None = None
    last_write: _Access | None = None
    #: Latest read per thread since the last write (same-thread program
    #: order makes the latest read dominate the earlier ones).
    reads: dict[int, _Access] = field(default_factory=dict)


@dataclass
class SanitizerStats:
    """Coverage telemetry of one sanitized run."""

    events: int = 0
    variables: int = 0
    locks: int = 0
    threads: int = 0
    forks: int = 0


class SanitizerState:
    """Global detector: vector clocks, locksets, variable histories.

    All bookkeeping happens under one internal (unsanitized) mutex;
    methods never block on a sanitized lock while holding it, so the
    sanitizer cannot introduce deadlocks of its own.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: tid -> short display alias ("T1", "T2", ...) in first-seen
        #: order, so findings don't leak raw thread idents.
        self._tid_names: dict[int, str] = {}
        #: tid -> vector clock (tid -> counter).
        self._clocks: dict[int, dict[int, int]] = {}
        #: tid -> set of held sanitized-lock ids.
        self._held: dict[int, set[int]] = {}
        #: lock id -> clock published by its last release.
        self._lock_clocks: dict[int, dict[int, int]] = {}
        #: lock id -> display label.
        self._lock_labels: dict[int, str] = {}
        #: observed acquisition orders: (a, b) -> site (a held, b taken).
        self._orders: dict[tuple[int, int], str] = {}
        self._vars: dict[object, _VarState] = {}
        self._findings: dict[tuple[str, str], Diagnostic] = {}
        self.stats = SanitizerStats()

    # -- clock helpers (call with mutex held) ---------------------------
    def _clock(self, tid: int) -> dict[int, int]:
        clock = self._clocks.get(tid)
        if clock is None:
            clock = {tid: 1}
            self._clocks[tid] = clock
            self._tid_names[tid] = f"T{len(self._tid_names) + 1}"
            self.stats.threads += 1
        return clock

    def _tname(self, tid: int) -> str:
        return self._tid_names.get(tid, f"T?{tid}")

    @staticmethod
    def _join(into: dict[int, int], other: dict[int, int]) -> None:
        for tid, clk in other.items():
            if clk > into.get(tid, 0):
                into[tid] = clk

    def _report(
        self, rule: str, severity: Severity, key: str, message: str
    ) -> None:
        dedup = (rule, key)
        if dedup not in self._findings:
            self._findings[dedup] = Diagnostic(rule, severity, message)

    # -- lock protocol --------------------------------------------------
    def before_acquire(self, lock: "sanitized_lock") -> None:
        """Order-graph and self-deadlock checks before blocking."""
        tid = _current_tid()
        with self._mutex:
            held = self._held.setdefault(tid, set())
            if id(lock) in held and not lock.reentrant:
                self._report(
                    "RACE005", Severity.ERROR, lock.name,
                    f"thread blocked re-acquiring non-reentrant lock "
                    f"{lock.name!r} it already holds — a guaranteed "
                    "deadlock, raised instead of hung",
                )
                raise DeadlockDetectedError(
                    f"re-acquisition of held non-reentrant lock "
                    f"{lock.name!r}"
                )
            for other in held:
                if other == id(lock):
                    continue
                pair = (other, id(lock))
                inverse = (id(lock), other)
                self._orders.setdefault(pair, lock.name)
                if inverse in self._orders:
                    a = self._lock_labels.get(other, "?")
                    b = lock.name
                    key = "/".join(sorted((a, b)))
                    self._report(
                        "RACE004", Severity.WARNING, key,
                        f"lock-order inversion: {b!r} taken while "
                        f"holding {a!r}, and {a!r} taken while holding "
                        f"{b!r} elsewhere — opposite orders deadlock "
                        "under contention",
                    )

    def on_acquired(self, lock: "sanitized_lock") -> None:
        tid = _current_tid()
        with self._mutex:
            if id(lock) not in self._lock_labels:
                self._lock_labels[id(lock)] = lock.name
                self.stats.locks += 1
            self._held.setdefault(tid, set()).add(id(lock))
            published = self._lock_clocks.get(id(lock))
            if published is not None:
                self._join(self._clock(tid), published)

    def on_release(self, lock: "sanitized_lock") -> None:
        tid = _current_tid()
        with self._mutex:
            clock = self._clock(tid)
            self._lock_clocks[id(lock)] = dict(clock)
            clock[tid] = clock.get(tid, 0) + 1
            self._held.get(tid, set()).discard(id(lock))

    # -- fork/join edges ------------------------------------------------
    def fork_snapshot(self) -> dict[int, int]:
        """Publish the current thread's clock (e.g. at ``submit``)."""
        tid = _current_tid()
        with self._mutex:
            clock = self._clock(tid)
            snap = dict(clock)
            clock[tid] = clock.get(tid, 0) + 1
            self.stats.forks += 1
            return snap

    def join_clock(self, snap: dict[int, int] | None) -> None:
        """Join a published clock into the current thread's."""
        if snap is None:
            return
        tid = _current_tid()
        with self._mutex:
            self._join(self._clock(tid), snap)

    # -- access checking ------------------------------------------------
    def record_access(
        self,
        key: object,
        label: str,
        *,
        write: bool,
        site: str = "",
        expect_lock: bool = True,
    ) -> None:
        tid = _current_tid()
        with self._mutex:
            self.stats.events += 1
            clock = self._clock(tid)
            locks = frozenset(self._held.get(tid, ()))
            access = _Access(tid, clock.get(tid, 0), locks, site or label)
            var = self._vars.get(key)
            if var is None:
                self._vars[key] = var = _VarState(
                    label=label, first_tid=tid, expect_lock=expect_lock,
                )
                self.stats.variables += 1

            def ordered(prior: _Access) -> bool:
                return (
                    prior.tid == tid
                    or prior.clk <= clock.get(prior.tid, 0)
                )

            w = var.last_write
            if write:
                if w is not None and not ordered(w):
                    self._report(
                        "RACE001", Severity.ERROR, var.label,
                        f"unordered concurrent writes to {var.label}: "
                        f"{w.site} ({self._tname(w.tid)}) and "
                        f"{access.site} ({self._tname(tid)}) "
                        "share no lock and no "
                        "happens-before path",
                    )
                for r in var.reads.values():
                    if not ordered(r):
                        self._report(
                            "RACE002", Severity.ERROR, var.label,
                            f"write to {var.label} at {access.site} "
                            f"({self._tname(tid)}) races the unordered "
                            f"read at {r.site} ({self._tname(r.tid)})",
                        )
                var.last_write = access
                var.reads.clear()
            else:
                if w is not None and not ordered(w):
                    self._report(
                        "RACE002", Severity.ERROR, var.label,
                        f"read of {var.label} at {access.site} "
                        f"({self._tname(tid)}) races the unordered "
                        f"write at {w.site} ({self._tname(w.tid)})",
                    )
                var.reads[tid] = access

            # Eraser lockset discipline (initialization phase exempt).
            if var.exclusive and tid == var.first_tid:
                return
            if var.exclusive:
                var.exclusive = False
                var.lockset = locks
            else:
                assert var.lockset is not None
                var.lockset = var.lockset & locks
            var.multi_thread = var.multi_thread or tid != var.first_tid
            if (
                var.expect_lock
                and var.multi_thread
                and not var.lockset
            ):
                self._report(
                    "RACE003", Severity.WARNING, var.label,
                    f"{var.label} is accessed from multiple threads "
                    "with no consistent lock: every access so far was "
                    "ordered by happens-before alone, which one "
                    "scheduling change can break",
                )

    # -- reporting ------------------------------------------------------
    def report(self) -> AnalysisReport:
        """Findings so far, deterministically ordered."""
        out = AnalysisReport()
        for diagnostic in sorted(
            self._findings.values(), key=lambda d: (d.rule, d.message)
        ):
            out.add(diagnostic)
        return out


# ----------------------------------------------------------------------
# the lock shim
# ----------------------------------------------------------------------
class sanitized_lock:
    """Drop-in ``threading.Lock`` wrapper feeding the sanitizer.

    Supports the full lock protocol (``with``, ``acquire(blocking,
    timeout)``, ``release``) and works as the backing lock of a
    ``threading.Condition`` — condition waits release and re-acquire
    through this wrapper, so waiter wakeups carry clock edges too.
    When no sanitizer is active the wrapper degrades to two attribute
    loads per operation.
    """

    __slots__ = ("_lock", "name", "reentrant")

    def __init__(self, lock=None, *, name: str = "lock"):
        self.reentrant = isinstance(
            lock, type(threading.RLock())
        )
        self._lock = lock if lock is not None else threading.Lock()
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1):
        state = _STATE
        if state is not None and blocking:
            state.before_acquire(self)
        ok = self._lock.acquire(blocking, timeout)
        if ok and state is not None:
            state.on_acquired(self)
        return ok

    def release(self) -> None:
        state = _STATE
        if state is not None:
            state.on_release(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"sanitized_lock({self.name!r})"


def sanitized_access(
    key: object,
    label: str,
    *,
    write: bool,
    site: str = "",
    expect_lock: bool = True,
) -> None:
    """Record one shared access (no-op when the sanitizer is off).

    ``key`` identifies the variable (include object ids for
    correctness); ``label`` is the stable human name used in findings
    and dedup.  ``expect_lock=False`` exempts the variable from the
    RACE003 lockset discipline — for state ordered by task dependence
    rather than locks (the DAG executor's tiles).
    """
    state = _STATE
    if state is not None:
        state.record_access(
            key, label, write=write, site=site, expect_lock=expect_lock,
        )


# ----------------------------------------------------------------------
# instrumentation (monkeypatch install / uninstall)
# ----------------------------------------------------------------------
_STATE: SanitizerState | None = None
_PATCHES: list[tuple[object, str, object]] = []
_INSTALL_LOCK = threading.Lock()


class _WatchedDict(OrderedDict):
    """OrderedDict reporting its operations as accesses of one shared
    variable (the cache-as-a-whole granularity the engines reason at)."""

    def __init__(self, key: object, label: str, initial=()):
        self._san_key = key
        self._san_label = label
        super().__init__(initial)

    def _san(self, write: bool, op: str) -> None:
        sanitized_access(
            self._san_key, self._san_label,
            write=write, site=f"{self._san_label}.{op}",
        )

    def __getitem__(self, key):
        self._san(False, "getitem")
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._san(False, "get")
        return super().get(key, default)

    def __contains__(self, key):
        self._san(False, "contains")
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self._san(True, "setitem")
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._san(True, "delitem")
        super().__delitem__(key)

    def pop(self, *args):
        self._san(True, "pop")
        return super().pop(*args)

    def popitem(self, last=True):
        self._san(True, "popitem")
        return super().popitem(last)

    def clear(self):
        self._san(True, "clear")
        super().clear()

    def move_to_end(self, key, last=True):
        self._san(True, "move_to_end")
        super().move_to_end(key, last)


def _patch(owner: object, attr: str, replacement) -> None:
    _PATCHES.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def _wrap_setattr(cls, watched: set[str], label: str) -> None:
    original = cls.__setattr__

    def instrumented(self, name, value):
        if name in watched:
            sanitized_access(
                (id(self), name), f"{label}.{name}",
                write=True, site=f"{label}.{name}",
            )
        original(self, name, value)

    _patch(cls, "__setattr__", instrumented)


def _install_patches() -> None:
    from concurrent.futures import Future, ThreadPoolExecutor

    from ..core.serving import PredictionEngine, ServingStats
    from ..obs import tracer as obs_tracer
    from ..resilience.health import CircuitBreaker
    from ..runtime import taskcore
    from ..tile.geometry import GeometryCache
    from ..tile.matrix import TileMatrix

    # --- the executors' dispatch / tally lock --------------------------
    _patch(
        taskcore, "_make_lock",
        lambda: sanitized_lock(name="parallel.dispatch"),
    )

    # --- the telemetry tracer's span/event buffers ---------------------
    _patch(
        obs_tracer, "_make_lock",
        lambda: sanitized_lock(name="obs.tracer"),
    )

    # --- tile accesses (dependence-ordered: RACE003 exempt) ------------
    original_get = TileMatrix.get
    original_set = TileMatrix.set

    def instrumented_get(self, i, j):
        sanitized_access(
            ("tile", id(self), i, j), f"tile({i},{j})",
            write=False, site=f"TileMatrix.get({i},{j})",
            expect_lock=False,
        )
        return original_get(self, i, j)

    def instrumented_set(self, i, j, tile):
        sanitized_access(
            ("tile", id(self), i, j), f"tile({i},{j})",
            write=True, site=f"TileMatrix.set({i},{j})",
            expect_lock=False,
        )
        return original_set(self, i, j, tile)

    _patch(TileMatrix, "get", instrumented_get)
    _patch(TileMatrix, "set", instrumented_set)

    # --- the panel sweep's column-stack map (ordered by the panel
    # barrier's fork/join edges, like tiles: RACE003 exempt) ------------
    ColumnStacks = taskcore.ColumnStacks
    original_runs_get = ColumnStacks.get
    original_runs_set = ColumnStacks.set

    def instrumented_runs_get(self, n):
        sanitized_access(
            ("stack", id(self), n), f"stack({n})",
            write=False, site=f"ColumnStacks.get({n})",
            expect_lock=False,
        )
        return original_runs_get(self, n)

    def instrumented_runs_set(self, n, runs):
        sanitized_access(
            ("stack", id(self), n), f"stack({n})",
            write=True, site=f"ColumnStacks.set({n})",
            expect_lock=False,
        )
        return original_runs_set(self, n, runs)

    _patch(ColumnStacks, "get", instrumented_runs_get)
    _patch(ColumnStacks, "set", instrumented_runs_set)

    # --- geometry cache ------------------------------------------------
    original_geom_init = GeometryCache.__init__

    def geom_init(self, maxsize: int = 4):
        original_geom_init(self, maxsize)
        self._lock = sanitized_lock(name="GeometryCache._lock")
        self._tiled = _WatchedDict(
            (id(self), "_tiled"), "GeometryCache._tiled", self._tiled
        )
        self._pairs = _WatchedDict(
            (id(self), "_pairs"), "GeometryCache._pairs", self._pairs
        )

    _patch(GeometryCache, "__init__", geom_init)
    _wrap_setattr(GeometryCache, {"hits", "misses"}, "GeometryCache")

    # --- serving engine: cross LRU + amortization counters -------------
    original_engine_init = PredictionEngine.__init__

    def engine_init(self, *args, **kwargs):
        original_engine_init(self, *args, **kwargs)
        self._lock = sanitized_lock(name="PredictionEngine._lock")
        self._cross = _WatchedDict(
            (id(self), "_cross"), "PredictionEngine._cross", self._cross
        )

    _patch(PredictionEngine, "__init__", engine_init)
    _wrap_setattr(
        ServingStats, set(ServingStats.__dataclass_fields__), "ServingStats",
    )

    # --- circuit breaker (the HealthReport source state) ---------------
    original_breaker_init = CircuitBreaker.__init__

    def breaker_init(self, threshold: int = 3, on_trip=None):
        original_breaker_init(self, threshold, on_trip)
        self._lock = sanitized_lock(name="CircuitBreaker._lock")

    _patch(CircuitBreaker, "__init__", breaker_init)
    _wrap_setattr(
        CircuitBreaker, {"_consecutive", "_trips", "_open"},
        "CircuitBreaker",
    )

    # --- thread-pool fork/join edges -----------------------------------
    original_submit = ThreadPoolExecutor.submit
    original_result = Future.result
    original_shutdown = ThreadPoolExecutor.shutdown

    def instrumented_submit(self, fn, /, *args, **kwargs):
        state = _STATE
        if state is None:
            return original_submit(self, fn, *args, **kwargs)
        snap = state.fork_snapshot()
        holder: dict[str, dict[int, int]] = {}

        def run(*a, **k):
            st = _STATE
            if st is not None:
                st.join_clock(snap)
            try:
                return fn(*a, **k)
            finally:
                if st is not None:
                    holder["end"] = st.fork_snapshot()

        future = original_submit(self, run, *args, **kwargs)
        future._san_end = holder  # type: ignore[attr-defined]
        self.__dict__.setdefault("_san_futures", []).append(future)
        return future

    def instrumented_result(self, timeout=None):
        try:
            return original_result(self, timeout)
        finally:
            state = _STATE
            holder = getattr(self, "_san_end", None)
            if state is not None and holder is not None:
                state.join_clock(holder.get("end"))

    def instrumented_shutdown(self, wait=True, **kwargs):
        original_shutdown(self, wait=wait, **kwargs)
        state = _STATE
        if state is not None and wait:
            # Err on the safe side for futures whose result() was never
            # consumed (error paths): the pool join ordered them.
            for future in self.__dict__.get("_san_futures", ()):
                holder = getattr(future, "_san_end", None)
                if holder is not None:
                    state.join_clock(holder.get("end"))

    _patch(ThreadPoolExecutor, "submit", instrumented_submit)
    _patch(Future, "result", instrumented_result)
    _patch(ThreadPoolExecutor, "shutdown", instrumented_shutdown)


def enable_sanitizer() -> SanitizerState:
    """Install the instrumentation and start recording.

    Returns the live :class:`SanitizerState`; call
    :func:`disable_sanitizer` (always, e.g. in a ``finally:``) to
    restore every patched seam.
    """
    global _STATE
    with _INSTALL_LOCK:
        if _STATE is not None:
            raise RuntimeError("sanitizer already enabled")
        _install_patches()
        _STATE = SanitizerState()
        return _STATE


def disable_sanitizer() -> None:
    """Remove every monkeypatch and stop recording (idempotent)."""
    global _STATE
    with _INSTALL_LOCK:
        _STATE = None
        while _PATCHES:
            owner, attr, original = _PATCHES.pop()
            setattr(owner, attr, original)


def sanitizer_active() -> bool:
    return _STATE is not None


def sanitizer_report() -> AnalysisReport:
    """Findings of the currently enabled sanitizer (empty when off)."""
    state = _STATE
    return AnalysisReport() if state is None else state.report()


# ----------------------------------------------------------------------
# the --sanitize-run workload
# ----------------------------------------------------------------------
def run_sanitized_workload(
    *, seed: int | None = None, workers: int = 4, nt: int = 4,
    tile: int = 16,
) -> AnalysisReport:
    """Drive a threaded fit + batched serving under chaos with the
    sanitizer enabled; returns the findings plus one INFO coverage
    line.

    The workload exercises every instrumented seam: the hooked panel
    sweep of a fit (``workers`` threads, 5% seeded NaN chaos on its
    per-tile and stacked calls absorbed by retries, the retry tally
    under the shared lock), the serving engine (its batches on the
    caller's thread, a repeated batch for the LRU-hit path, 20% batch
    chaos under retry), the geometry cache, a breaker trip (three consecutive
    hard failures → cross-LRU clear), and a hook-free sweep of a
    larger matrix (``clamp=False`` so its pool really is ``workers``
    wide) with what its units share: the column-stack map, the
    published tiles and the tally lock.  Chaos schedules are keyed on
    ``(seed, site, attempt)``, so the workload — and any finding it
    produces — is deterministic at a fixed seed.

    The fit and the serving calls run *traced* (a live
    :class:`~repro.obs.Telemetry` built after the sanitizer installed
    its seams), so the tracer's span/event buffers — appended to from
    every worker thread — are themselves under race detection.
    """
    import numpy as np

    from ..config import DEFAULT_SEED
    from ..core.likelihood import loglikelihood
    from ..core.serving import PredictionEngine
    from ..core.variants import get_variant
    from ..exceptions import ChaosError
    from ..kernels import MaternKernel
    from ..obs import Telemetry
    from ..resilience import ChaosConfig, ResilienceConfig, RetryPolicy
    from ..tile.geometry import GeometryCache

    seed = DEFAULT_SEED if seed is None else int(seed)
    kernel = MaternKernel()
    theta = np.array([1.0, 0.1, 0.5])
    gen = np.random.default_rng(seed)
    n = nt * tile
    x = gen.uniform(size=(n, 2))
    z = gen.standard_normal(n)
    x_test = gen.uniform(size=(6 * 8, 2))
    retry = RetryPolicy(max_attempts=3, base_delay_s=0.0, max_delay_s=0.0)

    state = enable_sanitizer()
    try:
        # Constructed after enable_sanitizer() so the tracer's buffer
        # lock is a sanitized lock: every worker-thread span append in
        # the traced workload below is a recorded, checkable access.
        telemetry = Telemetry()
        result = loglikelihood(
            kernel, theta, x, z, tile_size=tile,
            variant=get_variant("mp-dense-tlr-recover").with_(
                workers=workers
            ),
            nugget=1.0e-8, cache=GeometryCache(),
            resilience=ResilienceConfig(
                retry=retry,
                chaos=ChaosConfig(seed=seed, tile_nan_rate=0.05),
            ),
            telemetry=telemetry,
        )
        engine = PredictionEngine(
            kernel, theta, x, z, result.factor,
            cache=GeometryCache(), batch=8,
            resilience=ResilienceConfig(
                retry=retry,
                chaos=ChaosConfig(seed=seed, batch_fail_rate=0.2),
            ),
            telemetry=telemetry,
        )
        engine.predict(x_test, return_uncertainty=True)
        engine.predict(x_test, return_uncertainty=True)  # LRU hits
        engine.score(x_test, np.zeros(len(x_test)))
        # Breaker trip: consecutive hard failures clear the cross LRU.
        hard = PredictionEngine(
            kernel, theta, x, z, result.factor, batch=8,
            resilience=ResilienceConfig(
                chaos=ChaosConfig(seed=seed, batch_fail_rate=1.0),
            ),
        )
        hard_failures = 0
        for _ in range(3):
            try:
                hard.predict(x_test)
            except ChaosError:
                hard_failures += 1
        assert hard_failures == 3, "breaker workload must fail 3x"
        # The fit above ran the sweep hooked, on a matrix of nt tiles
        # a side.  Here it runs plain on real threads (clamp off so
        # the pool is genuinely concurrent even on few-core hosts)
        # with more than one unit per panel: units read the
        # finished column's stacks and published tiles and replace
        # their own column's runs while the driving thread runs the
        # per-tile leftovers against the same matrix and tally.
        # Three times the fit's tiles a side, Morton-ordered: several
        # columns ride runs of two precisions beside loose tiles, so
        # every panel hands the pool more than one unit.
        from ..ordering import order_points
        from ..runtime.batchdispatch import execute_cholesky_batched
        from ..tile.assembly import build_planned_covariance

        x_sweep = gen.uniform(size=(3 * n, 2))
        planned, assembly = build_planned_covariance(
            kernel, theta, x_sweep[order_points(x_sweep, "morton")], tile,
            nugget=1.0e-8, use_mp=True, use_tlr=True, batch=True,
        )
        execute_cholesky_batched(
            planned, workers=workers, tile_tol=assembly.tile_tol,
            clamp=False,
        )
        report = state.report()
        stats = state.stats
    finally:
        disable_sanitizer()
    report.add(Diagnostic(
        "SANITIZE", Severity.INFO,
        f"sanitized workload (seed {seed}, {workers} workers): "
        f"{stats.events} access event(s) over {stats.variables} "
        f"variable(s), {stats.locks} lock(s), {stats.threads} "
        f"thread(s), {stats.forks} fork/join edge(s); "
        f"{len(telemetry.tracer)} span(s) traced; "
        f"{len(report.errors)} race(s)",
    ))
    return report
