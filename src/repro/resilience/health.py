"""Error budgets and the serving circuit breaker.

Both real engines expose ``health()``: an error-budget style
:class:`HealthReport` of how many calls failed, how many transient
retries the resilience layer absorbed, and whether the
:class:`CircuitBreaker` has tripped.  The breaker watches *consecutive*
failures — the signature of persistent corruption rather than an
occasional bad theta — and on tripping fires a callback that resets
the engine's caches to a safe state (the serving engine drops its
cross-covariance LRU so no possibly-poisoned entry survives), then
half-opens: the next success closes it again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["HealthReport", "CircuitBreaker"]


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time error budget of one engine."""

    #: Published as a cumulative snapshot
    #: (:meth:`MetricsRegistry.publish`).
    metric_kind = "gauge"

    calls: int
    failures: int
    consecutive_failures: int
    retries: int = 0
    recoveries: int = 0
    breaker_trips: int = 0
    breaker_open: bool = False

    @property
    def error_rate(self) -> float:
        """Failed fraction of all calls (0 when nothing ran yet)."""
        return self.failures / self.calls if self.calls else 0.0

    @property
    def ok(self) -> bool:
        """Healthy = breaker closed and the last call did not fail."""
        return not self.breaker_open and self.consecutive_failures == 0

    def summary(self) -> str:
        state = "OPEN" if self.breaker_open else "closed"
        return (
            f"{self.calls} call(s), {self.failures} failure(s) "
            f"({self.error_rate:.1%}), {self.consecutive_failures} "
            f"consecutive, {self.retries} retr(y/ies), "
            f"breaker {state} ({self.breaker_trips} trip(s))"
        )


class CircuitBreaker:
    """Consecutive-failure breaker with a reset callback.

    Thread-safe; the callback runs outside the lock (it typically
    takes the owning engine's own lock to clear caches).
    """

    def __init__(self, threshold: int = 3, on_trip=None):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = int(threshold)
        self._on_trip = on_trip
        self._lock = threading.Lock()
        self._consecutive = 0
        self._trips = 0
        self._open = False

    # ------------------------------------------------------------------
    def record_success(self) -> None:
        """A call completed: reset the streak, close a tripped breaker
        (the safe-rebuild worked)."""
        with self._lock:
            self._consecutive = 0
            self._open = False

    def record_failure(self) -> bool:
        """A call failed; returns True when this failure trips the
        breaker (and runs the reset callback)."""
        with self._lock:
            self._consecutive += 1
            tripped = not self._open and self._consecutive >= self.threshold
            if tripped:
                self._open = True
                self._trips += 1
        if tripped and self._on_trip is not None:
            self._on_trip()
        return tripped

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[int, int, bool]:
        """Atomic ``(consecutive_failures, trips, open)`` read.

        The three properties below each take the lock separately, so a
        caller composing them (e.g. an engine's ``health()``) could see
        a torn state — a streak at the threshold with the trip not yet
        counted.  One locked read keeps the report consistent.
        """
        with self._lock:
            return self._consecutive, self._trips, self._open

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    @property
    def open(self) -> bool:
        with self._lock:
            return self._open

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.open else "closed"
        return (
            f"CircuitBreaker({state}, threshold={self.threshold}, "
            f"trips={self.trips})"
        )
