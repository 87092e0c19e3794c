"""Deadlines for the real executors.

A :class:`Deadline` is a wall-clock budget on the monotonic clock.  It
is *cooperative*: execution sites poll ``check()`` (or
:attr:`~Deadline.expired`) at panel / task / batch boundaries, so a
deadline never interrupts a BLAS call mid-flight — it stops the next
dispatch, lets in-flight work finish, and surfaces one
:class:`~repro.exceptions.DeadlineExceededError` with no leaked
threads and no partial results.

Polling costs one monotonic read; passing ``None`` everywhere keeps
the hot paths untouched.
"""

from __future__ import annotations

import time

from ..exceptions import DeadlineExceededError

__all__ = ["Deadline"]


class Deadline:
    """A monotonic-clock budget shared across an operation's layers.

    One ``Deadline`` threads from ``fit_mle(time_budget_s=...)`` (or
    ``PredictionEngine.predict(deadline_s=...)``) down through the
    likelihood, the DAG executor, and each worker loop, so every layer
    measures the *same* remaining budget instead of re-slicing its own.
    """

    __slots__ = ("budget_s", "_t_end")

    def __init__(self, budget_s: float):
        self.budget_s = float(budget_s)
        self._t_end = time.monotonic() + self.budget_s

    @classmethod
    def after(cls, budget_s: float | None) -> "Deadline | None":
        """``None``-propagating constructor (``None`` = no deadline)."""
        return None if budget_s is None else cls(budget_s)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._t_end - time.monotonic()

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._t_end

    def check(self, where: str = "") -> None:
        """Raise :class:`~repro.exceptions.DeadlineExceededError` when
        the budget has run out."""
        if self.expired:
            raise DeadlineExceededError(
                f"deadline of {self.budget_s:.3g}s exceeded"
                f"{f' at {where}' if where else ''}",
                budget_s=self.budget_s,
                where=where,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Deadline(budget_s={self.budget_s:.3g}, "
            f"remaining={self.remaining():.3g}s)"
        )
