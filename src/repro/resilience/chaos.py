"""Deterministic chaos injection for the real executors.

Opt-in fault injection aimed at the *production* paths — the Cholesky
executors and the prediction serving engine — rather than
the discrete-event simulator (:mod:`repro.runtime.faults` covers
that).  A :class:`ChaosConfig` declares seeded failure rates; a
:class:`ChaosInjector` draws every decision from a generator keyed on
``(seed, epoch, site, attempt)``, so

* two runs of the same configuration inject the *identical* fault
  schedule regardless of thread scheduling and of the worker count
  (chaos suites are bit-reproducible), and
* a retried call (``attempt + 1``) re-rolls its fate — exactly the
  transient-failure model the retry policy is built for.

With every rate at zero the injector is inert and the hooks cost one
``None``/rate check per task; with no injector configured the
executors skip the hooks entirely (bit-identical to the plain path).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_SEED
from ..exceptions import ChaosError, ConfigurationError
from ..tile.precision import Precision
from ..tile.tile import DenseTile, LowRankTile, Tile

__all__ = ["ChaosConfig", "ChaosInjector", "ChaosStats"]


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded chaos knobs.  All rates are probabilities per *attempt
    of a kernel call*.  A per-tile call — POTRF, SYRK, the TRSM / GEMM
    of every tile that does not ride a stack, and every task of a
    worker process — draws on its own task's uid.  A stacked call of
    the in-process panel sweep (one TRSM or GEMM over a column's run
    of dense tiles) draws once, on the uid of the run's first task,
    and a corruption lands in that task's tile.  Which calls a matrix
    makes depends on the matrix alone, so a seeded schedule is
    independent of thread scheduling and of the worker count; process
    placement, which runs every task per tile, draws a different (per
    task) schedule from the same seed.

    ``tile_nan_rate`` / ``tile_overflow_rate`` corrupt a task's output
    tile with NaNs or an FP16-overflowing magnitude (``~1e6``, far
    beyond binary16's 65504 max) — the two real failure modes of the
    mixed-precision pipeline.  ``task_fail_rate`` raises
    :class:`~repro.exceptions.ChaosError` from the worker instead of
    running the kernel; ``task_delay_rate`` / ``task_delay_s`` stall a
    worker (exercising deadline cancellation).  ``batch_fail_rate``
    targets the serving engine's per-batch predictions.
    """

    seed: int = DEFAULT_SEED
    tile_nan_rate: float = 0.0
    tile_overflow_rate: float = 0.0
    task_fail_rate: float = 0.0
    task_delay_rate: float = 0.0
    task_delay_s: float = 0.0
    batch_fail_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "tile_nan_rate", "tile_overflow_rate", "task_fail_rate",
            "task_delay_rate", "batch_fail_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if self.task_delay_s < 0.0:
            raise ConfigurationError("task_delay_s must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether any injection can ever fire."""
        return bool(
            self.tile_nan_rate or self.tile_overflow_rate
            or self.task_fail_rate
            or (self.task_delay_rate and self.task_delay_s)
            or self.batch_fail_rate
        )


@dataclass
class ChaosStats:
    """Tally of injections that actually fired."""

    #: Published as a cumulative snapshot of its injector
    #: (:meth:`MetricsRegistry.publish`).
    metric_kind = "gauge"

    corrupted_tiles: int = 0
    failed_tasks: int = 0
    delayed_tasks: int = 0
    failed_batches: int = 0

    @property
    def events(self) -> int:
        return (
            self.corrupted_tiles + self.failed_tasks
            + self.delayed_tasks + self.failed_batches
        )


#: Magnitude used for "overflow" corruption: overflows binary16
#: (max 65504) on the next cast, the paper's FP16 failure mode.
_OVERFLOW_MAGNITUDE = 1.0e6


class ChaosInjector:
    """Stateful injector: one per engine/fit, shared across its
    factorizations.

    ``epoch`` advances once per factorization (see :meth:`next_epoch`)
    so repeated likelihood evaluations within one fit draw independent
    — but still deterministic — fault schedules.
    """

    def __init__(self, config: ChaosConfig):
        self.config = config
        self.stats = ChaosStats()
        self._lock = threading.Lock()
        self._epoch = 0

    # ------------------------------------------------------------------
    def next_epoch(self) -> int:
        """Advance to (and return) the next factorization epoch."""
        with self._lock:
            self._epoch += 1
            return self._epoch

    def absorb(self, delta: ChaosStats) -> None:
        """Fold injections that fired in another process's injector
        (worker processes run their own, same config and epoch) into
        this one's tally."""
        with self._lock:
            for name, fired in vars(delta).items():
                setattr(self.stats, name, getattr(self.stats, name) + fired)

    def _rng(self, epoch: int, site: int, attempt: int, salt: int) -> np.random.Generator:
        return np.random.default_rng(
            (self.config.seed, epoch, site & 0x7FFFFFFF, attempt, salt)
        )

    # ------------------------------------------------------------------
    # call-level injections (Cholesky executors)
    # ------------------------------------------------------------------
    def perturb_task(self, epoch: int, uid: int, attempt: int) -> None:
        """Maybe delay, then maybe fail, the call at site ``uid`` on
        this attempt."""
        cfg = self.config
        if cfg.task_delay_rate and cfg.task_delay_s:
            if self._rng(epoch, uid, attempt, 1).random() < cfg.task_delay_rate:
                with self._lock:
                    self.stats.delayed_tasks += 1
                time.sleep(cfg.task_delay_s)
        if cfg.task_fail_rate:
            if self._rng(epoch, uid, attempt, 2).random() < cfg.task_fail_rate:
                with self._lock:
                    self.stats.failed_tasks += 1
                raise ChaosError(
                    f"injected task failure (uid={uid}, attempt={attempt})",
                    site=f"task#{uid}",
                )

    def corrupt_tile(self, out: Tile, epoch: int, uid: int, attempt: int) -> Tile:
        """Maybe replace one entry of the task's output with NaN or an
        FP16-overflowing value; returns a corrupted *copy* (tiles are
        immutable value objects).

        NaN corruption hits any tile (modeling generic data
        corruption); *overflow* corruption only fires on FP16-storage
        tiles — ``1e6`` rounds to ``inf`` in binary16 but is perfectly
        representable above it, which is exactly why degrading the
        variant to an FP64 floor genuinely eliminates this failure
        mode (the paper's precision-ladder fallback).
        """
        cfg = self.config
        overflow_rate = (
            cfg.tile_overflow_rate
            if out.precision is Precision.FP16 else 0.0
        )
        total = cfg.tile_nan_rate + overflow_rate
        if not total:
            return out
        rng = self._rng(epoch, uid, attempt, 3)
        draw = float(rng.random())
        if draw >= total:
            return out
        overflow = draw >= cfg.tile_nan_rate
        poison = _OVERFLOW_MAGNITUDE if overflow else np.nan
        with self._lock:
            self.stats.corrupted_tiles += 1
        if isinstance(out, LowRankTile):
            if out.rank == 0:
                return out
            u = np.array(out.u, dtype=np.float64)
            u.flat[int(rng.integers(u.size))] = poison
            return LowRankTile(u, np.array(out.v, dtype=np.float64),
                               out.precision, out.owed)
        data = np.array(out.to_dense64(), dtype=np.float64)
        data.flat[int(rng.integers(data.size))] = poison
        if overflow:
            # The injected FP16 overflow itself: store ``inf`` the way
            # unchecked hardware would (``cast_storage`` refuses to).
            # It is counted above and caught, with its tile index, by
            # the executors' finite check.
            with np.errstate(over="ignore"):
                return DenseTile(
                    data.astype(np.float16)  # lint: ignore[LINT005]
                )
        return DenseTile(data, out.precision, out.owed)

    # ------------------------------------------------------------------
    # batch-level injections (prediction serving)
    # ------------------------------------------------------------------
    def perturb_batch(self, site: int, attempt: int) -> None:
        """Maybe fail one serving batch (keyed by the batch's start
        offset, scheduling-independent)."""
        cfg = self.config
        if cfg.batch_fail_rate:
            if self._rng(0, site, attempt, 4).random() < cfg.batch_fail_rate:
                with self._lock:
                    self.stats.failed_batches += 1
                raise ChaosError(
                    f"injected batch failure (offset={site}, "
                    f"attempt={attempt})",
                    site=f"batch@{site}",
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChaosInjector(seed={self.config.seed}, events={self.stats.events})"
