"""Kriging prediction and uncertainty (paper Eqs. 4-5), served batched.

Given the factor ``L`` of the training covariance ``Sigma_nn``:

* prediction   ``z_m = Sigma_mn Sigma_nn^{-1} z_n``           (Eq. 4)
* uncertainty  ``U_m = diag(Sigma_mm - Sigma_mn Sigma_nn^{-1} Sigma_nm)``
                                                              (Eq. 5)

Both reduce to multi-RHS triangular solves with the tiled factor.
The paper's end product is not the factorization but *prediction*, so
every predict/score/simulate call against a fitted model shares three
amortizable pieces:

* the tile Cholesky factor, applied through one
  :class:`~repro.tile.solve.PanelSolver` (one float64 cast per tile
  for the engine's lifetime, BLAS-3 panel updates for every batch);
* the solved weight vector ``w = Sigma_nn^{-1} z`` of Eq. 4 —
  computed exactly once;
* the train/test cross geometry, and optionally the cross-covariance
  values themselves (theta is pinned, so a repeated test batch needs
  no kernel evaluation at all).

:class:`PredictionEngine` owns all three and exposes a batched
:meth:`predict` (its batches run one after another on the caller's
thread), a bounded-memory streaming :meth:`predict_iter` for large
grids, MSPE :meth:`score`, and conditional :meth:`simulate`.
``ExaGeoStatModel`` builds one lazily (see
:meth:`~repro.core.model.ExaGeoStatModel.serving_engine`) and
invalidates it whenever the fitted state changes;
:func:`kriging_predict` is the one-shot entry point over a transient
engine.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..config import PREDICT_BATCH, SERVING_CROSS_CACHE_BYTES
from ..exceptions import ShapeError
from ..kernels.base import GEOMETRY_CHUNK, CovarianceKernel
from ..kernels.distance import as_locations
from ..obs.telemetry import maybe_span
from ..resilience import (
    CircuitBreaker,
    Deadline,
    HealthReport,
    ResilienceConfig,
)
from ..resilience.validate import require_finite
from ..tile.assembly import generation_accuracy
from ..tile.geometry import GeometryCache, locations_fingerprint, pair_geometry
from ..tile.matrix import TileMatrix
from ..tile.solve import PanelSolver
from .likelihood import _resolve_execution
from .variants import DENSE_FP64, VariantConfig, get_variant

__all__ = [
    "PredictionResult", "clamp_variance", "ServingStats",
    "PredictionEngine", "kriging_predict",
]

logger = logging.getLogger(__name__)


@dataclass
class PredictionResult:
    """Predictions (and optional variances) at the test locations."""

    mean: np.ndarray
    variance: np.ndarray | None = None

    def standard_error(self) -> np.ndarray:
        if self.variance is None:
            raise ShapeError("prediction was run without uncertainty")
        # Variances are already clamped at the source (Eq. 5 rounding);
        # the maximum here only guards results from older pickles.
        return np.sqrt(np.maximum(self.variance, 0.0))


def clamp_variance(variance: np.ndarray, *, where: str = "kriging") -> tuple[np.ndarray, int]:
    """Clamp small negative Eq.-5 variances (MP/TLR rounding) to 0.

    Returns the clamped array and the number of entries clamped; emits
    a debug-level diagnostic when any were, so serving logs can track
    how hard the approximation is pushing against the PSD boundary.
    """
    negative = variance < 0.0
    count = int(np.count_nonzero(negative))
    if count:
        logger.debug(
            "%s: clamped %d negative predictive variance(s) to 0 "
            "(min %.3e) — Eq. 5 under MP/TLR rounding",
            where, count, float(variance.min()),
        )
        variance = np.where(negative, 0.0, variance)
    return variance, count


@dataclass
class ServingStats:
    """Amortization counters of one engine."""

    #: Published as a cumulative snapshot
    #: (:meth:`MetricsRegistry.publish`).
    metric_kind = "gauge"

    predict_calls: int = 0
    predictions: int = 0  # total predicted locations
    batches: int = 0
    weight_solves: int = 0  # must stay 1 for the engine's lifetime
    tile_casts: int = 0  # PanelSolver materializations (once per tile)
    solves: int = 0  # triangular sweeps served by the solver
    cross_hits: int = 0
    cross_misses: int = 0
    cross_cache_bytes: int = 0
    clamped_variances: int = 0
    failed_calls: int = 0  # predict/score calls that raised
    batch_retries: int = 0  # transient batch failures absorbed


class _CrossEntry:
    """One cached test batch: cross covariance, the relative error its
    values certify (0.0: exact) and lazy half-solve."""

    __slots__ = ("cross", "rtol", "half")

    def __init__(self, cross: np.ndarray, rtol: float):
        self.cross = cross
        self.rtol = rtol
        self.half: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        return self.cross.nbytes + (0 if self.half is None else self.half.nbytes)


class PredictionEngine:
    """Throughput-oriented predictions against one fitted state.

    Batches run one after another on the caller's thread.  Within a
    batch, an element-wise kernel's cross panel is generated as
    training covariances are: its pair geometry is one flat buffer
    evaluated in slices of :data:`~repro.kernels.base.GEOMETRY_CHUNK`
    entries dealt over the variant's ``workers``
    (:meth:`~repro.kernels.base.CovarianceKernel.from_flat_geometry`),
    each slice writing its own part of the panel, so the values are
    the same bytes at every width.  An approximate variant's panel
    spends the generation budget its training tiles do
    (:func:`~repro.tile.assembly.generation_accuracy`; a Matérn at a
    Bessel smoothness is then read from the certified table over the
    panel's own distances).  Any other kernel's panel, the
    Eq.-5 forward solve and everything else run on the caller's
    thread.  One engine may be shared by several caller threads; its
    cache and counters are kept under one lock.

    Parameters
    ----------
    kernel, theta, x_train, z_train:
        The fitted model state; ``theta`` is pinned for the engine's
        lifetime (that is what makes weights and cross values
        reusable).
    factor:
        Tile Cholesky factor of ``Sigma_nn(theta)`` over ``x_train``.
    variant:
        The fitted model's compute variant (name or
        :class:`~repro.core.variants.VariantConfig`); cross panels are
        generated at the width and within the accuracy budget its
        training tiles are.  Default ``"dense-fp64"``: one worker,
        exact values.
    cache:
        A :class:`~repro.tile.geometry.GeometryCache` for the
        theta-independent train/test geometry, shared with the owning
        model; ``None`` builds each batch's pair geometry for that
        batch only.
    batch:
        Default test-batch width (peak memory is ``n_train x batch``).
    cross_cache_bytes:
        Byte budget of the cross-covariance value LRU (0 disables it).
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`: its
        ``retry`` policy absorbs transient per-batch failures, its
        ``chaos`` injector targets this engine's batches, and a
        consecutive-failure circuit breaker trips the cross-value LRU
        to a safe rebuild (see :meth:`health`).  ``None`` keeps every
        hook inert.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`: each :meth:`predict`
        call runs inside a ``"predict"`` span with per-batch child
        spans, and the engine's :class:`ServingStats`, :meth:`health`
        and bound chaos injector's tally are mirrored into the
        registry after every call.  ``None`` keeps the untraced path
        untouched.
    """

    def __init__(
        self,
        kernel: CovarianceKernel,
        theta: np.ndarray,
        x_train: np.ndarray,
        z_train: np.ndarray,
        factor: TileMatrix,
        *,
        variant: "str | VariantConfig" = DENSE_FP64,
        cache: GeometryCache | None = None,
        batch: int = PREDICT_BATCH,
        cross_cache_bytes: int = SERVING_CROSS_CACHE_BYTES,
        resilience: ResilienceConfig | None = None,
        telemetry=None,
    ):
        self.kernel = kernel
        self.theta = kernel.validate_theta(theta)
        self.x_train = as_locations(x_train, dim=kernel.ndim_locations)
        self.z_train = np.asarray(z_train, dtype=np.float64).ravel()
        if self.z_train.shape[0] != len(self.x_train):
            raise ShapeError("z_train length does not match x_train")
        if factor.n != len(self.x_train):
            raise ShapeError("factor dimension does not match x_train")
        if batch < 1:
            raise ShapeError("batch must be >= 1")
        # The width and the budget the variant generates its training
        # tiles at; a per-tile kernel's panel has no slices to deal.
        cfg = get_variant(variant)
        self._width = (
            _resolve_execution(cfg, None)[2]
            if kernel.elementwise_geometry else 1
        )
        self._accuracy = generation_accuracy(
            use_mp=cfg.use_mp, mp_accuracy=cfg.mp_accuracy,
            use_tlr=cfg.use_tlr, tlr_tol=cfg.tlr_tol,
        )
        self.cache = cache
        self.batch = int(batch)
        self.cross_cache_bytes = max(0, int(cross_cache_bytes))

        self.solver = PanelSolver(factor)
        #: Eq. 4 weights ``Sigma_nn^{-1} z`` — solved once, reused by
        #: every subsequent predict/score/simulate call.
        self.weights = self.solver.solve(self.z_train)
        self.marginal = kernel.variance(self.theta)

        self._lock = threading.Lock()
        self._cross: OrderedDict[str, _CrossEntry] = OrderedDict()
        #: The engine's only tally, mutated under ``_lock``;
        #: ``cross_cache_bytes`` is the LRU's byte ledger, and
        #: :meth:`stats` fills in the solver-owned fields on the way out.
        self._stats = ServingStats(weight_solves=1)

        self.telemetry = telemetry
        self.resilience = None if resilience is None else resilience.bind()
        self._retry = None if self.resilience is None else self.resilience.retry
        self._chaos = (
            None if self.resilience is None else self.resilience.resolve_chaos()
        )
        # Consecutive failed serving calls trip the breaker, which
        # clears the cross-value LRU: after a corruption streak the
        # safest state is a cold cache rebuilt from scratch.
        self._breaker = CircuitBreaker(on_trip=self.clear_cross_cache)

    # ------------------------------------------------------------------
    @property
    def factor(self) -> TileMatrix:
        return self.solver.factor

    @property
    def n_train(self) -> int:
        return len(self.x_train)

    def state_key(self) -> str:
        """Content hash of the served state (kernel geometry, theta,
        locations, observations) — the invalidation key the owning
        model compares, mirroring :class:`GeometryCache`."""
        digest = hashlib.sha1(self.kernel.geometry_key().encode())
        digest.update(np.ascontiguousarray(self.theta).tobytes())
        digest.update(locations_fingerprint(self.x_train).encode())
        digest.update(self.z_train.tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # cross-covariance panels
    # ------------------------------------------------------------------
    def _generation(self, size: int) -> dict:
        """How the cross panel of a ``size``-point batch is generated:
        ``elementwise``, the number of slices in ``chunks`` and the
        ``workers`` they are dealt over (0 and 1 for a per-tile
        kernel) — the ``"predict_batch"`` span's attributes, named as
        the ``"generate"`` span's (``table`` and ``rtol`` are added as
        the batch ends)."""
        elementwise = self.kernel.elementwise_geometry
        return dict(
            elementwise=elementwise,
            chunks=-(-self.n_train * size // GEOMETRY_CHUNK) if elementwise else 0,
            workers=self._width,
        )

    def _cross_values(
        self, x_batch: np.ndarray, *, use_cache: bool
    ) -> tuple[np.ndarray, float]:
        """The ``(n_train, batch)`` cross panel and the relative error
        its values certify (0.0: exact).

        Its pair geometry comes from the geometry cache when the batch
        may be cached, and is built for this panel only otherwise (a
        streamed batch never enters the cache).  An element-wise kernel
        evaluates the geometry flattened, in slices over the engine's
        width and within its generation budget; any other kernel
        through ``from_geometry``, exactly.
        """
        kernel = self.kernel
        if use_cache and self.cache is not None:
            geom = self.cache.pair_geometry(kernel, self.x_train, x_batch)
        else:
            geom = pair_geometry(kernel, self.x_train, x_batch)
        if not kernel.elementwise_geometry:
            return kernel.from_geometry(self.theta, geom), 0.0
        values, rtol = kernel.from_flat_geometry(
            self.theta, geom, workers=self._width, accuracy=self._accuracy
        )
        return values.reshape(self.n_train, -1), rtol

    def clear_cross_cache(self) -> None:
        """Drop every cached cross panel (the circuit breaker's safe
        rebuild; also useful after external memory pressure)."""
        with self._lock:
            self._cross.clear()
            self._stats.cross_cache_bytes = 0

    def _entry_for(
        self, x_batch: np.ndarray, *, need_half: bool, use_cache: bool
    ) -> _CrossEntry:
        """The batch's cross panel (and, when asked, its forward
        half-solve ``L^{-1} Sigma_nm``), from the LRU when possible.

        Thread-safety discipline (for callers sharing one engine):
        cached ``_CrossEntry`` objects are only ever *mutated* (the lazy
        ``half`` attach) while holding the engine lock, together with
        the matching ``cross_cache_bytes`` update — so a concurrent
        eviction always subtracts exactly the bytes that were added.
        The expensive work (kernel values, triangular solves) runs
        outside the lock; when two callers race on one key, the loser's
        duplicate work is discarded under the lock and the byte ledger
        stays exact.
        """
        cacheable = use_cache and self.cross_cache_bytes > 0
        key = locations_fingerprint(x_batch) if cacheable else None
        entry: _CrossEntry | None = None
        with self._lock:
            if key is not None:
                entry = self._cross.get(key)
            if entry is not None:
                self._cross.move_to_end(key)
                self._stats.cross_hits += 1
                if not need_half or entry.half is not None:
                    return entry
            else:
                self._stats.cross_misses += 1

        # Compute outside the lock: kernel evaluation and the forward
        # sweep dominate, and concurrent callers must not queue on them.
        cross, rtol = (
            (entry.cross, entry.rtol) if entry is not None
            else self._cross_values(x_batch, use_cache=use_cache)
        )
        half = self.solver.forward(cross) if need_half else None

        if key is None:
            out = _CrossEntry(cross, rtol)
            out.half = half
            return out

        with self._lock:
            current = self._cross.get(key)
            if current is not None:
                # Cached (by us earlier, or by a racing caller): attach
                # the half-solve in the same critical section as the
                # byte-ledger update.
                if half is not None and current.half is None:
                    current.half = half
                    self._stats.cross_cache_bytes += half.nbytes
                # Deliberate two-phase fill (documented above): the
                # re-lookup under the lock re-validates the key, so the
                # racing loser's work is discarded, never double-counted.
                self._cross.move_to_end(key)
                entry = current
            else:
                entry = _CrossEntry(cross, rtol)
                entry.half = half
                if entry.nbytes <= self.cross_cache_bytes:
                    self._cross[key] = entry
                    self._stats.cross_cache_bytes += entry.nbytes
            while self._stats.cross_cache_bytes > self.cross_cache_bytes:
                _, evicted = self._cross.popitem(last=False)
                self._stats.cross_cache_bytes -= evicted.nbytes
            return entry

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _check_test(self, x_test: np.ndarray) -> np.ndarray:
        require_finite("x_test", x_test)
        x_test = as_locations(x_test, dim=self.kernel.ndim_locations)
        if x_test.shape[1] != self.x_train.shape[1]:
            raise ShapeError("train and test locations have different dimensions")
        return x_test

    def _predict_batch(
        self, x_batch: np.ndarray, return_uncertainty: bool, use_cache: bool
    ) -> tuple[np.ndarray, np.ndarray | None, float]:
        entry = self._entry_for(
            x_batch, need_half=return_uncertainty, use_cache=use_cache
        )
        mean = entry.cross.T @ self.weights
        variance = None
        if return_uncertainty:
            half = entry.half
            variance = self.marginal - np.einsum("ij,ij->j", half, half)
            variance, clamped = clamp_variance(variance, where="PredictionEngine")
            if clamped:
                with self._lock:
                    self._stats.clamped_variances += clamped
        with self._lock:
            self._stats.batches += 1
        return mean, variance, entry.rtol

    def _serve_batch(
        self,
        start: int,
        x_slice: np.ndarray,
        return_uncertainty: bool,
        use_cache: bool,
    ) -> tuple[np.ndarray, np.ndarray | None, float]:
        """One batch through the resilience hooks: chaos perturbation
        (keyed on the batch's start offset) and transient-failure
        retry.  Inert hooks short-circuit to the plain path.  Returns
        the batch's mean, variance and its panel's ``rtol``."""
        if self._retry is None and self._chaos is None:
            return self._predict_batch(x_slice, return_uncertainty, use_cache)

        def attempt_fn(attempt: int):
            if self._chaos is not None:
                self._chaos.perturb_batch(start, attempt)
            return self._predict_batch(x_slice, return_uncertainty, use_cache)

        if self._retry is None:
            return attempt_fn(1)

        def note_retry(attempt: int, exc: BaseException) -> None:
            with self._lock:
                self._stats.batch_retries += 1

        return self._retry.call(attempt_fn, site=start, on_retry=note_retry)

    def predict(
        self,
        x_test: np.ndarray,
        *,
        return_uncertainty: bool = False,
        batch: int | None = None,
        deadline_s: float | None = None,
    ) -> PredictionResult:
        """Batched kriging prediction (Eq. 4) and optional uncertainty
        (Eq. 5) at ``x_test``, one batch after another on the caller's
        thread.

        ``deadline_s`` bounds the call's wall clock: the first batch
        reached past the budget raises
        :class:`~repro.exceptions.DeadlineExceededError` (cooperative —
        a batch in progress finishes first).  Any batch failure stops
        the call and re-raises; partial results are discarded.
        """
        x_test = self._check_test(x_test)
        width = self.batch if batch is None else max(1, int(batch))
        deadline = Deadline.after(deadline_s)
        m = len(x_test)
        mean = np.empty(m, dtype=np.float64)
        variance = np.empty(m, dtype=np.float64) if return_uncertainty else None
        telemetry = self.telemetry

        with maybe_span(
            telemetry, "predict", m=m, batches=-(-m // width),
            uncertainty=bool(return_uncertainty),
        ):
            try:
                for start in range(0, m, width):
                    if deadline is not None:
                        deadline.check("predict batch")
                    stop = min(start + width, m)
                    with maybe_span(
                        telemetry, "predict_batch", start=start, stop=stop,
                        **self._generation(stop - start),
                    ) as sid:
                        mb, vb, rtol = self._serve_batch(
                            start, x_test[start:stop], return_uncertainty,
                            use_cache=True,
                        )
                    if telemetry is not None:
                        telemetry.tracer.annotate(
                            sid, table=rtol > 0.0, rtol=rtol
                        )
                    mean[start:stop] = mb
                    if variance is not None:
                        variance[start:stop] = vb
            except Exception:
                with self._lock:
                    self._stats.failed_calls += 1
                self._breaker.record_failure()
                self._publish()
                raise
            self._breaker.record_success()
            with self._lock:
                self._stats.predict_calls += 1
                self._stats.predictions += m
        self._publish()
        return PredictionResult(mean=mean, variance=variance)

    def _publish(self) -> None:
        """Mirror the engine's account into its telemetry bundle."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.record(self.stats())
            telemetry.record(self.health())
            if self._chaos is not None:
                telemetry.record(self._chaos.stats)

    def predict_iter(
        self,
        x_test: np.ndarray,
        *,
        return_uncertainty: bool = False,
        batch: int | None = None,
    ):
        """Stream predictions batch by batch for grids too large to
        hold ``n_train x m`` cross blocks: yields one
        :class:`PredictionResult` per batch, touching only
        ``n_train x batch`` memory at a time (the value LRU and the
        geometry cache are bypassed: each batch's pair geometry is
        built for that batch only, so streaming grows neither)."""
        x_test = self._check_test(x_test)
        width = self.batch if batch is None else max(1, int(batch))
        m = len(x_test)
        with self._lock:
            self._stats.predict_calls += 1  # one per stream, as predict
        for start in range(0, m, width):
            stop = min(start + width, m)
            mb, vb, _ = self._serve_batch(
                start, x_test[start:stop], return_uncertainty, use_cache=False
            )
            with self._lock:
                self._stats.predictions += stop - start
            yield PredictionResult(mean=mb, variance=vb)

    def score(self, x_test: np.ndarray, z_test: np.ndarray) -> float:
        """Mean squared prediction error on held-out data (the paper's
        MSPE column)."""
        require_finite("z_test", z_test)
        pred = self.predict(x_test)
        z_test = np.asarray(z_test, dtype=np.float64).ravel()
        if z_test.shape != pred.mean.shape:
            raise ShapeError("z_test length does not match x_test")
        return float(np.mean((pred.mean - z_test) ** 2))

    def simulate(
        self,
        x_test: np.ndarray,
        *,
        size: int = 1,
        seed: int | None = None,
        jitter: float = 1.0e-10,
    ) -> np.ndarray:
        """Conditional simulation (Eq. 3) reusing the engine's factor,
        solver and weights, and the grid's cross panel and forward
        half-solve from the value LRU — a grid already predicted with
        uncertainty is simulated without a kernel evaluation or a
        forward sweep."""
        from .simulation import conditional_simulation

        x_test = self._check_test(x_test)
        entry = self._entry_for(x_test, need_half=True, use_cache=True)
        return conditional_simulation(
            self.kernel, self.theta, self.x_train, self.z_train,
            x_test, self.factor,
            size=size, seed=seed, jitter=jitter,
            solver=self.solver, weights=self.weights,
            cross=entry.cross, half=entry.half,
        )

    def stats(self) -> ServingStats:
        with self._lock:
            return replace(
                self._stats,
                tile_casts=self.solver.casts, solves=self.solver.solves,
            )

    def health(self) -> HealthReport:
        """Serving error budget: failed predict calls, the current
        failure streak, transient batch retries absorbed, and the
        circuit breaker's state (tripping clears the cross LRU — see
        :meth:`clear_cross_cache`)."""
        with self._lock:
            served = self._stats.predict_calls
            failures = self._stats.failed_calls
            retries = self._stats.batch_retries
        consecutive, trips, is_open = self._breaker.snapshot()
        return HealthReport(
            calls=served + failures,
            failures=failures,
            consecutive_failures=consecutive,
            retries=retries,
            breaker_trips=trips,
            breaker_open=is_open,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PredictionEngine(n={self.n_train}, nt={self.factor.nt}, "
            f"workers={self._width}, accuracy={self._accuracy}, "
            f"served={self._stats.predictions})"
        )


def kriging_predict(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x_train: np.ndarray,
    z_train: np.ndarray,
    x_test: np.ndarray,
    factor: TileMatrix,
    *,
    return_uncertainty: bool = False,
    batch: int = PREDICT_BATCH,
    cache: GeometryCache | None = None,
) -> PredictionResult:
    """Predict at ``x_test`` given a factored training covariance.

    ``factor`` must be the tile Cholesky factor of
    ``Sigma_nn(theta)`` over ``x_train`` (as produced by the
    likelihood evaluation at the fitted parameters).

    One-shot: routes through a transient :class:`PredictionEngine`, so
    test locations are processed in batches sharing one weight solve
    and one per-tile precision cast.  For repeated predictions against
    the same fitted state, hold a :class:`PredictionEngine` (or use
    :meth:`~repro.core.model.ExaGeoStatModel.serving_engine`) instead.

    ``cache`` reuses the theta-independent cross geometry (train/test
    distances) across repeated predictions at the same locations —
    e.g. re-predicting after a parameter update.
    """
    engine = PredictionEngine(
        kernel, theta, x_train, z_train, factor,
        cache=cache, batch=batch,
        cross_cache_bytes=0,  # one-shot call: nothing to reuse
    )
    return engine.predict(x_test, return_uncertainty=return_uncertainty)
