"""Tiled Cholesky factorization (paper Algorithm 1, dense and TLR).

The right-looking tile algorithm:

    for k in 0..NT-1:
        POTRF  A[k][k]
        for m in k+1..NT-1:
            TRSM  A[k][k], A[m][k]
        for m in k+1..NT-1:
            SYRK  A[m][k], A[m][m]
            for n in k+1..m-1:
                GEMM  A[m][k], A[n][k], A[m][n]

Each tile keeps the structure (dense / low-rank) and storage precision
assigned by the :class:`~repro.tile.decisions.TilePlan`; the kernels in
:mod:`repro.tile.kernels` convert operands on demand.  This module is
the *sequentially executed* reference: every executor of
:mod:`repro.runtime` is pinned bit-identical to it
(``tests/test_execution_matrix.py``) and the benchmark harness replays
it.  No evaluation runs it: every in-process factorization is the panel
sweep (:mod:`repro.runtime.batchdispatch`), the TLR variants included;
besides the tests and the harness, only the recovery ladder's default
``factor_fn`` calls it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..config import DEFAULT_MAX_RANK_FRACTION
from .matrix import TileMatrix

from . import kernels as K

__all__ = ["CholeskyStats", "resolve_max_rank", "tile_cholesky"]


@dataclass
class CholeskyStats:
    """Execution statistics of one factorization."""

    #: Published as a per-run delta (:meth:`MetricsRegistry.publish`).
    metric_kind = "counter"

    kernel_counts: dict[str, int] = field(default_factory=dict)
    #: Low-rank tiles a GEMM turned into a dense float64 accumulator,
    #: at their first update (transient: the settle truncates them back
    #: unless :attr:`kept_dense`).  A planned covariance holds none: its
    #: planned-low-rank tiles arrive as accumulators already
    #: (:func:`~repro.tile.assembly.build_planned_covariance`), so this
    #: counts only low-rank tiles a matrix was built with.
    densified_tiles: int = 0
    #: Widest low-rank factor pair a GEMM produced — 0 by construction,
    #: since a GEMM into a low-rank tile makes it a dense accumulator;
    #: kept because the benchmark replay compares it.  A maximum, so
    #: the registry keeps the last factorization's, not a sum.
    max_rank_seen: int = field(default=0, metadata={"metric": "gauge"})
    #: Settles performed: accumulating tiles truncated to the
    #: ``(tol, max_rank)`` they owed — exactly one per planned-low-rank
    #: tile.
    truncations: int = 0
    #: Settles that could not get under ``max_rank``: those tiles stay
    #: dense in the factor.
    kept_dense: int = 0
    #: Settles whose factors the certified range-finder produced; the
    #: other ``truncations - kept_dense - certified`` ran the exact SVD
    #: (:func:`~repro.tile.compression.compress_or_rank`).
    certified: int = 0
    #: Transient task failures absorbed by the resilience layer's
    #: retry policy (always 0 on the sequential reference path).
    retries: int = 0

    def count(self, op: str) -> None:
        self.kernel_counts[op] = self.kernel_counts.get(op, 0) + 1

    def count_batch(self, ops: Iterable[str] | Counter) -> None:
        """Bulk-tally a batch of operations in one C-level update.

        ``kernel_counts`` stays a plain ``dict`` (its public shape);
        the :class:`collections.Counter` is a transient accumulator,
        so hot loops tally per batch / per panel instead of one dict
        update per task.
        """
        tally = ops if isinstance(ops, Counter) else Counter(ops)
        for op, n in tally.items():
            self.kernel_counts[op] = self.kernel_counts.get(op, 0) + n


def resolve_max_rank(max_rank: int | None, tile_size: int) -> int | None:
    """The rank cap a factorization applies to its low-rank updates:
    the caller's ``max_rank``, or for ``None`` the default fraction of
    the tile size (no cap only where that rounds to zero).  Every
    entry point — this module's loop and the executors of
    :mod:`repro.runtime` — resolves its default here, so a default
    call means the same cap everywhere."""
    if max_rank is None:
        return int(DEFAULT_MAX_RANK_FRACTION * tile_size) or None
    return max_rank


def tile_cholesky(
    a: TileMatrix,
    *,
    tile_tol: float = 0.0,
    max_rank: int | None = None,
    fp16_accumulate_fp32: bool = True,
) -> tuple[TileMatrix, CholeskyStats]:
    """Factor ``A = L L^T`` in place (the lower tiles of ``a`` are
    replaced by those of ``L``) and return ``(a, stats)``.

    ``tile_tol`` is the absolute tile-level truncation tolerance for
    low-rank updates (from ``plan.meta['tile_tol']``); ``max_rank``
    caps LR ranks, beyond which a tile stays dense (default:
    :func:`resolve_max_rank`).
    """
    nt = a.nt
    max_rank = resolve_max_rank(max_rank, a.layout.tile_size)
    stats = CholeskyStats()
    for k in range(nt):
        # Per-panel Counter tally instead of one dict update per task.
        panel: Counter[str] = Counter()
        lkk = K.potrf(a.get(k, k), index=(k, k))
        a.set(k, k, lkk)
        panel["potrf"] += 1
        for m in range(k + 1, nt):
            amk = a.get(m, k)
            if amk.owed is not None:
                amk, certified = K.settle(amk)
                stats.truncations += 1
                stats.kept_dense += not amk.is_low_rank
                stats.certified += certified
            amk = K.trsm(lkk, amk, fp16_accumulate_fp32=fp16_accumulate_fp32)
            a.set(m, k, amk)
            panel["trsm"] += 1
        for m in range(k + 1, nt):
            amk = a.get(m, k)
            new_diag = K.syrk(
                amk, a.get(m, m), fp16_accumulate_fp32=fp16_accumulate_fp32
            )
            a.set(m, m, new_diag)
            panel["syrk"] += 1
            for n in range(k + 1, m):
                stats.densified_tiles += a.get(m, n).is_low_rank
                cmn = K.gemm(
                    amk,
                    a.get(n, k),
                    a.get(m, n),
                    tol=tile_tol,
                    max_rank=max_rank,
                    fp16_accumulate_fp32=fp16_accumulate_fp32,
                )
                a.set(m, n, cmn)
                panel["gemm"] += 1
        stats.count_batch(panel)
    assert a.settled, "factor contains an unsettled tile"
    return a, stats
