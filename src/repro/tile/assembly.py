"""Tile-wise covariance assembly with decision planning.

The paper generates the covariance matrix tile by tile, accumulating
the global Frobenius norm on the fly, decides each tile's precision
(Frobenius rule) and structure (compression rank + Algorithm 2 band),
and only then starts the factorization.  :func:`build_planned_covariance`
reproduces that pipeline:

1. generate every lower tile dense FP64 from theta-independent
   geometry (an element-wise kernel evaluates the tiles' one flat
   buffer in cache-sized slices, any other kernel tile by tile — the
   full square matrix is never formed);
2. accumulate tile norms -> global norm;
3. precision map (adaptive Frobenius rule, or the legacy band rule);
4. the ranks a decision needs, at the tile-level tolerance derived
   from the global norm (a certified range-finder where the rank cap
   is well under the tile size, the exact SVD elsewhere:
   :mod:`repro.tile.compression`) — the sub-diagonals Algorithm 2
   examines, and every off-band tile under the performance-model
   structure decision; nothing for a fixed band in rank mode;
5. Algorithm 2 band auto-tuning + structure-aware decision;
6. materialize the planned :class:`~repro.tile.matrix.TileMatrix`.

A planned-low-rank tile is *not* compressed here: it leaves as its
exact float64 block owing one truncation (``DenseTile.owed``, in its
planned storage precision), and the factorization truncates it once,
at its settle — the TRSM of its column, through the same
:func:`~repro.tile.compression.compress_or_rank`.  A compression here
would be thrown away: every tile right of column 0 is updated before
it is read.  :func:`ranked_plan` gives readers that do not factorize
the ranks the settle would find in the generated blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..config import (
    DEFAULT_BAND_FLUCTUATION,
    DEFAULT_MAX_RANK_FRACTION,
    DEFAULT_TLR_TOLERANCE,
)
from ..exceptions import ConfigurationError
from ..kernels.base import GEOMETRY_CHUNK, CovarianceKernel, split_flat
from ..kernels.distance import as_locations
from ..obs.telemetry import maybe_span
from ..perfmodel.machine import A64FX, MachineSpec
from .bandtuning import autotune_band_size
from .compression import compress_many, compress_or_rank
from .decisions import (
    TilePlan,
    band_precision_map,
    frobenius_precision_map,
    structure_map,
)
from .geometry import (
    GeometryCache,
    TileGeometry,
    build_tile_geometry,
    locations_fingerprint,
)
from .layout import TileLayout
from .matrix import TileMatrix
from .precision import Precision
from .tile import DenseTile

__all__ = [
    "AssemblyReport", "build_planned_covariance",
    "generation_accuracy", "ranked_plan",
]


@dataclass
class AssemblyReport:
    """What the generation pass learned about the matrix."""

    global_norm: float
    tile_norms: dict[tuple[int, int], float]
    #: Rank at ``tile_tol`` of each tile the assembly compressed because
    #: a decision reads it (module docstring; empty for a fixed band in
    #: rank mode): the certified rank of a tile the range-finder
    #: compressed (never below the SVD rank; see
    #: :mod:`repro.tile.compression` for the bound above), the SVD rank
    #: of every other.  The ranks of every planned-low-rank tile are
    #: :func:`ranked_plan`'s.
    ranks: dict[tuple[int, int], int]
    tile_tol: float
    plan: TilePlan
    #: How those tiles were compressed: ``certified`` by the
    #: range-finder, ``fallback`` to the exact SVD, or ``over_cap``.
    #: The settles' compressions are on
    #: :class:`~repro.tile.cholesky.CholeskyStats`.
    compressed: dict[str, int]
    #: Relative error per entry the generated values certify against
    #: the exact kernel: the Matérn table's, 0.0 for exact values.
    generation_rtol: float = 0.0


def generation_accuracy(
    *, use_mp: bool, mp_accuracy: float, use_tlr: bool, tlr_tol: float
) -> float | None:
    """The relative error per generated entry a variant accepts — a
    hundredth of its tightest active tolerance (DESIGN §10) — or
    ``None`` (exact values) with neither ``use_mp`` nor ``use_tlr``.
    Its training tiles and its prediction cross panels spend the same
    budget."""
    budgets = [tol for tol, active in ((mp_accuracy, use_mp), (tlr_tol, use_tlr))
               if active]
    return min(budgets) / 100.0 if budgets else None


def _generate_blocks(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    layout: TileLayout,
    nugget: float,
    *,
    geometry: TileGeometry | None = None,
    workers: int = 1,
    accuracy: float | None = None,
) -> tuple[
    dict[tuple[int, int], np.ndarray], dict[tuple[int, int], float], float, float
]:
    """Evaluate every lower tile of the covariance; return blocks,
    per-tile Frobenius norms, the accumulated global norm and the
    relative error the values certify (0.0: exact).

    Tiles are produced from theta-independent ``geometry`` (built here,
    for this evaluation only, when none is passed).  An element-wise
    kernel evaluates the geometry's flat buffer in cache-sized slices
    (:meth:`~repro.kernels.base.CovarianceKernel.from_flat_geometry`,
    slices dealt over ``workers`` threads) and the blocks are views of
    the one result buffer; any other kernel is evaluated tile by tile
    on the caller's thread (``workers`` does not apply).  Norms are
    reduced afterwards in layout order, so the accumulated global norm
    is independent of thread scheduling.  ``accuracy`` is passed on to
    :meth:`~repro.kernels.base.CovarianceKernel.from_flat_geometry`.
    """
    keys = layout.lower_tiles()
    geometry = geometry or build_tile_geometry(
        kernel, x, layout.tile_size, reuse=False
    )
    rtol = 0.0
    if kernel.elementwise_geometry:
        values, rtol = kernel.from_flat_geometry(
            theta, geometry.flat, workers=workers, accuracy=accuracy
        )
        sizes = layout.block_sizes().tolist()
        evaluated = split_flat(values, [(sizes[i], sizes[j]) for i, j in keys])
    else:
        evaluated = [
            kernel.from_geometry(theta, geometry.tile(*key)) for key in keys
        ]
    blocks = dict(zip(keys, evaluated))
    for i in range(layout.nt):
        # In place, so a diagonal tile stays a view of the result buffer.
        block = blocks[(i, i)]
        block[...] = 0.5 * (block + block.T)
        if nugget:
            block[np.diag_indices_from(block)] += nugget

    norms: dict[tuple[int, int], float] = {}
    total = 0.0
    for i, j in keys:
        norm = float(np.linalg.norm(blocks[(i, j)]))
        norms[(i, j)] = norm
        total += (1.0 if i == j else 2.0) * norm * norm
    return blocks, norms, float(np.sqrt(total)), rtol


def build_planned_covariance(
    kernel: CovarianceKernel,
    theta: np.ndarray,
    x: np.ndarray,
    tile_size: int,
    *,
    nugget: float = 0.0,
    use_mp: bool = False,
    mp_mode: str = "adaptive",
    mp_accuracy: float = 1.0e-8,
    mp_fp64_band: int = 1,
    mp_fp32_band: int | None = None,
    mp_ladder: tuple[Precision, ...] = (Precision.FP16, Precision.FP32),
    use_tlr: bool = False,
    tlr_tol: float = DEFAULT_TLR_TOLERANCE,
    band_size: int | str = "auto",
    band_fluctuation: float = DEFAULT_BAND_FLUCTUATION,
    max_rank_fraction: float = DEFAULT_MAX_RANK_FRACTION,
    structure_mode: str = "rank",
    machine: MachineSpec = A64FX,
    min_precisions: "Precision | dict[tuple[int, int], Precision] | None" = None,
    force_dense: "bool | set[tuple[int, int]]" = False,
    geometry: TileGeometry | None = None,
    cache: GeometryCache | None = None,
    rank_hints: dict[tuple[int, int], int] | None = None,
    workers: int = 1,
    batch: bool = False,
    telemetry=None,
) -> tuple[TileMatrix, AssemblyReport]:
    """Full generation + decision pipeline.

    Returns the planned tile matrix and an :class:`AssemblyReport`
    (norms, ranks, the :class:`~repro.tile.decisions.TilePlan`).

    Parameters mirror the paper's knobs: ``use_mp`` enables the
    precision ladder (``mp_mode="adaptive"`` for the Frobenius rule,
    ``"band"`` for the legacy Fig. 2(c) band rule); ``use_tlr`` enables
    tile low-rank off the dense band with ``band_size`` either a fixed
    integer or ``"auto"`` (Algorithm 2).

    ``min_precisions`` (a global floor or a per-tile map) and
    ``force_dense`` (``True`` for all tiles, or a set of tile keys)
    override the automatic decisions — the rebuild hooks of the
    numerical recovery ladder (:mod:`repro.tile.recovery`).  The floor
    is applied *before* band tuning and the structure decision so the
    downstream pipeline stays self-consistent.

    Hot-path inputs (results are bit-identical whatever they are):

    * ``geometry`` / ``cache`` — reuse theta-independent per-tile
      geometry (:mod:`repro.tile.geometry`) across evaluations.  A
      passed ``geometry`` is verified against a content hash of ``x``,
      so stale reuse raises instead of silently corrupting results.
      With neither, the geometry is built for this evaluation only.
    * ``rank_hints`` — per-tile ranks from a previous evaluation at a
      nearby ``theta``; tiles the assembly compresses that are expected
      over the rank cap go straight to a values-only SVD.  A stale or
      absent hint changes no bit: the compression of a tile is a
      function of the tile, the tolerance and the cap
      (:mod:`repro.tile.compression`).
    * ``workers`` — threads an element-wise kernel's generation deals
      its slices over.  A kernel evaluated tile by tile and the
      compression run on the caller's thread.
    * ``batch`` — compress the tiles a decision reads through
      :func:`~repro.tile.compression.compress_many` (its exact SVDs
      stacked over whole shape classes) instead of per tile.  It does
      not touch generation: an
      element-wise kernel always evaluates one flat buffer in
      cache-sized slices, any other kernel always tile by tile.

    ``telemetry`` (a :class:`~repro.obs.Telemetry`) wraps generation
    and TLR compression in spans — ``"generate"`` records what ran
    (``nt``, ``elementwise``, the number of slices in ``chunks`` and
    the ``workers`` they were dealt over — 0 and 1 for a per-tile
    kernel — and whether the values came from the Matérn ``table``, at
    its certified ``rtol``), ``"compress"`` — present only where a
    decision reads ranks — how those tiles were compressed
    (``compressed``, the report's own tally); it never touches the
    numbers.
    """
    layout = TileLayout(len(x), tile_size)
    nt = layout.nt
    if geometry is None and cache is not None:
        geometry = cache.tile_geometry(kernel, x, tile_size)
    elif geometry is not None:
        fingerprint = locations_fingerprint(
            as_locations(x, dim=kernel.ndim_locations)
        )
        if (
            not geometry.matches(kernel, len(x), tile_size)
            or geometry.fingerprint != fingerprint
        ):
            raise ConfigurationError(
                "precomputed geometry does not match (kernel, x, tile_size); "
                "rebuild it for the current locations"
            )
    elementwise = kernel.elementwise_geometry
    accuracy = generation_accuracy(
        use_mp=use_mp, mp_accuracy=mp_accuracy, use_tlr=use_tlr, tlr_tol=tlr_tol
    )
    with maybe_span(
        telemetry, "generate", nt=nt, workers=workers if elementwise else 1,
        elementwise=elementwise,
        chunks=-(-layout.lower_entries() // GEOMETRY_CHUNK) if elementwise else 0,
    ) as sid:
        blocks, norms, global_norm, rtol = _generate_blocks(
            kernel, theta, x, layout, nugget,
            geometry=geometry, workers=workers, accuracy=accuracy,
        )
    if telemetry is not None:
        telemetry.tracer.annotate(sid, table=rtol > 0.0, rtol=rtol)

    # --- precision decision -------------------------------------------------
    if use_mp:
        if mp_mode == "adaptive":
            precisions = frobenius_precision_map(
                norms, global_norm, nt, ladder=mp_ladder, u_high=mp_accuracy,
                tile_size=tile_size,
            )
        elif mp_mode == "band":
            precisions = band_precision_map(
                layout, fp64_band=mp_fp64_band, fp32_band=mp_fp32_band
            )
        else:
            raise ConfigurationError(f"unknown mp_mode {mp_mode!r}")
    else:
        precisions = {key: Precision.FP64 for key in layout.lower_tiles()}

    if min_precisions is not None:
        if isinstance(min_precisions, Precision):
            floors = {key: min_precisions for key in precisions}
        else:
            floors = min_precisions
        for key, floor in floors.items():
            if key in precisions and precisions[key] < floor:
                precisions[key] = floor

    # --- structure decision -------------------------------------------------
    # Only a rank a decision reads is computed here (module docstring).
    ranks: dict[tuple[int, int], int] = {}
    tile_tol = tlr_tol * global_norm / max(nt, 1)
    use_lr: dict[tuple[int, int], bool] = {
        key: False for key in layout.lower_tiles()
    }
    band_size_dense = 1
    outcomes = {"certified": 0, "fallback": 0, "over_cap": 0}
    owed = None
    if use_tlr:
        max_rank = int(max_rank_fraction * tile_size)
        owed = (tile_tol, max_rank)

        def read_ranks(keys: list[tuple[int, int]]) -> None:
            """Record the ranks of ``keys`` at ``(tile_tol, max_rank)``."""
            if batch:
                # Batched path: bit-identical to the per-tile loop.
                compressed = compress_many(
                    blocks, keys, tile_tol, max_rank=max_rank,
                    hints=rank_hints,
                )
            else:
                hints = rank_hints or {}
                compressed = {
                    key: compress_or_rank(
                        blocks[key], tile_tol, max_rank=max_rank,
                        hint=hints.get(key),
                    )
                    for key in keys
                }
            for key in keys:
                tile_rank, u, _, certified = compressed[key]
                ranks[key] = tile_rank
                outcomes["over_cap" if u is None else
                         "certified" if certified else "fallback"] += 1

        def subdiagonal(band: int) -> list[tuple[int, int]]:
            return [(j + band, j) for j in range(nt - band)]

        reads_ranks = band_size == "auto" or structure_mode == "perfmodel"
        with maybe_span(
            telemetry if reads_ranks else None, "compress",
            batch=bool(batch), compressed=outcomes,
        ):
            if band_size == "auto":
                # Algorithm 2 reads sub-diagonal ``band`` only once every
                # nearer one has joined the dense band: rank it then.
                band_size_dense = 1
                while band_size_dense < nt:
                    read_ranks(subdiagonal(band_size_dense))
                    grown = autotune_band_size(
                        layout, ranks, precisions, machine,
                        fluctuation=band_fluctuation,
                        max_band=band_size_dense + 1,
                    )
                    if grown == band_size_dense:
                        break
                    band_size_dense = grown
            else:
                band_size_dense = int(band_size)
                if band_size_dense < 1:
                    raise ConfigurationError("band_size must be >= 1")
            if structure_mode == "perfmodel":
                read_ranks([key for key in layout.lower_tiles()
                            if key[0] - key[1] >= band_size_dense
                            and key not in ranks])
        use_lr = structure_map(
            layout,
            ranks,
            precisions,
            machine,
            band_size_dense=band_size_dense,
            max_rank_fraction=max_rank_fraction,
            mode=structure_mode,
        )
        if structure_mode == "rank":
            # No decision read these tiles' ranks: each is planned
            # low-rank and its settle enforces the cap (a tile that
            # cannot get under it stays dense in the factor).
            for key in layout.lower_tiles():
                if key[0] - key[1] >= band_size_dense and key not in ranks:
                    use_lr[key] = True

    if force_dense:
        forced = set(use_lr) if force_dense is True else set(force_dense)
        for key in forced:
            if key in use_lr:
                use_lr[key] = False

    # --- materialize ----------------------------------------------------
    # An element-wise kernel's blocks are views of one n^2/2 buffer.  A
    # planned-low-rank tile keeps its view (a float64 accumulator until
    # its settle), and so does every FP64 tile of a plan whose tiles are
    # all FP64.  Any other plan copies its FP64 tiles out, so the few
    # that remain do not keep the whole buffer alive (every other tile
    # is cast into an array of its own anyway).
    copy_out = elementwise and not any(use_lr.values()) and any(
        p is not Precision.FP64 for p in precisions.values()
    )
    matrix = TileMatrix(layout)
    final_precisions: dict[tuple[int, int], Precision] = {}
    for key in layout.lower_tiles():
        p = precisions[key]
        block = blocks[key]
        if use_lr[key]:
            # TLR tiles never store FP16 (Algorithm 2: LR is FP64/FP32).
            p = Precision.FP32 if p is Precision.FP16 else p
            matrix.set(*key, DenseTile(block, p, owed))
        else:
            if copy_out and p is Precision.FP64:
                block = block.copy()
            matrix.set(*key, DenseTile(block, p))
        final_precisions[key] = p

    plan = TilePlan(
        layout=layout,
        precisions=final_precisions,
        use_lr=dict(use_lr),
        tlr_tol=tlr_tol,
        band_size_dense=band_size_dense,
        meta={"ranks": dict(ranks), "global_norm": global_norm, "tile_tol": tile_tol},
    )
    report = AssemblyReport(
        global_norm=global_norm,
        tile_norms=norms,
        ranks=ranks,
        tile_tol=tile_tol,
        plan=plan,
        compressed=outcomes,
        generation_rtol=rtol,
    )
    return matrix, report


def ranked_plan(matrix: TileMatrix, plan: TilePlan) -> TilePlan:
    """``plan`` as its generated blocks rank it, for readers that do not
    factorize (Fig. 9 maps, :class:`~repro.perfmodel.PlanProfile`,
    :func:`~repro.tile.decisions.plan_summary`, the plan verifier).

    A planned-low-rank tile of ``matrix`` (the planned covariance
    :func:`build_planned_covariance` returned with ``plan``) is its
    exact block owing one truncation; its rank is what
    :func:`~repro.tile.compression.compress_or_rank` gives that block
    at what it owes — the settle's own call, which in column 0 settles
    these very bytes.  The returned plan records every such rank in
    ``meta["ranks"]`` (ranks the assembly already read are kept) and
    plans dense a tile that cannot get under its cap, as that settle
    would store it.  ``plan`` is not modified.
    """
    ranks = dict(plan.meta.get("ranks", {}))
    use_lr = dict(plan.use_lr)
    for key, tile in matrix.items():
        if tile.owed is None or key in ranks:
            continue
        tol, max_rank = tile.owed
        ranks[key], u, _, _ = compress_or_rank(tile.data, tol, max_rank=max_rank)
        use_lr[key] = u is not None
    return replace(plan, use_lr=use_lr, meta={**plan.meta, "ranks": ranks})
