"""Static verification of :class:`~repro.tile.decisions.TilePlan` objects.

Every rule checks an invariant the paper's correctness story relies on
but that the pipeline otherwise only enforces implicitly (or not at
all, when a plan is constructed or mutated by hand):

========  ========  =====================================================
rule      severity  invariant
========  ========  =====================================================
PLAN001   error     precision rule: a demoted tile's predicted storage
                    error stays under the Frobenius-norm budget
                    ``u_high * ||A||_F / NT``
PLAN002   error/    FP16 range: stored FP16 entries neither (provably)
          warning   overflow the binary16 maximum nor flush entirely to
                    zero
PLAN003   error     diagonal tiles are pinned to FP64 (POTRF breakdown)
PLAN004   error     no TLR tile inside the Algorithm-2 dense band
PLAN005   error/    no TLR tile with rank above the admissible cap (or
          warning   above the machine crossover in perfmodel mode);
                    warning when an LR tile has no recorded rank
PLAN006   error     TLR tiles never store FP16 (Algorithm 2: FP64/FP32)
PLAN007   error     precision/structure maps cover exactly the lower
                    triangle (no missing, upper, or out-of-range keys)
PLAN010   error     ``band_size_dense >= 1``
========  ========  =====================================================

All rules are *static*: they need the plan, optionally the generation
metadata (tile norms, global norm) and a machine model — never the
numerical tile data.  (The ids PLAN008 and PLAN009 belonged to retired
rules and are not reused.)
"""

from __future__ import annotations

import math

from ..config import DEFAULT_MAX_RANK_FRACTION
from ..perfmodel.crossover import crossover_rank
from ..perfmodel.machine import MachineSpec
from ..tile.decisions import TilePlan
from ..tile.precision import Precision
from .diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = ["check_plan", "plan_from_matrix", "PLAN_RULES"]

#: Rule-id -> one-line description (the catalog rendered by the CLI).
PLAN_RULES: dict[str, str] = {
    "PLAN001": "tile demoted below the Frobenius-norm precision budget",
    "PLAN002": "FP16 tile at risk of binary16 overflow or total underflow",
    "PLAN003": "diagonal tile stored below FP64",
    "PLAN004": "TLR tile inside the Algorithm-2 dense band",
    "PLAN005": "TLR rank above the admissible cap / machine crossover",
    "PLAN006": "TLR tile stored in FP16",
    "PLAN007": "precision/structure maps do not match the lower triangle",
    "PLAN010": "invalid dense band size",
}

#: Largest finite binary16 value.
_FP16_MAX = 65504.0


def plan_from_matrix(matrix) -> TilePlan:
    """Reconstruct a :class:`TilePlan` from a materialized
    :class:`~repro.tile.matrix.TileMatrix` (the per-tile structure and
    precision actually stored; a tile that owes a truncation is planned
    low-rank, with no rank until its settle), so a matrix built outside
    the planning pipeline can still be verified."""
    precisions: dict[tuple[int, int], Precision] = {}
    use_lr: dict[tuple[int, int], bool] = {}
    ranks: dict[tuple[int, int], int] = {}
    for key, tile in matrix.items():
        precisions[key] = tile.precision
        use_lr[key] = tile.is_low_rank or tile.owed is not None
        if tile.is_low_rank:
            ranks[key] = tile.rank
    return TilePlan(
        layout=matrix.layout,
        precisions=precisions,
        use_lr=use_lr,
        meta={"ranks": ranks, "global_norm": matrix.global_fro_norm()},
    )


def check_plan(
    plan: TilePlan,
    *,
    tile_norms: dict[tuple[int, int], float] | None = None,
    global_norm: float | None = None,
    u_high: float = 1.0e-8,
    variance: float | None = None,
    machine: MachineSpec | None = None,
    structure_mode: str = "rank",
    max_rank_fraction: float = DEFAULT_MAX_RANK_FRACTION,
) -> AnalysisReport:
    """Run every applicable plan rule; rules whose inputs are absent
    (e.g. PLAN001 without tile norms) are skipped rather than guessed.

    ``u_high`` is the application accuracy of the Frobenius rule (the
    value the plan was built with); ``variance`` optionally bounds
    covariance entries (the kernel sill + nugget) for the FP16 range
    rule.
    """
    report = AnalysisReport()
    layout = plan.layout
    nt = layout.nt
    b = layout.tile_size
    if global_norm is None:
        global_norm = plan.meta.get("global_norm")
    ranks: dict[tuple[int, int], int] = plan.meta.get("ranks", {})

    # --- PLAN010 / PLAN007: structural sanity first -----------------------
    band = plan.band_size_dense
    if band < 1:
        report.add(Diagnostic(
            "PLAN010", Severity.ERROR,
            f"band_size_dense={band} is invalid (must be >= 1: the "
            "diagonal is always dense)",
        ))
        band = 1
    expected = set(layout.lower_tiles())
    for name, mapping in (("precision", plan.precisions),
                          ("structure", plan.use_lr)):
        keys = set(mapping)
        for key in sorted(keys - expected):
            report.add(Diagnostic(
                "PLAN007", Severity.ERROR,
                f"{name} map has key outside the stored lower triangle",
                tile=key,
            ))
        for key in sorted(expected - keys):
            report.add(Diagnostic(
                "PLAN007", Severity.ERROR,
                f"{name} map is missing a lower-triangle tile",
                tile=key,
            ))

    # Per-tile rules only make sense on keys present in both maps.
    tiles = [k for k in layout.lower_tiles()
             if k in plan.precisions and k in plan.use_lr]

    budget = None
    if global_norm is not None and global_norm > 0 and nt > 0:
        budget = u_high * global_norm / nt

    for (i, j) in tiles:
        p = plan.precisions[(i, j)]
        lr = plan.use_lr[(i, j)]
        m, n = layout.tile_shape(i, j)

        # --- PLAN003: diagonal pinning ---------------------------------
        if i == j and p is not Precision.FP64:
            report.add(Diagnostic(
                "PLAN003", Severity.ERROR,
                f"diagonal tile narrowed to {p.label}; POTRF breakdown "
                "risk — diagonal tiles must stay FP64",
                tile=(i, j),
            ))

        # --- PLAN001: Frobenius precision budget -----------------------
        if (
            budget is not None
            and tile_norms is not None
            and i != j
            and p is not Precision.FP64
            and (i, j) in tile_norms
        ):
            norm = tile_norms[(i, j)]
            predicted = p.unit_roundoff * norm
            predicted = min(norm, predicted + 0.5 * math.sqrt(m * n)
                            * p.smallest_subnormal)
            if predicted >= budget:
                report.add(Diagnostic(
                    "PLAN001", Severity.ERROR,
                    f"tile demoted to {p.label} but predicted storage "
                    f"error {predicted:.3e} >= budget {budget:.3e} "
                    f"(u_high*||A||_F/NT); the aggregate bound "
                    "||A_hat-A||_F <= u_high*||A||_F no longer holds",
                    tile=(i, j),
                ))

        # --- PLAN002: FP16 representable range -------------------------
        if p is Precision.FP16 and tile_norms is not None and (i, j) in tile_norms:
            norm = tile_norms[(i, j)]
            entry_cap = variance if variance is not None else math.inf
            lower_bound_max = norm / math.sqrt(m * n)
            if lower_bound_max > _FP16_MAX:
                report.add(Diagnostic(
                    "PLAN002", Severity.ERROR,
                    f"FP16 tile must contain an entry >= "
                    f"{lower_bound_max:.3e} > binary16 max {_FP16_MAX:g}: "
                    "guaranteed overflow to inf",
                    tile=(i, j),
                ))
            elif min(norm, entry_cap) > _FP16_MAX:
                report.add(Diagnostic(
                    "PLAN002", Severity.WARNING,
                    f"FP16 tile norm {norm:.3e} exceeds binary16 max "
                    f"{_FP16_MAX:g}: entries may overflow to inf",
                    tile=(i, j),
                ))
            if 0.0 < norm < Precision.FP16.smallest_subnormal:
                report.add(Diagnostic(
                    "PLAN002", Severity.ERROR,
                    f"FP16 tile norm {norm:.3e} below the binary16 "
                    "smallest subnormal: the whole tile flushes to zero",
                    tile=(i, j),
                ))

        if not lr:
            continue

        # --- PLAN004: Algorithm-2 dense band ---------------------------
        if i - j < band:
            report.add(Diagnostic(
                "PLAN004", Severity.ERROR,
                f"TLR tile inside the dense band (offset {i - j} < "
                f"band_size_dense {band}); Algorithm 2 forces these dense",
                tile=(i, j),
            ))

        # --- PLAN006: no FP16 TLR --------------------------------------
        if p is Precision.FP16:
            report.add(Diagnostic(
                "PLAN006", Severity.ERROR,
                "TLR tile stored in FP16; Algorithm 2 restricts low-rank "
                "tiles to FP64/FP32",
                tile=(i, j),
            ))

        # --- PLAN005: rank cap / crossover -----------------------------
        rank = ranks.get((i, j))
        if rank is None:
            report.add(Diagnostic(
                "PLAN005", Severity.WARNING,
                "TLR tile has no recorded rank in plan.meta['ranks']; "
                "crossover admissibility cannot be verified",
                tile=(i, j),
            ))
        else:
            hard_cap = int(max_rank_fraction * b)
            if rank > hard_cap:
                report.add(Diagnostic(
                    "PLAN005", Severity.ERROR,
                    f"TLR rank {rank} above the admissible cap "
                    f"{hard_cap} ({max_rank_fraction:g} x tile size); "
                    "the tile must be stored dense",
                    tile=(i, j),
                ))
            elif machine is not None and structure_mode == "perfmodel":
                lr_prec = Precision.FP32 if p is Precision.FP16 else p
                xover = crossover_rank(b, machine, lr_prec)
                if rank >= xover:
                    report.add(Diagnostic(
                        "PLAN005", Severity.ERROR,
                        f"TLR rank {rank} at/above the machine crossover "
                        f"{xover} for tile size {b} at {lr_prec.label}: "
                        "dense execution is modeled faster",
                        tile=(i, j),
                    ))

    return report
