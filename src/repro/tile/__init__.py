"""Tile linear algebra: the mixed-precision + dense/TLR substrate.

Layering inside this subpackage (no cycles):

    precision -> tile -> compression -> layout -> matrix
    (perfmodel) -> decisions / bandtuning -> assembly
    kernels -> cholesky / solve -> recovery
"""

from .assembly import (
    AssemblyReport,
    assemble_dense,
    build_planned_covariance,
    ranked_plan,
)
from .bandtuning import autotune_band_size, subdiagonal_times
from .batch import stacked_gemm, stacked_trsm
from .cholesky import CholeskyStats, tile_cholesky
from .compression import (
    compress_block,
    compress_or_rank,
    compress_tile,
    frobenius_rank,
    rank_of_block,
    recompress,
    truncated_svd,
)
from .geometry import (
    GeometryCache,
    TileGeometry,
    build_tile_geometry,
    locations_fingerprint,
)
from .decisions import (
    TilePlan,
    band_precision_map,
    frobenius_precision_map,
    plan_summary,
    structure_map,
)
from .layout import TileLayout
from .matrix import TileMatrix
from .precision import PRECISION_LADDER, Precision, cast_storage, compute_dtype
from .diagnostics import condition_estimate, power_norm_estimate
from .recovery import (
    DEFAULT_RECOVERY,
    RecoveryAction,
    RecoveryPolicy,
    RecoveryReport,
    factor_with_recovery,
)
from .refinement import RefinementResult, refine_solve
from .shm import (
    SegmentCache,
    SharedTileStore,
    TileHandle,
    leaked_segments,
    payload_nbytes,
)
from .solve import (
    PanelSolver,
    apply_lower,
    backward_solve,
    forward_solve,
    symmetric_matvec,
    tile_apply,
    tile_logdet,
)
from .tile import DenseTile, LowRankTile, Tile

__all__ = [
    "Precision",
    "PRECISION_LADDER",
    "cast_storage",
    "compute_dtype",
    "Tile",
    "DenseTile",
    "LowRankTile",
    "TileLayout",
    "TileMatrix",
    "truncated_svd",
    "frobenius_rank",
    "compress_block",
    "compress_or_rank",
    "compress_tile",
    "recompress",
    "rank_of_block",
    "GeometryCache",
    "TileGeometry",
    "build_tile_geometry",
    "locations_fingerprint",
    "TilePlan",
    "frobenius_precision_map",
    "band_precision_map",
    "structure_map",
    "plan_summary",
    "autotune_band_size",
    "subdiagonal_times",
    "AssemblyReport",
    "assemble_dense",
    "build_planned_covariance",
    "ranked_plan",
    "tile_cholesky",
    "CholeskyStats",
    "stacked_trsm",
    "stacked_gemm",
    "PanelSolver",
    "forward_solve",
    "backward_solve",
    "apply_lower",
    "tile_logdet",
    "RecoveryPolicy",
    "RecoveryAction",
    "RecoveryReport",
    "DEFAULT_RECOVERY",
    "factor_with_recovery",
    "RefinementResult",
    "refine_solve",
    "power_norm_estimate",
    "condition_estimate",
    "tile_apply",
    "symmetric_matvec",
    "SharedTileStore",
    "SegmentCache",
    "TileHandle",
    "payload_nbytes",
    "leaked_segments",
]
