"""The harness's only door into ``repro``.

Every name the benchmark uses from the package is imported here, so
the benchmark's dependence on the package is this one list and nothing
else in the harness imports ``repro``.  The package is not installed in
a benchmark checkout: it is loaded from ``src/`` beside the harness,
and a checkout without it fails here, before any result is printed.
"""

from __future__ import annotations

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"no repro package under {_SRC}; nothing to benchmark")
sys.path.insert(0, str(_SRC))

import repro  # noqa: E402
from repro.core import (  # noqa: E402
    EvaluationEngine,
    ExaGeoStatModel,
    PredictionEngine,
    get_variant,
    loglikelihood,
    loglikelihood_dense_reference,
)
from repro.data import uniform_locations  # noqa: E402
from repro.kernels import ExponentialKernel, MaternKernel  # noqa: E402
from repro.ordering import order_points  # noqa: E402
from repro.perfmodel.gemm import (  # noqa: E402
    dense_potrf_flops,
    dense_syrk_flops,
    dense_trsm_flops,
    lr_product_flops,
    tlr_gemm_flops,
    tlr_trsm_flops,
)
from repro.runtime import (  # noqa: E402
    ProcessPoolEngine,
    execute_cholesky_batched,
    execute_cholesky_parallel,
)
from repro.tile import (  # noqa: E402
    PanelSolver,
    Precision,
    build_planned_covariance,
    build_tile_geometry,
    forward_solve,
    leaked_segments,
    tile_cholesky,
    tile_logdet,
)
from repro.tile import kernels as tile_kernels  # noqa: E402
from repro.tile.compression import compress_many  # noqa: E402

if pathlib.Path(repro.__file__).resolve().parents[1] != _SRC:
    raise ImportError(
        f"repro was imported from {repro.__file__}, not from {_SRC}"
    )

__all__ = [
    "EvaluationEngine", "ExaGeoStatModel", "PredictionEngine",
    "loglikelihood", "loglikelihood_dense_reference",
    "uniform_locations", "order_points",
    "dense_potrf_flops", "dense_syrk_flops",
    "dense_trsm_flops", "lr_product_flops", "tlr_gemm_flops",
    "tlr_trsm_flops",
    "ProcessPoolEngine", "execute_cholesky_batched",
    "execute_cholesky_parallel",
    "PanelSolver", "Precision", "build_planned_covariance",
    "build_tile_geometry", "forward_solve", "leaked_segments",
    "tile_cholesky", "tile_logdet", "tile_kernels", "compress_many",
    "kernel_for", "variant_for", "base_variant", "engine_for", "model_for",
]

_KERNELS = {"exponential": ExponentialKernel, "matern": MaternKernel}


def kernel_for(name: str):
    return _KERNELS[name]()


def variant_for(workload):
    """The workload's variant with its execution settings on it."""
    return get_variant(workload.variant).with_(**workload.execution)


def base_variant():
    """The tiled ``dense-fp64`` anchor, default execution."""
    return get_variant("dense-fp64")


def engine_for(kernel, x, z, *, tile, variant, nugget):
    return EvaluationEngine(
        kernel, x, z, tile_size=tile, variant=variant, nugget=nugget
    )


def model_for(kernel, *, tile, variant, nugget):
    return ExaGeoStatModel(kernel, variant, tile_size=tile, nugget=nugget)
