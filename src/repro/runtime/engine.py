"""Sequential execution of the forward-solve task stream.

Interprets the stream from
:func:`repro.runtime.taskgraph.forward_solve_tasks` against a real
factor — the counterpart of the simulated prediction phase.  (The
Cholesky stream runs on the executors built over
:mod:`repro.runtime.taskcore`.)
"""

from __future__ import annotations

from ..exceptions import SchedulingError
from ..tile.matrix import TileMatrix
from .task import Task

__all__ = ["execute_forward_solve_tasks"]


def execute_forward_solve_tasks(
    factor: TileMatrix,
    tasks: list[Task],
    b: np.ndarray,
) -> np.ndarray:
    """Execute a forward-substitution task stream against a real
    factor and right-hand side.

    The stream is :func:`repro.runtime.taskgraph.forward_solve_tasks`
    (RHS blocks keyed ``(i, -1)``): GEMM tasks apply ``y_i -= L_ij y_j``
    and TRSM tasks the diagonal solve.  Validates that the task-graph
    formulation of the solve matches
    :func:`repro.tile.solve.forward_solve` and gives the simulator a
    real counterpart for the prediction phase.
    """
    import numpy as _np
    from scipy import linalg as sla

    from ..tile.solve import tile_apply

    layout = factor.layout
    y = _np.asarray(b, dtype=_np.float64).copy()
    if y.shape[0] != factor.n:
        raise SchedulingError("rhs dimension does not match the factor")
    for task in tasks:
        i = task.output[0]
        sl_i = layout.block_slice(i)
        if task.op == "gemm":
            (lij, rhs_j) = task.inputs
            j = rhs_j[0]
            y[sl_i] -= tile_apply(factor.get(*lij), y[layout.block_slice(j)])
        elif task.op == "trsm":
            (lii,) = task.inputs
            y[sl_i] = sla.solve_triangular(
                factor.get(*lii).to_dense64(), y[sl_i],
                lower=True, check_finite=False,
            )
        else:
            raise SchedulingError(
                f"unexpected op {task.op!r} in a solve stream"
            )
    return y
