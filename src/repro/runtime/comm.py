"""Communication volume model with on-demand precision conversion.

PaRSEC's key data-movement feature in the paper is that a tile travels
in its *storage* representation (structure + precision) and is
converted at the receiver, so an FP16 tile costs a quarter of the FP64
bytes on the wire and a rank-``r`` tile ``r (m + n) / (m n)`` of its
dense footprint.  :func:`tile_wire_bytes` encodes exactly that and
feeds both the DAG simulator and the aggregate scaling estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tile.decisions import TilePlan
from ..tile.layout import TileLayout
from ..tile.precision import Precision

__all__ = [
    "CommStats",
    "tile_wire_bytes",
    "plan_wire_bytes",
    "conversion_count",
    "model_comm_volume",
]


@dataclass
class CommStats:
    """Tile traffic across owners under an owner-computes mapping.

    The process backend *measures* this (every input tile a worker
    reads from another rank's home is one remote read of the tile's
    current wire representation); :func:`model_comm_volume` *predicts*
    it from a tile plan.  For dense plans — where the representation
    the simulator assumes is the representation execution keeps — the
    two must match exactly (pinned by a golden check).
    """

    #: Published as a per-run delta (:meth:`MetricsRegistry.publish`).
    metric_kind = "counter"

    #: Input-tile reads whose owner differs from the executing rank.
    remote_reads: int = 0
    #: Bytes of those reads, in each tile's wire representation at
    #: read time (:func:`tile_wire_bytes`).
    remote_bytes: int = 0
    #: Input-tile reads satisfied by the executing rank's own tiles
    #: (zero-copy in the shared-memory store).
    local_reads: int = 0

    def add(self, other: "CommStats") -> None:
        self.remote_reads += other.remote_reads
        self.remote_bytes += other.remote_bytes
        self.local_reads += other.local_reads


def model_comm_volume(plan: TilePlan, grid, tasks) -> CommStats:
    """Predicted owner-computes traffic of a task stream.

    Each task executes on ``grid.owner(*task.output)``
    (:class:`~repro.runtime.distribution.BlockCyclic2D`); every input
    tile owned by a different rank is charged one remote read at the
    plan's wire representation (:func:`plan_wire_bytes`).  This is the
    simulator-side prediction the process backend's measured
    :class:`CommStats` is cross-checked against; the prediction is
    exact for plans whose representations execution never changes
    (dense variants), and diverges for TLR plans exactly where ranks
    drift from the planned ones.
    """
    out = CommStats()
    for task in tasks:
        rank = grid.owner(*task.output)
        for key in task.inputs:
            if grid.owner(*key) == rank:
                out.local_reads += 1
            else:
                out.remote_reads += 1
                out.remote_bytes += plan_wire_bytes(plan, key)
    return out


def tile_wire_bytes(
    layout: TileLayout,
    key: tuple[int, int],
    precision: Precision,
    *,
    low_rank: bool = False,
    rank: int = 0,
) -> int:
    """Bytes on the wire for one tile in its storage representation.

    RHS blocks ``(i, -1)`` are vectors of the block length in FP64.
    """
    i, j = key
    if j < 0:
        return 8 * layout.block_size(i)
    m, n = layout.tile_shape(i, j)
    if low_rank:
        return precision.itemsize * rank * (m + n)
    return precision.itemsize * m * n


def plan_wire_bytes(plan: TilePlan, key: tuple[int, int]) -> int:
    """Wire bytes of a planned tile (rank from the plan metadata)."""
    if key[1] < 0:
        return tile_wire_bytes(plan.layout, key, Precision.FP64)
    precision = plan.precisions[key]
    if plan.use_lr[key]:
        rank = plan.meta.get("ranks", {}).get(key, plan.layout.tile_size // 2)
        return tile_wire_bytes(
            plan.layout, key, precision, low_rank=True, rank=rank
        )
    return tile_wire_bytes(plan.layout, key, precision)


def conversion_count(
    sender_precision: Precision, receiver_precision: Precision
) -> int:
    """1 when the receiver must cast the payload, else 0 — the
    simulator charges a bandwidth-bound conversion pass for it."""
    return int(sender_precision is not receiver_precision)
