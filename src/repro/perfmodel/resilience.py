"""Checkpoint/restart cost modeling (Young/Daly) for the simulator.

At the paper's headline scale (48,384 Fugaku nodes) the machine is not
failure-free: with a per-node MTBF of ``M_node`` seconds, the
application-level MTBF is ``M_node / P`` and a multi-hour MLE campaign
sees node crashes as routine events.  The classic defense is periodic
coordinated checkpointing; the optimal interval balancing checkpoint
overhead against expected lost work is the Young/Daly interval

    tau_Young = sqrt(2 * C * M)           (first order)
    tau_Daly  = sqrt(2 * C * (M + R)) - C (higher order, C < 2M)

with ``C`` the checkpoint cost, ``R`` the restart cost and ``M`` the
(application-level) MTBF.  These helpers feed
:class:`~repro.runtime.faults.CheckpointConfig` and the fault-overhead
benchmark; :func:`expected_waste` gives the closed-form overhead the
discrete-event simulator should approach for long runs.
"""

from __future__ import annotations

import math

from ..exceptions import ConfigurationError

__all__ = [
    "checkpoint_cost_s",
    "daly_interval",
    "application_mtbf",
    "expected_waste",
]


def checkpoint_cost_s(nbytes_per_node: float, io_bw_gbs: float) -> float:
    """Time to write one node's resident tile state to stable storage.

    The paper's tile layout makes the per-node footprint explicit
    (2-D block-cyclic ownership of planned tiles), so a checkpoint is a
    streaming write of that footprint at the node-local I/O bandwidth.
    """
    if nbytes_per_node < 0:
        raise ConfigurationError("checkpoint footprint must be >= 0")
    if io_bw_gbs <= 0:
        raise ConfigurationError("I/O bandwidth must be positive")
    return nbytes_per_node / (io_bw_gbs * 1.0e9)


def application_mtbf(node_mtbf_s: float, nodes: int) -> float:
    """MTBF seen by a job spanning ``nodes`` nodes (independent
    exponential node failures: rates add)."""
    if node_mtbf_s <= 0:
        raise ConfigurationError("node MTBF must be positive")
    if nodes < 1:
        raise ConfigurationError("need at least one node")
    return node_mtbf_s / nodes


def daly_interval(
    checkpoint_s: float, mtbf_s: float, restart_s: float = 0.0
) -> float:
    """Daly's higher-order refinement of Young's first-order interval
    ``sqrt(2 * C * M)``.

    Valid for ``C < 2M`` (the practical regime); outside it the best
    strategy degenerates to checkpointing back-to-back and the Young
    value is returned as a conservative fallback.
    """
    if checkpoint_s < 0 or mtbf_s <= 0 or restart_s < 0:
        raise ConfigurationError(
            "need checkpoint_s >= 0, mtbf_s > 0, restart_s >= 0"
        )
    if checkpoint_s >= 2.0 * mtbf_s:
        return math.sqrt(2.0 * checkpoint_s * mtbf_s)
    return math.sqrt(2.0 * checkpoint_s * (mtbf_s + restart_s)) - checkpoint_s


def expected_waste(
    interval_s: float,
    checkpoint_s: float,
    mtbf_s: float,
    restart_s: float = 0.0,
) -> float:
    """Expected fraction of wall-clock lost to resilience overhead.

    First-order model: each interval of useful work ``tau`` pays the
    checkpoint ``C``, and a failure (rate ``1/M``) costs the restart
    plus on average half an interval of lost work:

        waste(tau) = C / (tau + C) + (R + tau / 2) / M

    Minimized near the Young/Daly interval; the fault-overhead bench
    compares the simulator's measured inflation to this curve.
    """
    if interval_s <= 0:
        raise ConfigurationError("checkpoint interval must be positive")
    if mtbf_s <= 0:
        raise ConfigurationError("MTBF must be positive")
    return checkpoint_s / (interval_s + checkpoint_s) + (
        restart_s + 0.5 * interval_s
    ) / mtbf_s
