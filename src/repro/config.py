"""Package-wide default constants.

These mirror the knobs the paper exposes: tile size, TLR accuracy
tolerance, the precision ladder, and the fluctuation factor of the
band-size auto-tuner (Algorithm 2).  All are plain module-level
constants; functions that consume them accept explicit overrides so the
defaults never have to be mutated globally.
"""

from __future__ import annotations

import os

#: Default tile (block) size for tiled algorithms at laptop scale.  The
#: paper uses 800 (Fig. 7) and 2700 (Fig. 9) on Fugaku; numeric tests in
#: this repo run at much smaller matrix sizes so the default is smaller.
DEFAULT_TILE_SIZE: int = 64

#: Accuracy threshold for TLR compression.  Matches the paper
#: (Section VI.B: "set to 1e-8 for this application").
DEFAULT_TLR_TOLERANCE: float = 1.0e-8

#: Maximum admissible rank of a compressed tile, as a fraction of the
#: tile size.  Beyond this, storing the tile dense is always cheaper.
DEFAULT_MAX_RANK_FRACTION: float = 0.5

#: Algorithm 2 "fluctuation" multiplier: the dense band keeps growing
#: while ``time_dense < fluctuation * time_tlr`` on the sub-diagonal.
DEFAULT_BAND_FLUCTUATION: float = 1.0

#: Small diagonal regularization ("nugget") added when sampling exact
#: Gaussian random fields, to guard against loss of positive
#: definiteness at very small distances.
DEFAULT_SAMPLING_JITTER: float = 1.0e-10

#: Default seed used by deterministic data generators.
DEFAULT_SEED: int = 20220101

#: Number of right-hand sides predicted per solve batch in the kriging
#: path (keeps peak memory bounded for large test sets).
PREDICT_BATCH: int = 4096

#: Byte budget of the serving engine's cross-covariance LRU — repeated
#: predictions at previously seen test batches skip the kernel
#: evaluation (and, for variances, the half-solve) entirely.  0
#: disables value caching; geometry caching is governed separately.
SERVING_CROSS_CACHE_BYTES: int = 128 * 2**20


def usable_cores() -> int:
    """CPUs this process may run on — what every pool width and BLAS
    clamp is sized against.  ``os.cpu_count()`` counts the machine's
    CPUs and ignores a restricted set (``taskset``, a container's
    cpuset); the affinity mask does not."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux


# ----------------------------------------------------------------------
# Resilience defaults (runtime fault model + numerical recovery ladder)
# ----------------------------------------------------------------------

#: Per-node mean time between failures, seconds.  Fugaku-class systems
#: report a system-level MTBF of a few hours at ~150k nodes; per node
#: that is O(10^8) s — the default keeps single-node simulations
#: essentially failure-free unless the caller scales it down.
DEFAULT_NODE_MTBF_S: float = 3.0e8

#: Time for a crashed simulated node to rejoin (re-spawn + re-connect).
DEFAULT_RESTART_S: float = 30.0

#: Per-node filesystem/burst-buffer bandwidth used by the tile
#: checkpoint cost model, GB/s (LLIO-class node-local storage).
DEFAULT_CHECKPOINT_BW_GBS: float = 4.0

#: Initial diagonal jitter of the numerical recovery ladder, relative
#: to the mean diagonal magnitude of the covariance.
DEFAULT_RECOVERY_JITTER: float = 1.0e-10

#: Largest relative jitter the ladder may reach before giving up.
DEFAULT_RECOVERY_MAX_JITTER: float = 1.0e-4

