"""Derivative-free optimization support for the MLE loop.

``fit_mle`` minimizes through SciPy's COBYQA
(:mod:`repro.core.mle`); this package holds what it and the paper's
parallel optimizer share:

* :func:`~repro.optim.pso.particle_swarm` — the paper's weak-scaling
  parallel optimizer (Section VI-D);
* :class:`~repro.optim.bounds.BoundTransform` — maps kernel parameter
  boxes to the optimizers' unconstrained/box spaces;
* :mod:`~repro.optim.checkpoint` — atomic JSON checkpoints: PSO's
  swarm state and ``fit_mle``'s evaluation log, so crashed fits
  continue instead of restarting.
"""

from .bounds import BoundTransform
from .checkpoint import load_checkpoint, save_checkpoint
from .pso import PSOResult, particle_swarm

__all__ = [
    "BoundTransform",
    "particle_swarm",
    "PSOResult",
    "save_checkpoint",
    "load_checkpoint",
]
