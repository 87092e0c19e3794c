"""Irregular location generators.

The paper's datasets are irregularly spaced points over geographic
regions (Mississippi River basin; Central Asia).  The generators here
produce reproducible irregular point sets over simple planar regions —
uniform points in rectangles with the two regions' approximate aspect
ratios — plus replicated space-time location stacks.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError

__all__ = [
    "uniform_locations",
    "region_locations",
    "space_time_locations",
    "REGIONS",
]

#: Approximate (width, height) extents of the paper's regions in the
#: coordinate units their fitted ranges imply: the soil-moisture data
#: behaves like a ~unit-square domain (Table I range 0.173), while the
#: ET ranges (3.79 in space) are degree-like over the ~40 x 25 degree
#: Central-Asia box of Fig. 4(b).
REGIONS = {
    "unit_square": (1.0, 1.0),
    "mississippi_basin": (1.25, 1.0),  # Fig. 4(a): wider than tall
    "central_asia": (40.0, 25.0),      # Fig. 4(b), degree-like units
}


def uniform_locations(
    n: int, *, seed: int | None = None, aspect: float = 1.0
) -> np.ndarray:
    """``n`` i.i.d. uniform points in ``[0, aspect] x [0, 1]``."""
    if n < 1:
        raise ShapeError("need at least one location")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    pts[:, 0] *= aspect
    return pts


def region_locations(
    n: int, region: str, *, seed: int | None = None
) -> np.ndarray:
    """Locations over a named region (see :data:`REGIONS`)."""
    try:
        width, height = REGIONS[region]
    except KeyError:
        raise ShapeError(
            f"unknown region {region!r}; choose from {sorted(REGIONS)}"
        ) from None
    return uniform_locations(n, seed=seed, aspect=width / height) * height


def space_time_locations(
    n_space: int,
    n_slots: int,
    *,
    seed: int | None = None,
    region: str = "unit_square",
    time_step: float = 1.0,
) -> np.ndarray:
    """Space-time stack: the *same* ``n_space`` spatial locations
    replicated at ``n_slots`` time points (the paper's ET data: ~83K
    fixed pixels x 12 months).  Returns ``(n_space * n_slots, 3)``
    with time as the last column, ordered time-major."""
    if n_slots < 1:
        raise ShapeError("need at least one time slot")
    space = region_locations(n_space, region, seed=seed)
    times = np.arange(n_slots, dtype=np.float64) * time_step
    blocks = [
        np.column_stack([space, np.full(n_space, t)]) for t in times
    ]
    return np.vstack(blocks)
