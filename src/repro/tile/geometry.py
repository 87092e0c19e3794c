"""Cross-iteration geometry caching for the MLE hot path.

Each objective evaluation of :func:`~repro.core.mle.fit_mle` rebuilds
the planned covariance at a new ``theta`` — but every distance matrix,
space-time lag pair, and coordinate difference depends only on the
*locations* and the tile layout.  A :class:`TileGeometry` precomputes
those per-tile quantities once (via the kernel's
:meth:`~repro.kernels.base.CovarianceKernel.prepare_geometry`) and the
assembly pipeline replays them at every ``theta`` through
:meth:`~repro.kernels.base.CovarianceKernel.from_geometry`.

:class:`GeometryCache` keys entries on a content hash of the location
array (plus tile size and the kernel's declared geometry layout), so a
changed ``x`` can never silently reuse stale geometry — re-ordering,
subsetting, or perturbing a single coordinate changes the key.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..exceptions import ShapeError
from ..kernels.base import CovarianceKernel, array_fields
from ..kernels.distance import as_locations
from .layout import TileLayout

__all__ = [
    "TileGeometry",
    "GeometryCache",
    "build_tile_geometry",
    "locations_fingerprint",
    "pair_geometry",
]


def locations_fingerprint(x: np.ndarray) -> str:
    """Content hash of a canonicalized location array.

    Two arrays share a fingerprint iff they are element-wise identical
    in canonical ``(n, d)`` float64 form — the invariant that makes
    stale cache reuse impossible.
    """
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    digest = hashlib.sha1(arr.tobytes())
    digest.update(str(arr.shape).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class TileGeometry:
    """Theta-independent per-tile geometry for one
    ``(kernel geometry layout, locations, tile size)`` triple.

    For an element-wise kernel
    (:attr:`~repro.kernels.base.CovarianceKernel.elementwise_geometry`)
    ``flat`` is the merged geometry — each array field one buffer over
    all tiles in ``layout.lower_tiles()`` order — and the arrays in
    ``tiles`` are views of it; otherwise ``flat`` is ``None``."""

    layout: TileLayout
    geometry_key: str
    fingerprint: str
    tiles: dict[tuple[int, int], object] = field(repr=False)
    flat: object | None = field(default=None, repr=False)

    def tile(self, i: int, j: int) -> object:
        try:
            return self.tiles[(i, j)]
        except KeyError:
            raise ShapeError(f"no geometry for tile ({i}, {j})") from None

    def matches(self, kernel: CovarianceKernel, n: int, tile_size: int) -> bool:
        return (
            self.geometry_key == kernel.geometry_key()
            and self.layout.n == n
            and self.layout.tile_size == tile_size
        )

    @property
    def nbytes(self) -> int:
        """Approximate footprint of the cached arrays."""
        return sum(
            arr.nbytes
            for geom in self.tiles.values()
            for arr in array_fields(geom).values()
        )


def build_tile_geometry(
    kernel: CovarianceKernel, x: np.ndarray, tile_size: int, *,
    reuse: bool = True,
) -> TileGeometry:
    """Precompute geometry for every lower tile of the covariance.

    Diagonal tiles are prepared in same-set form so exact-zero
    self-distances survive, matching the direct assembly path bit for
    bit.

    ``reuse=False`` is the geometry of a single evaluation.  For an
    element-wise kernel it is the same flat buffer; a kernel that is
    evaluated tile by tile gets the location pairs themselves
    (:class:`~repro.kernels.base.PairGeometry`), so that evaluation is
    the direct kernel call — what its own prepared geometry would cost
    anyway when used once, and the bits of the direct call for the
    anisotropic Matérn, whose prepared geometry rounds differently."""
    x = as_locations(x, dim=kernel.ndim_locations)
    layout = TileLayout(len(x), tile_size)
    prepare = kernel.prepare_geometry
    if not (reuse or kernel.elementwise_geometry):
        prepare = partial(CovarianceKernel.prepare_geometry, kernel)
    tiles: dict[tuple[int, int], object] = {}
    buffers: dict[str, np.ndarray] = {}
    pos = 0
    for i, j in layout.lower_tiles():
        # ``None`` for a diagonal tile: the same-set form.
        geom = prepare(
            x[layout.block_slice(i)], None if i == j else x[layout.block_slice(j)]
        )
        if kernel.elementwise_geometry:
            # Tile by tile into the flat buffers, so the build never
            # holds the geometry twice.
            size = layout.block_size(i) * layout.block_size(j)
            views = {}
            for name, arr in array_fields(geom).items():
                if name not in buffers:
                    buffers[name] = np.empty(layout.lower_entries())
                views[name] = buffers[name][pos:pos + size].reshape(arr.shape)
                views[name][...] = arr
            geom = replace(geom, **views)
            pos += size
        tiles[(i, j)] = geom
    flat = replace(tiles[(0, 0)], **buffers) if buffers else None
    return TileGeometry(
        layout=layout,
        geometry_key=kernel.geometry_key(),
        fingerprint=locations_fingerprint(x),
        tiles=tiles,
        flat=flat,
    )


def pair_geometry(
    kernel: CovarianceKernel, x1: np.ndarray, x2: np.ndarray | None = None
) -> object:
    """The kernel's geometry of the pairs ``x1 x x2``; an element-wise
    kernel's is flattened (each array field one buffer, row-major over
    the pairs), the form
    :meth:`~repro.kernels.base.CovarianceKernel.from_flat_geometry`
    evaluates, so what a cache keeps of it (a Matérn table's distance
    span) is computed once per geometry."""
    geom = kernel.prepare_geometry(x1, x2)
    if not kernel.elementwise_geometry:
        return geom
    return replace(geom, **{
        name: arr.reshape(-1) for name, arr in array_fields(geom).items()
    })


class GeometryCache:
    """Small LRU of precomputed geometry, shared across evaluations.

    Thread-safe; one instance is typically owned by a single
    :func:`~repro.core.mle.fit_mle` call (fresh per fit) or by an
    :class:`~repro.core.model.ExaGeoStatModel`.
    """

    def __init__(self, maxsize: int = 4):
        if maxsize < 1:
            raise ShapeError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._tiled: OrderedDict[tuple, TileGeometry] = OrderedDict()
        self._pairs: OrderedDict[tuple, object] = OrderedDict()

    # ------------------------------------------------------------------
    def tile_geometry(
        self, kernel: CovarianceKernel, x: np.ndarray, tile_size: int
    ) -> TileGeometry:
        """Cached :func:`build_tile_geometry` keyed on content."""
        x = as_locations(x, dim=kernel.ndim_locations)
        key = (kernel.geometry_key(), locations_fingerprint(x), int(tile_size))
        with self._lock:
            hit = self._tiled.get(key)
            if hit is not None:
                self.hits += 1
                self._tiled.move_to_end(key)
                return hit
            self.misses += 1
        built = build_tile_geometry(kernel, x, tile_size)
        with self._lock:
            # Deliberate two-phase fill: the expensive geometry build
            # runs unlocked, and a racing thread's duplicate insert is
            # idempotent (same content key -> same value), so the
            # check-then-act split is benign.
            self._tiled[key] = built
            while len(self._tiled) > self.maxsize:
                self._tiled.popitem(last=False)
        return built

    def pair_geometry(
        self,
        kernel: CovarianceKernel,
        x1: np.ndarray,
        x2: np.ndarray | None = None,
    ) -> object:
        """Cached :func:`pair_geometry` (the kriging cross-covariance
        blocks of repeated predictions)."""
        x1 = as_locations(x1, dim=kernel.ndim_locations)
        fp2 = "=" if x2 is None else locations_fingerprint(
            as_locations(x2, dim=kernel.ndim_locations)
        )
        key = (kernel.geometry_key(), locations_fingerprint(x1), fp2)
        with self._lock:
            hit = self._pairs.get(key)
            if hit is not None:
                self.hits += 1
                self._pairs.move_to_end(key)
                return hit
            self.misses += 1
        built = pair_geometry(kernel, x1, x2)
        with self._lock:
            # Same two-phase fill as tile_geometry: duplicate inserts
            # under the same content key are idempotent.
            self._pairs[key] = built
            while len(self._pairs) > self.maxsize:
                self._pairs.popitem(last=False)
        return built

    def clear(self) -> None:
        with self._lock:
            self._tiled.clear()
            self._pairs.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeometryCache(entries={len(self._tiled) + len(self._pairs)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
