"""Covariance-kernel interface.

A kernel maps a parameter vector ``theta`` and two location sets to a
cross-covariance matrix.  Kernels are *stateless*: parameters are always
passed explicitly, which is what the MLE loop needs (it re-evaluates the
same kernel at many ``theta``).

Every kernel publishes a tuple of :class:`ParameterSpec` so optimizers
can derive bounds/transforms and reports (Tables I and II of the paper)
can label estimates.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ..exceptions import ParameterError
from .distance import as_locations

__all__ = [
    "ParameterSpec",
    "CovarianceKernel",
    "PairGeometry",
    "check_theta",
    "concat_flat",
    "split_flat",
    "array_fields",
    "merge_geometry",
    "GEOMETRY_CHUNK",
]

#: Entries of a flat geometry evaluated per kernel call.  32 K float64
#: entries are 256 KB: the slice of distances, the scaled copy the
#: kernel makes of it and the values it returns stay in a core's L2
#: from one ufunc pass to the next, where a whole covariance (13 MB at
#: n = 1800) streams through memory once per pass and a single small
#: tile (7 KB at tile 30) pays a Python call per 900 entries.
#: Not larger: two 512 KB temporaries per slice cross glibc's default
#: trim threshold and every slice then maps and unmaps its memory
#: (n = 3600: 72 ms against 40 ms); between 8 K and 32 K entries the
#: time is flat (EXPERIMENTS.md, PR 23).
GEOMETRY_CHUNK = 1 << 15


def concat_flat(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Concatenate arrays into one flat buffer, remembering shapes.

    Element-wise kernel math on the concatenation is bit-identical to
    per-array evaluation (ufuncs have no cross-element coupling), so
    the entries of many tiles can be evaluated in slices of any length.
    """
    shapes = [a.shape for a in arrays]
    if not arrays:
        return np.empty(0, dtype=np.float64), shapes
    return np.concatenate([np.asarray(a).ravel() for a in arrays]), shapes


def split_flat(
    flat: np.ndarray, shapes: list[tuple[int, ...]]
) -> list[np.ndarray]:
    """Invert :func:`concat_flat`: shaped views into the flat result."""
    out = []
    pos = 0
    for shape in shapes:
        n = 1
        for dim in shape:
            n *= int(dim)
        out.append(flat[pos:pos + n].reshape(shape))
        pos += n
    return out


def array_fields(geom: object) -> dict[str, np.ndarray]:
    """The array-valued fields of a geometry object, by name."""
    return {
        name: value for name, value in vars(geom).items()
        if isinstance(value, np.ndarray)
    }


def merge_geometry(geoms: list[object]) -> tuple[object, list[tuple[int, ...]]]:
    """Merge the geometries of many tiles of an element-wise kernel
    (:attr:`CovarianceKernel.elementwise_geometry`) into one whose
    array fields are the flat concatenations, plus the tile shapes
    :func:`split_flat` needs to cut the evaluated values apart again.
    Non-array fields are the first geometry's; element-wise math reads
    none of them.
    """
    shapes: list[tuple[int, ...]] = []
    merged = {}
    for name in array_fields(geoms[0]):
        merged[name], shapes = concat_flat([getattr(g, name) for g in geoms])
    return replace(geoms[0], **merged), shapes


@dataclass(frozen=True)
class PairGeometry:
    """Fallback theta-independent geometry: the validated location pair.

    Kernels that do not override :meth:`CovarianceKernel.prepare_geometry`
    get this; :meth:`CovarianceKernel.from_geometry` then simply re-runs
    the usual ``_cross`` evaluation (no reuse, but full correctness).
    ``same`` records that the two sets are one set — the diagonal-tile
    case, where exact-zero self-distances matter.
    """

    x1: np.ndarray
    x2: np.ndarray
    same: bool


@dataclass(frozen=True)
class ParameterSpec:
    """Description of one scalar kernel parameter.

    ``lower``/``upper`` are *open* bounds used by the optimizer's
    parameter transform; ``default`` seeds optimizers when the caller
    provides no initial guess.
    """

    name: str
    lower: float
    upper: float
    default: float

    def contains(self, value: float) -> bool:
        return bool(self.lower < value < self.upper) and np.isfinite(value)


def check_theta(theta: np.ndarray, specs: tuple[ParameterSpec, ...]) -> np.ndarray:
    """Validate ``theta`` against ``specs`` and return it as float64."""
    arr = np.asarray(theta, dtype=np.float64).ravel()
    if arr.shape[0] != len(specs):
        raise ParameterError(
            f"expected {len(specs)} parameters "
            f"({', '.join(s.name for s in specs)}), got {arr.shape[0]}"
        )
    for value, spec in zip(arr, specs):
        if not spec.contains(value):
            raise ParameterError(
                f"parameter {spec.name}={value!r} outside ({spec.lower}, {spec.upper})"
            )
    return arr


class CovarianceKernel(abc.ABC):
    """Abstract stationary covariance kernel.

    Subclasses implement :meth:`_cross` on validated inputs.  The public
    entry points are :meth:`__call__` (cross-covariance between two
    location sets) and :meth:`covariance_matrix` (symmetric matrix for
    one set, exact-zero-distance diagonal handled).

    Repeated evaluation at many ``theta`` goes through theta-independent
    geometry: :meth:`prepare_geometry` / :meth:`from_geometry` per
    tile, and — for a kernel that declares
    :attr:`elementwise_geometry` — :meth:`from_flat_geometry` over the
    merged geometry of many tiles, evaluated in slices of
    :data:`GEOMETRY_CHUNK` entries.  The base class owns that merge,
    slice and split; a subclass writes its geometry math once, in
    :meth:`_cross_geometry`.
    """

    #: Expected number of columns of the location arrays (e.g. 2 for 2-D
    #: space, 3 for 2-D space + time).  ``None`` means any.
    ndim_locations: int | None = None

    #: True when :meth:`_cross_geometry` is element-wise: every array
    #: field of the geometry has the shape of the tile, and entry
    #: ``[a, b]`` of the result is a function of entry ``[a, b]`` of
    #: those fields and ``theta`` alone.  Such a kernel's tiles are
    #: evaluated together from one flat buffer in cache-sized slices
    #: (:meth:`from_flat_geometry`); any other kernel is evaluated tile
    #: by tile.  A fact about the kernel's math, not a setting; kernels
    #: that share a :meth:`geometry_key` share it too.
    elementwise_geometry: bool = False

    @property
    @abc.abstractmethod
    def param_specs(self) -> tuple[ParameterSpec, ...]:
        """Ordered parameter specifications."""

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.param_specs)

    @property
    def nparams(self) -> int:
        return len(self.param_specs)

    def default_theta(self) -> np.ndarray:
        return np.array([s.default for s in self.param_specs], dtype=np.float64)

    def validate_theta(self, theta: np.ndarray) -> np.ndarray:
        return check_theta(theta, self.param_specs)

    @abc.abstractmethod
    def _cross(
        self, theta: np.ndarray, x1: np.ndarray, x2: np.ndarray
    ) -> np.ndarray:
        """Cross-covariance on validated ``theta`` and locations."""

    def __call__(
        self, theta: np.ndarray, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> np.ndarray:
        """Cross-covariance matrix ``C[i, j] = cov(Z(x1_i), Z(x2_j))``."""
        theta = self.validate_theta(theta)
        x1 = as_locations(x1, dim=self.ndim_locations)
        x2 = x1 if x2 is None else as_locations(x2, dim=self.ndim_locations)
        return self._cross(theta, x1, x2)

    # ------------------------------------------------------------------
    # theta-independent geometry (the MLE hot-path cache, PR 3)
    # ------------------------------------------------------------------
    def geometry_key(self) -> str:
        """Identity of this kernel's precomputed-geometry layout.

        Two kernels whose keys match may share cached geometry for the
        same location array.  The default covers stateless kernels; a
        kernel whose geometry depends on extra instance state must fold
        that state into the key (see :class:`~repro.kernels.nugget.NuggetKernel`).
        """
        return f"{type(self).__qualname__}/{self.ndim_locations}"

    def prepare_geometry(
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> object:
        """Precompute everything a tile evaluation needs that does *not*
        depend on ``theta`` (distances, space-time lags, coordinate
        differences...).

        The returned object is opaque: it is only ever handed back to
        :meth:`from_geometry` of the same kernel.  The base
        implementation stores the validated locations themselves, so
        every kernel supports the API even without opting in.
        """
        x1 = as_locations(x1, dim=self.ndim_locations)
        same = x2 is None
        x2v = x1 if same else as_locations(x2, dim=self.ndim_locations)
        return PairGeometry(x1, x2v, same)

    def from_geometry(self, theta: np.ndarray, geom: object) -> np.ndarray:
        """Cross-covariance from precomputed geometry.

        Equivalent to ``self(theta, x1, x2)`` on the location pair the
        geometry was prepared from, but skipping every theta-independent
        computation.  Kernels that opt in must keep the arithmetic
        bit-compatible with ``_cross`` wherever possible (the geometry
        cache is on by default in :func:`~repro.core.mle.fit_mle`) and
        must never mutate the cached arrays.  Every kernel also accepts
        a :class:`PairGeometry` — the location pair itself, evaluated
        by ``_cross``.
        """
        theta = self.validate_theta(theta)
        if isinstance(geom, PairGeometry):
            return self._cross(theta, geom.x1, geom.x2)
        return self._cross_geometry(theta, geom)

    def _cross_geometry(self, theta: np.ndarray, geom: object) -> np.ndarray:
        """Evaluate on validated ``theta``; override together with
        :meth:`prepare_geometry`."""
        if not isinstance(geom, PairGeometry):  # pragma: no cover - misuse
            raise ParameterError(
                f"{type(self).__name__} got foreign geometry {type(geom).__name__}"
            )
        return self._cross(theta, geom.x1, geom.x2)

    def from_flat_geometry(
        self, theta: np.ndarray, flat: object, *, workers: int = 1,
        accuracy: float | None = None,
    ) -> tuple[np.ndarray, float]:
        """Values of an element-wise kernel over a merged geometry
        (:func:`merge_geometry`), as one flat float64 array, and the
        relative error they certify against the exact kernel (0.0:
        exact).  ``accuracy`` is the relative error per entry the caller
        accepts (``None``: none); only the Matérn table spends it.

        The entries are evaluated by the kernel's slice evaluator
        (:meth:`_flat_evaluator`) in slices of :data:`GEOMETRY_CHUNK`,
        dealt round-robin over ``workers`` threads when there is more
        than one slice and more than one worker (the ufuncs and
        ``special.kve`` release the GIL; one task per thread, because a
        pool task per slice costs more than a cheap kernel's slice).
        Each slice writes its own part of the result, so the values do
        not depend on the chunk size, the width or the scheduling.
        """
        theta = self.validate_theta(theta)
        evaluate, rtol = self._flat_evaluator(theta, flat, accuracy)
        fields = array_fields(flat)
        out = np.empty_like(next(iter(fields.values())), dtype=np.float64)
        starts = range(0, out.size, GEOMETRY_CHUNK)
        width = max(1, min(workers, len(starts)))

        def deal(worker: int) -> None:
            for lo in starts[worker::width]:
                hi = lo + GEOMETRY_CHUNK  # past the end on the last slice
                piece = replace(
                    flat, **{name: arr[lo:hi] for name, arr in fields.items()}
                )
                out[lo:hi] = evaluate(piece)

        if width == 1:
            deal(0)
        else:
            with ThreadPoolExecutor(max_workers=width) as pool:
                # Reading the results re-raises a slice's error.
                list(pool.map(deal, range(width)))
        return out, rtol

    def _flat_evaluator(
        self, theta: np.ndarray, flat: object, accuracy: float | None
    ) -> tuple[Callable[[object], np.ndarray], float]:
        """The slice evaluator of one :meth:`from_flat_geometry` call
        and the relative error it certifies; built on the caller's
        thread, before any slice is dealt.  The base evaluator is
        :meth:`_cross_geometry`, exact."""
        return partial(self._cross_geometry, theta), 0.0

    def from_geometry_batch(
        self, theta: np.ndarray, geoms: list[object]
    ) -> list[np.ndarray]:
        """Cross-covariances of *many* tiles at one ``theta``.

        Equal, bit for bit, to ``[self.from_geometry(theta, g) for g in
        geoms]`` with ``theta`` validated once.  An element-wise kernel
        (:attr:`elementwise_geometry`) merges the geometries and
        evaluates them in cache-sized slices
        (:meth:`from_flat_geometry`); the tiles returned are views of
        one buffer.  Any other kernel is evaluated tile by tile.
        """
        theta = self.validate_theta(theta)
        return self._cross_geometry_batch(theta, list(geoms))

    def _cross_geometry_batch(
        self, theta: np.ndarray, geoms: list[object]
    ) -> list[np.ndarray]:
        """:meth:`from_geometry_batch` on validated ``theta``."""
        if not (self.elementwise_geometry and geoms):
            return [self._cross_geometry(theta, geom) for geom in geoms]
        flat, shapes = merge_geometry(geoms)
        values, _ = self.from_flat_geometry(theta, flat)
        return split_flat(values, shapes)

    def covariance_matrix(
        self, theta: np.ndarray, x: np.ndarray, *, nugget: float = 0.0
    ) -> np.ndarray:
        """Symmetric covariance matrix of one location set.

        ``nugget`` adds a diagonal micro-scale variance (also a common
        numerical regularizer when sampling).
        """
        c = self(theta, x)
        c = 0.5 * (c + c.T)  # enforce exact symmetry
        if nugget:
            c[np.diag_indices_from(c)] += nugget
        return c

    def variance(self, theta: np.ndarray) -> float:
        """Marginal variance ``C(0)``; first parameter by convention in
        every kernel shipped with this package."""
        theta = self.validate_theta(theta)
        return float(theta[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({', '.join(self.param_names)})"
