"""Floating-point precision ladder (FP64 / FP32 / FP16).

The paper stores each tile in one of the three IEEE-754 binary formats
and converts operands on demand when a kernel needs them in a different
precision.  We emulate the exact storage semantics with NumPy dtypes;
*arithmetic* on FP16-stored tiles follows the paper's SHGEMM
convention: operands rounded to binary16, accumulation in binary32
("FP16 with FP32 accumulation", Section VI-E / Fig. 8).

``unit_roundoff`` values are those of the round-to-nearest formats
(2^-53, 2^-24, 2^-11); they drive the Frobenius-norm precision rule in
:mod:`repro.tile.decisions`.
"""

from __future__ import annotations

import enum

import numpy as np

from ..exceptions import NumericalCorruptionError

__all__ = ["Precision", "cast_storage", "compute_dtype", "PRECISION_LADDER"]


class Precision(enum.IntEnum):
    """Storage precision of a tile.

    The integer values order the ladder by accuracy so that
    ``min(p, q)`` is the *less* accurate of two precisions and
    comparisons read naturally (``FP16 < FP32 < FP64``).
    """

    FP16 = 16
    FP32 = 32
    FP64 = 64

    @property
    def dtype(self) -> np.dtype:
        return _DTYPES[self]

    @property
    def unit_roundoff(self) -> float:
        return _ROUNDOFF[self]

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.value // 8

    @property
    def smallest_subnormal(self) -> float:
        """Smallest positive representable value — values below it
        flush to zero on storage, which the precision rule must budget
        for (FP16's is large enough to matter: ~6e-8)."""
        return _SUBNORMAL[self]

    @property
    def label(self) -> str:
        return f"FP{self.value}"

    @classmethod
    def from_any(cls, value: "Precision | str | int | np.dtype") -> "Precision":
        """Coerce strings ('fp32'), ints (32), dtypes, or members."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            name = value.upper().removeprefix("FP")
            return cls(int(name))
        if isinstance(value, (int, np.integer)):
            return cls(int(value))
        dt = np.dtype(value)
        for member, d in _DTYPES.items():
            if d == dt:
                return member
        raise ValueError(f"cannot interpret {value!r} as a Precision")


_DTYPES = {
    Precision.FP64: np.dtype(np.float64),
    Precision.FP32: np.dtype(np.float32),
    Precision.FP16: np.dtype(np.float16),
}

_ROUNDOFF = {
    Precision.FP64: 2.0**-53,
    Precision.FP32: 2.0**-24,
    Precision.FP16: 2.0**-11,
}

_SUBNORMAL = {
    Precision.FP64: 2.0**-1074,
    Precision.FP32: 2.0**-149,
    Precision.FP16: 2.0**-24,
}

#: Ladder from least to most accurate; decision code iterates this to
#: find the cheapest admissible storage for a tile.
PRECISION_LADDER: tuple[Precision, ...] = (
    Precision.FP16,
    Precision.FP32,
    Precision.FP64,
)


def cast_storage(array: np.ndarray, precision: Precision) -> np.ndarray:
    """Round ``array`` into the storage dtype of ``precision``.

    A no-op (returns the same object) when the dtype already matches —
    callers rely on that to avoid copies on the FP64 fast path.  A
    finite value the narrower format cannot hold (FP16 tops out at
    65504) raises :class:`~repro.exceptions.NumericalCorruptionError`
    instead of storing ``inf`` under a bare ``RuntimeWarning``: the
    plan gave the tile a precision its values do not fit, which the
    recovery and degradation ladders escalate like any breakdown.
    """
    target = precision.dtype
    if array.dtype == target:
        return array
    try:
        with np.errstate(over="raise"):
            return array.astype(target)
    except FloatingPointError:
        raise NumericalCorruptionError(
            f"magnitude {np.abs(array).max():.3g} overflows "
            f"{precision.label} storage"
        ) from None


def compute_dtype(precision: Precision, *, fp16_accumulate_fp32: bool = True) -> np.dtype:
    """Arithmetic dtype used for a kernel whose lead (output) operand is
    stored at ``precision``.

    FP16 tiles are computed with binary32 accumulation by default
    (emulated SHGEMM); passing ``fp16_accumulate_fp32=False`` emulates a
    pure HGEMM, which the paper notes is numerically insufficient for
    the MLE application.
    """
    if precision is Precision.FP16:
        return np.dtype(np.float32) if fp16_accumulate_fp32 else np.dtype(np.float16)
    return precision.dtype
