"""Tests for the precision ladder."""

import numpy as np
import pytest

from repro.tile.precision import (
    PRECISION_LADDER,
    Precision,
    cast_storage,
    compute_dtype,
)


class TestPrecision:
    def test_ordering(self):
        assert Precision.FP16 < Precision.FP32 < Precision.FP64

    def test_ladder_least_accurate_first(self):
        assert PRECISION_LADDER == (
            Precision.FP16,
            Precision.FP32,
            Precision.FP64,
        )

    def test_dtypes(self):
        assert Precision.FP64.dtype == np.float64
        assert Precision.FP32.dtype == np.float32
        assert Precision.FP16.dtype == np.float16

    def test_unit_roundoffs(self):
        assert Precision.FP64.unit_roundoff == 2.0**-53
        assert Precision.FP32.unit_roundoff == 2.0**-24
        assert Precision.FP16.unit_roundoff == 2.0**-11

    def test_itemsizes(self):
        assert [p.itemsize for p in PRECISION_LADDER] == [2, 4, 8]

    def test_labels(self):
        assert Precision.FP32.label == "FP32"

    def test_from_any_string(self):
        assert Precision.from_any("fp32") is Precision.FP32
        assert Precision.from_any("16") is Precision.FP16

    def test_from_any_int_and_dtype(self):
        assert Precision.from_any(64) is Precision.FP64
        assert Precision.from_any(np.dtype(np.float16)) is Precision.FP16

    def test_from_any_rejects_garbage(self):
        with pytest.raises(ValueError):
            Precision.from_any("fp128")


class TestCastStorage:
    def test_noop_same_dtype(self):
        a = np.ones(4, dtype=np.float64)
        assert cast_storage(a, Precision.FP64) is a

    def test_rounds_to_fp16(self):
        a = np.array([1.0 + 2.0**-12])
        out = cast_storage(a, Precision.FP16)
        assert out.dtype == np.float16
        assert float(out[0]) == 1.0  # rounded away

    def test_roundoff_bound(self, rng):
        """Relative rounding error bounded by the unit roundoff."""
        a = rng.uniform(0.5, 2.0, size=1000)
        for p in (Precision.FP16, Precision.FP32):
            err = np.abs(cast_storage(a, p).astype(np.float64) - a) / a
            assert err.max() <= p.unit_roundoff

    def test_overflow_is_a_typed_error_not_a_warning(self):
        """A finite value the format cannot hold must not become a
        silent ``inf`` (pytest turns the bare RuntimeWarning it used
        to emit into an error, see pyproject.toml)."""
        from repro.exceptions import NumericalCorruptionError

        with pytest.raises(NumericalCorruptionError, match="FP16"):
            cast_storage(np.array([1.0, 7.0e4]), Precision.FP16)
        with pytest.raises(NumericalCorruptionError, match="FP32"):
            cast_storage(np.array([1.0e39]), Precision.FP32)
        # Non-finite input is not an overflow: it passes through.
        out = cast_storage(np.array([np.inf, np.nan, 65504.0]), Precision.FP16)
        assert np.isinf(out[0]) and np.isnan(out[1]) and out[2] == 65504.0


class TestComputeDtype:
    def test_fp16_accumulates_fp32(self):
        assert compute_dtype(Precision.FP16) == np.float32

    def test_pure_hgemm_option(self):
        assert (
            compute_dtype(Precision.FP16, fp16_accumulate_fp32=False)
            == np.float16
        )

    def test_identity_for_others(self):
        assert compute_dtype(Precision.FP64) == np.float64
        assert compute_dtype(Precision.FP32) == np.float32
