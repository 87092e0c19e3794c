"""Tests for metrics and summaries."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.stats import (
    boxplot_summary,
    format_table,
    interval_coverage,
    mspe,
)


class TestMetrics:
    def test_mspe_zero_when_exact(self):
        z = np.arange(5.0)
        assert mspe(z, z) == 0.0

    def test_mspe_value(self):
        assert mspe([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mspe([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            mspe([], [])

    def test_coverage_perfect_prediction(self):
        z = np.zeros(100)
        se = np.ones(100)
        assert interval_coverage(z, se, z) == 1.0

    def test_coverage_calibrated_gaussian(self, rng):
        truth = rng.standard_normal(20000)
        cov = interval_coverage(np.zeros_like(truth), np.ones_like(truth), truth)
        assert cov == pytest.approx(0.95, abs=0.01)

    def test_coverage_level_bounds(self):
        with pytest.raises(ShapeError):
            interval_coverage([0.0], [1.0], [0.0], level=1.5)

class TestBoxplotSummary:
    def test_five_numbers(self):
        s = boxplot_summary(np.arange(1, 102, dtype=float))
        assert s.minimum == 1.0 and s.maximum == 101.0
        assert s.median == 51.0
        assert s.q1 == 26.0 and s.q3 == 76.0
        assert s.n == 101

    def test_covers(self):
        s = boxplot_summary(np.arange(100, dtype=float))
        assert s.covers(50.0)
        assert not s.covers(0.1)
        assert s.covers_whiskers(0.1)
        assert not s.covers_whiskers(200.0)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            boxplot_summary([])


class TestFormatTable:
    def test_renders_all_cells(self):
        out = format_table(
            ["a", "b"], [[1.23456, "x"], [2.0, "yy"]], title="T"
        )
        assert "T" in out
        assert "1.2346" in out
        assert "yy" in out

    def test_alignment_consistent(self):
        out = format_table(["col"], [[1.0], [22.0]])
        lines = out.splitlines()
        assert len({len(line) for line in lines if line}) <= 2
