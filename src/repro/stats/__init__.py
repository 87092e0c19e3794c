"""Metrics (MSPE and friends) and report summaries."""

from .metrics import interval_coverage, mspe
from .summaries import BoxplotSummary, boxplot_summary, format_table

__all__ = [
    "mspe",
    "interval_coverage",
    "boxplot_summary",
    "BoxplotSummary",
    "format_table",
]
