"""Summary statistics and metric-name rules shared by the benchmark."""

from __future__ import annotations

import math
import re
import statistics
from fractions import Fraction

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles tried from the top down; the first with ten samples beyond it
# is the one reported.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Letters, digits, '_', '.' and '-', starting with a letter or digit,
    at most 64 characters."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def high_percentile(values):
    """The highest ladder percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: the q-th percentile of n sorted
    samples is the one at rank ceil(q/100 * n), and the samples beyond it
    are the n - rank above that rank.  Returns ``(q, value)``, or ``None``
    when even the median has fewer than ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for q in PERCENTILE_LADDER:
        rank = max(1, math.ceil(Fraction(str(q)) * n / 100))
        if n - rank >= MIN_BEYOND:
            return q, ordered[rank - 1]
    return None


def summarize(values) -> dict:
    """Median, high percentile and sample count of a list of samples."""
    high = high_percentile(values)
    return {"median": statistics.median(values),
            "high": None if high is None else {"p": high[0], "value": high[1]},
            "count": len(values)}


def format_summary(name: str, unit: str, summary: dict) -> str:
    high = summary["high"]
    high_text = ("high: none (needs >= 20 samples)" if high is None
                 else f"p{high['p']:g} {high['value']:.6g} {unit}")
    return (f"  {name:<12} median {summary['median']:.6g} {unit:<5} "
            f"{high_text}  n={summary['count']}")
