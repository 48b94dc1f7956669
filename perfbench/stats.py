"""Order statistics used for every reported timing."""

from __future__ import annotations

import statistics

PERCENTILE_METHOD = "linear interpolation between closest ranks (inclusive)"


def percentile(values, p: float) -> float:
    """The p-th percentile (0 <= p <= 100) of the values, interpolating
    linearly between the two closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= p <= 100:
        raise ValueError("percentile outside [0, 100]: %r" % (p,))
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
