"""Statistics helpers for the tcsim benchmark.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with its sample count.
Percentiles use the nearest-rank definition, the one tools/analyze.cc uses
for the ledger's hold percentiles.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def rank(p, n):
    """1-based nearest rank of percentile p among n sorted samples."""
    # The tolerance keeps binary fractions such as 99.9 from rounding up.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def beyond(p, n):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(p, n)


def tail(values):
    """(p, value): the highest tail percentile with >= MIN_BEYOND samples
    beyond it, or (None, None) when there are too few samples for any."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if beyond(p, n) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None, None


def summarize(values):
    """Median, tail and sample count of one timing, as a JSON-ready dict."""
    out = {"n": len(values)}
    if values:
        out["p50"] = median(values)
        out["tail_p"], out["tail"] = tail(values)
    return out


def spread(values):
    """Inter-quartile distance as a share of the median, computed with
    statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
