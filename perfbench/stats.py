"""Statistics of the benchmark: percentiles, span self time, run-set checks.

Stdlib only, so the self-tests run without the package under test.
"""

from __future__ import annotations

import math
import statistics

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Percentiles a timing may be reported at, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` (0 < q <= 100) among ``n``."""
    if n < 1:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(q / 100.0 * n - 1e-9)))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values``."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest rank of ``q`` among ``n``."""
    return n - rank(n, q)


def supported_percentile(n: int, candidates=PERCENTILES, min_beyond=MIN_BEYOND):
    """Highest candidate percentile with ``min_beyond`` samples above it.

    ``None`` when even the lowest candidate lacks them.
    """
    for q in sorted(candidates, reverse=True):
        if n >= 1 and beyond(n, q) >= min_beyond:
            return q
    return None


def latency_summary(values) -> dict:
    """Median and p99 of a latency sample, with the support behind each.

    ``p99_beyond`` below :data:`MIN_BEYOND` marks a p99 that rests on
    too few samples; ``supported`` then names the highest percentile
    that does not, and ``supported_value`` its value.
    """
    n = len(values)
    if n == 0:
        return {"n": 0}
    q = supported_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "p99": percentile(values, 99.0),
        "p99_beyond": beyond(n, 99.0),
        "supported": q,
        "supported_value": percentile(values, q) if q is not None else None,
    }


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Self time of every span: duration minus what its children cover.

    ``spans`` are ``(span_id, parent_id, name, start, end)`` tuples;
    returns ``{span_id: self_time}``.  Children that overlap each other
    (concurrent tasks under one parent) are counted once.
    """
    children: dict = {}
    for span_id, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _parent, _name, start, end in spans
    }


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    values = list(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def worse_by(first, second, better: str) -> float:
    """How much worse the median of ``second`` is than that of ``first``.

    A share of the first median; negative when ``second`` is better.
    """
    m1 = statistics.median(first)
    m2 = statistics.median(second)
    if m1 == 0:
        return 0.0 if m2 == m1 else math.inf
    delta = (m2 - m1) if better == "lower" else (m1 - m2)
    return delta / abs(m1)


def compare_run_sets(first: dict, second: dict, metrics) -> dict:
    """Do two sets of runs of the same code agree within the bounds?

    ``first`` and ``second`` map metric name to the list of values of
    one set of runs; ``metrics`` are the ``end_to_end`` entries of
    BENCHMARK.json.  A metric agrees when the spread of each set stays
    within its bound (``setup_s`` exempt) and the second median is not
    worse than the first by more than the bound.  Returns
    ``{name: {"spread": [s1, s2], "worse_by": w, "ok": bool}}``.
    """
    verdicts = {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a, b = first[name], second[name]
        spreads = [spread(a), spread(b)]
        worse = worse_by(a, b, metric["better"])
        ok = worse <= bound and (
            name == "setup_s" or all(s <= bound for s in spreads)
        )
        verdicts[name] = {"spread": spreads, "worse_by": worse, "ok": ok}
    return verdicts
