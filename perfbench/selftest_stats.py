"""Self-tests of the benchmark's statistics (``perfbench/stats.py``).

Run with ``python -m pytest perfbench/selftest_stats.py -q`` (named so the
repository test run does not collect it).
"""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.stats import (
    MIN_BEYOND,
    PERCENTILES,
    beyond,
    compare_run_sets,
    covered,
    latency_summary,
    percentile,
    self_times,
    spread,
    supported_percentile,
    worse_by,
)

# ----------------------------------------------------------------------
# percentile selection
# ----------------------------------------------------------------------


def test_p99_needs_a_thousand_samples():
    assert beyond(1000, 99.0) == 10
    assert supported_percentile(1000) == 99.0
    assert beyond(999, 99.0) == 9
    assert supported_percentile(999) == 95.0


def test_too_few_samples_support_no_percentile():
    assert supported_percentile(20) == 50.0
    assert supported_percentile(19) is None
    assert latency_summary([])["n"] == 0


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(reversed(values), 100.0) == 100


def test_latency_summary_marks_an_unsupported_p99():
    summary = latency_summary([float(v) for v in range(250)])
    assert summary["n"] == 250
    assert summary["p99_beyond"] < MIN_BEYOND
    assert summary["supported"] == 95.0
    assert beyond(250, summary["supported"]) >= MIN_BEYOND


@given(st.integers(1, 20_000))
def test_selected_percentile_has_ten_samples_beyond(n):
    q = supported_percentile(n)
    if q is None:
        assert all(beyond(n, c) < MIN_BEYOND for c in PERCENTILES)
    else:
        assert beyond(n, q) >= MIN_BEYOND
        assert all(beyond(n, c) < MIN_BEYOND for c in PERCENTILES if c > q)


@given(st.integers(1, 20_000))
def test_selected_percentile_is_monotone_in_sample_count(n):
    lo, hi = supported_percentile(n), supported_percentile(n + 1)
    assert lo is None or (hi is not None and hi >= lo)


VALUES = st.lists(st.floats(0, 1e6), min_size=1, max_size=300)


@given(VALUES, st.sampled_from(PERCENTILES))
def test_percentile_is_an_order_statistic(values, q):
    value = percentile(values, q)
    assert value in values
    ordered = sorted(values)
    assert sum(v > value for v in ordered) <= beyond(len(values), q)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_child_coverage_once():
    spans = [
        (1, 0, "parent", 0.0, 10.0),
        (2, 1, "a", 1.0, 3.0),
        (3, 1, "b", 2.0, 5.0),  # overlaps a: [1, 5] covered once
        (4, 1, "c", 7.0, 8.0),
        (5, 3, "grandchild", 2.5, 4.0),  # covered by b, not by parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[3] == pytest.approx(3.0 - 1.5)
    assert own[5] == pytest.approx(1.5)


def test_child_outside_parent_is_clipped():
    spans = [(1, 0, "p", 0.0, 2.0), (2, 1, "late", 1.5, 9.0)]
    assert self_times(spans)[1] == pytest.approx(1.5)


INTERVAL = st.tuples(st.floats(0, 100), st.floats(0, 50)).map(
    lambda t: (t[0], t[0] + t[1])
)


@given(st.lists(INTERVAL, max_size=30), INTERVAL)
def test_self_time_is_within_duration(children, parent):
    spans = [(1, 0, "p", *parent)] + [
        (i + 2, 1, "c", a, b) for i, (a, b) in enumerate(children)
    ]
    own = self_times(spans)[1]
    duration = parent[1] - parent[0]
    assert -1e-9 <= own <= duration + 1e-9


@given(st.lists(INTERVAL, max_size=30), INTERVAL, INTERVAL)
def test_adding_a_child_never_raises_self_time(children, parent, extra):
    before = parent[1] - parent[0] - covered(children, *parent)
    after = parent[1] - parent[0] - covered(children + [extra], *parent)
    assert after <= before + 1e-9


@given(st.lists(INTERVAL, max_size=30), INTERVAL)
def test_coverage_is_idempotent(children, parent):
    assert covered(children + children, *parent) == pytest.approx(
        covered(children, *parent)
    )


# ----------------------------------------------------------------------
# run-set agreement
# ----------------------------------------------------------------------
METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]

RUNS = st.lists(st.floats(0.5, 50.0), min_size=4, max_size=12)


def run_sets():
    return st.fixed_dictionaries({m["name"]: RUNS for m in METRICS})


def test_driver_spread_rule():
    values = [10.0, 10.0, 11.0, 12.0, 12.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / median)


def test_regression_beyond_the_bound_is_flagged():
    first = {"wall_s": [10.0] * 10, "setup_s": [1.0] * 10, "rate": [100.0] * 10}
    second = {"wall_s": [12.0] * 10, "setup_s": [1.0] * 10, "rate": [80.0] * 10}
    verdicts = compare_run_sets(first, second, METRICS)
    assert not verdicts["wall_s"]["ok"]
    assert verdicts["setup_s"]["ok"]
    assert not verdicts["rate"]["ok"]
    assert worse_by(first["rate"], second["rate"], "higher") == pytest.approx(0.2)


@settings(max_examples=200)
@given(run_sets())
def test_comparison_is_idempotent(runs):
    verdicts = compare_run_sets(runs, runs, METRICS)
    for metric in METRICS:
        name, bound = metric["name"], metric["bound"]
        assert verdicts[name]["worse_by"] == 0
        within = name == "setup_s" or spread(runs[name]) <= bound
        assert verdicts[name]["ok"] == within


@settings(max_examples=200)
@given(run_sets(), run_sets(), st.floats(1.0, 3.0))
def test_comparison_is_monotone(first, second, factor):
    loose = [dict(m, bound=m["bound"] * factor) for m in METRICS]
    strict = compare_run_sets(first, second, METRICS)
    relaxed = compare_run_sets(first, second, loose)
    # Widening every bound can only turn a failing metric into a passing one.
    assert all(relaxed[n]["ok"] or not strict[n]["ok"] for n in strict)
    worse = {
        m["name"]: [
            v * factor if m["better"] == "lower" else v / factor
            for v in second[m["name"]]
        ]
        for m in METRICS
    }
    # Making every second-set value worse never makes the medians closer.
    degraded = compare_run_sets(first, worse, METRICS)
    for name in strict:
        assert degraded[name]["worse_by"] >= strict[name]["worse_by"] - 1e-12
