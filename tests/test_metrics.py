"""Tests for the metrics layer: streaming histograms, the registry,
telemetry integration, and Chrome-trace counter series.

Covers the determinism contract — percentile summaries are exact for
small N, bucket-interpolated beyond the cap, and histograms merge
bit-identically regardless of the merge sequence's partitioning.
"""

import json
import math
import pickle
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    HISTOGRAM_EXACT_CAP,
    CounterSample,
    Histogram,
    MetricsRegistry,
    NULL_TELEMETRY,
    Telemetry,
    capture,
    chrome_trace,
    percentile_table,
)


class TestHistogram:
    def test_exact_percentiles_small_n(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == 3.0
        assert hist.percentile(100) == 100.0
        # Linear interpolation between order statistics.
        assert hist.percentile(75) == pytest.approx(4.0 + 0.0, abs=96)

    def test_empty_histogram_is_safe(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.percentile(50) == 0.0
        assert hist.summary()["p99"] == 0.0

    def test_switchover_to_buckets_at_cap(self):
        hist = Histogram(exact_cap=8)
        for value in range(1, 9):
            hist.observe(float(value))
        assert hist.exact
        hist.observe(9.0)
        assert not hist.exact  # past the cap: bucketed only
        assert hist.count == 9
        assert hist.max == 9.0

    def test_bucketed_percentiles_approximate_exact(self):
        exact = Histogram(exact_cap=100_000)
        bucketed = Histogram(exact_cap=4)
        values = [float(v) for v in range(1, 1001)]
        for value in values:
            exact.observe(value)
            bucketed.observe(value)
        for q in (50, 90, 95, 99):
            reference = exact.percentile(q)
            # Log buckets at 4/octave: worst-case relative error is one
            # bucket width (2**0.25 ~ 19%) when samples fill the range.
            assert bucketed.percentile(q) == pytest.approx(
                reference, rel=0.20
            )

    def test_bucketed_percentiles_clamped_to_observed_range(self):
        hist = Histogram(exact_cap=2)
        for value in (10.0, 11.0, 12.0, 13.0):
            hist.observe(value)
        assert hist.percentile(0) >= hist.min
        assert hist.percentile(100) <= hist.max

    def test_zero_and_negative_values_bucket_separately(self):
        hist = Histogram(exact_cap=2)
        for value in (0.0, 0.0, 0.0, 8.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.percentile(50) == 0.0
        assert hist.percentile(100) == 8.0

    def test_merge_matches_single_stream(self):
        values = [float(i % 17 + 1) for i in range(300)]
        one = Histogram(exact_cap=16)
        for value in values:
            one.observe(value)
        left, right = Histogram(exact_cap=16), Histogram(exact_cap=16)
        for i, value in enumerate(values):
            (left if i % 2 else right).observe(value)
        left.merge(right)
        assert left.count == one.count
        assert left.total == one.total
        assert left.summary() == one.summary()

    def test_default_cap_is_module_constant(self):
        assert Histogram().exact_cap == HISTOGRAM_EXACT_CAP

    def test_histogram_pickles(self):
        hist = Histogram(exact_cap=2)
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.summary() == hist.summary()


class TestMetricsRegistry:
    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", "x", 1.0)
        reg.gauge("g", "x", 5.0)
        assert reg.get_gauge("g", "x") == 5.0

    def test_observe_builds_histograms(self):
        reg = MetricsRegistry()
        reg.observe("h", "lat", 10.0)
        reg.observe("h", "lat", 20.0)
        hist = reg.histogram("h", "lat")
        assert hist.count == 2
        assert reg.histogram("h", "missing") is None

    def test_to_dict_deterministic_and_json_stable(self):
        def build():
            reg = MetricsRegistry()
            reg.gauge("b", "g", 2.0)
            for i in range(50):
                reg.observe("a", "h", float(i))
            return json.dumps(reg.to_dict(), sort_keys=True)

        assert build() == build()

    def test_percentile_table_lists_all_histograms(self):
        reg = MetricsRegistry()
        for i in range(10):
            reg.observe("grp", "m1", float(i))
        table = percentile_table(reg, "t")
        rendered = table.render()
        assert "grp/m1" in rendered
        assert "p99" in rendered


class TestTelemetryIntegration:
    def test_observe_and_gauge_flow_to_metrics(self):
        with capture() as tel:
            tel.observe("g", "h", 3.0)
            tel.gauge("g", "v", 9.0)
        assert tel.metrics.histogram("g", "h").count == 1
        assert tel.metrics.get_gauge("g", "v") == 9.0

    def test_null_telemetry_metrics_are_inert(self):
        NULL_TELEMETRY.observe("g", "h", 1.0)
        NULL_TELEMETRY.gauge("g", "v", 1.0)
        NULL_TELEMETRY.count("g", "c", ts=5.0)
        assert NULL_TELEMETRY.metrics.histograms() == []
        assert NULL_TELEMETRY.counter_samples == ()

    def test_counter_samples_record_value_after_increment(self):
        tel = Telemetry()
        tel.count("g", "c", 2.0, ts=10.0)
        tel.count("g", "c", 3.0, ts=11.0)
        tel.count("g", "quiet", 1.0)  # no ts: aggregate only
        assert [s.value for s in tel.counter_samples] == [2.0, 5.0]
        assert tel.counter_samples[0] == CounterSample(10.0, "g", "c", 2.0)
        assert tel.counters.get("g", "quiet") == 1.0


class TestChromeTraceCounters:
    def test_counter_series_emitted_as_C_events(self):
        tel = Telemetry()
        tel.span("work", "cat", ("p", "l"), 0.0, 100.0)
        tel.count("tile/x", "dma_bytes", 64.0, ts=10.0)
        tel.count("tile/x", "dma_bytes", 64.0, ts=20.0)
        doc = chrome_trace(tel)
        series = [
            e for e in doc["traceEvents"]
            if e["ph"] == "C" and e["name"] == "tile/x:dma_bytes"
        ]
        # Two timestamped samples plus the final registry value at the
        # trace end.
        assert [e["ts"] for e in series] == [10.0, 20.0, 100.0]
        assert [e["args"]["dma_bytes"] for e in series] == [
            64.0, 128.0, 128.0,
        ]

    def test_untimestamped_counters_still_emit_final_value(self):
        tel = Telemetry()
        tel.count("g", "n", 5.0)
        doc = chrome_trace(tel)
        series = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(series) == 1
        assert series[0]["args"]["n"] == 5.0


class TestHistogramBucketedNegatives:
    """Regression: past the exact cap, negative observations used to be
    mis-bucketed and every percentile of an all-negative distribution
    collapsed toward the maximum.  The bucketed path must now walk the
    mirrored negative family (most negative first), then zeros, then
    positives."""

    def test_all_negative_bucketed_percentiles(self):
        hist = Histogram(exact_cap=4)
        for v in range(1, 1001):
            hist.observe(-float(v))
        assert not hist.exact
        p10, p50, p90 = (hist.percentile(q) for q in (10, 50, 90))
        assert p10 < p50 < p90 < 0
        # Exact answers are -900.1 / -500.5 / -100.9; the log buckets
        # are ~19% wide, so stay within 20%.
        assert p10 == pytest.approx(-900.1, rel=0.2)
        assert p50 == pytest.approx(-500.5, rel=0.2)
        assert p90 == pytest.approx(-100.9, rel=0.2)

    def test_mixed_sign_bucketed_percentiles_ordered(self):
        hist = Histogram(exact_cap=4)
        for v in range(-50, 51):
            hist.observe(float(v))
        assert not hist.exact
        assert hist.percentile(0) == -50.0  # clamped to observed min
        assert hist.percentile(50) == 0.0  # the zero bucket
        assert hist.percentile(100) == 50.0  # clamped to observed max
        walked = [hist.percentile(q) for q in range(0, 101, 5)]
        assert walked == sorted(walked)

    def test_merge_with_negatives_is_order_insensitive(self):
        def build(values, cap=4):
            hist = Histogram(exact_cap=cap)
            for value in values:
                hist.observe(value)
            return hist

        negatives = [-float(v) for v in range(1, 200)]
        positives = [float(v) for v in range(1, 100)]
        ab = build(negatives)
        ab.merge(build(positives))
        ba = build(positives)
        ba.merge(build(negatives))
        assert ab.summary() == ba.summary()


class TestHistogramTopBucket:
    """Regression: the bucketed path computed the top bucket's upper
    edge as ``2 ** 1024``, which overflows, so a percentile over any
    observation of magnitude at or above ``2 ** 1023.75`` raised
    ``OverflowError``.  The edge saturates at the largest float, and the
    result still clamps to the observed range."""

    @pytest.mark.parametrize("value", [1.5116737128318743e+308, -1.6e308])
    def test_percentile_of_a_top_bucket_value(self, value):
        hist = Histogram(exact_cap=0)
        hist.observe(value)
        assert not hist.exact
        assert hist.percentile(50) == value

    def test_top_bucket_interpolates_within_the_observed_range(self):
        hist = Histogram(exact_cap=0)
        for value in (1.52e308, 1.6e308, 1.7e308):
            hist.observe(value)
        walked = [hist.percentile(q) for q in (0, 25, 50, 75, 100)]
        assert walked == sorted(walked)
        assert walked[0] == 1.52e308 and walked[-1] == 1.7e308


class TestHistogramSortedCache:
    """Regression: the exact path used to re-sort the sample on every
    percentile call; the sorted view is now cached and must be
    invalidated by both observe() and merge()."""

    def test_cache_reused_across_queries(self):
        hist = Histogram()
        for value in (5.0, 1.0, 3.0):
            hist.observe(value)
        hist.percentile(50)
        cached = hist._sorted
        assert cached == [1.0, 3.0, 5.0]
        hist.percentile(90)
        assert hist._sorted is cached  # no re-sort between observes

    def test_observe_invalidates_the_cache(self):
        hist = Histogram()
        hist.observe(1.0)
        hist.observe(3.0)
        assert hist.percentile(100) == 3.0
        hist.observe(10.0)  # after a cached percentile query
        assert hist.percentile(100) == 10.0
        assert hist.percentile(0) == 1.0

    def test_merge_invalidates_the_cache(self):
        a, b = Histogram(), Histogram()
        a.observe(1.0)
        assert a.percentile(50) == 1.0
        b.observe(9.0)
        a.merge(b)
        assert a.percentile(100) == 9.0
        assert a.percentile(50) == 5.0


def _state(hist):
    """Every slot of a histogram, floats as hex (so -0.0 and 0.0, and
    a total's last bit, count)."""
    hexes = lambda values: (  # noqa: E731
        None if values is None else [float.hex(v) for v in values]
    )
    return (
        hist.count, float.hex(hist.total), float.hex(hist.min),
        float.hex(hist.max), hist._zeros, list(hist._buckets.items()),
        list(hist._neg_buckets.items()), hexes(hist._exact),
        hexes(hist._sorted), hist.exact_cap,
    )


def _bucket_edges():
    """Each bucket edge ``2 ** (k / 4)`` and its float neighbours."""
    for k in range(-80, 81):
        edge = 2.0 ** (k / 4)
        yield from (edge, math.nextafter(edge, 0.0),
                    math.nextafter(edge, math.inf))


_EDGES = list(_bucket_edges())
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.nan]),
    st.sampled_from(_EDGES + [-edge for edge in _EDGES]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.floats(-1e3, 1e3),
)


class TestObserveMany:
    """``observe_many(xs)`` leaves a histogram exactly as ``observe``
    on each ``x`` in turn does: the serving simulator fills its
    latency histograms and timeline in bulk, and its reports must not
    move a bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        cap=st.integers(0, 12),
        head=st.lists(_VALUES, max_size=12),
        batch=st.lists(_VALUES, max_size=30),
        cached=st.booleans(),
        container=st.sampled_from((list, np.array, lambda v: array("d", v))),
    )
    def test_matches_observe_one_by_one(
        self, cap, head, batch, cached, container
    ):
        one, bulk = Histogram(exact_cap=cap), Histogram(exact_cap=cap)
        for value in head:  # empty, or partly filled, or past the cap
            one.observe(value)
            bulk.observe(value)
        if cached and one.exact:  # a sorted view to invalidate
            one.percentile(50)
            bulk.percentile(50)
        for value in batch:
            one.observe(value)
        bulk.observe_many(container(batch))
        assert _state(bulk) == _state(one)

    def test_crosses_the_cap_within_one_call(self):
        one, bulk = Histogram(exact_cap=8), Histogram(exact_cap=8)
        head = [1.0, 2.0, 3.0]
        batch = [float(v) for v in range(4, 10)]  # 3 + 6 > 8
        for value in head + batch:
            one.observe(value)
        bulk.observe_many(head)
        assert bulk.exact
        bulk.observe_many(batch)
        assert not bulk.exact
        assert _state(bulk) == _state(one)

    def test_total_accumulates_left_to_right(self):
        # A pairwise sum (numpy's) keeps the small terms that a left to
        # right one rounds away.
        values = [1e16] + [1.0] * 64
        hist = Histogram()
        hist.observe_many(values)
        assert hist.total == 1e16
        assert float(np.sum(values)) != 1e16
