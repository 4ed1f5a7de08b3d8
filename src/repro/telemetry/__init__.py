"""Observability layer: counters, spans, metrics and their exporters.

Zero-overhead when disabled (the default): instrumented code guards on
the null handle's ``enabled`` flag.  Typical use::

    from repro.telemetry import capture, write_chrome_trace

    with capture() as tel:
        engine.run()
    write_chrome_trace(tel, "trace.json")
"""

from repro.telemetry.core import (
    CounterRegistry,
    CounterSample,
    Event,
    NULL_TELEMETRY,
    NullTelemetry,
    PHASE_INSTANT,
    PHASE_SPAN,
    Telemetry,
    Track,
    capture,
    get_telemetry,
    set_telemetry,
)
from repro.telemetry.metrics import (
    HISTOGRAM_EXACT_CAP,
    Histogram,
    MetricsRegistry,
    SUMMARY_PERCENTILES,
    percentile_table,
)
from repro.telemetry.export import (
    chrome_trace,
    counters_csv,
    summarize,
    write_chrome_trace,
    write_counters_csv,
)
from repro.telemetry.profile import (
    CAUSE_REMEDIES,
    StallAttribution,
    StallCause,
    TileGroupProfile,
    analytical_attribution,
    analytical_tile_profile,
    attribution_table,
    engine_attribution,
    engine_tile_profile,
    profile_table,
)

__all__ = [
    "CAUSE_REMEDIES",
    "CounterRegistry",
    "CounterSample",
    "Event",
    "HISTOGRAM_EXACT_CAP",
    "Histogram",
    "MetricsRegistry",
    "SUMMARY_PERCENTILES",
    "StallAttribution",
    "StallCause",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "PHASE_INSTANT",
    "PHASE_SPAN",
    "Telemetry",
    "TileGroupProfile",
    "Track",
    "analytical_attribution",
    "analytical_tile_profile",
    "attribution_table",
    "capture",
    "chrome_trace",
    "counters_csv",
    "engine_attribution",
    "engine_tile_profile",
    "get_telemetry",
    "percentile_table",
    "profile_table",
    "set_telemetry",
    "summarize",
    "write_chrome_trace",
    "write_counters_csv",
]
