"""Telemetry exporters: Chrome trace-event JSON, CSV, and tables.

The Chrome trace format (one ``traceEvents`` array of objects with
``ph``/``ts``/``dur``/``pid``/``tid`` fields) loads directly in
``chrome://tracing`` and Perfetto.  Tracks map onto the pid/tid plane:
every distinct track *process* becomes a pid, every ``(process, lane)``
pair a tid, with ``M``-phase metadata events naming both.  Timestamps
are emitted in microseconds with one simulated cycle = 1 us, so the
viewer's time axis reads directly as cycles.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.telemetry.core import (
    Event,
    NullTelemetry,
    PHASE_INSTANT,
    PHASE_SPAN,
    Telemetry,
)

AnyTelemetry = Union[Telemetry, NullTelemetry]


def _track_ids(
    events: List[Event],
) -> Tuple[Dict[str, int], Dict[Tuple[str, str], int]]:
    """Stable pid per track process and tid per (process, lane)."""
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    for event in events:
        process, lane = event.track
        if process not in pids:
            pids[process] = len(pids) + 1
        if (process, lane) not in tids:
            tids[(process, lane)] = len(tids) + 1
    return pids, tids


def chrome_trace(telemetry: AnyTelemetry) -> dict:
    """Render a capture as a Chrome trace-event JSON object."""
    events = list(telemetry.events)
    pids, tids = _track_ids(events)

    trace_events: List[dict] = []
    for process, pid in pids.items():
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": process},
        })
    for (process, lane), tid in tids.items():
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": pids[process],
            "tid": tid, "args": {"name": lane},
        })

    for event in events:
        process, lane = event.track
        record = {
            "name": event.name,
            "cat": event.category,
            "ph": event.phase,
            "ts": event.ts,
            "pid": pids[process],
            "tid": tids[(process, lane)],
            "args": dict(event.args),
        }
        if event.phase == PHASE_SPAN:
            record["dur"] = event.dur
        elif event.phase == PHASE_INSTANT:
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)

    # Counters ride along as "C"-phase (counter) events under a
    # dedicated process, so Perfetto plots them as series instead of
    # dropping them from the trace.  Instrumentation sites that pass a
    # timestamp contribute a full time series (one sample per update);
    # every counter additionally gets a final sample at the end of the
    # trace so last-write-only counters still render.
    counter_rows = telemetry.counters.rows() if not isinstance(
        telemetry, NullTelemetry
    ) else []
    if counter_rows:
        counter_pid = len(pids) + 1
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": counter_pid,
            "tid": 0, "args": {"name": "counters"},
        })
        end_ts = max((e.end for e in events), default=0.0)
        samples = sorted(
            telemetry.counter_samples,
            key=lambda s: (s.group, s.name, s.ts),
        )
        for sample in samples:
            trace_events.append({
                "name": f"{sample.group}:{sample.name}", "cat": "counter",
                "ph": "C", "ts": sample.ts, "pid": counter_pid, "tid": 0,
                "args": {sample.name: sample.value},
            })
            end_ts = max(end_ts, sample.ts)
        for group, name, value in counter_rows:
            trace_events.append({
                "name": f"{group}:{name}", "cat": "counter", "ph": "C",
                "ts": end_ts, "pid": counter_pid, "tid": 0,
                "args": {name: value},
            })

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _writable(path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_chrome_trace(
    telemetry: AnyTelemetry, path: Union[str, Path]
) -> Path:
    """Write the capture as Chrome trace JSON (parent directories
    created); returns the path."""
    path = _writable(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(chrome_trace(telemetry), fh)
    return path


def counters_csv(telemetry: AnyTelemetry) -> str:
    """Flat ``group,counter,value`` CSV of every counter."""
    out = io.StringIO()
    out.write("group,counter,value\n")
    for group, name, value in telemetry.counters.rows():
        text = f"{value:.6g}" if value != int(value) else str(int(value))
        out.write(f"{group},{name},{text}\n")
    return out.getvalue()


def write_counters_csv(
    telemetry: AnyTelemetry, path: Union[str, Path]
) -> Path:
    """Write :func:`counters_csv` (parent directories created); returns
    the path."""
    path = _writable(path)
    path.write_text(counters_csv(telemetry), encoding="utf-8")
    return path


def summarize(telemetry: AnyTelemetry) -> str:
    """One-paragraph description of a capture's contents."""
    events = list(telemetry.events)
    spans = sum(1 for e in events if e.phase == PHASE_SPAN)
    instants = len(events) - spans
    categories = sorted({e.category for e in events})
    return (
        f"{len(events)} events ({spans} spans, {instants} instants) in "
        f"{len(categories)} categories "
        f"[{', '.join(categories) if categories else 'none'}], "
        f"{len(telemetry.counters)} counters"
    )
