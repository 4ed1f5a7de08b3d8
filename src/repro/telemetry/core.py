"""Telemetry core: events, counters and the injectable handle.

The simulators (the functional engine, the analytical pipeline model,
and the mapping compiler) report what they do through one narrow
interface — :class:`Telemetry` — so a single capture can hold the
instruction stream of an engine run next to the stage costs of the
analytical model, in one schema:

* a **span** is a named interval on a *track* (``ts`` .. ``ts + dur``,
  both in cycles) — an executed instruction, a pipeline stage;
* an **instant** is a point event — a tracker block, a compiler
  decision;
* a **counter** is a monotonically-maintained scalar in a named group —
  per-tile busy/stalled cycles, DMA bytes, tracker NACKs.

Tracks are ``(process, lane)`` string pairs; the Chrome-trace exporter
maps them onto pid/tid so Perfetto groups engine tiles under one
process and analytical stages under another.

Telemetry is **disabled by default**: the process-global handle is a
:class:`NullTelemetry` whose ``enabled`` flag is ``False``, and every
instrumented hot path guards on that flag before building any event, so
a disabled run pays one attribute read per instrumentation site.  Use
:func:`capture` to record a region, or :func:`set_telemetry` to install
a handle for the whole process; instrumented code reads the installed
handle through :func:`get_telemetry`.  ``repro stats``
(:func:`repro.bench.stats.collect_stats`) is the one consumer, so only
the code it runs is instrumented: the analytical model, the mapping
compiler, and the engine's compile and run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry

#: A track names the timeline an event belongs to: (process, lane).
Track = Tuple[str, str]

#: Event phases (a subset of the Chrome trace-event phases).
PHASE_SPAN = "X"  # complete event: ts + dur
PHASE_INSTANT = "i"  # point event


@dataclass(frozen=True)
class Event:
    """One recorded span or instant."""

    name: str
    category: str
    track: Track
    ts: float  # cycles
    dur: float  # cycles; 0.0 for instants
    phase: str  # PHASE_SPAN or PHASE_INSTANT
    args: Mapping[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur


class CounterRegistry:
    """Named scalar counters, organised in groups.

    Groups are free-form strings (``"tile/c0r0"``, ``"perf/AlexNet"``);
    within a group each counter has a float value.  ``add`` accumulates,
    ``record`` snapshots (idempotent across repeated flushes).
    """

    def __init__(self) -> None:
        self._groups: Dict[str, Dict[str, float]] = {}

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups.values())

    def add(self, group: str, name: str, delta: float = 1.0) -> None:
        bucket = self._groups.setdefault(group, {})
        bucket[name] = bucket.get(name, 0.0) + delta

    def record(self, group: str, name: str, value: float) -> None:
        self._groups.setdefault(group, {})[name] = float(value)

    def get(self, group: str, name: str, default: float = 0.0) -> float:
        return self._groups.get(group, {}).get(name, default)

    def group(self, group: str) -> Dict[str, float]:
        return dict(self._groups.get(group, {}))

    def groups(self) -> List[str]:
        return sorted(self._groups)

    def rows(self) -> List[Tuple[str, str, float]]:
        """Flat ``(group, name, value)`` rows, sorted for stable output."""
        return [
            (group, name, values[name])
            for group in sorted(self._groups)
            for values in (self._groups[group],)
            for name in sorted(values)
        ]

    def total(self, name: str) -> float:
        """Sum of counter ``name`` across every group that defines it."""
        return sum(
            values[name]
            for values in self._groups.values()
            if name in values
        )


@dataclass(frozen=True)
class CounterSample:
    """One timestamped sample of a counter's running value.

    Instrumented code that knows *when* a counter moved passes ``ts`` to
    :meth:`Telemetry.count` / :meth:`Telemetry.record`; the Chrome-trace
    exporter renders the samples as ``"C"``-phase counter events so the
    series plots over time in Perfetto instead of collapsing to a single
    end-of-run value."""

    ts: float  # cycles
    group: str
    name: str
    value: float  # the counter's value after this update


class NullTelemetry:
    """Null object installed by default: every operation is a no-op.

    Instrumented code checks ``telemetry.enabled`` before doing any
    per-event work, so the disabled path costs one attribute read.
    """

    enabled = False
    #: Empty views so diagnostic code can read a null handle uniformly.
    events: Tuple[Event, ...] = ()
    counter_samples: Tuple[CounterSample, ...] = ()

    @property
    def counters(self) -> CounterRegistry:
        return CounterRegistry()

    @property
    def metrics(self) -> MetricsRegistry:
        return MetricsRegistry()

    def span(self, name, category, track, ts, dur, **args) -> None:
        pass

    def instant(self, name, category, track, ts, **args) -> None:
        pass

    def count(self, group, name, delta=1.0, ts=None) -> None:
        pass

    def record(self, group, name, value, ts=None) -> None:
        pass

    def observe(self, group, name, value) -> None:
        pass

    def gauge(self, group, name, value) -> None:
        pass


class Telemetry:
    """A live capture: appends events, maintains counters and metrics."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[Event] = []
        self.counters = CounterRegistry()
        self.metrics = MetricsRegistry()
        self.counter_samples: List[CounterSample] = []

    def span(
        self,
        name: str,
        category: str,
        track: Track,
        ts: float,
        dur: float,
        **args: object,
    ) -> None:
        self.events.append(
            Event(name, category, track, float(ts), float(dur),
                  PHASE_SPAN, args)
        )

    def instant(
        self,
        name: str,
        category: str,
        track: Track,
        ts: float,
        **args: object,
    ) -> None:
        self.events.append(
            Event(name, category, track, float(ts), 0.0, PHASE_INSTANT, args)
        )

    def count(
        self,
        group: str,
        name: str,
        delta: float = 1.0,
        ts: Optional[float] = None,
    ) -> None:
        self.counters.add(group, name, delta)
        if ts is not None:
            self.counter_samples.append(
                CounterSample(
                    float(ts), group, name, self.counters.get(group, name)
                )
            )

    def record(
        self,
        group: str,
        name: str,
        value: float,
        ts: Optional[float] = None,
    ) -> None:
        self.counters.record(group, name, value)
        if ts is not None:
            self.counter_samples.append(
                CounterSample(float(ts), group, name, float(value))
            )

    def observe(self, group: str, name: str, value: float) -> None:
        """Add one observation to distribution metric ``group/name``."""
        self.metrics.observe(group, name, value)

    def gauge(self, group: str, name: str, value: float) -> None:
        """Set gauge metric ``group/name`` (last write wins)."""
        self.metrics.gauge(group, name, value)

    def events_in(self, category: str) -> List[Event]:
        return [e for e in self.events if e.category == category]


#: The shared null handle (safe to compare against with ``is``).
NULL_TELEMETRY = NullTelemetry()

_active: "NullTelemetry | Telemetry" = NULL_TELEMETRY


def get_telemetry() -> "NullTelemetry | Telemetry":
    """The process-global telemetry handle (null object when disabled)."""
    return _active


def set_telemetry(
    handle: "NullTelemetry | Telemetry | None",
) -> "NullTelemetry | Telemetry":
    """Install ``handle`` globally (None restores the null object);
    returns the previous handle so callers can restore it."""
    global _active
    previous = _active
    _active = NULL_TELEMETRY if handle is None else handle
    return previous


@contextmanager
def capture() -> Iterator[Telemetry]:
    """Record everything instrumented code emits inside the block::

        with capture() as tel:
            engine.run()
        write_chrome_trace(tel, "trace.json")
    """
    tel = Telemetry()
    previous = set_telemetry(tel)
    try:
        yield tel
    finally:
        set_telemetry(previous)
