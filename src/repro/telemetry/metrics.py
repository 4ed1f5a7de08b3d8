"""Distribution metrics: gauges, streaming histograms, percentiles.

The counter registry answers "how much, in total"; this module answers
"how is it distributed" — the p50/p95/p99 view the TPU paper uses for
datacenter accounting.  A :class:`MetricsRegistry` lives next to the
:class:`~repro.telemetry.core.CounterRegistry` on every live telemetry
handle and holds two metric kinds:

* a **gauge** is a last-write-wins scalar (``train_images_per_s``);
* a **histogram** is a streaming distribution of observations
  (per-instruction cycle costs, DMA transfer sizes, stage latencies).

Histograms are **exact for small N**: observations are retained verbatim
up to :data:`HISTOGRAM_EXACT_CAP` and percentiles are computed by linear
interpolation over the sorted sample (cached between observations, so
repeated percentile queries — ``summary()`` asks for four — sort once),
bit-identical to ``numpy.percentile(..., method="linear")``.  Beyond the
cap the exact sample is dropped and percentiles come from log-spaced
buckets (:data:`BUCKETS_PER_OCTAVE` per power of two, maintained from
the first observation so the switch loses no history, with a mirrored
bucket family for negative observations), interpolated linearly within
the matched bucket.  Everything is plain deterministic float
arithmetic — no clocks, no randomness — so two captures of the same run
produce bit-identical registries.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Observations retained verbatim per histogram; beyond this the exact
#: sample is dropped and percentiles interpolate within log buckets.
HISTOGRAM_EXACT_CAP = 4096

#: Log-bucket resolution: buckets per power of two (bucket width ~19%,
#: worst-case percentile error ~9% — the SCALE-Sim fidelity-vs-speed
#: trade, applied to memory instead of time).
BUCKETS_PER_OCTAVE = 4

#: The percentiles every summary reports.
SUMMARY_PERCENTILES = (50.0, 90.0, 95.0, 99.0)


class Histogram:
    """One streaming distribution (observations of either sign).

    Maintains count/total/min/max, a dedicated bucket for zeros, and
    log-spaced magnitude buckets on each side of zero; keeps the exact
    sample alongside until :data:`HISTOGRAM_EXACT_CAP` observations.
    """

    __slots__ = ("count", "total", "min", "max", "_zeros", "_buckets",
                 "_neg_buckets", "_exact", "_sorted", "exact_cap")

    def __init__(self, exact_cap: int = HISTOGRAM_EXACT_CAP) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._zeros = 0  # observations == 0
        self._buckets: Dict[int, int] = {}  # value > 0, by log2 magnitude
        self._neg_buckets: Dict[int, int] = {}  # value < 0, by |log2| magnitude
        self._exact: Optional[List[float]] = []
        self._sorted: Optional[List[float]] = None  # cached sorted view
        self.exact_cap = exact_cap

    # -- recording -----------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            index = math.floor(math.log2(value) * BUCKETS_PER_OCTAVE)
            self._buckets[index] = self._buckets.get(index, 0) + 1
        elif value < 0.0:
            index = math.floor(math.log2(-value) * BUCKETS_PER_OCTAVE)
            self._neg_buckets[index] = self._neg_buckets.get(index, 0) + 1
        else:
            self._zeros += 1
        if self._exact is not None:
            self._sorted = None
            if len(self._exact) < self.exact_cap:
                self._exact.append(value)
            else:
                self._exact = None  # switch to bucket interpolation

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` each of ``values`` in order, in bulk: the
        histogram ends in exactly the state the one-by-one calls leave
        (the total accumulates strictly left to right, as ``+=`` does,
        and bucket indices come from the same ``math.log2``)."""
        column = np.asarray(values, dtype=np.float64)
        if not column.size:
            return
        if not np.isfinite(column).all():
            for value in column.tolist():
                self.observe(value)
            return
        self.count += column.size
        self.total = float(np.add.accumulate(
            np.concatenate(([self.total], column))
        )[-1])
        # argmin/argmax take the first of equal values, as the strict
        # comparisons in observe keep the first (0.0 before -0.0).
        low = float(column[column.argmin()])
        high = float(column[column.argmax()])
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high
        positive = column[column > 0.0]
        negative = column[column < 0.0]
        self._zeros += column.size - positive.size - negative.size
        _add_to_buckets(self._buckets, positive)
        _add_to_buckets(self._neg_buckets, -negative)
        if self._exact is not None:
            self._sorted = None
            if len(self._exact) + column.size <= self.exact_cap:
                self._exact.extend(column.tolist())
            else:
                self._exact = None

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (order-insensitive for
        every derived statistic)."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._zeros += other._zeros
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n
        for index, n in other._neg_buckets.items():
            self._neg_buckets[index] = (
                self._neg_buckets.get(index, 0) + n
            )
        self._sorted = None
        if (
            self._exact is not None
            and other._exact is not None
            and len(self._exact) + len(other._exact) <= self.exact_cap
        ):
            self._exact.extend(other._exact)
        else:
            self._exact = None

    # -- derived statistics --------------------------------------------
    @property
    def exact(self) -> bool:
        """Whether percentiles are exact (sample retained) or bucketed."""
        return self._exact is not None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100).

        Exact (sorted-sample linear interpolation) while the sample is
        retained; log-bucket interpolation beyond the size cap, clamped
        to the observed [min, max]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = (self.count - 1) * q / 100.0
        if self._exact is not None:
            if self._sorted is None:
                self._sorted = sorted(self._exact)
            ordered = self._sorted
            lo = math.floor(rank)
            hi = math.ceil(rank)
            if lo == hi:
                return ordered[lo]
            return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
        # Bucketed path: walk ranks in value order — negatives (most
        # negative first), then zeros, then positives.
        seen = 0
        for index in sorted(self._neg_buckets, reverse=True):
            n = self._neg_buckets[index]
            if rank < seen + n:
                lo_mag = _bucket_edge(index)
                hi_mag = _bucket_edge(index + 1)
                frac = (rank - seen) / n
                value = -hi_mag + (hi_mag - lo_mag) * frac
                return min(max(value, self.min), self.max)
            seen += n
        if self._zeros:
            if rank < seen + self._zeros:
                return min(max(0.0, self.min), self.max)
            seen += self._zeros
        for index in sorted(self._buckets):
            n = self._buckets[index]
            if rank < seen + n:
                lo = _bucket_edge(index)
                hi = _bucket_edge(index + 1)
                frac = (rank - seen) / n
                value = lo + (hi - lo) * frac
                return min(max(value, self.min), self.max)
            seen += n
        return self.max

    def summary(
        self, percentiles: Sequence[float] = SUMMARY_PERCENTILES
    ) -> Dict[str, float]:
        """The deterministic scalar summary used by snapshots."""
        out: Dict[str, float] = {
            "count": float(self.count),
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }
        for q in percentiles:
            label = f"p{q:g}".replace(".", "_")
            out[label] = self.percentile(q)
        return out


def _bucket_edge(index: int) -> float:
    """The magnitude ``2 ** (index / BUCKETS_PER_OCTAVE)`` where bucket
    ``index`` starts, saturated at the largest float: the top bucket,
    which holds magnitudes from ``2 ** 1023.75`` up, would end at
    ``2 ** 1024``, which overflows."""
    try:
        return 2.0 ** (index / BUCKETS_PER_OCTAVE)
    except OverflowError:
        return sys.float_info.max


def _add_to_buckets(buckets: Dict[int, int], magnitudes: np.ndarray) -> None:
    """Count positive ``magnitudes`` into their log buckets, each new
    bucket inserted in first-seen order as :meth:`Histogram.observe`
    inserts it.  ``numpy.log2`` is not bit-equal to ``math.log2``, so
    the logs come from ``math.log2``; scaling and flooring are exact."""
    if not magnitudes.size:
        return
    logs = np.fromiter(
        map(math.log2, magnitudes.tolist()), np.float64, magnitudes.size
    )
    keys, first, counts = np.unique(
        np.floor(logs * BUCKETS_PER_OCTAVE),
        return_index=True, return_counts=True,
    )
    for i in np.argsort(first).tolist():
        key = int(keys[i])
        buckets[key] = buckets.get(key, 0) + int(counts[i])


class MetricsRegistry:
    """Named gauges and histograms, organised in groups like counters."""

    def __init__(self) -> None:
        self._gauges: Dict[str, Dict[str, float]] = {}
        self._hists: Dict[str, Dict[str, Histogram]] = {}

    def __len__(self) -> int:
        return (
            sum(len(g) for g in self._gauges.values())
            + sum(len(g) for g in self._hists.values())
        )

    # -- recording -----------------------------------------------------
    def gauge(self, group: str, name: str, value: float) -> None:
        """Set gauge ``group/name`` (last write wins)."""
        self._gauges.setdefault(group, {})[name] = float(value)

    def observe(self, group: str, name: str, value: float) -> None:
        """Add one observation to histogram ``group/name``."""
        bucket = self._hists.setdefault(group, {})
        hist = bucket.get(name)
        if hist is None:
            hist = bucket[name] = Histogram()
        hist.observe(value)

    # -- access --------------------------------------------------------
    def get_gauge(self, group: str, name: str, default: float = 0.0) -> float:
        return self._gauges.get(group, {}).get(name, default)

    def histogram(self, group: str, name: str) -> Optional[Histogram]:
        return self._hists.get(group, {}).get(name)

    def groups(self) -> List[str]:
        return sorted(set(self._gauges) | set(self._hists))

    def gauges(self) -> List[Tuple[str, str, float]]:
        """Flat ``(group, name, value)`` gauge rows, sorted."""
        return [
            (group, name, self._gauges[group][name])
            for group in sorted(self._gauges)
            for name in sorted(self._gauges[group])
        ]

    def histograms(self) -> List[Tuple[str, str, Histogram]]:
        """Flat ``(group, name, histogram)`` rows, sorted."""
        return [
            (group, name, self._hists[group][name])
            for group in sorted(self._hists)
            for name in sorted(self._hists[group])
        ]

    # -- snapshots -----------------------------------------------------
    def to_dict(self) -> Dict[str, Dict]:
        """Deterministic nested snapshot: ``{group: {name: entry}}``
        where an entry is ``{"kind": "gauge", "value": v}`` or a
        ``{"kind": "histogram", ...summary...}``."""
        out: Dict[str, Dict] = {}
        for group, name, value in self.gauges():
            entry = {"kind": "gauge", "value": value}
            out.setdefault(group, {})[name] = entry
        for group, name, hist in self.histograms():
            entry = {"kind": "histogram"}
            entry.update(hist.summary())
            out.setdefault(group, {})[name] = entry
        return out


def percentile_table(
    registry: MetricsRegistry,
    title: str,
    groups: Optional[Iterable[str]] = None,
):
    """Histogram summaries as a :class:`repro.bench.reporting.Table`."""
    from repro.bench.reporting import Table

    wanted = None if groups is None else set(groups)
    table = Table(
        title,
        ["metric", "count", "mean", "p50", "p90", "p95", "p99", "max"],
    )
    for group, name, hist in registry.histograms():
        if wanted is not None and group not in wanted:
            continue
        table.add(
            f"{group}/{name}", hist.count, f"{hist.mean:,.1f}",
            f"{hist.percentile(50):,.1f}", f"{hist.percentile(90):,.1f}",
            f"{hist.percentile(95):,.1f}", f"{hist.percentile(99):,.1f}",
            f"{hist.max:,.1f}",
        )
    return table
