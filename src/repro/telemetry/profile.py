"""Per-tile cycle accounting and stall-cause attribution.

Both simulators report where cycles go through the same three-way
split, so one table (and one test) covers both:

* **busy** — the tile was executing (engine: instruction cycle costs;
  analytical: the stage's 2D-PE/SFU compute term);
* **blocked** — the tile was waiting on data movement or a tracker
  (engine: blocked-retry stall cycles; analytical: the link/external
  memory portion of the stage latency);
* **stalled** — the tile was idle against the pipeline beat (analytical
  model only: the bottleneck stage sets the beat, every faster stage
  idles for the difference).

For the functional engine the numbers come from the counters the engine
flushes into the telemetry registry (``tile/<id>`` groups); for the
analytical model they are derived from the per-stage
:class:`~repro.compiler.cost.StepCost` breakdown, priced per image of
one copy by the training :class:`~repro.sim.perf.Pipeline` (an FcLayer
hub serving several copies works that many images per beat), so
``busy + blocked + stalled == beat`` for every tile group by
construction.

On top of the three-way split, :func:`analytical_attribution` and
:func:`engine_attribution` refine "not busy" into a **stall-cause
taxonomy** — compute-bound, DMA-bound, tracker-blocked, link-bound,
pipeline-beat-idle — and the analytical side joins each tile group with
its layers' :class:`~repro.arch.roofline.Boundedness`, so one table
answers "where do the cycles go and what would fix it".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.telemetry.core import NullTelemetry, Telemetry


@dataclass(frozen=True)
class TileGroupProfile:
    """Cycle accounting for one group of identically-scheduled tiles."""

    group: str  # "c0r1" for an engine tile; "conv1/fp" analytically
    chip: str
    tiles: int  # CompHeavy tiles covered by this row
    busy_cycles: float
    blocked_cycles: float
    stalled_cycles: float
    #: Denominator for utilization when the group paces against a
    #: pipeline beat (analytical model); 0.0 means "use total_cycles".
    beat_cycles: float = 0.0

    @property
    def total_cycles(self) -> float:
        return self.busy_cycles + self.blocked_cycles + self.stalled_cycles

    @property
    def utilization(self) -> float:
        """busy / total (or busy / beat when a beat is set), guarded: a
        trivial or skipped tile group with zero cycles renders 0.0
        instead of raising ZeroDivisionError."""
        denominator = self.beat_cycles or self.total_cycles
        return self.busy_cycles / denominator if denominator else 0.0


def engine_tile_profile(
    telemetry: "Telemetry | NullTelemetry",
) -> List[TileGroupProfile]:
    """Per-CompHeavy-tile profile from an engine capture's counters."""
    rows: List[TileGroupProfile] = []
    for group in telemetry.counters.groups():
        if not group.startswith("tile/"):
            continue
        values = telemetry.counters.group(group)
        busy = values.get("busy_cycles", 0.0)
        blocked = values.get("stalled_cycles", 0.0)
        rows.append(
            TileGroupProfile(
                group=group[len("tile/"):],
                chip="engine",
                tiles=1,
                busy_cycles=busy,
                blocked_cycles=blocked,
                stalled_cycles=0.0,
            )
        )
    return rows


def analytical_tile_profile(result) -> List[TileGroupProfile]:
    """Per-(unit, step) tile-group profile from a :class:`PerfResult`.

    Every pipeline stage owns ``columns x rows`` CompHeavy tiles; the
    slowest stage sets the pipeline beat.  A stage's compute term is its
    busy time, the remainder of its time is blocked on data movement,
    and the gap up to the beat is pipeline stall.
    """
    node = result.mapping.node
    chips = {
        node.cluster.conv_chip.kind.value: node.cluster.conv_chip,
        node.cluster.fc_chip.kind.value: node.cluster.fc_chip,
    }
    pipeline = result.training_pipeline
    beat = pipeline.beat
    rows: List[TileGroupProfile] = []
    for stage in result.stages:
        chip = chips[stage.chip]
        cost = stage.cost
        time = pipeline.time(stage)
        busy = min(max(cost.compute_cycles, cost.sfu_cycles), stage.cycles)
        busy *= pipeline.load(stage)
        blocked = time - busy
        stalled = beat - time
        rows.append(
            TileGroupProfile(
                group=f"{stage.unit}/{stage.step.value}",
                chip=stage.chip,
                tiles=cost.columns * chip.rows,
                busy_cycles=busy,
                blocked_cycles=blocked,
                stalled_cycles=stalled,
                beat_cycles=beat,
            )
        )
    return rows


def profile_table(rows: List[TileGroupProfile], title: str):
    """Render profiles as a :class:`repro.bench.reporting.Table`."""
    from repro.bench.reporting import Table

    table = Table(
        title,
        ["tile group", "chip", "tiles", "busy", "blocked", "stalled",
         "util"],
    )
    for row in sorted(rows, key=lambda r: -r.busy_cycles):
        table.add(
            row.group, row.chip, row.tiles,
            f"{row.busy_cycles:,.0f}", f"{row.blocked_cycles:,.0f}",
            f"{row.stalled_cycles:,.0f}", f"{row.utilization:.2f}",
        )
    return table


# ---------------------------------------------------------------------------
# Stall-cause taxonomy and bottleneck attribution
# ---------------------------------------------------------------------------
class StallCause(enum.Enum):
    """Where a tile group's cycles go, refined beyond busy/blocked."""

    COMPUTE = "compute-bound"
    DMA = "dma-bound"
    TRACKER = "tracker-blocked"
    LINK = "link-bound"
    BEAT_IDLE = "pipeline-beat-idle"


#: What would recover the cycles lost to each cause — the "what would
#: fix it" column of the attribution table.
CAUSE_REMEDIES: Dict[StallCause, str] = {
    StallCause.COMPUTE: "more columns / Winograd / wider arrays",
    StallCause.DMA: "weight batching / more external bandwidth",
    StallCause.TRACKER: "finer tracker ranges / deeper double-buffering",
    StallCause.LINK: "fewer boundary crossings / wider on-chip links",
    StallCause.BEAT_IDLE: "rebalance columns toward the bottleneck stage",
}


@dataclass(frozen=True)
class StallAttribution:
    """Per-cause cycle split for one tile group, with the roofline
    verdict of the layers it serves (analytical rows only)."""

    group: str
    simulator: str  # "engine" | "analytical"
    chip: str
    cycles: Mapping[StallCause, float] = field(default_factory=dict)
    boundedness: Optional[str] = None  # Boundedness.value, if joined

    @property
    def total_cycles(self) -> float:
        return sum(self.cycles.values())

    @property
    def dominant(self) -> StallCause:
        """The cause owning the most cycles (ties break in enum order,
        so attribution is deterministic)."""
        best = StallCause.COMPUTE
        best_cycles = -1.0
        for cause in StallCause:
            value = self.cycles.get(cause, 0.0)
            if value > best_cycles:
                best, best_cycles = cause, value
        return best

    @property
    def remedy(self) -> str:
        return CAUSE_REMEDIES[self.dominant]

    def share(self, cause: StallCause) -> float:
        total = self.total_cycles
        return self.cycles.get(cause, 0.0) / total if total else 0.0


def analytical_attribution(result) -> List[StallAttribution]:
    """Stall-cause split per (unit, step) stage, joined with the
    roofline boundedness of the stage's FLOPs-dominant member layer.

    The compute term is compute-bound time; the remainder of the stage
    time splits between DMA (external memory) and on-chip links in
    proportion to their cycle terms; the gap to the pipeline beat is
    beat idle.  Times are per image of one copy, as in
    :func:`analytical_tile_profile`.
    """
    from repro.arch.roofline import chip_roofline, network_roofline
    from repro.dnn.analysis import profile as step_profile

    mapping = result.mapping
    net = mapping.network
    node = mapping.node
    chips = {
        node.cluster.conv_chip.kind.value: node.cluster.conv_chip,
        node.cluster.fc_chip.kind.value: node.cluster.fc_chip,
    }
    pipeline = result.training_pipeline
    fc_units = set(mapping.fc_allocations)

    # Per-(chip, step, batch) roofline points, computed once each.
    point_cache: Dict[tuple, Dict[str, object]] = {}

    def boundedness_of(stage) -> Optional[str]:
        alloc = (
            mapping.conv_allocations.get(stage.unit)
            or mapping.fc_allocations.get(stage.unit)
        )
        if alloc is None:
            return None
        batch = (
            max(1, mapping.fc_batch_size)
            if stage.unit in fc_units else 1
        )
        key = (stage.chip, stage.step, batch)
        if key not in point_cache:
            roofline = chip_roofline(chips[stage.chip], node.frequency_hz)
            point_cache[key] = {
                p.layer: p
                for p in network_roofline(
                    net, roofline, stage.step, node.dtype_bytes,
                    weight_reuse_batch=batch,
                )
            }
        points = point_cache[key]
        dominant, flops = None, -1.0
        for member in alloc.members:
            point = points.get(member)
            if point is None:
                continue
            member_flops = step_profile(
                net[member], stage.step, node.dtype_bytes
            ).flops
            if member_flops > flops:
                dominant, flops = point, member_flops
        return dominant.boundedness.value if dominant else None

    rows: List[StallAttribution] = []
    for stage in result.stages:
        cost = stage.cost
        time = pipeline.time(stage)
        busy = min(max(cost.compute_cycles, cost.sfu_cycles), stage.cycles)
        busy *= pipeline.load(stage)
        blocked = time - busy
        link_term = cost.comp_mem_link_cycles + cost.mem_mem_link_cycles
        dma_term = cost.ext_mem_cycles
        denominator = link_term + dma_term
        if denominator > 0.0:
            dma = blocked * dma_term / denominator
            link = blocked - dma
        else:
            dma, link = 0.0, blocked
        rows.append(
            StallAttribution(
                group=f"{stage.unit}/{stage.step.value}",
                simulator="analytical",
                chip=stage.chip,
                cycles={
                    StallCause.COMPUTE: busy,
                    StallCause.DMA: dma,
                    StallCause.LINK: link,
                    StallCause.TRACKER: 0.0,
                    StallCause.BEAT_IDLE: pipeline.beat - time,
                },
                boundedness=boundedness_of(stage),
            )
        )
    return rows


def engine_attribution(
    telemetry: "Telemetry | NullTelemetry",
) -> List[StallAttribution]:
    """Stall-cause split per engine CompHeavy tile from a capture.

    Busy cycles split between compute and DMA by the per-tile
    ``dma_cycles`` counter (cycle cost of DMALOAD/DMASTORE/PREFETCH);
    every engine stall is a tracker block by construction (the only
    blocking resource in the instruction-level model).
    """
    rows: List[StallAttribution] = []
    for group in telemetry.counters.groups():
        if not group.startswith("tile/"):
            continue
        values = telemetry.counters.group(group)
        busy = values.get("busy_cycles", 0.0)
        dma = min(values.get("dma_cycles", 0.0), busy)
        rows.append(
            StallAttribution(
                group=group[len("tile/"):],
                simulator="engine",
                chip="engine",
                cycles={
                    StallCause.COMPUTE: busy - dma,
                    StallCause.DMA: dma,
                    StallCause.TRACKER: values.get("stalled_cycles", 0.0),
                    StallCause.LINK: 0.0,
                    StallCause.BEAT_IDLE: 0.0,
                },
            )
        )
    return rows


def attribution_table(rows: List[StallAttribution], title: str):
    """Render attributions as a :class:`repro.bench.reporting.Table`:
    one row per tile group — where the cycles go and what would fix
    it."""
    from repro.bench.reporting import Table

    table = Table(
        title,
        ["tile group", "sim", "compute", "dma", "tracker", "link",
         "beat-idle", "roofline", "dominant", "what would fix it"],
    )
    for row in sorted(rows, key=lambda r: -r.total_cycles):
        table.add(
            row.group, row.simulator,
            *(f"{row.share(cause):.2f}" for cause in StallCause),
            row.boundedness or "-",
            row.dominant.value, row.remedy,
        )
    return table
