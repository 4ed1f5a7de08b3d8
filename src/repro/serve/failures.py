"""Failure/repair lifecycle and SLO policy for failure-aware serving.

ScaleDeep's scale argument cuts both ways: a 7,032-tile node built from
thousands of chips sees faults as the steady state, so a serving
simulation that assumes a permanently healthy node measures the wrong
tail.  This module supplies the two pieces ``repro serve --mtbf/--mttr``
layers onto the serving loop:

* **fault lifecycle** — :class:`FailureConfig` describes seeded
  MTBF/MTTR processes; :func:`sample_failure_events` turns one into a
  deterministic timeline of fault/repair :class:`FailureEvent` pairs
  (exponential inter-fault gaps at ``1/mtbf_s``, exponential repair
  durations at ``1/mttr_s``, both from one named ``random.Random``
  stream, so the same config always yields the same timeline);
* **degraded service models** — :class:`FailureLifecycle` replays that
  timeline against the multi-tenant placement: every distinct set of
  concurrently-active faults becomes a concrete
  :class:`~repro.faults.model.FaultMask`, each tenant is re-compiled
  and re-simulated against it (fault-masked compile cost → derated
  ``batch_latency_s``), and the node's clusters are re-partitioned by
  the same largest-remainder placer — so capacity loss can shift
  shares, and a tenant whose degraded capacity is truly exhausted goes
  *down* (new requests fail until repair).  Rebuilds are memoized per
  active set, so a fault that strikes and repairs repeatedly costs one
  compile.

Fault sites are sampled over the tenants' **occupied footprint** (the
column span the compiled copies actually use, plus the wheel/ring
links), not the whole node: a fault on an idle spare column is absorbed
by the remapper at zero cost and would be invisible to the service
model — chaos that can't hurt anything isn't chaos.  ``tile-slow`` is
the default kind for the same reason: a dead column remaps onto spare
capacity invisibly unless the node is capacity-starved, while a slow
column paces every stage whose allocation includes it.

:class:`SLOPolicy` (p99 target, availability target) rides along here:
:mod:`repro.serve.report` evaluates it per tenant and whole-node and
reports error-budget burn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.arch.node import NodeConfig
from repro.dnn.network import Network
from repro.errors import ConfigError, MappingError
from repro.faults.model import (
    Fault,
    FaultKind,
    FaultMask,
    FaultSpec,
    arc_site,
    conv_column_site,
    fc_column_site,
    ring_site,
)
from repro.serve.placement import NodePlacement, place_networks
from repro.sim.perf import DEFAULT_MINIBATCH, PerfResult, evaluation_pipeline

#: Fault kinds the serving lifecycle can draw.  ``dma-bitflip`` is
#: excluded: it perturbs functional-engine data, which the analytical
#: service model never observes, so it cannot degrade a serving run.
CHAOS_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.TILE_DEAD,
    FaultKind.TILE_SLOW,
    FaultKind.LINK_DOWN,
)

#: Default cap on sampled fault events per run (a backstop against a
#: pathological mtbf, not a tuning knob).
DEFAULT_MAX_FAULTS = 64

#: Error-budget burn reported when the budget is zero (availability
#: target 1.0) but failures occurred — a finite stand-in for "infinite
#: burn" that keeps JSON artifacts strict.
BURN_CAP = 1e9


@dataclass(frozen=True)
class FailureConfig:
    """The seeded failure/repair process one chaos run draws from.
    Kinds outside :data:`CHAOS_KINDS` are a :class:`ConfigError`."""

    mtbf_s: float  # mean time between fault arrivals (seconds)
    mttr_s: float  # mean time to repair one fault (seconds)
    kinds: Tuple[FaultKind, ...] = (FaultKind.TILE_SLOW,)
    seed: int = 0
    slow_factor: float = 0.5  # throughput a tile-slow column retains
    max_faults: int = DEFAULT_MAX_FAULTS

    def __post_init__(self) -> None:
        if self.mtbf_s <= 0:
            raise ConfigError(f"mtbf must be > 0 s, got {self.mtbf_s}")
        if self.mttr_s <= 0:
            raise ConfigError(f"mttr must be > 0 s, got {self.mttr_s}")
        if not self.kinds:
            raise ConfigError("failure config needs at least one kind")
        bad = [k.value for k in self.kinds if k not in CHAOS_KINDS]
        if bad:
            raise ConfigError(
                f"fault kind(s) {', '.join(bad)} cannot degrade the "
                "serving model (choose from: "
                f"{', '.join(k.value for k in CHAOS_KINDS)})"
            )
        if not 0.0 < self.slow_factor <= 1.0:
            raise ConfigError(
                f"slow_factor must be in (0, 1], got {self.slow_factor}"
            )
        if self.max_faults < 1:
            raise ConfigError(
                f"max_faults must be >= 1, got {self.max_faults}"
            )

    @property
    def rng_name(self) -> str:
        return f"scaledeep-chaos:{self.seed}"

    def describe(self) -> str:
        kinds = ",".join(k.value for k in self.kinds)
        return (
            f"mtbf {self.mtbf_s:g}s, mttr {self.mttr_s:g}s, "
            f"seed {self.seed}, kinds [{kinds}]"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "mtbf_s": self.mtbf_s,
            "mttr_s": self.mttr_s,
            "kinds": [k.value for k in self.kinds],
            "seed": self.seed,
            "slow_factor": self.slow_factor,
            "max_faults": self.max_faults,
        }


@dataclass(frozen=True)
class SLOPolicy:
    """Service-level objectives for one serving run.

    ``p99_ms`` bounds per-tenant (and whole-node) p99 request latency;
    ``availability`` is the minimum fraction of offered root requests
    that must complete (shed, timed-out and failed requests all burn
    the error budget).  Either target may be ``None`` (not enforced).
    """

    p99_ms: Optional[float] = None
    availability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.p99_ms is not None and self.p99_ms <= 0:
            raise ConfigError(
                f"slo p99 target must be > 0 ms, got {self.p99_ms}"
            )
        if self.availability is not None and not (
            0.0 < self.availability <= 1.0
        ):
            raise ConfigError(
                "slo availability target must be in (0, 1], got "
                f"{self.availability}"
            )

    @property
    def enforced(self) -> bool:
        return self.p99_ms is not None or self.availability is not None

    def error_budget_burn(self, availability: float) -> float:
        """Fraction of the error budget consumed: unavailability over
        the budget (``1 - target``).  1.0 = budget exactly spent; above
        1.0 the SLO is violated.  A zero budget (target 1.0) burns
        :data:`BURN_CAP` on any failure."""
        if self.availability is None:
            return 0.0
        unavailable = max(0.0, 1.0 - availability)
        budget = 1.0 - self.availability
        if budget <= 0.0:
            return 0.0 if unavailable <= 0.0 else BURN_CAP
        return min(unavailable / budget, BURN_CAP)

    def describe(self) -> str:
        parts = []
        if self.p99_ms is not None:
            parts.append(f"p99 <= {self.p99_ms:g}ms")
        if self.availability is not None:
            parts.append(f"availability >= {self.availability:g}")
        return ", ".join(parts) if parts else "no objectives"

    def to_dict(self) -> Dict[str, object]:
        return {"p99_ms": self.p99_ms, "availability": self.availability}


@dataclass(frozen=True)
class SiteFault:
    """One sampled fault instance: the kind, the concrete site it hit
    (structured, so the mask builder never parses site strings), and
    the lifetime identity used to correlate its repair."""

    fault_id: int
    kind: FaultKind
    domain: str  # "conv" | "fc" | "arc" | "ring"
    index: int  # global column / arc index / ring index
    cluster: int  # arc faults only (-1 otherwise)
    site: str
    magnitude: float  # slow factor for tile-slow, else 0.0

    def describe(self) -> str:
        mag = f" ({self.magnitude:g})" if self.magnitude else ""
        return f"{self.kind.value} @ {self.site}{mag}"


@dataclass(frozen=True)
class FailureEvent:
    """One lifecycle transition on the serving event heap."""

    time_s: float
    action: str  # "fault" | "repair"
    fault: SiteFault


@dataclass(frozen=True)
class _Footprint:
    """The fault-site domain: the column span the tenants' compiled
    copies occupy plus the node's wheel/ring links.

    ``slow_conv``/``slow_fc`` are the *observable* columns for
    tile-slow draws: the columns of evaluation stages whose derated time
    would actually exceed the healthy beat.  A slow column
    under a stage with more than ``1/slow_factor`` slack changes
    nothing the analytical service model can see (like a fault on an
    idle spare), so sampling there would be chaos in name only.
    Tile-dead draws keep the full occupied span — whether a dead
    column is absorbed depends on spare capacity at strike time, which
    the remapper decides."""

    conv_columns: int
    fc_columns: int
    clusters: int
    wheel: int
    conv_chip_cols: int
    fc_chip_cols: int
    slow_conv: Tuple[int, ...] = ()
    slow_fc: Tuple[int, ...] = ()

    @property
    def tile_sites(self) -> int:
        return self.conv_columns + self.fc_columns

    @property
    def slow_sites(self) -> int:
        return len(self.slow_conv) + len(self.slow_fc)

    @property
    def arc_sites(self) -> int:
        return self.clusters * self.wheel if self.wheel > 1 else 0

    @property
    def ring_sites(self) -> int:
        return self.clusters if self.clusters > 1 else 0

    @property
    def link_sites(self) -> int:
        return self.arc_sites + self.ring_sites


def _observable_slow_columns(
    results: Sequence[PerfResult], slow_factor: float
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The per-copy conv/fc columns where a tile-slow fault at
    ``slow_factor`` would lower some tenant's evaluation rate.

    Column spans are assigned sequentially per allocation (the same
    layout the mapper assigns under a fault mask), and a derated stage only
    paces the pipeline when its evaluation stage time stretched by
    ``1/slow_factor`` exceeds the healthy evaluation beat."""
    conv: set = set()
    fc: set = set()
    for result in results:
        pipeline = evaluation_pipeline(result.mapping)
        paces = {
            stage.unit for stage, time in zip(pipeline.stages, pipeline.times)
            if time / slow_factor > pipeline.beat
        }
        for table, out in (
            (result.mapping.conv_allocations, conv),
            (result.mapping.fc_allocations, fc),
        ):
            position = 0
            for name, alloc in table.items():
                span = range(position, position + alloc.columns)
                position += alloc.columns
                if name in paces:
                    out.update(span)
    return tuple(sorted(conv)), tuple(sorted(fc))


def _footprint(
    node: NodeConfig,
    results: Sequence[PerfResult],
    slow_factor: float = 0.5,
) -> _Footprint:
    cluster = node.cluster
    conv = max(
        (r.mapping.conv_columns_per_copy for r in results), default=1
    )
    fc = max(
        (
            sum(a.columns for a in r.mapping.fc_allocations.values())
            for r in results
        ),
        default=1,
    )
    slow_conv, slow_fc = _observable_slow_columns(results, slow_factor)
    return _Footprint(
        conv_columns=max(conv, 1),
        fc_columns=max(fc, 1),
        clusters=node.cluster_count,
        wheel=cluster.conv_chip_count,
        conv_chip_cols=cluster.conv_chip.cols,
        fc_chip_cols=cluster.fc_chip.cols,
        slow_conv=slow_conv,
        slow_fc=slow_fc,
    )


def _draw_site(
    rng: random.Random,
    config: FailureConfig,
    footprint: _Footprint,
    fault_id: int,
) -> Optional[SiteFault]:
    """One fault draw: pick a kind uniformly, then a site uniformly
    within that kind's domain.  Returns ``None`` when the drawn kind
    has no sites on this node (single-cluster ring, say) — the draw is
    still consumed, so the RNG stream stays aligned."""
    kind = config.kinds[rng.randrange(len(config.kinds))]
    if kind is FaultKind.TILE_SLOW and footprint.slow_sites:
        # Draw over the observable columns (see :class:`_Footprint`).
        index = rng.randrange(footprint.slow_sites)
        if index < len(footprint.slow_conv):
            column = footprint.slow_conv[index]
            site = conv_column_site(
                footprint.conv_chip_cols, footprint.wheel, column
            )
            return SiteFault(
                fault_id, kind, "conv", column, -1, site,
                config.slow_factor,
            )
        column = footprint.slow_fc[index - len(footprint.slow_conv)]
        site = fc_column_site(footprint.fc_chip_cols, column)
        return SiteFault(
            fault_id, kind, "fc", column, -1, site, config.slow_factor
        )
    if kind in (FaultKind.TILE_DEAD, FaultKind.TILE_SLOW):
        column = rng.randrange(footprint.tile_sites)
        magnitude = (
            config.slow_factor if kind is FaultKind.TILE_SLOW else 0.0
        )
        if column < footprint.conv_columns:
            site = conv_column_site(
                footprint.conv_chip_cols, footprint.wheel, column
            )
            return SiteFault(
                fault_id, kind, "conv", column, -1, site, magnitude
            )
        column -= footprint.conv_columns
        site = fc_column_site(footprint.fc_chip_cols, column)
        return SiteFault(fault_id, kind, "fc", column, -1, site, magnitude)
    # link-down
    if footprint.link_sites == 0:
        rng.randrange(1)  # consume the site draw regardless
        return None
    index = rng.randrange(footprint.link_sites)
    if index < footprint.arc_sites:
        cluster, arc = divmod(index, footprint.wheel)
        site = arc_site(cluster, arc, footprint.wheel)
        return SiteFault(
            fault_id, FaultKind.LINK_DOWN, "arc", arc, cluster, site, 0.0
        )
    index -= footprint.arc_sites
    site = ring_site(index, footprint.clusters)
    return SiteFault(
        fault_id, FaultKind.LINK_DOWN, "ring", index, -1, site, 0.0
    )


def sample_failure_events(
    config: FailureConfig,
    duration_s: float,
    footprint: _Footprint,
) -> Tuple[FailureEvent, ...]:
    """The deterministic fault/repair timeline for one run.

    Fault arrivals are a Poisson process at rate ``1/mtbf_s`` over the
    offered window; each fault's repair completes an exponential
    ``Exp(1/mttr_s)`` later (possibly past the window — the run keeps
    draining, so late repairs still fire).  Each fault's repair
    duration is drawn immediately after its site, so inserting or
    removing one event never shifts the rest of the stream.
    """
    if duration_s <= 0:
        raise ConfigError(f"duration must be > 0, got {duration_s}")
    rng = random.Random(config.rng_name)
    events: List[FailureEvent] = []
    now = 0.0
    for fault_id in range(config.max_faults):
        now += rng.expovariate(1.0 / config.mtbf_s)
        if now >= duration_s:
            break
        site = _draw_site(rng, config, footprint, fault_id)
        repair_after = rng.expovariate(1.0 / config.mttr_s)
        if site is None:
            continue
        events.append(FailureEvent(now, "fault", site))
        events.append(FailureEvent(now + repair_after, "repair", site))
    events.sort(key=lambda e: (e.time_s, e.fault.fault_id, e.action))
    return tuple(events)


@dataclass(frozen=True)
class RebuiltService:
    """The service state after one lifecycle transition: the placement
    over the tenants that still fit (``None`` when nothing fits) and
    the tenants that are down until the next repair."""

    placement: Optional[NodePlacement]
    down: FrozenSet[str]

    def tenant(self, network: str):
        if self.placement is None or network in self.down:
            return None
        return self.placement.tenant(network)


class FailureLifecycle:
    """Replays a :class:`FailureConfig` against a multi-tenant serving
    placement, producing per-transition degraded service models.

    Construction compiles the healthy baseline (through the
    content-keyed cache) and samples the event timeline; the serving
    loop then calls :meth:`rebuild` at each transition with the set of
    currently-active faults.  Rebuilds are pure functions of the active
    set and are memoized, so repeated strike/repair cycles of the same
    fault cost one compile.
    """

    def __init__(
        self,
        config: FailureConfig,
        networks: Sequence[Network],
        node: NodeConfig,
        minibatch: int = DEFAULT_MINIBATCH,
        duration_s: float = 1.0,
    ) -> None:
        from repro.sweep.cache import cached_simulation

        self.config = config
        self.networks = list(networks)
        self.node = node
        self.minibatch = minibatch
        healthy = [
            cached_simulation(net, node, minibatch) for net in networks
        ]
        self.placement = place_networks(networks, node, results=healthy)
        self.footprint = _footprint(node, healthy, config.slow_factor)
        self.events = sample_failure_events(
            config, duration_s, self.footprint
        )
        self._rebuilt: Dict[FrozenSet[int], RebuiltService] = {
            frozenset(): RebuiltService(self.placement, frozenset())
        }
        self._by_id = {
            e.fault.fault_id: e.fault for e in self.events
        }

    def fault(self, fault_id: int) -> SiteFault:
        return self._by_id[fault_id]

    def _mask(self, active: Sequence[SiteFault]) -> FaultMask:
        dead_conv: List[int] = []
        slow_conv: List[Tuple[int, float]] = []
        dead_fc: List[int] = []
        slow_fc: List[Tuple[int, float]] = []
        down_arcs: List[Tuple[int, int]] = []
        down_ring: List[int] = []
        faults: List[Fault] = []
        for site in active:
            faults.append(Fault(site.kind, site.site, site.magnitude))
            if site.kind is FaultKind.TILE_DEAD:
                (dead_conv if site.domain == "conv" else dead_fc).append(
                    site.index
                )
            elif site.kind is FaultKind.TILE_SLOW:
                slot = (site.index, site.magnitude)
                (slow_conv if site.domain == "conv" else slow_fc).append(
                    slot
                )
            elif site.domain == "arc":
                down_arcs.append((site.cluster, site.index))
            else:
                down_ring.append(site.index)
        spec = FaultSpec(
            rate=0.0,
            seed=self.config.seed,
            kinds=self.config.kinds,
            slow_factor=self.config.slow_factor,
        )
        return FaultMask(
            spec=spec,
            faults=tuple(faults),
            conv_chip_cols=self.footprint.conv_chip_cols,
            fc_chip_cols=self.footprint.fc_chip_cols,
            dead_conv_columns=frozenset(dead_conv),
            slow_conv_columns=tuple(sorted(set(slow_conv))),
            dead_fc_columns=frozenset(dead_fc),
            slow_fc_columns=tuple(sorted(set(slow_fc))),
            down_arcs=frozenset(down_arcs),
            down_ring=frozenset(down_ring),
        )

    def rebuild(self, active_ids: FrozenSet[int]) -> RebuiltService:
        """The service state with ``active_ids`` faults live: degraded
        placement plus the set of down tenants (memoized)."""
        cached = self._rebuilt.get(active_ids)
        if cached is not None:
            return cached
        from repro.compiler.pipeline import compile_network
        from repro.sim.perf import simulate

        active = [self.fault(i) for i in sorted(active_ids)]
        mask = self._mask(active)
        alive: List[Network] = []
        results: List[PerfResult] = []
        down: List[str] = []
        for net in self.networks:
            try:
                mapping = compile_network(
                    net, self.node, faults=mask
                ).mapping
                results.append(
                    simulate(net, self.node, self.minibatch, mapping=mapping)
                )
                alive.append(net)
            except MappingError:
                # Degraded capacity genuinely cannot host this tenant:
                # it is down until a repair shrinks the active set.
                down.append(net.name)
        service: RebuiltService
        if not alive:
            service = RebuiltService(None, frozenset(down))
        else:
            try:
                placement = place_networks(
                    alive, self.node, results=results
                )
                service = RebuiltService(placement, frozenset(down))
            except ConfigError:
                # The survivors' minimum spans no longer co-fit.
                service = RebuiltService(
                    None, frozenset(n.name for n in self.networks)
                )
        self._rebuilt[active_ids] = service
        return service


@dataclass(frozen=True)
class DegradedInterval:
    """One contiguous window with at least one fault active."""

    start_s: float
    end_s: float
    max_active: int  # most concurrently-active faults in the window
    sites: Tuple[str, ...]  # every site that was live during it

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "max_active": self.max_active,
            "sites": list(self.sites),
        }

    def describe(self) -> str:
        return (
            f"degraded {self.start_s:.4f}s-{self.end_s:.4f}s "
            f"({self.duration_s:.4f}s, up to {self.max_active} "
            f"fault(s): {', '.join(self.sites)})"
        )
