"""Deterministic, seed-driven fault injection (the ScaleDeep scale argument).

A 7,032-tile node built from thousands of chips (Fig 12 / Table 6) sees
tile, link and memory faults as the steady state, not the exception.
This module turns a small declarative spec into a concrete, reproducible
set of injected faults that the rest of the stack degrades around:

* **tile-dead** — a chip column's tiles are unusable; the compiler
  remaps around them (column reallocation + home-column re-election);
* **tile-slow** — a column runs at a derated throughput (process
  variation, thermal throttling); the perf model slows any pipeline
  stage whose allocation includes the column;
* **link-down** — a wheel arc or ring link is out; gradient sync and
  link-utilization models reroute the long way around;
* **dma-bitflip** — DMA transfers in the functional engine flip the
  sign bit of one transferred word at a configured rate.

Everything is a pure function of (:class:`FaultSpec`, node shape): the
sampler seeds a named RNG (``scaledeep-faults:<seed>``) and walks the
node's fault sites in a fixed order, so the same spec on the same node
always yields the same :class:`FaultMask` — in-process, across worker
processes, and across runs.

This module deliberately imports nothing from :mod:`repro.arch`,
:mod:`repro.compiler` or :mod:`repro.sim` (node configurations are
duck-typed), so every layer of the stack can depend on it without
cycles.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ConfigError


class FaultKind(enum.Enum):
    """The fault classes the subsystem can inject."""

    TILE_DEAD = "tile-dead"
    TILE_SLOW = "tile-slow"
    LINK_DOWN = "link-down"
    DMA_BITFLIP = "dma-bitflip"


#: Canonical kind order (also the sampler's draw order per site).
ALL_KINDS: Tuple[FaultKind, ...] = tuple(FaultKind)

_KIND_BY_VALUE = {k.value: k for k in FaultKind}


def parse_kinds(text: str) -> Tuple[FaultKind, ...]:
    """Parse a comma-separated kind list (``"tile-dead,link-down"``)."""
    kinds = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in _KIND_BY_VALUE:
            raise ConfigError(
                f"unknown fault kind {token!r} "
                f"(choose from: {', '.join(k.value for k in FaultKind)})"
            )
        kinds.append(_KIND_BY_VALUE[token])
    if not kinds:
        raise ConfigError(f"no fault kinds in {text!r}")
    return tuple(kinds)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault configuration (plain-dict friendly, no YAML).

    ``rate`` is the per-site fault probability; ``seed`` names the RNG
    stream; ``kinds`` selects which fault classes are drawn;
    ``slow_factor`` is the throughput fraction a tile-slow column
    retains (0.5 = half speed).
    """

    rate: float
    seed: int = 0
    kinds: Tuple[FaultKind, ...] = (FaultKind.TILE_DEAD,)
    slow_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {self.rate}")
        if not 0.0 < self.slow_factor <= 1.0:
            raise ConfigError(
                f"slow_factor must be in (0, 1], got {self.slow_factor}"
            )
        if not self.kinds:
            raise ConfigError("fault spec needs at least one kind")
        normalised = tuple(
            k for k in ALL_KINDS
            if k in {
                _KIND_BY_VALUE[x] if isinstance(x, str) else x
                for x in self.kinds
            }
        )
        object.__setattr__(self, "kinds", normalised)

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "FaultSpec":
        """Build a spec from a plain dict, with kinds as value strings
        (``{"rate": 0.02, "seed": 7, "kinds": ["tile-dead"]}``)."""
        known = {"rate", "seed", "kinds", "slow_factor"}
        unknown = set(spec) - known
        if unknown:
            raise ConfigError(
                f"unknown fault spec fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        if "rate" not in spec:
            raise ConfigError("fault spec needs a 'rate'")
        kinds_raw = spec.get("kinds")
        if kinds_raw is None:
            kinds: Tuple[FaultKind, ...] = (FaultKind.TILE_DEAD,)
        elif isinstance(kinds_raw, str):
            kinds = parse_kinds(kinds_raw)
        else:
            kinds = parse_kinds(",".join(str(k) for k in kinds_raw))
        return cls(
            rate=float(spec["rate"]),  # type: ignore[arg-type]
            seed=int(spec.get("seed", 0)),  # type: ignore[arg-type]
            kinds=kinds,
            slow_factor=float(spec.get("slow_factor", 0.5)),  # type: ignore[arg-type]
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rate": self.rate,
            "seed": self.seed,
            "kinds": [k.value for k in self.kinds],
            "slow_factor": self.slow_factor,
        }

    @property
    def rng_name(self) -> str:
        """The named RNG stream this spec draws from."""
        return f"scaledeep-faults:{self.seed}"

    def describe(self) -> str:
        kinds = ",".join(k.value for k in self.kinds)
        return f"rate {self.rate:g}, seed {self.seed}, kinds [{kinds}]"


@dataclass(frozen=True)
class Fault:
    """One injected fault at a named site."""

    kind: FaultKind
    site: str
    magnitude: float = 0.0  # slow factor / flip rate where applicable

    def describe(self) -> str:
        mag = f" ({self.magnitude:g})" if self.magnitude else ""
        return f"{self.kind.value} @ {self.site}{mag}"


@dataclass(frozen=True, eq=True)
class FaultMask:
    """The sampled fault set, indexed the way consumers need it.

    Conv/FC columns are addressed by *global* column index: conv column
    ``chip * chip_cols + col`` with chips numbered wheel-major across
    clusters; FC column ``cluster * fc_cols + col``.  Wheel arcs are
    ``(cluster, i)`` for the rim edge between chips ``i`` and ``i+1``;
    ring links are the edge between hubs ``i`` and ``i+1`` (mod n).
    """

    spec: FaultSpec
    faults: Tuple[Fault, ...]
    conv_chip_cols: int  # columns per ConvLayer chip (for site math)
    fc_chip_cols: int
    dead_conv_columns: FrozenSet[int] = frozenset()
    slow_conv_columns: Tuple[Tuple[int, float], ...] = ()
    dead_fc_columns: FrozenSet[int] = frozenset()
    slow_fc_columns: Tuple[Tuple[int, float], ...] = ()
    down_arcs: FrozenSet[Tuple[int, int]] = frozenset()
    down_ring: FrozenSet[int] = frozenset()
    dma_flip_rate: float = 0.0

    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        return len(self.faults)

    @property
    def degraded(self) -> bool:
        return bool(self.faults)

    @property
    def slow_conv(self) -> Dict[int, float]:
        return dict(self.slow_conv_columns)

    @property
    def slow_fc(self) -> Dict[int, float]:
        return dict(self.slow_fc_columns)

    def conv_speed(self, column: int) -> float:
        """Throughput factor of a global conv column (0 = dead)."""
        if column in self.dead_conv_columns:
            return 0.0
        return self.slow_conv.get(column, 1.0)

    def fc_speed(self, column: int) -> float:
        if column in self.dead_fc_columns:
            return 0.0
        return self.slow_fc.get(column, 1.0)

    @property
    def worst_cluster_down_arcs(self) -> int:
        """Down arcs in the worst-hit cluster (the reroute multiplier)."""
        per: Dict[int, int] = {}
        for cluster, _ in self.down_arcs:
            per[cluster] = per.get(cluster, 0) + 1
        return max(per.values(), default=0)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind.value] = counts.get(fault.kind.value, 0) + 1
        return counts

    def describe(self) -> str:
        lines = [
            f"fault mask ({self.spec.describe()}): "
            f"{self.fault_count} fault"
            f"{'s' if self.fault_count != 1 else ''}"
        ]
        for kind in ALL_KINDS:
            n = self.kind_counts().get(kind.value, 0)
            if n:
                sites = [
                    f.site for f in self.faults if f.kind is kind
                ]
                shown = ", ".join(sites[:8])
                if len(sites) > 8:
                    shown += f", ... (+{len(sites) - 8} more)"
                lines.append(f"  {kind.value:<11} x{n}: {shown}")
        if not self.degraded:
            lines.append("  (no faults drawn at this rate/seed)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Site naming
# ---------------------------------------------------------------------------
def conv_column_site(chip_cols: int, wheel: int, column: int) -> str:
    chip, col = divmod(column, chip_cols)
    cluster, spoke = divmod(chip, wheel)
    return f"conv/cl{cluster}/chip{spoke}/col{col}"


def fc_column_site(fc_cols: int, column: int) -> str:
    cluster, col = divmod(column, fc_cols)
    return f"fc/cl{cluster}/col{col}"


def arc_site(cluster: int, index: int, wheel: int) -> str:
    return f"arc/cl{cluster}/{index}-{(index + 1) % wheel}"


def ring_site(index: int, clusters: int) -> str:
    return f"ring/{index}-{(index + 1) % clusters}"


class FaultModel:
    """Samples a :class:`FaultMask` from a spec and a node shape.

    The node argument is duck-typed (any object with ``cluster_count``
    and a ``cluster`` exposing ``conv_chip_count`` plus ``conv_chip`` /
    ``fc_chip`` grids works), so the model composes with real
    :class:`~repro.arch.node.NodeConfig` presets and with test stubs.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    def sample(self, node) -> FaultMask:
        """Draw the fault set for ``node``, deterministically."""
        spec = self.spec
        kinds = set(spec.kinds)
        rng = random.Random(spec.rng_name)

        cluster = node.cluster
        wheel = cluster.conv_chip_count
        conv_cols = cluster.conv_chip.cols
        fc_cols = cluster.fc_chip.cols
        clusters = node.cluster_count
        total_conv = clusters * wheel * conv_cols
        total_fc = clusters * fc_cols

        faults: List[Fault] = []
        dead_conv: List[int] = []
        slow_conv: List[Tuple[int, float]] = []
        dead_fc: List[int] = []
        slow_fc: List[Tuple[int, float]] = []
        down_arcs: List[Tuple[int, int]] = []
        down_ring: List[int] = []

        def tile_draw(column: int, site: str, dead: List[int],
                      slow: List[Tuple[int, float]]) -> None:
            if FaultKind.TILE_DEAD in kinds and rng.random() < spec.rate:
                dead.append(column)
                faults.append(Fault(FaultKind.TILE_DEAD, site))
                return
            if FaultKind.TILE_SLOW in kinds and rng.random() < spec.rate:
                slow.append((column, spec.slow_factor))
                faults.append(
                    Fault(FaultKind.TILE_SLOW, site, spec.slow_factor)
                )

        if kinds & {FaultKind.TILE_DEAD, FaultKind.TILE_SLOW}:
            for column in range(total_conv):
                tile_draw(
                    column, conv_column_site(conv_cols, wheel, column),
                    dead_conv, slow_conv,
                )
            for column in range(total_fc):
                tile_draw(
                    column, fc_column_site(fc_cols, column),
                    dead_fc, slow_fc,
                )

        if FaultKind.LINK_DOWN in kinds:
            if wheel > 1:
                for c in range(clusters):
                    for i in range(wheel):
                        if rng.random() < spec.rate:
                            down_arcs.append((c, i))
                            faults.append(Fault(
                                FaultKind.LINK_DOWN, arc_site(c, i, wheel)
                            ))
            if clusters > 1:
                for i in range(clusters):
                    if rng.random() < spec.rate:
                        down_ring.append(i)
                        faults.append(Fault(
                            FaultKind.LINK_DOWN, ring_site(i, clusters)
                        ))

        flip_rate = 0.0
        if FaultKind.DMA_BITFLIP in kinds and spec.rate > 0:
            flip_rate = spec.rate
            faults.append(Fault(FaultKind.DMA_BITFLIP, "dma", spec.rate))

        return FaultMask(
            spec=spec,
            faults=tuple(faults),
            conv_chip_cols=conv_cols,
            fc_chip_cols=fc_cols,
            dead_conv_columns=frozenset(dead_conv),
            slow_conv_columns=tuple(slow_conv),
            dead_fc_columns=frozenset(dead_fc),
            slow_fc_columns=tuple(slow_fc),
            down_arcs=frozenset(down_arcs),
            down_ring=frozenset(down_ring),
            dma_flip_rate=flip_rate,
        )


def sample_faults(spec, node) -> FaultMask:
    """Convenience wrapper: ``spec`` may be a :class:`FaultSpec` or a
    plain dict (see :meth:`FaultSpec.from_dict`)."""
    if isinstance(spec, Mapping):
        spec = FaultSpec.from_dict(spec)
    if not isinstance(spec, FaultSpec):
        raise ConfigError(f"not a fault spec: {spec!r}")
    return FaultModel(spec).sample(node)
