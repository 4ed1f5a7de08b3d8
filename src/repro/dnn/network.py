"""Network graph: a DAG of layer specs with shape inference.

A :class:`Network` is an immutable, topologically-ordered DAG.  Chains
cover most of the benchmark suite; GoogLeNet (inception branches joined by
concat) and ResNet (shortcut adds) need the general DAG form.

The network caches the inferred output shape and weight count of every
layer, which the analysis, compiler and simulator all consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.dnn.layers import (
    FeatureShape,
    InputSpec,
    LayerKind,
    LayerSpec,
)
from repro.errors import TopologyError


@dataclass(frozen=True)
class LayerNode:
    """A placed layer: its spec, resolved inputs, and inferred shapes."""

    spec: LayerSpec
    input_names: Tuple[str, ...]
    input_shapes: Tuple[FeatureShape, ...]
    output_shape: FeatureShape
    weights: int

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> LayerKind:
        return self.spec.kind


class Network:
    """An immutable DNN topology.

    Parameters
    ----------
    name:
        Human-readable network name (e.g. ``"AlexNet"``).
    layers:
        Layer specs in any order that respects dependencies.
    wiring:
        Maps each non-input layer name to the names of its input layers.
        Layers missing from the mapping are chained to the previous layer
        in ``layers`` order (the common sequential case).
    """

    def __init__(
        self,
        name: str,
        layers: Sequence[LayerSpec],
        wiring: Optional[Mapping[str, Sequence[str]]] = None,
    ) -> None:
        self.name = name
        wiring = dict(wiring or {})
        if not layers:
            raise TopologyError(f"network {name!r} has no layers")

        seen: Dict[str, LayerNode] = {}
        nodes: List[LayerNode] = []
        prev_name: Optional[str] = None
        for spec in layers:
            if spec.name in seen:
                raise TopologyError(
                    f"network {name!r}: duplicate layer name {spec.name!r}"
                )
            if isinstance(spec, InputSpec):
                input_names: Tuple[str, ...] = ()
            elif spec.name in wiring:
                input_names = tuple(wiring.pop(spec.name))
            elif prev_name is not None:
                input_names = (prev_name,)
            else:
                raise TopologyError(
                    f"network {name!r}: first layer {spec.name!r} must be an "
                    "input layer"
                )
            input_shapes = []
            for src in input_names:
                if src not in seen:
                    raise TopologyError(
                        f"network {name!r}: layer {spec.name!r} consumes "
                        f"{src!r} which is not defined earlier"
                    )
                input_shapes.append(seen[src].output_shape)
            shape = spec.infer_shape(tuple(input_shapes))
            node = LayerNode(
                spec=spec,
                input_names=input_names,
                input_shapes=tuple(input_shapes),
                output_shape=shape,
                weights=spec.weight_count(tuple(input_shapes)),
            )
            seen[spec.name] = node
            nodes.append(node)
            prev_name = spec.name

        if wiring:
            raise TopologyError(
                f"network {name!r}: wiring refers to unknown layers "
                f"{sorted(wiring)}"
            )
        self._nodes: Tuple[LayerNode, ...] = tuple(nodes)
        self._by_name: Dict[str, LayerNode] = seen
        self._consumers: Dict[str, Tuple[str, ...]] = self._build_consumers()

    def _build_consumers(self) -> Dict[str, Tuple[str, ...]]:
        consumers: Dict[str, List[str]] = {n.name: [] for n in self._nodes}
        for node in self._nodes:
            for src in node.input_names:
                consumers[src].append(node.name)
        return {k: tuple(v) for k, v in consumers.items()}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[LayerNode]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, name: str) -> LayerNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise TopologyError(
                f"network {self.name!r} has no layer {name!r}"
            ) from None

    @property
    def nodes(self) -> Tuple[LayerNode, ...]:
        return self._nodes

    @property
    def input(self) -> LayerNode:
        return self._nodes[0]

    @property
    def output(self) -> LayerNode:
        return self._nodes[-1]

    def consumers(self, name: str) -> Tuple[str, ...]:
        """Names of the layers that consume ``name``'s output."""
        return self._consumers[name]

    def layers_of_kind(self, *kinds: LayerKind) -> Tuple[LayerNode, ...]:
        return tuple(n for n in self._nodes if n.kind in kinds)

    # ------------------------------------------------------------------
    # Summary statistics (paper Fig 15 columns)
    # ------------------------------------------------------------------
    def layer_counts(self) -> Dict[LayerKind, int]:
        """Number of layers of each kind."""
        counts: Dict[LayerKind, int] = {}
        for node in self._nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    @property
    def neuron_count(self) -> int:
        """Total neurons: output elements of all CONV and FC layers."""
        return sum(
            n.output_shape.elements
            for n in self._nodes
            if n.kind in (LayerKind.CONV, LayerKind.FC)
        )

    @property
    def weight_count(self) -> int:
        """Total learnable parameters."""
        return sum(n.weights for n in self._nodes)

    @property
    def connection_count(self) -> int:
        """Total connections == MACs for one forward pass (paper Fig 15)."""
        # Local import avoids a cycle: analysis imports network types.
        from repro.dnn.analysis import layer_macs

        return sum(layer_macs(n) for n in self._nodes)

    def describe(self) -> str:
        """A human-readable multi-line summary of the topology."""
        lines = [f"Network {self.name}: {len(self)} layers"]
        for node in self._nodes:
            srcs = ",".join(node.input_names) or "-"
            lines.append(
                f"  {node.name:<14} {node.kind.value:<7} "
                f"out={str(node.output_shape):<14} weights={node.weights:>12,} "
                f"<- {srcs}"
            )
        lines.append(
            f"  totals: neurons={self.neuron_count:,} "
            f"weights={self.weight_count:,} "
            f"connections={self.connection_count:,}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Network({self.name!r}, layers={len(self)})"
