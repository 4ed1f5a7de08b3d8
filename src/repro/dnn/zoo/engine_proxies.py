"""Engine-scale proxies for the Fig 15 benchmark suite.

The functional engine executes one tile's scratchpad-resident state at a
time, and the full-size ILSVRC networks do not fit: AlexNet's conv1
alone produces 145,200 output words against a 131,072-word scratchpad.
Historically ``validate_zoo`` simply skipped everything above
``ENGINE_WEIGHT_LIMIT``, leaving most of the suite functionally
unvalidated.

This module shrinks each benchmark into an *engine proxy*: the same
topology — every branch, join, grouped convolution, padded pool and
activation of the original, in the original wiring — with channel
counts divided by a per-net factor and a smaller input plane, chosen so
the whole network fits on the engine mesh.  Functional validation is a
topology/lowering property, not a capacity property: a proxy exercises
exactly the same instruction templates, tracker plans and superop
fusion spans as its parent, so an engine-vs-reference match on the
proxy validates the lowering for the full network.

``engine_proxy(name)`` returns the proxy for a canonical benchmark
name; networks that already fit the engine validate as themselves.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from repro.dnn.layers import ConvSpec, FCSpec, FeatureShape, LayerKind, SliceSpec
from repro.dnn.network import Network
from repro.errors import MappingError

#: Per-benchmark (channel divisor, input edge) — tuned so every proxy
#: compiles and engine-executes in well under a second.  Input edges
#: respect each family's stride/pool chain (e.g. AlexNet's 11x11/4 stem
#: followed by three 3x3/2 pools needs >= 75 px to keep every pool
#: window inside its input).
PROXY_PARAMS: Dict[str, Tuple[int, int]] = {
    "AlexNet": (16, 79),
    "ZF": (16, 80),
    "CNN-S": (16, 80),
    "OF-Fast": (8, 75),
    "OF-Acc": (16, 78),
    "GoogLeNet": (8, 64),
    "ResNet18": (8, 64),
    "ResNet34": (8, 64),
    "VGG-A": (16, 64),
    "VGG-D": (16, 64),
    "VGG-E": (16, 64),
    "NiN": (8, 79),
}


def shrink_for_engine(
    net: Network, channel_div: int, input_size: int
) -> Network:
    """Rebuild ``net`` with channels divided by ``channel_div`` and an
    ``input_size``-pixel input plane, preserving the topology exactly.

    Channel counts round up to a multiple of the largest group count in
    the network, so grouped convolutions stay divisible on both sides;
    branches with equal widths shrink to equal widths (element-wise
    joins stay shape-consistent).  Connection-table convolutions and
    feature slices have channel-indexed semantics that do not survive
    rescaling and are rejected.
    """
    group_mult = 1
    for node in net:
        if isinstance(node.spec, ConvSpec):
            group_mult = max(group_mult, node.spec.groups)

    def scale(channels: int) -> int:
        s = max(1, round(channels / channel_div))
        return ((s + group_mult - 1) // group_mult) * group_mult

    layers = []
    wiring = {}
    for node in net:
        spec = node.spec
        if node.kind is LayerKind.INPUT:
            shape = spec.shape
            layers.append(replace(
                spec,
                shape=FeatureShape(shape.count, input_size, input_size),
            ))
            continue
        wiring[spec.name] = list(node.input_names)
        if isinstance(spec, ConvSpec):
            if spec.connection_table is not None:
                raise MappingError(
                    f"{spec.name}: connection-table convolutions cannot "
                    "be channel-rescaled"
                )
            layers.append(
                replace(spec, out_features=scale(spec.out_features))
            )
        elif isinstance(spec, FCSpec):
            layers.append(
                replace(spec, out_features=scale(spec.out_features))
            )
        elif isinstance(spec, SliceSpec):
            raise MappingError(
                f"{spec.name}: feature slices cannot be channel-rescaled"
            )
        else:
            layers.append(spec)
    return Network(f"{net.name}/proxy", layers, wiring)


def engine_scale(net: Network, limit: int):
    """``(run_net, note)``: the network the engine should execute under
    a ``limit``-weight budget.

    Returns ``net`` itself (note ``None``) when it fits, its registered
    proxy plus a descriptive note when oversize, and ``(None, note)``
    when oversize with no proxy registered."""
    if net.weight_count <= limit:
        return net, None
    if net.name not in PROXY_PARAMS:
        return None, (
            f"{net.weight_count:,} weights exceed the engine limit "
            f"({limit:,}) and no engine proxy is registered"
        )
    div, size = PROXY_PARAMS[net.name]
    proxy = shrink_for_engine(net, div, size)
    note = (
        f"engine ran the {net.name} proxy (channels/{div}, {size}px "
        f"input, {proxy.weight_count:,} of {net.weight_count:,} weights)"
    )
    return proxy, note


def engine_proxy(name: str) -> Network:
    """The engine-scale proxy for canonical benchmark ``name``.

    Raises ``KeyError`` for networks without a registered proxy (the
    small nets that already fit the engine validate as themselves).
    """
    from repro.dnn import zoo

    div, size = PROXY_PARAMS[name]
    return shrink_for_engine(zoo.load(name), div, size)


__all__ = [
    "PROXY_PARAMS", "engine_proxy", "engine_scale", "shrink_for_engine",
]
