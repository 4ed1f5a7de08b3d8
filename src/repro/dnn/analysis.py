"""Workload analysis: FLOPs, bytes and Bytes/FLOP per layer and step.

This module reproduces the accounting behind the paper's Sec 2.3 workload
analysis: Figure 1 (FLOPs per network evaluation), Figure 4 (per-layer-
class compute/data breakdown for OverFeat) and Figure 5 (kernel-level
FLOPs share and Bytes/FLOP across the benchmark suite).

Conventions (validated against the paper's published numbers):

* A multiply-accumulate counts as 2 FLOPs.  "Connections" in Fig 15 equal
  the MACs of one forward pass.
* Convolution FLOPs are split, as the hardware splits them, into the
  ND_CONV dot products (2 FLOPs per MAC), the ND_ACCUM accumulation of
  per-input-feature partial outputs (1 FLOP per partial element) and the
  ACT_FN activation (1 FLOP per output element).
* SAMP layers cost 1 FLOP per input element (comparison or add), which
  yields the paper's B/F of 5 for single-precision pooling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.dnn.layers import ConvSpec, FCSpec, LayerKind, PoolSpec
from repro.errors import AnalysisError
from repro.dnn.network import LayerNode, Network


class Step(enum.Enum):
    """The three phases of a training iteration (paper Sec 2.2)."""

    FP = "fp"
    BP = "bp"
    WG = "wg"


TRAINING_STEPS: Tuple[Step, ...] = (Step.FP, Step.BP, Step.WG)


class Kernel(enum.Enum):
    """Computational kernels of DNN training (paper Fig 5 rows)."""

    ND_CONV = "nD-convolution"
    MATMUL = "matrix-multiply"
    ND_ACCUM = "nD-accumulate"
    VEC_ELT_MUL = "vector-eltwise-multiply"
    SAMPLING = "sampling"
    ACT_FN = "activation-fn"


#: Which processing tile executes each kernel (paper Sec 3.1): kernels
#: with low Bytes/FLOP go to CompHeavy tiles, the rest to MemHeavy SFUs.
COMPUTE_DOMINANT_KERNELS = frozenset({Kernel.ND_CONV, Kernel.MATMUL})
MEMORY_DOMINANT_KERNELS = frozenset(
    {Kernel.ND_ACCUM, Kernel.VEC_ELT_MUL, Kernel.SAMPLING, Kernel.ACT_FN}
)


def layer_macs(node: LayerNode) -> int:
    """Multiply-accumulates for one forward pass through the layer."""
    spec = node.spec
    if isinstance(spec, ConvSpec):
        fan = spec.total_fan_in(node.input_shapes[0].count)
        return node.output_shape.feature_size * fan * spec.kernel ** 2
    if isinstance(spec, FCSpec):
        return node.input_shapes[0].elements * spec.out_features
    return 0


@dataclass(frozen=True)
class LayerStepProfile:
    """FLOPs and data traffic of one layer during one training step."""

    layer: str
    kind: LayerKind
    step: Step
    flops_by_kernel: Mapping[Kernel, int]
    feature_bytes: int
    weight_bytes: int

    @property
    def flops(self) -> int:
        return sum(self.flops_by_kernel.values())

    @property
    def bytes_total(self) -> int:
        return self.feature_bytes + self.weight_bytes

    @property
    def bytes_per_flop(self) -> float:
        return self.bytes_total / self.flops if self.flops else 0.0


def _conv_profile(
    node: LayerNode, step: Step, dtype_bytes: int
) -> LayerStepProfile:
    spec = node.spec
    assert isinstance(spec, ConvSpec)
    in_shape = node.input_shapes[0]
    out_shape = node.output_shape
    in_per_group = in_shape.count // spec.groups
    macs = layer_macs(node)

    fan_total = spec.total_fan_in(in_shape.count)
    flops: Dict[Kernel, int] = {}
    if step is Step.FP:
        # Dot products for every connected (input, output element) pair,
        # accumulation of the per-input-feature partials, then activation.
        flops[Kernel.ND_CONV] = 2 * macs
        flops[Kernel.ND_ACCUM] = out_shape.feature_size * fan_total
        flops[Kernel.ACT_FN] = out_shape.elements
        feature_bytes = (in_shape.elements + out_shape.elements) * dtype_bytes
    elif step is Step.BP:
        # Errors are convolved with rotated kernels back to the inputs;
        # one partial accumulates per connection on the input side.
        flops[Kernel.ND_CONV] = 2 * macs
        flops[Kernel.ND_ACCUM] = in_shape.feature_size * fan_total
        flops[Kernel.ACT_FN] = in_shape.elements  # derivative masking
        feature_bytes = (in_shape.elements + out_shape.elements) * dtype_bytes
    else:  # WG
        # Gradient of each weight: correlate FP inputs with BP errors,
        # then accumulate the per-image gradient into the running sum.
        flops[Kernel.ND_CONV] = 2 * macs
        flops[Kernel.ND_ACCUM] = node.weights
        feature_bytes = (in_shape.elements + out_shape.elements) * dtype_bytes
    weight_bytes = node.weights * dtype_bytes
    return LayerStepProfile(
        node.name, node.kind, step, flops, feature_bytes, weight_bytes
    )


def _fc_profile(
    node: LayerNode, step: Step, dtype_bytes: int
) -> LayerStepProfile:
    spec = node.spec
    assert isinstance(spec, FCSpec)
    in_elems = node.input_shapes[0].elements
    out_elems = node.output_shape.elements
    macs = layer_macs(node)

    flops: Dict[Kernel, int] = {}
    if step is Step.FP:
        flops[Kernel.MATMUL] = 2 * macs
        flops[Kernel.ND_ACCUM] = out_elems  # bias / partial-sum reduction
        flops[Kernel.ACT_FN] = out_elems
        feature_bytes = (in_elems + out_elems) * dtype_bytes
    elif step is Step.BP:
        flops[Kernel.MATMUL] = 2 * macs
        flops[Kernel.ND_ACCUM] = in_elems
        flops[Kernel.ACT_FN] = in_elems
        feature_bytes = (in_elems + out_elems) * dtype_bytes
    else:  # WG: outer product of FP input and BP error, plus accumulation
        flops[Kernel.VEC_ELT_MUL] = macs
        flops[Kernel.ND_ACCUM] = node.weights
        feature_bytes = (in_elems + out_elems) * dtype_bytes
    weight_bytes = node.weights * dtype_bytes
    return LayerStepProfile(
        node.name, node.kind, step, flops, feature_bytes, weight_bytes
    )


def _samp_profile(
    node: LayerNode, step: Step, dtype_bytes: int
) -> LayerStepProfile:
    in_elems = node.input_shapes[0].elements
    out_elems = node.output_shape.elements
    flops: Dict[Kernel, int] = {}
    feature_bytes = 0
    if step in (Step.FP, Step.BP):
        flops[Kernel.SAMPLING] = in_elems
        feature_bytes = (in_elems + out_elems) * dtype_bytes
    # SAMP layers carry no weights: WG contributes nothing.
    return LayerStepProfile(
        node.name, node.kind, step, flops, feature_bytes, weight_bytes=0
    )


def _join_profile(
    node: LayerNode, step: Step, dtype_bytes: int
) -> LayerStepProfile:
    """Concat moves data only; eltwise-add performs one add per element."""
    in_elems = sum(s.elements for s in node.input_shapes)
    out_elems = node.output_shape.elements
    flops: Dict[Kernel, int] = {}
    feature_bytes = 0
    if step in (Step.FP, Step.BP):
        if node.kind is LayerKind.ELTWISE:
            flops[Kernel.ND_ACCUM] = in_elems
        feature_bytes = (in_elems + out_elems) * dtype_bytes
    return LayerStepProfile(
        node.name, node.kind, step, flops, feature_bytes, weight_bytes=0
    )


def profile(
    node: LayerNode, step: Step, dtype_bytes: int = 4
) -> LayerStepProfile:
    """Compute the FLOPs/bytes profile of ``node`` for one training step."""
    if node.kind is LayerKind.CONV:
        return _conv_profile(node, step, dtype_bytes)
    if node.kind is LayerKind.FC:
        return _fc_profile(node, step, dtype_bytes)
    if node.kind is LayerKind.SAMP:
        return _samp_profile(node, step, dtype_bytes)
    if node.kind in (LayerKind.CONCAT, LayerKind.ELTWISE,
                     LayerKind.SLICE):
        return _join_profile(node, step, dtype_bytes)
    return LayerStepProfile(node.name, node.kind, step, {}, 0, 0)


@dataclass(frozen=True)
class NetworkProfile:
    """Aggregated profile of one network over all training steps."""

    network: str
    per_layer: Mapping[str, Mapping[Step, LayerStepProfile]]

    def step_flops(self, step: Step) -> int:
        return sum(p[step].flops for p in self.per_layer.values())

    @property
    def evaluation_flops(self) -> int:
        """FLOPs of one network evaluation (FP only; paper Fig 1)."""
        return self.step_flops(Step.FP)

    @property
    def training_flops(self) -> int:
        """FLOPs of one training iteration on one image (FP + BP + WG)."""
        return sum(self.step_flops(s) for s in TRAINING_STEPS)

    def kernel_flops(self) -> Dict[Kernel, int]:
        """Total training FLOPs by kernel (Fig 5 'FLOPs %' column)."""
        totals: Dict[Kernel, int] = {k: 0 for k in Kernel}
        for per_step in self.per_layer.values():
            for prof in per_step.values():
                for kernel, fl in prof.flops_by_kernel.items():
                    totals[kernel] += fl
        return totals



def profile_network(net: Network, dtype_bytes: int = 4) -> NetworkProfile:
    """Profile every layer of ``net`` for FP, BP and WG."""
    per_layer: Dict[str, Dict[Step, LayerStepProfile]] = {}
    for node in net:
        per_layer[node.name] = {
            step: profile(node, step, dtype_bytes) for step in TRAINING_STEPS
        }
    return NetworkProfile(net.name, per_layer)


def evaluation_flops(net: Network) -> int:
    """Scalar FLOPs for one forward evaluation (paper Fig 1)."""
    return profile_network(net).evaluation_flops


def training_flops(net: Network) -> int:
    """Scalar FLOPs for one training iteration on one image."""
    return profile_network(net).training_flops


# ---------------------------------------------------------------------------
# Layer-class decomposition (paper Fig 4)
# ---------------------------------------------------------------------------
class LayerClass(enum.Enum):
    """The paper's four workload classes (Fig 4 columns)."""

    INITIAL_CONV = "initial-conv"
    MID_CONV = "mid-conv"
    FC = "fully-connected"
    SAMP = "sub-sampling"
    OTHER = "other"


#: Input features at or above this spatial extent mark an "initial" CONV
#: layer (the paper's initial CONV layers see 24x24 - 231x231 inputs while
#: mid CONV layers see ~12x12).
INITIAL_CONV_MIN_EXTENT = 24


def classify_layer(node: LayerNode) -> LayerClass:
    """Assign a layer to a Fig 4 workload class."""
    if node.kind is LayerKind.CONV:
        if node.input_shapes[0].height >= INITIAL_CONV_MIN_EXTENT:
            return LayerClass.INITIAL_CONV
        return LayerClass.MID_CONV
    if node.kind is LayerKind.FC:
        return LayerClass.FC
    if node.kind is LayerKind.SAMP:
        return LayerClass.SAMP
    return LayerClass.OTHER


@dataclass(frozen=True)
class ClassSummary:
    """Aggregate compute/data statistics for one workload class."""

    layer_class: LayerClass
    layers: Tuple[str, ...]
    flops_fp_bp: int
    flops_wg: int
    feature_bytes: int
    weight_bytes: int
    bytes_per_flop_fp_bp: float

    @property
    def flops_total(self) -> int:
        return self.flops_fp_bp + self.flops_wg


def layer_class_summary(
    net: Network, dtype_bytes: int = 4
) -> Dict[LayerClass, ClassSummary]:
    """Reproduce the Fig 4 table for an arbitrary network."""
    members: Dict[LayerClass, List[LayerNode]] = {c: [] for c in LayerClass}
    for node in net:
        members[classify_layer(node)].append(node)

    prof = profile_network(net, dtype_bytes)
    out: Dict[LayerClass, ClassSummary] = {}
    for cls, nodes in members.items():
        if not nodes:
            continue
        fp_bp = sum(
            prof.per_layer[n.name][s].flops
            for n in nodes
            for s in (Step.FP, Step.BP)
        )
        wg = sum(prof.per_layer[n.name][Step.WG].flops for n in nodes)
        feat = sum(
            n.output_shape.bytes(dtype_bytes) for n in nodes
        )
        wt = sum(n.weights for n in nodes) * dtype_bytes
        traffic = sum(
            prof.per_layer[n.name][s].bytes_total
            for n in nodes
            for s in (Step.FP, Step.BP)
        )
        out[cls] = ClassSummary(
            layer_class=cls,
            layers=tuple(n.name for n in nodes),
            flops_fp_bp=fp_bp,
            flops_wg=wg,
            feature_bytes=feat,
            weight_bytes=wt,
            bytes_per_flop_fp_bp=traffic / fp_bp if fp_bp else 0.0,
        )
    return out


def intrinsic_bytes_per_flop(kernel: Kernel, dtype_bytes: int = 4) -> float:
    """Scratchpad bytes moved per FLOP for the memory-dominant kernels.

    These match the paper's Fig 5 values at single precision:
    nD-accumulate streams its source operand (4 B/F, the destination
    stays in the SFU-adjacent row buffer), vector multiply streams one
    operand per multiply (4), sampling reads each input element and
    writes one output per window (5 for 2x2), activation reads and
    writes every element (8)."""
    if kernel is Kernel.ND_ACCUM:
        return float(dtype_bytes)
    if kernel is Kernel.VEC_ELT_MUL:
        return float(dtype_bytes)
    if kernel is Kernel.SAMPLING:
        return dtype_bytes * 1.25
    if kernel is Kernel.ACT_FN:
        return dtype_bytes * 2.0
    raise AnalysisError(
        f"{kernel} is compute-dominant; use layer traffic"
    )


def kernel_summary(
    networks: Iterable[Network], dtype_bytes: int = 4
) -> Dict[Kernel, Tuple[float, float]]:
    """Suite-wide (FLOPs fraction, Bytes/FLOP) per kernel — paper Fig 5."""
    networks = list(networks)
    total_flops: Dict[Kernel, int] = {k: 0 for k in Kernel}
    total_bytes: Dict[Kernel, int] = {k: 0 for k in Kernel}
    for net in networks:
        prof = profile_network(net, dtype_bytes)
        for per_step in prof.per_layer.values():
            for p in per_step.values():
                candidates = [
                    k for k in p.flops_by_kernel
                    if k in COMPUTE_DOMINANT_KERNELS
                ]
                for kernel, fl in p.flops_by_kernel.items():
                    total_flops[kernel] += fl
                if candidates:
                    dominant = max(
                        candidates, key=lambda k: p.flops_by_kernel[k]
                    )
                    total_bytes[dominant] += p.bytes_total
    grand_total = sum(total_flops.values()) or 1
    out: Dict[Kernel, Tuple[float, float]] = {}
    for k in Kernel:
        frac = total_flops[k] / grand_total
        if k in COMPUTE_DOMINANT_KERNELS:
            bf = (total_bytes[k] / total_flops[k]) if total_flops[k] else 0.0
        else:
            bf = intrinsic_bytes_per_flop(k, dtype_bytes)
        out[k] = (frac, bf)
    return out
