"""Legalize: reject networks outside a compiler's scope.

One pass with two scopes, one per engine compiler:

* ``dag`` — the forward compiler: any network DAG of convolutions
  (grouped or with a connection table), pooling (padded pooling is
  zero-staged, so MAX needs a provably non-negative input), FC, concat,
  slice, element-wise joins and standalone activations;
* ``training`` — the training compiler: chains of plain convolutions,
  unpadded pooling and FC layers under a softmax FC head, with the
  BP/WG restrictions (stride/window divisibility, average global
  pooling, no pooling right after pooling).

Violations raise :class:`~repro.errors.MappingError`.  The compilers
run the same checks at construction, so scope failures surface before
any placement or emission work happens.
"""

from __future__ import annotations

from repro.compiler.ir import MappingIR
from repro.compiler.passes.manager import Pass, PassContext, PassStats
from repro.dnn.layers import (
    Activation,
    ActivationSpec,
    ConcatSpec,
    ConvSpec,
    EltwiseAddSpec,
    EltwiseMulSpec,
    FCSpec,
    GlobalPoolSpec,
    LayerKind,
    PoolMode,
    PoolSpec,
    SliceSpec,
)
from repro.dnn.network import Network
from repro.errors import MappingError


#: Activations whose outputs are provably >= 0 everywhere.
_NONNEG_ACTS = frozenset(
    (Activation.RELU, Activation.SIGMOID, Activation.SOFTMAX)
)


def _nonneg_output(net: Network, name: str, depth: int = 0) -> bool:
    """Whether layer ``name``'s output is provably non-negative.

    The padded-pool lowering stages planes into a zero-initialised
    scratch block, so MAX pooling sees 0.0 where the reference model
    fills -inf — equal results exactly when every real input element is
    >= 0 (and every window covers at least one real element, which
    ``pad < window`` guarantees).  This walks producers conservatively:
    anything unproven returns False.
    """
    if depth > 128:  # paranoia guard; Network DAGs are acyclic
        return False
    node = net[name]
    if node.kind is LayerKind.INPUT:
        return False
    spec = node.spec
    if isinstance(spec, (ConvSpec, FCSpec)):
        return spec.activation in _NONNEG_ACTS
    if isinstance(spec, (PoolSpec, GlobalPoolSpec, SliceSpec)):
        # Max/avg over non-negatives (or a feature slice of them) stays
        # non-negative.
        return _nonneg_output(net, node.input_names[0], depth + 1)
    if isinstance(spec, ActivationSpec):
        return spec.activation in _NONNEG_ACTS
    if isinstance(spec, EltwiseAddSpec):
        if spec.activation in _NONNEG_ACTS:
            return True
        return all(
            _nonneg_output(net, s, depth + 1) for s in node.input_names
        )
    if isinstance(spec, (ConcatSpec, EltwiseMulSpec)):
        return all(
            _nonneg_output(net, s, depth + 1) for s in node.input_names
        )
    return False


def check_dag_scope(net: Network) -> None:
    """Forward (DAG) lowering scope."""
    for node in net:
        spec = node.spec
        if isinstance(spec, PoolSpec) and spec.pad:
            if spec.pad >= spec.window:
                raise MappingError(
                    f"{node.name}: pool padding must be smaller than "
                    "the window (every window must cover a real element)"
                )
            if spec.mode is PoolMode.MAX and not _nonneg_output(
                net, node.input_names[0]
            ):
                raise MappingError(
                    f"{node.name}: padded MAX pooling needs a provably "
                    "non-negative input (the lowering zero-fills the "
                    "borders, which only equals the reference's -inf "
                    "fill for non-negative inputs)"
                )
        elif isinstance(spec, EltwiseMulSpec):
            if len(node.input_names) != 2:
                raise MappingError(
                    f"{node.name}: element-wise products take exactly "
                    "two operands"
                )
        elif not isinstance(spec, (
            ConvSpec, FCSpec, PoolSpec, GlobalPoolSpec, ConcatSpec,
            SliceSpec, EltwiseAddSpec, ActivationSpec,
        )) and node.kind is not LayerKind.INPUT:
            raise MappingError(
                f"DAG codegen cannot compile layer kind {node.kind}"
            )


def check_training_scope(net: Network) -> None:
    """Training (FP+BP+WG) lowering scope."""
    nodes = list(net)
    last = nodes[-1]
    if not isinstance(last.spec, FCSpec) or (
        last.spec.activation is not Activation.SOFTMAX
    ):
        raise MappingError(
            "training compilation needs a softmax FC head"
        )
    for node in nodes:
        spec = node.spec
        consumers = net.consumers(node.name)
        if len(consumers) > 1:
            # BP follows one successor per layer; a second consumer's
            # error would be silently dropped.
            raise MappingError(
                f"{node.name}: training compilation supports chains; "
                f"{len(consumers)} layers consume it "
                f"({', '.join(consumers)})"
            )
        if node.kind is LayerKind.INPUT:
            continue
        if not isinstance(spec, (ConvSpec, PoolSpec, GlobalPoolSpec, FCSpec)):
            raise MappingError(
                f"cannot generate engine training code for layer kind "
                f"{node.kind}"
            )
        if isinstance(spec, (PoolSpec, GlobalPoolSpec)):
            pred = net[node.input_names[0]]
            if pred.kind not in (
                LayerKind.INPUT, LayerKind.CONV, LayerKind.FC
            ):
                raise MappingError(
                    f"{node.name}: pooling BP needs a convolution or FC "
                    f"layer before it, not {pred.name} ({pred.kind})"
                )
        if isinstance(spec, ConvSpec):
            if spec.groups != 1 or spec.connection_table is not None:
                raise MappingError(
                    f"{node.name}: BP compilation supports plain "
                    "ungrouped convolutions"
                )
            if spec.stride > 1:
                in_shape = node.input_shapes[0]
                for extent in (in_shape.height, in_shape.width):
                    if (extent + 2 * spec.pad - spec.kernel) % spec.stride:
                        raise MappingError(
                            f"{node.name}: strided BP needs the window "
                            "sweep to divide the input exactly"
                        )
        elif isinstance(spec, PoolSpec):
            if spec.pad or spec.effective_stride != spec.window:
                raise MappingError(
                    f"{node.name}: BP compilation supports unpadded "
                    "pooling with stride == window"
                )
            if spec.mode is PoolMode.MAX:
                in_shape = node.input_shapes[0]
                if (in_shape.height % spec.window
                        or in_shape.width % spec.window):
                    raise MappingError(
                        f"{node.name}: max-pool BP needs the window "
                        "to tile the input exactly (the routing "
                        "reads the covered region contiguously)"
                    )
        elif isinstance(spec, GlobalPoolSpec):
            if spec.mode is not PoolMode.AVG:
                raise MappingError(
                    f"{node.name}: BP needs average global pooling"
                )


_CHECKS = {
    "dag": check_dag_scope,
    "training": check_training_scope,
}


def check_scope(scope: str, net: Network) -> None:
    """Raise :class:`~repro.errors.MappingError` unless ``net`` is in
    ``scope`` (``dag`` or ``training``)."""
    _CHECKS[scope](net)


class LegalizePass(Pass):
    """Reject out-of-scope networks before placement/emission."""

    name = "legalize"

    def __init__(self, scope: str) -> None:
        if scope not in _CHECKS:
            raise MappingError(
                f"unknown legalization scope {scope!r} "
                f"(choose from: {', '.join(sorted(_CHECKS))})"
            )
        self.scope = scope

    def run(self, ir: MappingIR, ctx: PassContext,
            stats: PassStats) -> MappingIR:
        check_scope(self.scope, ctx.net)
        stats.notes["scope"] = self.scope
        return ir
