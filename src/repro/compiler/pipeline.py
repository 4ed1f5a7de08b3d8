"""The compile pipeline entry point: network -> mapping -> unit IR.

:func:`compile_network` is the one front door to the analytical
compiler: it runs STEP1-6 once
(:func:`~repro.compiler.mapping.map_network`, over the surviving
columns when a fault mask is given), builds the unit-level
:class:`~repro.compiler.ir.MappingIR` and verifies it.  The CLI,
bench, sweep, DSE and fault tooling all consume mappings through this
function, so every placement the repo reports has passed IR
verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.arch.node import NodeConfig
from repro.compiler.ir import MappingIR, build_mapping_ir
from repro.compiler.mapping import WorkloadMapping, map_network
from repro.compiler.verifier import assert_ir_verified
from repro.dnn.network import Network
from repro.faults.model import FaultMask


@dataclass
class CompiledNetwork:
    """A compiled placement: the mapping and its verified IR."""

    network: Network
    node: NodeConfig
    mapping: WorkloadMapping
    ir: MappingIR


def compile_network(
    net: Network,
    node: NodeConfig,
    faults: Optional[FaultMask] = None,
) -> CompiledNetwork:
    """Compile ``net`` for ``node``: mapping, then the verified unit IR.

    With a ``faults`` mask the mapping is placed over the surviving
    columns, raising :class:`~repro.errors.UnmappableError` when they
    cannot host the network.
    """
    mapping = map_network(net, node, faults)
    ir = build_mapping_ir(net, node.name, mapping)
    assert_ir_verified(ir, None)
    return CompiledNetwork(network=net, node=node, mapping=mapping, ir=ir)
