"""DAG-capable forward code generation: branches on the engine.

The sequential compiler (:mod:`repro.compiler.codegen`) covers chains;
this one compiles arbitrary DAGs — inception-style branches joined by
concatenation, residual element-wise adds, LSTM-style gates, slices —
into per-tile ISA programs.  It leans on two pieces the sequential
compiler predates:

* engine DMA between *any* two tiles (a producer many columns away is a
  multi-hop point-to-point transfer, charged per hop), and
* the tracker-calibration pass (:mod:`repro.compiler.trackers`): every
  MEMTRACK is emitted with placeholder counts and the static access
  analysis fills in the exact update/read numbers afterwards, so fan-out
  to multiple consumers never needs hand bookkeeping.

Since the IR refactor this is a thin dialect of the shared pass
pipeline: the same :class:`~repro.compiler.passes.lower.EngineEmitter`
emits the general DAG forms (per-feature source lists for grouped and
connection-table convolutions, block-searching pool reads) with
``calibrated`` placeholder trackers, over a graph partition.

Scope: forward propagation; padded pooling (planes are staged into
zero-preloaded scratch with ``pad < window``; MAX additionally needs a
provably non-negative input — see :mod:`repro.compiler.passes.legalize`);
element-wise products of exactly two operands.  Convolutions may be
grouped (AlexNet's two-GPU split) or carry a connection table (LeNet-5's
C3): each output feature convolves exactly the input features it
connects to — the engine-level realisation of Sec 2.2's "connection
table denoting which input and output features are connected".
"""

from __future__ import annotations

from typing import Optional

from repro.arch.chip import ChipConfig
from repro.compiler.codegen import (
    CompiledForward,
    ForwardCompiler,
    _Preload,  # noqa: F401  (historic re-export)
)
from repro.compiler.partition import StatePartition, partition_graph
from repro.compiler.passes.legalize import check_dag_scope
from repro.dnn.network import Network
from repro.functional.reference import ReferenceModel


class DagForwardCompiler(ForwardCompiler):
    """Compiles the forward pass of an arbitrary network DAG."""

    dialect = "calibrated"
    scope = "dag"

    def __init__(
        self,
        net: Network,
        model: ReferenceModel,
        chip: Optional[ChipConfig] = None,
        rows: int = 2,
    ) -> None:
        super().__init__(net, model, chip, rows)
        # Scope violations surface at construction, as they always have
        # for the DAG compiler (the pipeline's legalize pass re-checks).
        check_dag_scope(net)

    def _partition(self) -> StatePartition:
        return partition_graph(
            self.net, self.rows, self.chip.mem_tile.capacity_bytes // 4
        )


def compile_dag_forward(
    net: Network,
    model: ReferenceModel,
    chip: Optional[ChipConfig] = None,
    rows: int = 2,
) -> CompiledForward:
    """Compile the forward pass of an arbitrary network DAG."""
    return DagForwardCompiler(net, model, chip, rows).compile()
