"""The forward entry point: compile any network DAG for the engine.

:func:`compile_dag_forward` runs the one forward compiler
(:class:`~repro.compiler.codegen.ForwardCompiler`) over plain chains
and arbitrary DAGs alike — inception-style branches joined by
concatenation, residual element-wise adds, LSTM-style gates, slices —
emitting per-tile ISA programs.  It leans on two pieces:

* engine DMA between *any* two tiles (a producer many columns away is a
  multi-hop point-to-point transfer, charged per hop), and
* the tracker-calibration pass (:mod:`repro.compiler.trackers`): every
  MEMTRACK is emitted with placeholder counts and the static access
  analysis fills in the exact update/read numbers afterwards, so fan-out
  to multiple consumers never needs hand bookkeeping.

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
from repro.compiler.codegen import CompiledForward, ForwardCompiler
from repro.dnn.network import Network
from repro.functional.reference import ReferenceModel


def compile_dag_forward(
    net: Network,
    model: ReferenceModel,
    chip: Optional[ChipConfig] = None,
    rows: int = 2,
) -> CompiledForward:
    """Compile the forward pass of any network DAG for the engine."""
    return ForwardCompiler(net, model, chip, rows).compile()
