"""The pass manager: ordered IR transforms with verification between.

The engine compilers (forward and training) run their passes through
it.  Each pass receives the IR and a shared :class:`PassContext` (the
compile inputs plus accumulating outputs such as emitted programs and
preloads), returns the — possibly rewritten — IR, and gets a
:class:`PassStats` row recording what it did.  After every pass the
manager re-runs the IR verifier, so a pass that produces a malformed
placement fails loudly at its own boundary rather than corrupting a
later stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.compiler.ir import MappingIR
from repro.compiler.verifier import MachineShape, assert_ir_verified
from repro.telemetry.core import get_telemetry


@dataclass
class PassContext:
    """Everything the passes share for one compilation.

    Inputs are set by the compiler driving the passes; passes
    accumulate their outputs here (``programs``, ``preloads`` and
    free-form ``extra`` entries) so downstream passes and the caller
    can read them.
    """

    net: Any = None
    model: Any = None  # ReferenceModel
    chip: Any = None  # ChipConfig
    partition: Any = None  # StatePartition
    rows: int = 2
    minibatch: int = 1
    learning_rate: Tuple[int, int] = (1, 100)
    # Outputs
    programs: List[Any] = field(default_factory=list)
    update_programs: List[Any] = field(default_factory=list)
    preloads: List[Any] = field(default_factory=list)
    host_writes: List[Tuple[int, int, int]] = field(default_factory=list)
    #: The AccessTable of ``programs``, built by the lowering for the
    #: passes and the verifier after it; it lives only for one compile.
    accesses: Any = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def machine_shape(self) -> Optional[MachineShape]:
        """Addressing envelope of the engine machine (None when the
        context has no engine chip or partition)."""
        if self.chip is None or self.partition is None:
            return None
        return MachineShape(
            mem_tiles=self.partition.mem_columns * self.rows,
            words_per_tile=self.chip.mem_tile.capacity_bytes // 4,
            trackers_per_tile=self.chip.mem_tile.tracker_count,
        )


@dataclass
class PassStats:
    """What one pass did: op/edge deltas plus free-form notes."""

    name: str
    ops_before: int
    ops_after: int
    edges_before: int
    edges_after: int
    notes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ops_before": self.ops_before,
            "ops_after": self.ops_after,
            "edges_before": self.edges_before,
            "edges_after": self.edges_after,
            "notes": dict(self.notes),
        }


class Pass:
    """Base class: override :meth:`run`; set ``name`` per subclass."""

    name = "pass"

    def run(self, ir: MappingIR, ctx: PassContext,
            stats: PassStats) -> MappingIR:
        raise NotImplementedError


class PassManager:
    """Runs an ordered pass list with inter-pass IR verification."""

    def __init__(self, passes: List[Pass]) -> None:
        self.passes = list(passes)

    def run(
        self, ir: MappingIR, ctx: PassContext
    ) -> Tuple[MappingIR, List[PassStats]]:
        tel = get_telemetry()
        all_stats: List[PassStats] = []
        for index, pipeline_pass in enumerate(self.passes):
            stats = PassStats(
                name=pipeline_pass.name,
                ops_before=len(ir.ops),
                ops_after=len(ir.ops),
                edges_before=len(ir.edges),
                edges_after=len(ir.edges),
            )
            ir = pipeline_pass.run(ir, ctx, stats) or ir
            stats.ops_after = len(ir.ops)
            stats.edges_after = len(ir.edges)
            all_stats.append(stats)
            if tel.enabled:
                tel.instant(
                    f"pass.{pipeline_pass.name}", "compiler",
                    ("compiler", "passes"), index,
                    network=ir.network, **{
                        k: v for k, v in stats.to_dict().items()
                        if k != "name"
                    },
                )
            assert_ir_verified(ir, ctx.machine_shape())
        return ir, all_stats
