"""Tracker assignment: the MEMTRACK budget of the emitted programs.

Runs after the lowering and reads every armed tracker from its access
table (``ctx.accesses.arms``: each MEMTRACK / DMA_MEMTRACK with the
mem-tile port it occupies), so the plan is the emission by
construction.  The per-port counts land in ``ir.meta["tracker_plan"]``
and their total in the pass's ``trackers`` note.  Capacity — the
MemHeavy tracker file holds a fixed number of trackers per tile
(Sec 3.2.4) — is the program verifier's check, which names the tile.
"""

from __future__ import annotations

from collections import Counter

from repro.compiler.ir import MappingIR
from repro.compiler.passes.manager import Pass, PassContext, PassStats


class TrackerAssignPass(Pass):
    """Record the per-tile tracker occupancy of the lowered programs."""

    name = "tracker-assign"

    def run(self, ir: MappingIR, ctx: PassContext,
            stats: PassStats) -> MappingIR:
        arms = ctx.accesses.arms
        per_port = Counter(arm.port for arm in arms)
        ir.meta["tracker_plan"] = {
            str(port): count for port, count in sorted(per_port.items())
        }
        stats.notes["trackers"] = len(arms)
        return ir
