"""The engine compiler's pass pipeline over the unified IR.

Ordered, individually-testable passes transform a
:class:`~repro.compiler.ir.MappingIR`:

``legalize`` -> ``place-check`` -> ``schedule`` -> ``lower`` ->
``tracker-assign`` -> ``fuse``

The :class:`~repro.compiler.passes.manager.PassManager` threads a
shared :class:`~repro.compiler.passes.manager.PassContext` through the
pipeline, records per-pass statistics, and runs the IR verifier between
every pair of passes, rejecting malformed placements with typed errors
before they can reach emission.  The analytical compile
(:func:`~repro.compiler.pipeline.compile_network`) runs no passes: it
maps once and verifies the unit IR it builds.
"""

from repro.compiler.passes.manager import (
    Pass,
    PassContext,
    PassManager,
    PassStats,
)
from repro.compiler.passes.legalize import LegalizePass
from repro.compiler.passes.place_check import PlaceCheckPass
from repro.compiler.passes.tracker_assign import TrackerAssignPass
from repro.compiler.passes.schedule import SchedulePass
from repro.compiler.passes.lower import LowerPass
from repro.compiler.passes.fuse import FusePass

__all__ = [
    "FusePass",
    "LegalizePass",
    "LowerPass",
    "Pass",
    "PassContext",
    "PassManager",
    "PassStats",
    "PlaceCheckPass",
    "SchedulePass",
    "TrackerAssignPass",
]
