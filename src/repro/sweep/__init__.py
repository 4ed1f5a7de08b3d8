"""Sweep subsystem: parallel batch evaluation with compile caching.

``run_sweep`` fans (network x chip-preset x minibatch) jobs across
worker processes; :mod:`repro.sweep.cache` memoises mapping / simulation
/ codegen artifacts in process under content digests, so the jobs and
DSE points of one process that share a (network, node) pair run STEP1-6
once.
"""

from repro.sweep.cache import (
    CompileCache,
    cached_mapping,
    cached_simulation,
    get_cache,
    set_cache,
    simulation_digest,
)
from repro.sweep.runner import (
    SweepJob,
    SweepReport,
    SweepResult,
    expand_jobs,
    fan_out,
    run_sweep,
)

__all__ = [
    "CompileCache",
    "SweepJob",
    "SweepReport",
    "SweepResult",
    "cached_mapping",
    "cached_simulation",
    "expand_jobs",
    "fan_out",
    "get_cache",
    "run_sweep",
    "set_cache",
    "simulation_digest",
]
