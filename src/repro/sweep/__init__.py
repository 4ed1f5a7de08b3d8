"""Sweep subsystem: parallel batch evaluation with compile caching.

``run_sweep`` fans (network x chip-preset x minibatch) jobs across
worker processes; :mod:`repro.sweep.cache` memoises mapping / simulation
/ codegen artifacts under content digests so repeated sweeps and DSE
runs skip STEP1-6 entirely.
"""

from repro.sweep.cache import (
    CACHE_DIR_ENV,
    CompileCache,
    cached_mapping,
    cached_simulation,
    clear_cache,
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
    "CACHE_DIR_ENV",
    "CompileCache",
    "SweepJob",
    "SweepReport",
    "SweepResult",
    "cached_mapping",
    "cached_simulation",
    "clear_cache",
    "expand_jobs",
    "fan_out",
    "get_cache",
    "run_sweep",
    "set_cache",
    "simulation_digest",
]
