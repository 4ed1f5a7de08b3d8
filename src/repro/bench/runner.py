"""Cached simulation runs shared by the figure benchmarks.

Several figures consume the same per-network simulation, so the harness
memoises mapping and simulation results — but through the shared
content-keyed compile cache (:mod:`repro.sweep.cache`) rather than
per-function ``lru_cache`` tables.  Keying on the digest of (topology,
node config, compiler version) means logically-equal requests hit the
same entry regardless of spelling (``"alexnet"`` vs ``"AlexNet"``), a
changed preset can never serve a stale result, and sweeps, DSE runs and
the figure benchmarks in one process all warm one another.
"""

from __future__ import annotations

from typing import Dict

from repro.arch import half_precision_node, single_precision_node
from repro.arch.node import NodeConfig
from repro.compiler import WorkloadMapping
from repro.dnn import zoo
from repro.errors import ConfigError
from repro.sim import PerfResult
from repro.sweep.cache import (
    cached_mapping as _cached_mapping,
    cached_simulation as _cached_simulation,
    get_cache,
)


def _node(precision: str) -> NodeConfig:
    if precision == "sp":
        return single_precision_node()
    if precision == "hp":
        return half_precision_node()
    raise ConfigError(f"unknown precision {precision!r}")


def cached_mapping(name: str, precision: str = "sp") -> WorkloadMapping:
    """Memoised workload mapping for a benchmark network."""
    node = _node(precision)
    return _cached_mapping(zoo.load(name), node)


def cached_simulation(name: str, precision: str = "sp") -> PerfResult:
    """Memoised full simulation for a benchmark network."""
    node = _node(precision)
    return _cached_simulation(zoo.load(name), node)


def suite_results(precision: str = "sp") -> Dict[str, PerfResult]:
    """Simulation results for the whole Fig 15 suite, in paper order."""
    return {
        name: cached_simulation(name, precision) for name in zoo.BENCHMARKS
    }


def clear_caches() -> None:
    """Drop every memoised mapping/simulation result (the shared
    in-process compile cache).

    Benchmark teardown calls this so repeated suite runs in one process
    measure cold caches rather than the previous run's warm results."""
    get_cache().clear()
