"""Content-keyed compile memo shared by the sweep runner, DSE and benchmarks.

Mapping, simulation and codegen artifacts are memoised in process under
the stable digests of :mod:`repro.compiler.fingerprint`, so sweep jobs
that share a (network, node) pair across minibatches or node counts,
DSE runs and serving's healthy baselines run STEP1-6 once per digest.
Nothing is written to disk: every process starts cold and computes from
the code it runs, so no entry can outlive the model that built it.
:meth:`CompileCache.clear` (and ``bench.clear_caches``) drops every
entry.

Cache activity is observable: every hit/miss bumps a ``cache`` group
counter on the active telemetry handle (``<kind>_hits`` /
``<kind>_misses``) and the per-process :attr:`CompileCache.stats` table.
"""

from __future__ import annotations

from threading import Lock
from typing import Callable, Dict, Optional, Tuple, TypeVar

# repro.sim must start loading before repro.compiler: the compiler
# package pulls in the engine-facing codegen, which resolves through the
# already-in-progress sim package (same ordering dse relies on).
from repro.sim.perf import DEFAULT_MINIBATCH, PerfResult, simulate

from repro.arch.node import NodeConfig
from repro.compiler.fingerprint import compile_digest
from repro.compiler.mapping import WorkloadMapping
from repro.dnn.network import Network
from repro.faults.model import FaultMask, FaultSpec, sample_faults
from repro.telemetry.core import get_telemetry

T = TypeVar("T")


class CompileCache:
    """Keyed in-process artifact memo."""

    def __init__(self) -> None:
        self._memory: Dict[Tuple[str, str], object] = {}
        self._lock = Lock()
        #: ``{"<kind>_hits": n, "<kind>_misses": n}`` for this process.
        self.stats: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._memory)

    def _bump(self, kind: str, outcome: str) -> None:
        name = f"{kind}_{outcome}"
        self.stats[name] = self.stats.get(name, 0) + 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count("cache", name)

    def get(self, kind: str, digest: str, build: Callable[[], T]) -> T:
        """The artifact under ``(kind, digest)``, building it on a miss."""
        key = (kind, digest)
        with self._lock:
            if key in self._memory:
                self._bump(kind, "hits")
                return self._memory[key]  # type: ignore[return-value]
        self._bump(kind, "misses")
        artifact = build()
        self.put(kind, digest, artifact)
        return artifact

    def put(self, kind: str, digest: str, artifact: object) -> None:
        """Install an artifact (used by the sweep runner to warm the
        parent cache with results computed in worker processes)."""
        with self._lock:
            self._memory[(kind, digest)] = artifact

    def clear(self) -> int:
        """Drop every entry; returns the number of entries removed."""
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
        return removed


# ---------------------------------------------------------------------------
# Process-global default cache
# ---------------------------------------------------------------------------
_default: Optional[CompileCache] = None


def get_cache() -> CompileCache:
    """The process-global cache."""
    global _default
    if _default is None:
        _default = CompileCache()
    return _default


def set_cache(cache: Optional[CompileCache]) -> Optional[CompileCache]:
    """Install ``cache`` globally (None resets to a fresh default);
    returns the previous handle so callers can restore it."""
    global _default
    previous = _default
    _default = cache
    return previous


# ---------------------------------------------------------------------------
# Cached compile/simulate entry points
# ---------------------------------------------------------------------------
def _fault_extra(faults: Optional[FaultSpec]) -> dict:
    """Digest payload for a fault spec (empty when fault-free, so
    historical fault-free digests keep their shape)."""
    return {"faults": faults} if faults is not None else {}


def cached_mapping(
    net: Network,
    node: NodeConfig,
    cache: Optional[CompileCache] = None,
    faults: Optional[FaultSpec] = None,
) -> WorkloadMapping:
    """STEP1-6 mapping of ``net`` on ``node``, content-cached.

    ``faults`` is a declarative :class:`FaultSpec`: sampling is a pure
    function of (spec, node), so the spec is the true content key and
    the mask is re-sampled only on a miss.
    """
    cache = cache if cache is not None else get_cache()
    digest = compile_digest(
        net, node, artifact="mapping", **_fault_extra(faults)
    )

    def build() -> WorkloadMapping:
        from repro.compiler.pipeline import compile_network

        mask: Optional[FaultMask] = (
            sample_faults(faults, node) if faults is not None else None
        )
        return compile_network(net, node, faults=mask).mapping

    return cache.get("mapping", digest, build)


def simulation_digest(
    net: Network,
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
    faults: Optional[FaultSpec] = None,
) -> str:
    """Digest keying a full (per-node) simulation result."""
    return compile_digest(
        net, node, artifact="simulation", minibatch=minibatch,
        **_fault_extra(faults),
    )


def cached_simulation(
    net: Network,
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
    cache: Optional[CompileCache] = None,
    faults: Optional[FaultSpec] = None,
) -> PerfResult:
    """Full analytical simulation, content-cached (the mapping inside a
    freshly-built result comes from the same cache).

    The cached artifact is the per-node :class:`PerfResult`, which no
    scale-out axis changes: sweep rows that differ only in node count or
    strategy share one entry and recompute the cheap system overlay."""
    cache = cache if cache is not None else get_cache()
    digest = simulation_digest(net, node, minibatch, faults)
    return cache.get(
        "simulation",
        digest,
        lambda: simulate(
            net, node, minibatch,
            mapping=cached_mapping(net, node, cache, faults=faults),
        ),
    )


def cached_dag_forward_codegen(
    net: Network,
    seed: int = 0,
    rows: int = 2,
    cache: Optional[CompileCache] = None,
):
    """Engine codegen (compiled forward pass), content-cached.

    Compiles through :func:`repro.compiler.codegen_dag.compile_dag_forward`,
    the one forward compiler and the path the validation harness runs.
    The reference model's weights are a pure function of the topology
    and ``seed``, so the digest — (topology, rows, seed, compiler
    version) — covers everything the generated programs, fusion plans
    and preloads depend on.
    """
    from repro.compiler.codegen_dag import compile_dag_forward
    from repro.functional.reference import ReferenceModel

    cache = cache if cache is not None else get_cache()
    digest = compile_digest(
        net, None, artifact="codegen_dag", seed=seed, rows=rows
    )
    return cache.get(
        "codegen",
        digest,
        lambda: compile_dag_forward(
            net, ReferenceModel(net, seed=seed), rows=rows
        ),
    )
