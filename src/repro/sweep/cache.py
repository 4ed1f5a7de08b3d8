"""Content-keyed compile cache shared by the sweep runner, DSE and benchmarks.

Mapping, simulation and codegen artifacts are memoised under the stable
digests of :mod:`repro.compiler.fingerprint`, so a repeated sweep or DSE
run skips STEP1-6 (and the downstream cost aggregation) entirely on a
hit.  Two layers:

* an in-process **memory** table, always on;
* an optional **disk** layer (pickles under ``<dir>/<kind>/<digest>.pkl``)
  shared between worker processes and across CLI invocations, enabled by
  passing a directory or setting ``REPRO_CACHE_DIR``.

Invalidation rules: the digest bakes in the compiler version, so
changing the compiler, the network topology, or any preset field makes
old entries unreachable automatically; :meth:`CompileCache.clear` (and
``repro sweep --clear-cache`` / ``bench.clear_caches``) drops both
layers explicitly, and ``--no-cache`` bypasses the cache for one run.

Cache activity is observable: every hit/miss bumps a ``cache`` group
counter on the active telemetry handle (``<kind>_hits`` /
``<kind>_misses``) and the per-process :attr:`CompileCache.stats` table.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from threading import Lock
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

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

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk entry format version.  Entries are ``{"version", "kind",
#: "digest", "artifact"}`` dicts; anything else (truncated pickle, a
#: pre-versioning bare artifact, a future format) is treated as corrupt:
#: counted, evicted and rebuilt — never raised to the caller.  Bump it
#: when a cached artifact gains fields (3: ``PerfResult``'s evaluation
#: fill and beat).
DISK_FORMAT_VERSION = 3


class CompileCache:
    """Keyed artifact store: memory table plus optional pickle directory."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = (
            Path(directory).expanduser() if directory else None
        )
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

    def _disk_path(self, kind: str, digest: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / kind / f"{digest}.pkl"

    def _evict_corrupt(self, kind: str, path: Path) -> None:
        """A disk entry failed validation: count it, delete it, and let
        the caller rebuild through the normal miss path."""
        self.stats["corrupt"] = self.stats.get("corrupt", 0) + 1
        tel = get_telemetry()
        if tel.enabled:
            tel.count("cache", "corrupt")
        try:
            path.unlink()
        except OSError:
            pass

    def _disk_load(self, kind: str, digest: str) -> Optional[object]:
        path = self._disk_path(kind, digest)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                entry = pickle.load(handle)
        except Exception:
            # Truncated or garbled pickle.
            self._evict_corrupt(kind, path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != DISK_FORMAT_VERSION
            or entry.get("kind") != kind
            or entry.get("digest") != digest
            or "artifact" not in entry
        ):
            # Stale format, or an entry that does not match its own
            # file name (bit rot, a bad copy): self-invalidate.
            self._evict_corrupt(kind, path)
            return None
        return entry["artifact"]

    def _disk_store(self, kind: str, digest: str, artifact: object) -> None:
        path = self._disk_path(kind, digest)
        if path is None:
            return
        entry = {
            "version": DISK_FORMAT_VERSION,
            "kind": kind,
            "digest": digest,
            "artifact": artifact,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic publish: parallel writers race benignly (same
            # digest -> same content), partial writes never surface.
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("wb") as handle:
                pickle.dump(entry, handle)
            tmp.replace(path)
        except Exception:
            pass  # unpicklable or unwritable: memory layer still serves

    # ------------------------------------------------------------------
    def get(self, kind: str, digest: str, build: Callable[[], T]) -> T:
        """The artifact under ``(kind, digest)``, building it on a miss."""
        key = (kind, digest)
        with self._lock:
            if key in self._memory:
                self._bump(kind, "hits")
                return self._memory[key]  # type: ignore[return-value]
        artifact = self._disk_load(kind, digest)
        if artifact is not None:
            with self._lock:
                self._memory[key] = artifact
            self._bump(kind, "hits")
            return artifact  # type: ignore[return-value]
        self._bump(kind, "misses")
        artifact = build()
        self.put(kind, digest, artifact)
        return artifact

    def put(self, kind: str, digest: str, artifact: object) -> None:
        """Install an artifact (used by the sweep runner to warm the
        parent cache with results computed in worker processes)."""
        with self._lock:
            self._memory[(kind, digest)] = artifact
        self._disk_store(kind, digest, artifact)

    def clear(self) -> int:
        """Drop every memory entry and delete the disk entries; returns
        the number of entries removed."""
        with self._lock:
            removed = len(self._memory)
            self._memory.clear()
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*/*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# ---------------------------------------------------------------------------
# Process-global default cache
# ---------------------------------------------------------------------------
_default: Optional[CompileCache] = None


def get_cache() -> CompileCache:
    """The process-global cache (disk-backed iff ``REPRO_CACHE_DIR`` is
    set or :func:`set_cache` installed a directory-backed one)."""
    global _default
    if _default is None:
        _default = CompileCache(os.environ.get(CACHE_DIR_ENV) or None)
    return _default


def set_cache(cache: Optional[CompileCache]) -> Optional[CompileCache]:
    """Install ``cache`` globally (None resets to a fresh default);
    returns the previous handle so callers can restore it."""
    global _default
    previous = _default
    _default = cache
    return previous


def clear_cache() -> int:
    """Clear the process-global cache (memory and disk layers)."""
    return get_cache().clear()


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
    system: Optional["SystemConfig"] = None,
) -> str:
    """Digest keying a full simulation result.

    ``system`` stays ``None`` on the single-node path so those digests
    are untouched by the scale-out axes; sweep rows with ``--nodes`` or
    ``--strategy`` set key under their full system fingerprint.
    """
    return compile_digest(
        net, node, artifact="simulation", minibatch=minibatch,
        system=system, **_fault_extra(faults),
    )


def cached_simulation(
    net: Network,
    node: NodeConfig,
    minibatch: int = DEFAULT_MINIBATCH,
    cache: Optional[CompileCache] = None,
    faults: Optional[FaultSpec] = None,
    system: Optional["SystemConfig"] = None,
) -> PerfResult:
    """Full analytical simulation, content-cached (the mapping inside a
    freshly-built result comes from the same cache).

    The cached artifact is always the *per-node* :class:`PerfResult`;
    ``system`` only namespaces the digest so multi-node sweep rows get
    their own cache entries (the cheap scale-out overlay is recomputed
    by the caller)."""
    cache = cache if cache is not None else get_cache()
    digest = simulation_digest(net, node, minibatch, faults, system=system)
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
