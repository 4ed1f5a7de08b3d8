"""Content fingerprints for compile artifacts.

The mapping and codegen pipelines are deterministic functions of three
inputs: the network topology, the node configuration, and the compiler
itself.  This module digests those inputs into a stable hex key so
caches (:mod:`repro.sweep.cache`) can be keyed by *content* rather than
object identity — two independently-built but logically-equal networks
or presets produce the same digest, while any perturbation of a layer
shape, a preset field, or the compiler version produces a different one.

Cosmetic fields are excluded: the node's ``name`` does not affect what
the compiler produces, and neither does the network's display name
(layer names *are* included — the wiring references them).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Dict

from repro.arch.node import NodeConfig
from repro.compiler.ir import IR_SCHEMA_VERSION
from repro.dnn.network import Network

#: Version of the mapping/codegen pipeline baked into every digest.
#: Bump this whenever STEP1-6 or the code generators change the
#: artifacts they produce for the same inputs — every cache entry keyed
#: under the old version becomes unreachable (implicit invalidation).
#: "2": fault-aware mapping added assigned-column/derate fields to
#: allocations and a fault mask to WorkloadMapping.
#: "3": the unified-IR pass pipeline; digests also bake in
#: ``IR_SCHEMA_VERSION``, so IR shape changes invalidate on their own.
#: "4": multi-node scale-out — digests gain a ``system`` slot (topology
#: + parallelism strategy), so system-level results can never collide
#: with single-node entries cached under older versions.
#: "5": superop fusion — lowered programs carry fusion plans.  Codegen
#: digests first baked in a fuse flag; fusion is now unconditional and
#: the flag left the payload, which changes every codegen digest, so no
#: entry cached with the flag can collide.
COMPILER_VERSION = "5"


def canonical(obj: Any) -> Any:
    """A JSON-serialisable canonical form of ``obj``.

    Dataclasses become ``{"__type__": <class>, <field>: ...}`` maps,
    enums their values; mappings are key-sorted.  Raises ``TypeError``
    for objects with no stable canonical form (by way of
    ``json.dumps`` at digest time).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        form: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            form[f.name] = canonical(getattr(obj, f.name))
        return form
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    return obj


def network_fingerprint(net: Network) -> Dict[str, Any]:
    """Canonical form of a network's topology (specs + wiring).

    The network's display name is omitted; the layer specs and the
    wiring between them are what the compiler consumes.
    """
    return {
        "layers": [
            {
                "spec": canonical(node.spec),
                "inputs": list(node.input_names),
            }
            for node in net
        ],
    }


def node_fingerprint(node: NodeConfig) -> Dict[str, Any]:
    """Canonical form of a node configuration, minus its display name."""
    form = canonical(node)
    form.pop("name", None)
    return form


def system_fingerprint(system: "SystemConfig") -> Dict[str, Any]:
    """Canonical form of a system configuration.

    Display names (the system's and its node's) are cosmetic and
    excluded; node count, fabric constants and the parallelism strategy
    all change what the system-level simulation produces.
    """
    form = canonical(system)
    form.pop("name", None)
    if isinstance(form.get("node"), dict):
        form["node"].pop("name", None)
    return form


def compile_digest(
    net: Network,
    node: "NodeConfig | None",
    artifact: str = "mapping",
    system: "SystemConfig | None" = None,
    **extra: Any,
) -> str:
    """Stable hex digest of everything a compile artifact depends on.

    ``artifact`` namespaces the digest per artifact kind, and ``extra``
    carries any further inputs (e.g. the simulation minibatch or a
    reference-model seed; dataclasses such as a chip config are fine).
    ``node`` may be ``None`` for artifacts that do not depend on a full
    node configuration; ``system`` stays ``None`` for single-node
    artifacts (the default path) and carries the scale-out topology +
    strategy otherwise.
    """
    payload = {
        "compiler_version": COMPILER_VERSION,
        "ir_schema_version": IR_SCHEMA_VERSION,
        "artifact": artifact,
        "network": network_fingerprint(net),
        "node": None if node is None else node_fingerprint(node),
        "system": None if system is None else system_fingerprint(system),
    }
    if extra:
        payload["extra"] = canonical(extra)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
