"""Spans around the public entry points of each layer, recorded in memory.

The benchmark times the program from the outside: :meth:`Tracer.install` wraps
the public functions listed in :data:`TARGETS` so every call records a
span (name, start, end, parent span, item id, phase).  Functions that
other modules bind with ``from ... import`` are wrapped in the importing
module too, because that binding is the one the caller looks up.

A layer's *self time* is its spans' duration minus the time their child
spans cover, so nested layers (a compiler pass inside a compile, a
calibration inside the lower pass) never count twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Span-name prefix -> the layer it belongs to (for shares of timed time).
LAYER_OF = {
    "compiler": "compiler",
    "engine": "engine",
    "reference": "reference",
    "analytical": "analytical",
    "mapping": "analytical",
    "perf": "analytical",
    "serve": "serve",
}

#: Layers in report order; ``harness`` is timed time outside every span.
LAYERS = ("compiler", "engine", "reference", "analytical", "serve", "harness")

_VALIDATION = "repro.sim.validation"
_PASSES = "repro.compiler.passes"
_CODEGEN = "repro.compiler.codegen"

#: (span name, module, attribute) of every wrapped callable.  A dotted
#: attribute is a method on a class of that module.  The span name
#: ``engine.run`` is split by the engine's ``fused`` flag at call time;
#: ``item`` marks validate_zoo's per-network step.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("item", _VALIDATION, "engine_forward_cycles"),
    ("compiler.compile", "repro.compiler.codegen_dag", "compile_dag_forward"),
    ("compiler.compile", _VALIDATION, "compile_dag_forward"),
    ("compiler.pass.legalize", f"{_PASSES}.legalize", "LegalizePass.run"),
    ("compiler.pass.place-check", f"{_PASSES}.place_check",
     "PlaceCheckPass.run"),
    ("compiler.pass.tracker-assign", f"{_PASSES}.tracker_assign",
     "TrackerAssignPass.run"),
    ("compiler.pass.schedule", f"{_PASSES}.schedule", "SchedulePass.run"),
    ("compiler.pass.lower", f"{_PASSES}.lower", "LowerPass.run"),
    ("compiler.pass.fuse", f"{_PASSES}.fuse", "FusePass.run"),
    ("compiler.calibrate", f"{_PASSES}.lower", "calibrate_trackers"),
    ("compiler.ir_verify", f"{_PASSES}.manager", "assert_ir_verified"),
    ("compiler.program_verify", _CODEGEN, "CompiledForward.verify"),
    ("engine.build_machine", _CODEGEN, "CompiledForward.build_machine"),
    ("engine.forward", _CODEGEN, "CompiledForward.run"),
    ("engine.stream", _CODEGEN, "ForwardRunner.__call__"),
    ("engine.run", "repro.sim.engine", "Engine.run"),
    ("reference.init", "repro.functional.reference",
     "ReferenceModel.__init__"),
    ("reference.forward", "repro.functional.reference",
     "ReferenceModel.forward"),
    ("analytical.forward_cycles", _VALIDATION, "analytical_forward_cycles"),
    ("mapping.compile", "repro.compiler.pipeline", "compile_network"),
    ("perf.simulate", "repro.sim.perf", "simulate"),
    ("perf.simulate", "repro.sweep.cache", "simulate"),
    ("serve.simulate", "repro.serve.simulator", "simulate_serving"),
    ("serve.generate", "repro.serve.simulator", "generate_requests"),
    ("serve.place", "repro.serve.placement", "place_networks"),
    ("serve.place", "repro.serve.simulator", "place_networks"),
    ("serve.place", "repro.serve.failures", "place_networks"),
    ("serve.lifecycle_init", "repro.serve.failures",
     "FailureLifecycle.__init__"),
    ("serve.rebuild", "repro.serve.failures", "FailureLifecycle.rebuild"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    item: str
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return LAYER_OF.get(name.split(".", 1)[0], "harness")


def _machine_totals(machine) -> Tuple[int, int, int, int]:
    blocked = sum(
        m.trackers.blocked_reads + m.trackers.blocked_writes
        for m in machine.mem_tiles
    )
    return (
        machine.total_cycles, machine.total_instructions,
        machine.total_busy_cycles, blocked,
    )


class Tracer:
    """Records spans while :attr:`active`; wrappers pass straight
    through otherwise."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self.phase = "setup"
        self.item = ""
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []
        #: Per phase, counts read from the wrapped calls' arguments and
        #: return values (see :meth:`_begin`).
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(int)
        )
        #: Active-fault sets each live ``FailureLifecycle`` has built.
        self._built: Dict[int, set] = {}

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self.item, self.phase)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _innermost_layer(self) -> Optional[str]:
        if not self._stack:
            return None
        return layer_of(self.spans[self._stack[-1]].name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        # The analytical ``compile_network`` runs the same pass manager;
        # its IR verification belongs to ``mapping.compile``, so it is
        # recorded only inside the engine compiler.
        compiler_only = name == "compiler.ir_verify"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (
                compiler_only and tracer._innermost_layer() != "compiler"
            ):
                return fn(*args, **kwargs)
            saved_item = tracer.item
            span_name, hook = tracer._begin(name, args)
            index = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                tracer.item = saved_item
            if hook is not None:
                hook(result)
            return result

        return traced

    def _begin(self, name: str, args) -> Tuple[str, Optional[Callable]]:
        """The span name for this call, plus a hook that reads counts
        from the call's result.  Sets the item id of calls that start
        one item: a network validated, an image streamed."""
        counts = self.counts[self.phase]
        if name == "item":
            self.item = args[0].name
        elif name == "engine.stream":
            runner = args[0]
            self.item = f"{runner.compiled.network.name}#{runner.images_run}"
        elif name == "engine.run":
            # A persistent runner's machine keeps running totals, so a
            # run's work is the difference across the call.
            engine = args[0]
            mode = "fused" if engine.fused else "unfused"
            before = _machine_totals(engine.machine)

            def after(report) -> None:
                cycles, instructions, busy, blocked = (
                    now - then for now, then in zip(
                        _machine_totals(engine.machine), before
                    )
                )
                key = "fused_cycles" if engine.fused else "cycles"
                counts[f"engine.{key}"] += cycles
                counts["engine.instructions"] += instructions
                counts["engine.busy_cycles"] += busy
                counts["engine.blocked"] += blocked
                counts["engine.rounds"] += report.rounds

            return f"engine.{mode}.run", after
        if name == "compiler.compile":
            def after(compiled) -> None:
                for stats in compiled.pass_stats:
                    notes = stats.notes
                    counts["compiler.trackers"] += notes.get("trackers", 0)
                    counts["compiler.superops"] += notes.get("superops", 0)
                    counts["compiler.fused_instructions"] += notes.get(
                        "fused_instructions", 0
                    )
                    if stats.name == "lower":
                        counts["compiler.instructions"] += notes[
                            "instructions"
                        ]

            return name, after
        if name == "serve.simulate":
            def after(report) -> None:
                for tenant in report.tenants:
                    for key in ("offered", "completed", "shed", "timed_out",
                                "failed", "retries", "hedges", "batches"):
                        counts[f"serve.{key}"] += getattr(tenant, key)
                counts["serve.fault_events"] += len(report.fault_events)
                latency = report.node_latency_ms()
                counts["serve.sim_p99_ms"] = (
                    latency.percentile(99) if latency.count else 0.0
                )

            return name, after
        if name == "serve.rebuild":
            lifecycle, active = args[0], args[1]
            built = self._built.setdefault(id(lifecycle), {frozenset()})
            counts["serve.rebuilds"] += 1
            counts["serve.rebuild_hits"] += active in built
            built.add(active)
        elif name == "serve.lifecycle_init":
            self._built.pop(id(args[0]), None)
        return name, None

    # -- installation --------------------------------------------------
    def install(self) -> "Tracer":
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(name, original))
            self._restore.append((owner, leaf, original))
        return self

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self, phases=("setup", "timed")) -> Dict[str, float]:
        """Self seconds per span name over spans of ``phases``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child):
            if span.phase in phases:
                totals[span.name] += span.duration - covered
        return dict(totals)

    def layer_shares(self, timed_wall_s: float) -> Dict[str, float]:
        """Each layer's share of the timed wall time; ``harness`` takes
        what no span covers."""
        shares = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_times(("timed",)).items():
            layer = layer_of(name)
            if layer != "harness":
                shares[layer] += seconds / timed_wall_s
        shares["harness"] = 1.0 - sum(shares.values())
        return shares

    def names(self, phase: str) -> set:
        return {s.name for s in self.spans if s.phase == phase}

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace events (``chrome://tracing``
        or Perfetto)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.name, "cat": layer_of(s.name), "ph": "X",
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "pid": 1, "tid": 1,
                "args": {"id": i, "parent": s.parent, "item": s.item,
                         "phase": s.phase},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
