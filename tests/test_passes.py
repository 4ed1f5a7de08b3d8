"""Tests for the compiler pass pipeline over the unified IR."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.arch import single_precision_node
from repro.compiler import fingerprint
from repro.compiler.codegen import ForwardCompiler, compile_forward
from repro.compiler.codegen_training import compile_training
from repro.compiler.fingerprint import compile_digest
from repro.compiler.ir import Phase
from repro.compiler.passes.legalize import LegalizePass
from repro.compiler.passes.manager import Pass, PassContext, PassManager
from repro.compiler.pipeline import compile_network
from repro.dnn import zoo
from repro.dnn.builder import NetworkBuilder
from repro.errors import IRVerificationError, MappingError
from repro.faults.model import FaultSpec, sample_faults
from repro.functional.reference import ReferenceModel
from repro.isa.instructions import Opcode

PIPELINE_ORDER = [
    "legalize", "place-check", "tracker-assign", "schedule", "lower",
    "fuse",
]


def _model_pair(name):
    net = zoo.load(name)
    return net, ReferenceModel(net, seed=0)


def _armed_tracker_ports(programs):
    """Per-port armed MEMTRACK counts, keyed like the IR tracker plan."""
    armed = Counter()
    for program in programs:
        for ins in program.instructions:
            if ins.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK):
                armed[str(ins.operand("port"))] += 1
    return dict(armed)


class TestPipeline:
    def test_pass_order_is_recorded(self):
        compiled = compile_forward(*_model_pair("TinyCNN"))
        assert [s.name for s in compiled.pass_stats] == PIPELINE_ORDER

    def test_lower_notes_programs_and_dialect(self):
        compiled = compile_forward(*_model_pair("TinyCNN"))
        lower = compiled.pass_stats[-2]
        assert lower.name == "lower"
        assert lower.notes["programs"] == len(compiled.programs)
        assert lower.notes["dialect"] == "exact"

    def test_fuse_notes_coverage(self):
        compiled = compile_forward(*_model_pair("TinyCNN"))
        fuse = compiled.pass_stats[-1]
        assert fuse.name == "fuse"
        assert fuse.notes["superops"] > 0
        assert 0 < fuse.notes["coverage"] <= 1.0
        assert fuse.notes["fused_instructions"] == sum(
            len(s) for p in compiled.programs for s in p.superops
        )

    def test_fusion_opt_out_skips_the_pass(self):
        """A compiler whose programs fusion cannot model (the training
        compiler) opts out with ``supports_fusion = False``."""

        class UnfusedCompiler(ForwardCompiler):
            supports_fusion = False

        net, model = _model_pair("TinyCNN")
        compiled = UnfusedCompiler(net, model).compile()
        assert [s.name for s in compiled.pass_stats] == PIPELINE_ORDER[:-1]
        assert all(not p.superops for p in compiled.programs)

    def test_compiled_ir_travels_with_the_programs(self):
        compiled = compile_forward(*_model_pair("TinyMLP"))
        assert compiled.ir is not None
        assert compiled.ir.level == "tile"
        assert {op.phase for op in compiled.ir.ops} == {Phase.FP}

    def test_unknown_scope_is_typed(self):
        with pytest.raises(MappingError, match="unknown legalization"):
            LegalizePass("sideways")

    def test_forward_scope_rejects_grouped_conv(self):
        b = NetworkBuilder("grouped")
        b.input(4, 8)
        b.conv(8, kernel=3, pad=1, groups=2)
        b.global_pool()
        b.fc(4)
        net = b.build()
        with pytest.raises(MappingError, match="groups=1"):
            compile_forward(net, ReferenceModel(net, seed=0))


class TestSchedule:
    def test_fp_schedule_follows_network_order(self):
        compiled = compile_forward(*_model_pair("TinyCNN"))
        layers = [
            name.split(":")[1].split("@")[0]
            for name in compiled.ir.schedule
        ]
        expected = [
            node.name for node in compiled.network
            if node.name != compiled.network.input.name
        ]
        seen = list(dict.fromkeys(layers))
        assert seen == expected

    def test_training_schedule_ends_with_injection(self):
        compiled = compile_training(*_model_pair("TinyCNN"))
        schedule = compiled.forward.ir.schedule
        assert schedule[-1] == "bp:inject"
        phases = [name.split(":")[0] for name in schedule]
        # All FP ops come before the backward wave.
        assert phases.index("bp") > max(
            i for i, p in enumerate(phases) if p == "fp"
        )


class TestTrackerPlan:
    @pytest.mark.parametrize("name", ["TinyCNN", "TinyMLP"])
    def test_forward_plan_matches_armed_trackers(self, name):
        """The IR-level tracker plan is exactly what the lowering arms —
        the plan cannot drift from the emission."""
        compiled = compile_forward(*_model_pair(name))
        plan = {
            k: int(v)
            for k, v in compiled.ir.meta["tracker_plan"].items()
        }
        assert _armed_tracker_ports(compiled.programs) == plan
        assert sum(plan.values()) == sum(
            op.attrs["trackers"] for op in compiled.ir.ops
        )

    @pytest.mark.parametrize("minibatch", [1, 2])
    def test_training_plan_matches_armed_trackers(self, minibatch):
        compiled = compile_training(
            *_model_pair("TinyCNN"), minibatch=minibatch
        )
        plan = {
            k: int(v)
            for k, v in compiled.forward.ir.meta["tracker_plan"].items()
        }
        assert _armed_tracker_ports(compiled.forward.programs) == plan

    def test_capacity_overflow_is_typed(self):
        net, model = _model_pair("TinyCNN")
        compiler = ForwardCompiler(net, model)
        compiler.chip = replace(
            compiler.chip,
            mem_tile=replace(compiler.chip.mem_tile, tracker_count=1),
        )
        with pytest.raises(IRVerificationError, match="tracker"):
            compiler.compile()


class TestManagerVerification:
    def test_malformed_pass_output_fails_at_its_boundary(self):
        class Corrupt(Pass):
            name = "corrupt"

            def run(self, ir, ctx, stats):
                ir.add_edge("fp:ghost", "fp:phantom", words=1)
                return ir

        net = zoo.load("TinyMLP")
        compiled = compile_network(net, single_precision_node())
        manager = PassManager([Corrupt()])
        with pytest.raises(IRVerificationError):
            manager.run(compiled.ir, PassContext(net=net))

    def test_verification_can_be_disabled(self):
        class Corrupt(Pass):
            name = "corrupt"

            def run(self, ir, ctx, stats):
                ir.add_edge("fp:ghost", "fp:phantom", words=1)
                return ir

        net = zoo.load("TinyMLP")
        compiled = compile_network(net, single_precision_node())
        manager = PassManager([Corrupt()], verify=False)
        ir, stats = manager.run(compiled.ir, PassContext(net=net))
        assert stats[0].changed


class TestFaultRemap:
    def test_no_mask_is_a_no_op(self):
        net = zoo.load("AlexNet")
        compiled = compile_network(net, single_precision_node())
        assert "fault_remap" not in compiled.ir.meta
        assert not compiled.mapping.degraded

    def test_mask_rewrites_the_ir(self):
        net = zoo.load("AlexNet")
        node = single_precision_node()
        mask = sample_faults(FaultSpec(rate=0.05, seed=7), node)
        compiled = compile_network(net, node, faults=mask)
        assert compiled.ir.meta["fault_remap"]["fault_count"] > 0
        assert compiled.mapping.faults is mask
        healthy = compile_network(net, node)
        assert compiled.ir.to_json() != healthy.ir.to_json()

    def test_describe_includes_pass_stats(self):
        net = zoo.load("TinyMLP")
        compiled = compile_network(net, single_precision_node())
        text = compiled.describe()
        assert "fault-remap" in text


class TestFingerprintSchema:
    def test_ir_schema_version_is_in_the_digest(self, monkeypatch):
        net = zoo.load("TinyMLP")
        node = single_precision_node()
        before = compile_digest(net, node)
        monkeypatch.setattr(fingerprint, "IR_SCHEMA_VERSION", "999")
        assert compile_digest(net, node) != before

    def test_compiler_version_bump_evicts_cached_artifacts(
        self, monkeypatch
    ):
        """Artifacts fingerprinted under the pre-IR compiler ("2") are
        unreachable under "3": the cache rebuilds instead of serving a
        stale pre-IR placement."""
        from repro.sweep.cache import CompileCache

        net = zoo.load("TinyMLP")
        node = single_precision_node()
        cache = CompileCache()
        builds = []

        monkeypatch.setattr(fingerprint, "COMPILER_VERSION", "2")
        old_digest = compile_digest(net, node, artifact="mapping")
        cache.get("mapping", old_digest, lambda: builds.append("old") or 1)

        monkeypatch.setattr(fingerprint, "COMPILER_VERSION", "3")
        new_digest = compile_digest(net, node, artifact="mapping")
        assert new_digest != old_digest
        cache.get("mapping", new_digest, lambda: builds.append("new") or 2)
        assert builds == ["old", "new"]
