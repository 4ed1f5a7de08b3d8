"""Tests for the unified compiler IR: types, serialisation, verification."""

import pytest

from repro.arch import single_precision_node
from repro.compiler.ir import (
    IR_SCHEMA_VERSION,
    IREdge,
    IROp,
    MappingIR,
    Phase,
    build_tile_ir,
)
from repro.compiler.partition import partition_graph
from repro.compiler.pipeline import compile_network
from repro.compiler.verifier import MachineShape, assert_ir_verified, verify_ir
from repro.dnn import zoo
from repro.errors import IRError, IRVerificationError, ReproError

ALL_NETWORKS = sorted(zoo.BENCHMARKS) + sorted(zoo.EXTRAS)


def _tiny_ir(level="unit"):
    ir = MappingIR(network="t", node="n", level=level)
    ir.add_op(IROp(name="fp:a", layer="a", kind="conv",
                   phase=Phase.FP, column=0, row=0))
    ir.add_op(IROp(name="fp:b", layer="b", kind="fc",
                   phase=Phase.FP, column=1, row=0))
    ir.add_edge("fp:a", "fp:b", words=16)
    ir.schedule = ["fp:a", "fp:b"]
    return ir


class TestPhase:
    def test_parse_is_case_insensitive(self):
        assert Phase.parse("FP") is Phase.FP
        assert Phase.parse("wg") is Phase.WG

    def test_parse_unknown_is_typed(self):
        with pytest.raises(IRError, match="unknown phase"):
            Phase.parse("sideways")
        assert issubclass(IRError, ReproError)


class TestStructure:
    def test_duplicate_op_rejected(self):
        ir = _tiny_ir()
        with pytest.raises(IRError, match="duplicate op"):
            ir.add_op(IROp(name="fp:a", layer="a", kind="conv",
                           phase=Phase.FP, column=0))

    def test_missing_op_lookup_is_typed(self):
        with pytest.raises(IRError, match="no op named"):
            _tiny_ir().op("fp:ghost")

    def test_edge_queries(self):
        ir = _tiny_ir()
        assert [e.dst for e in ir.consumers_of("fp:a")] == ["fp:b"]
        assert [e.src for e in ir.producers_of("fp:b")] == ["fp:a"]

    def test_filtered_keeps_one_phase(self):
        ir = _tiny_ir()
        ir.add_op(IROp(name="bp:b", layer="b", kind="fc",
                       phase=Phase.BP, column=1, row=0))
        ir.schedule.append("bp:b")
        fp = ir.filtered(Phase.FP)
        assert {op.name for op in fp.ops} == {"fp:a", "fp:b"}
        assert fp.schedule == ["fp:a", "fp:b"]
        # The original is untouched.
        assert len(ir.ops) == 3

    def test_stats_counts_phases_and_words(self):
        stats = _tiny_ir().stats()
        assert stats["ops"] == 2
        assert stats["ops_fp"] == 2
        assert stats["ops_bp"] == 0
        assert stats["edge_words"] == 16


class TestSerialisation:
    def test_round_trip_is_lossless(self):
        ir = _tiny_ir()
        ir.meta["note"] = "x"
        again = MappingIR.from_json(ir.to_json())
        assert again.to_json() == ir.to_json()
        assert again.ops[0].phase is Phase.FP

    def test_schema_version_mismatch_is_typed(self):
        form = _tiny_ir().to_dict()
        form["schema_version"] = "0"
        with pytest.raises(IRError, match="schema version"):
            MappingIR.from_dict(form)

    def test_malformed_json_is_typed(self):
        with pytest.raises(IRError, match="malformed IR JSON"):
            MappingIR.from_json("{nope")

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_every_zoo_network_round_trips(self, name):
        """compile -> serialise -> deserialise is lossless and the
        deserialised IR still verifies clean, for the whole zoo."""
        net = zoo.load(name)
        compiled = compile_network(net, single_precision_node())
        ir = compiled.ir
        assert ir.schema_version == IR_SCHEMA_VERSION
        again = MappingIR.from_json(ir.to_json())
        assert again.to_json() == ir.to_json()
        assert verify_ir(again) == []

    def test_tile_level_round_trip(self):
        net = zoo.load("TinyCNN")
        part = partition_graph(net, 2, 1 << 20)
        ir = build_tile_ir(net, part, 2, phases=(Phase.FP,))
        again = MappingIR.from_json(ir.to_json())
        assert again.to_json() == ir.to_json()
        assert again.level == "tile"


class TestVerifier:
    def test_clean_ir_has_no_findings(self):
        assert verify_ir(_tiny_ir()) == []

    def test_dangling_edge_endpoint(self):
        ir = _tiny_ir()
        ir.add_edge("fp:a", "fp:ghost", words=4)
        assert any("does not exist" in i.message for i in verify_ir(ir))

    def test_non_positive_edge_words(self):
        ir = _tiny_ir()
        ir.add_edge("fp:b", "fp:a", words=0)
        assert any("moves 0 words" in i.message for i in verify_ir(ir))

    def test_self_edge(self):
        ir = _tiny_ir()
        ir.add_edge("fp:a", "fp:a", words=4)
        assert any("self-edge" in i.message for i in verify_ir(ir))

    def test_schedule_must_reference_real_ops_once(self):
        ir = _tiny_ir()
        ir.schedule = ["fp:a", "fp:a", "fp:ghost"]
        messages = [i.message for i in verify_ir(ir)]
        assert any("scheduled twice" in m for m in messages)
        assert any("does not exist" in m for m in messages)

    def test_tile_home_block_bounds(self):
        ir = _tiny_ir(level="tile")
        ir.ops[0].attrs.update(
            address=1000, feature_count=8, feature_words=4
        )
        shape = MachineShape(
            mem_tiles=4, words_per_tile=512, trackers_per_tile=8
        )
        assert any(
            "exceeds" in i.message for i in verify_ir(ir, shape)
        )

    def test_tile_home_block_overlap(self):
        ir = _tiny_ir(level="tile")
        for op in ir.ops:
            op.attrs.update(address=0, feature_count=4, feature_words=4)
        # Same tile: force both onto column 0, row 0.
        ir.ops[1] = IROp(name="fp:b", layer="b", kind="fc",
                         phase=Phase.FP, column=0, row=0,
                         attrs=dict(ir.ops[1].attrs))
        shape = MachineShape(
            mem_tiles=4, words_per_tile=512, trackers_per_tile=8
        )
        assert any("overlaps" in i.message for i in verify_ir(ir, shape))

    def test_assert_raises_typed_error_with_issues(self):
        ir = _tiny_ir()
        ir.add_edge("fp:a", "fp:ghost", words=4)
        with pytest.raises(IRVerificationError) as exc:
            assert_ir_verified(ir)
        assert exc.value.issues
        assert issubclass(IRVerificationError, ReproError)
