"""End-to-end tests: compiled ISA programs reproduce the golden model."""

import numpy as np
import pytest

from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.partition import partition_graph
from repro.dnn.builder import NetworkBuilder
from repro.dnn.zoo import tiny_cnn, tiny_mlp
from repro.errors import MappingError
from repro.functional import ReferenceModel
from repro.isa.instructions import InstrGroup, Opcode


def model_with_biases(net, seed=3):
    model = ReferenceModel(net, seed=seed)
    for st in model.state.values():
        if st.bias is not None:
            st.bias += np.linspace(-0.1, 0.1, st.bias.size).astype(
                np.float32
            )
    return model


def random_image(net, seed=0):
    shape = net.input.output_shape
    rng = np.random.default_rng(seed)
    return rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)


class TestEngineMatchesGoldenModel:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_tiny_cnn(self, rows):
        net = tiny_cnn(num_classes=5, in_size=12)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=rows)
        img = random_image(net)
        want = model.forward(img)
        got, report = compiled.run(img)
        np.testing.assert_allclose(got, want, atol=1e-4)
        assert report.instructions == compiled.instruction_count

    def test_tiny_mlp(self):
        net = tiny_mlp(num_classes=4, in_features=6, hidden=9)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net, seed=5)
        want = model.forward(img)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, want, atol=1e-5)

    def test_multiple_images_reuse_compiled_programs(self):
        net = tiny_cnn(num_classes=3, in_size=8)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        for seed in range(3):
            img = random_image(net, seed=seed)
            got, _ = compiled.run(img)
            np.testing.assert_allclose(got, model.forward(img), atol=1e-4)

    def test_avg_pool_network(self):
        from repro.dnn.layers import Activation, PoolMode

        b = NetworkBuilder("avgnet")
        b.input(2, 8)
        b.conv(4, kernel=3, pad=1)
        b.pool(2, mode=PoolMode.AVG)
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-5)

    def test_strided_conv(self):
        from repro.dnn.layers import Activation

        b = NetworkBuilder("strided")
        b.input(2, 9)
        b.conv(4, kernel=3, stride=2)
        b.fc(3, activation=Activation.SOFTMAX)
        net = b.build()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        img = random_image(net)
        got, _ = compiled.run(img)
        np.testing.assert_allclose(got, model.forward(img), atol=1e-5)


class TestSynchronizationUnderScheduling:
    def test_blocked_accesses_resolve(self):
        """Tracker blocking occurs and resolves: the schedule forces
        consumers to wait on producers (Sec 3.2.4 in action)."""
        net = tiny_cnn(num_classes=4, in_size=12)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        _, report = compiled.run(random_image(net))
        assert report.blocked_reads > 0
        assert report.cycles > 0


class TestProgramStructure:
    def test_one_program_per_computing_tile(self):
        net = tiny_cnn(num_classes=5, in_size=12)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        # Every non-input layer block gets a program.
        expected = sum(
            len(compiled.partition.blocks_of(n.name))
            for n in net
            if n.name != "input"
        )
        assert len(compiled.programs) == expected

    def test_programs_validate_and_use_all_groups(self):
        net = tiny_cnn(num_classes=5, in_size=12)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        groups = set()
        for prog in compiled.programs:
            prog.validate()
            groups.update(prog.counts_by_group())
        assert InstrGroup.COARSE in groups
        assert InstrGroup.OFFLOAD in groups
        assert InstrGroup.TRANSFER in groups
        assert InstrGroup.TRACK in groups

    def test_prologues_aligned(self):
        net = tiny_cnn(num_classes=5, in_size=12)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)

        def data_start(prog):
            for pc, instr in enumerate(prog):
                if instr.group not in (
                    InstrGroup.TRACK, InstrGroup.SCALAR
                ):
                    return pc
            return len(prog)

        def tracker_end(prog):
            last = 0
            for pc, instr in enumerate(prog):
                if instr.group is InstrGroup.TRACK:
                    last = pc
            return last

        earliest_data = min(data_start(p) for p in compiled.programs)
        latest_tracker = max(tracker_end(p) for p in compiled.programs)
        assert latest_tracker < earliest_data

    def test_disassembly_readable(self):
        net = tiny_mlp()
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=1)
        listing = compiled.programs[0].disassemble()
        assert "MATMUL" in listing or "MEMTRACK" in listing


class TestUnsupportedShapes:
    def test_foreign_model_rejected(self):
        net = tiny_mlp()
        other = ReferenceModel(tiny_mlp())
        with pytest.raises(MappingError):
            compile_dag_forward(net, other)


class TestPartition:
    def test_blocks_cover_features(self):
        net = tiny_cnn(num_classes=5, in_size=12)
        part = partition_graph(net, rows=3, capacity_words=1 << 17)
        for node in net:
            blocks = part.blocks_of(node.name)
            covered = sorted(
                f
                for b in blocks
                for f in range(
                    b.first_feature, b.first_feature + b.feature_count
                )
            )
            assert covered == list(range(node.output_shape.count))

    def test_final_layer_single_row(self):
        net = tiny_cnn(num_classes=5, in_size=12)
        part = partition_graph(net, rows=3, capacity_words=1 << 17)
        assert len(part.blocks_of(net.output.name)) == 1

    def test_feature_address_bounds(self):
        net = tiny_mlp()
        part = partition_graph(net, rows=2, capacity_words=1 << 16)
        block = part.blocks_of("fc1")[0]
        with pytest.raises(MappingError):
            block.feature_address(10_000)

    def test_capacity_overflow_detected(self):
        net = tiny_cnn(num_classes=5, in_size=12)
        with pytest.raises(MappingError):
            partition_graph(net, rows=1, capacity_words=16)


class TestMemoryMap:
    def test_memory_map_lists_every_tile_and_block(self):
        net = tiny_cnn(num_classes=4, in_size=8)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        text = compiled.partition.memory_map()
        assert "input/out" in text
        assert "conv1/kernels" in text
        assert "fc2/pre" in text
        # Every allocated tile appears with a utilization figure.
        for (col, row) in compiled.partition.allocators:
            assert f"tile c{col} r{row}" in text

    def test_tile_occupancy_bounded_and_consistent(self):
        net = tiny_cnn(num_classes=4, in_size=8)
        model = model_with_biases(net)
        compiled = compile_dag_forward(net, model, rows=2)
        occupancy = compiled.partition.tile_occupancy()
        assert occupancy
        for value in occupancy.values():
            assert 0.0 <= value <= 1.0
        # Bump allocation: cursor equals the sum of block sizes.
        for key, alloc in compiled.partition.allocators.items():
            assert alloc.cursor == sum(
                words for _, words in alloc.blocks.values()
            )
