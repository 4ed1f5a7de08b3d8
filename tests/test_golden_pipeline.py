"""Golden-file pins for the compile pipeline.

``tests/data/pipeline_baseline.json`` was recorded from the pre-IR
compiler: program disassembly digests, engine run statistics, output
digests and analytical throughput for every zoo network.  These tests
pin the pass pipeline to it — down to the emitted instruction bytes —
and close the round trip: an IR serialised to JSON, deserialised, and
re-lowered produces byte-identical ISA programs.

Every engine pin is a forward pin.  ``TinyCNN/r3/seq`` keeps the key
it was recorded under: its instructions, cycles and output digest are
the forward compiler's, and only its ``program_sha`` was re-recorded
(the listing's comments and tracker opcodes differ).  The sequential
forward compiler that recorded the ``/seq`` pins is gone; its
normalised listings stay pinned here as an oracle for the chain nets.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.arch import single_precision_node
from repro.compiler.codegen import ForwardCompiler
from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.codegen_training import TrainingCompiler, compile_training
from repro.compiler.ir import MappingIR
from repro.compiler.passes.lower import LowerPass
from repro.compiler.passes.manager import PassContext, PassManager
from repro.dnn import zoo
from repro.dnn.zoo.engine_proxies import engine_proxy
from repro.functional.reference import ReferenceModel
from repro.sim import simulate

BASELINE = json.loads(
    (Path(__file__).parent / "data" / "pipeline_baseline.json").read_text()
)

#: (network, rows) -> its engine pin.
ENGINE_FORWARD = {
    ("TinyCNN", 2): "TinyCNN/r2/dag",
    ("LeNet-5", 2): "LeNet-5/r2/dag",
    ("TinyMLP", 2): "TinyMLP/r2/dag",
    ("TinyCNN", 3): "TinyCNN/r3/seq",
}
ENGINE_TRAINING = [("TinyCNN", 1), ("TinyCNN", 2), ("TinyMLP", 1)]

#: (network, rows) -> ``normalised_digest`` of the listing the deleted
#: sequential forward compiler emitted for that chain network.
SEQUENTIAL_LISTING = {
    ("TinyCNN", 2):
        "c09b6d109cdc03d72a50084ed3d07686fb1bbf0b173b3faf3c167f4e3f44caf5",
    ("TinyCNN", 3):
        "9f2316ea9020ee0680034db8f9f5832eeaeb542d3af3cab6d936f4fd264069ab",
    ("TinyMLP", 2):
        "2973e3aafa2c42b292e52674738f4885a8c100ae65b2822642d8d9bb7c011448",
}

#: Engine proxy -> sha256 of its listing and of the ``repr`` of its
#: programs' superops: the programs and fusion plans the engine-stream
#: benchmark compiles, recorded before calibration, fusion and the
#: verifier shared one access table.
ENGINE_PROXIES = {
    "AlexNet": (
        "fe2238a52f83aad7ef38f9505f94a47829ed0a8b223da58b28d40ea2c83ec53b",
        "0158757f3736b094582ad9a1f872ca374a0fbba0412428b44d657b5eea8dac11",
    ),
    "GoogLeNet": (
        "cd633c0f12cf8a46185a6cf8e778877ec61bf0ae59017c174bbd6a164392af32",
        "fad4b63b791c6d3520a429630119c2b1a7e5bc4c99453ccda22a8c83375c1507",
    ),
    "ResNet18": (
        "147c541e21ef009672f0b15dca8a042f4d4c499cd037e2d889a3e4c4f3f8b229",
        "605a81ca2803c71a26bd74a8842e9c4b05991780fe82656329571a4a80e8d6a4",
    ),
}

_SELF_TARGETED = re.compile(
    r"DMA_MEMTRACK (addr=\d+, port=(\d+), .*), target=(\d+)$"
)


def digest(programs):
    text = "\n".join(p.disassemble() for p in programs)
    return hashlib.sha256(text.encode()).hexdigest()


def normalised_digest(programs):
    """``digest`` with comments stripped and a DMA_MEMTRACK whose target
    is its own port read as a MEMTRACK: the two ways the sequential
    compiler's listings differed from the one forward compiler's."""
    lines = []
    for program in programs:
        for line in program.disassemble().splitlines():
            line = line.split("  ; ")[0].rstrip()
            m = _SELF_TARGETED.search(line)
            if m and m.group(2) == m.group(3):
                line = line[:m.start()] + "MEMTRACK " + m.group(1)
            lines.append(line)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def image_for(net, seed=0):
    shape = net.input.output_shape
    rng = np.random.default_rng(seed)
    return rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)


def relower(source_compiler, minibatch=1, learning_rate=(1, 100)):
    """Serialise the compiled IR, deserialise it, and run the lowering
    alone against a *fresh* compiler's partition (the tile allocator is
    stateful, so re-lowering needs a clean one)."""
    net = zoo.load(source_compiler.net.name)
    model = ReferenceModel(net, seed=0)
    kwargs = {}
    if isinstance(source_compiler, TrainingCompiler):
        kwargs["minibatch"] = minibatch
    fresh = type(source_compiler)(
        net, model, rows=source_compiler.rows, **kwargs
    )
    ir = MappingIR.from_json(source_compiler.ir.to_json())
    ctx = PassContext(
        net=fresh.net,
        model=fresh.model,
        chip=fresh.chip,
        partition=fresh.partition,
        rows=fresh.rows,
        minibatch=minibatch,
        learning_rate=learning_rate,
    )
    PassManager([LowerPass()]).run(ir, ctx)
    return ctx.programs + ctx.update_programs


class TestEngineForwardGolden:
    def test_every_engine_pin_is_a_forward_pin(self):
        assert sorted(ENGINE_FORWARD.values()) == sorted(BASELINE["engine"])

    @pytest.mark.parametrize("name,rows", list(SEQUENTIAL_LISTING))
    def test_sequential_matches_baseline(self, name, rows):
        """On each chain net the forward compiler emits the instructions
        the sequential compiler did; ``test_dag_matches_baseline`` pins
        the engine run of the same (network, rows)."""
        assert (name, rows) in ENGINE_FORWARD
        net = zoo.load(name)
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0),
                                       rows=rows)
        assert normalised_digest(compiled.programs) == (
            SEQUENTIAL_LISTING[name, rows]
        )

    @pytest.mark.parametrize("name,rows", list(ENGINE_FORWARD))
    def test_dag_matches_baseline(self, name, rows):
        pin = BASELINE["engine"][ENGINE_FORWARD[name, rows]]
        net = zoo.load(name)
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0),
                                       rows=rows)
        assert digest(compiled.programs) == pin["program_sha"]
        # The pins record per-instruction engine makespans; superop
        # fusion intentionally compresses stall rounds (outputs and
        # instruction counts are pinned bit-identical either way — see
        # test_engine_fastpath's fusion tests).
        out, report = compiled.run(image_for(net), fused=False)
        assert report.cycles == pin["cycles"]
        assert report.instructions == pin["instructions"]
        assert hashlib.sha256(out.tobytes()).hexdigest() == pin["out_sha"]
        fused_out, fused_report = compiled.run(image_for(net))
        assert np.array_equal(fused_out, out)
        assert fused_report.instructions == pin["instructions"]


class TestEngineProxyGolden:
    @pytest.mark.parametrize("name", sorted(ENGINE_PROXIES))
    def test_proxy_programs_and_superops_are_pinned(self, name):
        net = engine_proxy(name)
        programs = compile_dag_forward(
            net, ReferenceModel(net, seed=0)
        ).programs
        superops = repr([p.superops for p in programs])
        assert (
            digest(programs),
            hashlib.sha256(superops.encode()).hexdigest(),
        ) == ENGINE_PROXIES[name]


class TestEngineTrainingGolden:
    @pytest.mark.parametrize("name,mb", ENGINE_TRAINING)
    def test_training_matches_baseline(self, name, mb):
        pin = BASELINE["training"][f"{name}/mb{mb}"]
        net = zoo.load(name)
        compiled = compile_training(net, ReferenceModel(net, seed=0),
                                    rows=2, minibatch=mb)
        assert digest(compiled.forward.programs) == pin["program_sha"]
        out, loss, report = compiled.train_step(image_for(net, seed=1), 1)
        assert report.cycles == pin["cycles"]
        assert report.instructions == pin["instructions"]
        assert round(float(loss), 6) == pin["loss"]
        assert hashlib.sha256(out.tobytes()).hexdigest() == pin["out_sha"]


class TestRelowerRoundTrip:
    """serialise -> deserialise -> re-lower == byte-identical programs."""

    @pytest.mark.parametrize("name,cls", [
        ("TinyCNN", ForwardCompiler),
        ("TinyMLP", ForwardCompiler),
        ("LeNet-5", ForwardCompiler),
    ])
    def test_forward_relower_is_byte_identical(self, name, cls):
        net = zoo.load(name)
        compiler = cls(net, ReferenceModel(net, seed=0), rows=2)
        compiled = compiler.compile()
        assert digest(relower(compiler)) == digest(compiled.programs)

    @pytest.mark.parametrize("name,mb", ENGINE_TRAINING)
    def test_training_relower_is_byte_identical(self, name, mb):
        net = zoo.load(name)
        compiler = TrainingCompiler(
            net, ReferenceModel(net, seed=0), rows=2, minibatch=mb
        )
        compiled = compiler.compile_training()
        assert digest(relower(compiler, minibatch=mb)) == digest(
            compiled.forward.programs
        )


class TestAnalyticalGolden:
    @pytest.mark.parametrize(
        "name", sorted(zoo.BENCHMARKS) + sorted(zoo.EXTRAS)
    )
    def test_throughput_matches_baseline(self, name):
        pin = BASELINE["analytical"][name]
        result = simulate(zoo.load(name), single_precision_node())
        # The beat: the slowest stage's time per image of one copy.
        assert round(result.training_pipeline.beat, 3) == (
            pin["bottleneck_cycles"]
        )
        assert round(result.training_images_per_s, 3) == (
            pin["train_images_per_s"]
        )
        assert round(result.evaluation_images_per_s, 3) == (
            pin["eval_images_per_s"]
        )
