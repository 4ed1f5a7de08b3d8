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
from repro.sim.validation import ENGINE_WEIGHT_LIMIT, VALIDATION_VARIANTS

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

#: Network of the default ``validate`` set -> sha256 of its listing
#: and of the ``repr`` of its programs' superops, for the program set
#: validate compiles (the engine proxy above the engine weight limit).
#: The three engine-stream proxies were recorded before calibration,
#: fusion and the verifier shared one access table.
VALIDATE_PROGRAMS = {
    "AlexNet": (
        "fe2238a52f83aad7ef38f9505f94a47829ed0a8b223da58b28d40ea2c83ec53b",
        "0158757f3736b094582ad9a1f872ca374a0fbba0412428b44d657b5eea8dac11",
    ),
    "CNN-S": (
        "540a15e44ee82cdd9432d884e56b00e55220b306a3f24ffc0f2b45d2b3fc24f4",
        "008401662c82fc97a4bc00f551038edfb13dde87eb1d388f847e3281c748d66d",
    ),
    "GoogLeNet": (
        "cd633c0f12cf8a46185a6cf8e778877ec61bf0ae59017c174bbd6a164392af32",
        "fad4b63b791c6d3520a429630119c2b1a7e5bc4c99453ccda22a8c83375c1507",
    ),
    "OF-Acc": (
        "a48cb4e29f2c5e95d3e165edc1e3494c97d64d74bb0c4e3072eb72276e2b23ec",
        "3c7ab0c5b6342b029364825ae59bd7cfc8c159cba3095d81c1dac26261a2978b",
    ),
    "OF-Fast": (
        "4bca815a8310bcf9d902b581e4046eb7ec4fdc05eff3eecfd45d9ad66668de3d",
        "5c18c6b67b82bb89e62efb0956e784b5e5dc97ec9a8a07ed5312722ac910b5eb",
    ),
    "ResNet18": (
        "147c541e21ef009672f0b15dca8a042f4d4c499cd037e2d889a3e4c4f3f8b229",
        "605a81ca2803c71a26bd74a8842e9c4b05991780fe82656329571a4a80e8d6a4",
    ),
    "ResNet34": (
        "9235871a243573269e3ab8d682046eeca6469f8a3cac9f2278f9ca40c59e4eec",
        "a99189be3f8c504f83883f75ba10fbc4d46786e888ef6d5b192eadb7a9551e41",
    ),
    "VGG-A": (
        "ed7300cce83dc1c064a910da5d44f40326cc3b091caa06813f6d535c32561c8b",
        "43566a1ee0131036769193cdff5a662dc06ca4a2255f8ffd1f9e1067b9d52f22",
    ),
    "VGG-D": (
        "7e1189ff43b6384efd0f8fa53c8f3f219697dece5b76dab5e5055bc467ebfba5",
        "64d3fa8c4aa7079fd5ae84359babed35583bc5a6cfdb7aea89abe75f660317ab",
    ),
    "VGG-E": (
        "a92941d01d75d4ffdd2910ead59f2c417806b96316e441798c2542db4c78ade7",
        "55812441f0bea85ae13bbb35c08a46c13c2c2401ef27bba2ec4262aa623b944b",
    ),
    "ZF": (
        "7c1b9faa46f858e932db1cabd75d90e128af465bf3ca7f1c9ddc1194148eb974",
        "727b70feb8c6e5bbff6f44d773a1d53e7c542a30ac7621e31cacefa76b062915",
    ),
    "LeNet-5": (
        "7a70ab5c5b97e55ec95918249302ba8d519a10db48c1305f3057a6a8ff7cb0cd",
        "595cff7c3fc03b5093d39b82585bce62f074ae592e1ad440bb40f144092b604a",
    ),
    "NiN": (
        "9fe827c56ca7f61669242901eb7dbd990f3058caff62cc81a502e78f8d4f3f22",
        "da4957b5b58bb62cfd95e24f6f58cb8078f32795ff0d1b4afbcf35a68194d7fe",
    ),
    "TinyCNN": (
        "b02c3f85e9dd11eecb736d20e6069c15cef7892caa1fd0d00dac4e55ec18d76e",
        "5962ddf4d0d1aba3eda8948df8f31c2dbb1d2005ab57fa2b3bcadc571d35ee27",
    ),
    "TinyMLP": (
        "43ba1caee9bfcbbf176943cf3c9197e7bb7b93fe6d0ebca061f9105605a4a044",
        "57ecb3f44adb29f9b85ae0d0bc613f54f66f992c625e951a593401233bbc8e07",
    ),
    "TinyCNN-8": (
        "f97ea5c0f7a7af155fc64f79ac11e4c5d3f7ce7621b300751a8a7ae0806b4ca7",
        "52bd1d167eb9835cc686ba686b4c6abce65ef008368c1a5366f4a560fbede7a9",
    ),
    "WideCNN": (
        "cc4822ecf36aad655e5b7f2bd704482bcdbeced199d8e9fd161250c7bf39e323",
        "01967ba58d63e532136730156b007322e36a2e39827fe1a900042abea3f12229",
    ),
    "DeepCNN": (
        "20fd632680d31b30c3a617ff53523c65baabef580400e3d5e4807ce373517258",
        "b0ad6656ce83867cff2d0c0d8bb68a7c374e63c6b39e2be31cf2e6e89ad5410c",
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
    @pytest.mark.parametrize("name", sorted(VALIDATE_PROGRAMS))
    def test_proxy_programs_and_superops_are_pinned(self, name):
        if name in VALIDATION_VARIANTS:
            net = VALIDATION_VARIANTS[name]()
        else:
            net = zoo.load(name)
            if net.weight_count > ENGINE_WEIGHT_LIMIT:
                net = engine_proxy(name)
        programs = compile_dag_forward(
            net, ReferenceModel(net, seed=0)
        ).programs
        superops = repr([p.superops for p in programs])
        assert (
            digest(programs),
            hashlib.sha256(superops.encode()).hexdigest(),
        ) == VALIDATE_PROGRAMS[name]

    def test_pins_cover_the_validate_set(self):
        assert set(VALIDATE_PROGRAMS) == (
            set(zoo.available()) | set(VALIDATION_VARIANTS)
        )


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
