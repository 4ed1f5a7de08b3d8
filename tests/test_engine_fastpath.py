"""Engine run modes against the deleted legacy interpreter's results.

The engine decodes each tile's program once into a flat op table and
runs it one entry per instruction (``fused=False``) or with the
compiler's superops.  Before the legacy interpreter — which re-parsed
every instruction per dispatch — was deleted, it was the reference both
modes were compared against.  Its reports and output digests for small
zoo networks are kept below as constants, so the contract outlives it:
the per-instruction path matches them exactly (outputs bit for bit, the
whole RunReport, DMA fault flips), and a persistent fused runner
streaming several images produces the same outputs and per-image work.
"""

import hashlib
import types

import numpy as np
import pytest

from repro.arch.presets import conv_chip
from repro.compiler.codegen_dag import compile_dag_forward
from repro.dnn.zoo import lenet5, tiny_cnn, tiny_mlp
from repro.functional.reference import ReferenceModel
from repro.isa import assemble
from repro.sim.engine import Engine, RunReport
from repro.sim.machine import Machine

NETS = {
    "TinyMLP": lambda: tiny_mlp(num_classes=4, in_features=8, hidden=12),
    "TinyCNN-8": lambda: tiny_cnn(num_classes=4, in_size=8),
    "TinyCNN-16": lambda: tiny_cnn(num_classes=4, in_size=16),
    "LeNet-5": lenet5,
}

BATCH = 3

#: Recorded from the legacy interpreter (``Engine(fast=False)``) at the
#: commit before its deletion: each net's RunReport — the same for every
#: image, since no program branches on data — and the sha256 of its
#: output for the images seeded 0 to ``BATCH - 1`` (seed 0 is the
#: fixture image).
LEGACY = {
    "TinyMLP": (
        RunReport(
            cycles=45, instructions=27, rounds=14, blocked_reads=4,
            blocked_writes=0, busy_cycles=123,
        ),
        (
            "091050c0f61f4b61241394c729a8cdd06ad793e6eeef7e57ad31c630c26268f5",
            "c5a62c485acc35c728ea83350c735ce6e2e3eda22092a7039f2512b1def760cd",
            "30699d0c5a946c6c95e96e4ee142b63ef03f803b025525adc6da6f078bae41d2",
        ),
    ),
    "TinyCNN-8": (
        RunReport(
            cycles=739, instructions=271, rounds=116, blocked_reads=578,
            blocked_writes=0, busy_cycles=2210,
        ),
        (
            "21d1d6b571c3083ea2d6b409705c5bd5a2b38fbd5a3382e7731e75f67c603bb1",
            "014b5e9eaf75e10fff945621ef2a1d88ef77e6d941fb00bd54142e5f2928d0e4",
            "f40e9dd5b78763d4f19bbd3905f0fe9ad5d36666df0abe6311c981c0ef178e72",
        ),
    ),
    "TinyCNN-16": (
        RunReport(
            cycles=1041, instructions=271, rounds=116, blocked_reads=578,
            blocked_writes=0, busy_cycles=3572,
        ),
        (
            "a8cfd9c61c695dfdcb690898f19eb8d10cdc1ccee2577903e8770fb98530df65",
            "a54354742a3f2a2a34c78b59843eb861a941c470916c6be85148d82db5f906b6",
            "c88ed16310c17afb8576618212ed6b02bf3302cb8f50179828d7f306a568a501",
        ),
    ),
    "LeNet-5": (
        RunReport(
            cycles=9053, instructions=2233, rounds=1095, blocked_reads=3495,
            blocked_writes=0, busy_cycles=22817,
        ),
        (
            "8ccca9ba657a2d5b8dff6c072762254ea425274a618ad395c3b7f60dad1cec06",
            "825814f0a92b20f9d241af1d82ad5fde1ac678301e9771acd096d7fe6f03da78",
            "56cf8477db5805e8c3be817269854267fa1ed8bccb76ec906c39e3a2b9c12d4b",
        ),
    ),
}

#: TestFaultInteraction's TinyCNN-8 run with DMA bit flips (rate 0.5,
#: seed 7) under the legacy interpreter: report, flips, output sha256.
LEGACY_DMA_FLIP = (
    LEGACY["TinyCNN-8"][0],
    11,
    "11fe1f501ef594a554f64ecf192afc12a65c2663804a2728e5ad804b78a50702",
)


def _image(net, seed=0):
    s = net.input.output_shape
    return np.random.default_rng(seed).normal(
        0, 1, (s.count, s.height, s.width)
    ).astype(np.float32)


def _sha256(out: np.ndarray) -> str:
    return hashlib.sha256(out.tobytes()).hexdigest()


@pytest.fixture(scope="module", params=sorted(NETS))
def case(request):
    """One compiled network with per-instruction runs of each image, a
    fused run of the fixture image and a fused stream of every image."""
    net = NETS[request.param]()
    model = ReferenceModel(net, seed=0)
    compiled = compile_dag_forward(net, model, rows=2)
    images = [_image(net, seed=i) for i in range(BATCH)]
    per_image = [compiled.run(img, fused=False) for img in images]
    unfused_out, unfused_report = per_image[0]
    fused_out, fused_report = compiled.run(images[0], fused=True)
    runner = compiled.runner()
    streamed = [runner(img) for img in images]
    report, digests = LEGACY[request.param]
    return types.SimpleNamespace(
        name=request.param, net=net, compiled=compiled,
        unfused_out=unfused_out, unfused_report=unfused_report,
        fused_out=fused_out, fused_report=fused_report,
        streamed=streamed, per_image=per_image,
        legacy_report=report, legacy_digests=digests,
    )


class TestFastPathEquivalence:
    """The per-instruction path against the legacy interpreter's
    recorded results."""

    def test_outputs_bit_identical(self, case):
        """The decoded closures make the legacy numpy calls, so outputs
        match the recorded digests bit for bit, for every image."""
        got = [_sha256(out) for out, _ in case.per_image]
        assert got == list(case.legacy_digests), case.name

    def test_reports_identical(self, case):
        for i, (_, report) in enumerate(case.per_image):
            assert report == case.legacy_report, f"{case.name} image {i}"

    def test_report_is_nontrivial(self, case):
        assert case.unfused_report.instructions > 0
        assert case.unfused_report.cycles > 0
        assert case.unfused_report.rounds > 0


class TestSuperopFusion:
    """Fused (superop) execution vs the per-instruction path.

    The contract: outputs, instruction counts and busy cycles (the sum
    of decoded per-instruction costs) are bit-identical; only the
    makespan-side stats (cycles/rounds/blocked counts) may shrink, as
    superops compress tracker-stall rounds away.
    """

    def test_fused_outputs_bit_identical(self, case):
        assert np.array_equal(case.fused_out, case.unfused_out), case.name

    def test_fused_report_reconciles(self, case):
        assert case.fused_report.instructions == (
            case.unfused_report.instructions
        ), case.name
        assert case.fused_report.busy_cycles == (
            case.unfused_report.busy_cycles
        ), case.name

    def test_fused_makespan_no_worse(self, case):
        assert case.fused_report.cycles <= case.unfused_report.cycles
        assert case.fused_report.rounds <= case.unfused_report.rounds

    def test_programs_carry_superops(self, case):
        assert any(p.superops for p in case.compiled.programs), case.name

    def test_cached_codegen_is_fused(self):
        """Fusion is unconditional at compile time: the cached codegen
        entry point hands out programs carrying superop plans (the
        engine's ``fused`` flag alone selects per-instruction runs)."""
        from repro.sweep.cache import CompileCache, cached_dag_forward_codegen

        net = NETS["TinyCNN-8"]()
        cache = CompileCache()
        compiled = cached_dag_forward_codegen(net, cache=cache)
        assert any(p.superops for p in compiled.programs)
        assert cached_dag_forward_codegen(net, cache=cache) is compiled
        assert len(cache) == 1

    def test_fallback_counters_name_opcode_and_reason(self):
        """Instructions the decoder refuses are counted per opcode with
        the refusal reason (satellite: no more silent bare-except)."""
        from repro.telemetry import capture

        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        with capture() as tel:
            compiled.run(_image(net), fused=False)
        fallbacks = tel.counters.group("engine.fallback")
        assert fallbacks, "expected at least the HALT scalar fallbacks"
        assert all(":" in key for key in fallbacks)
        assert any(key.endswith(":scalar-control") for key in fallbacks)

    def test_unexpected_decode_error_surfaces(self, monkeypatch):
        """Only a SimulationError leaves an entry for decode at issue;
        an unexpected exception is an engine bug and must propagate
        (the old bare ``except Exception`` swallowed it)."""
        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))

        def boom(self, instr, tile_id):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(Engine, "_decode_data", boom)
        with pytest.raises(RuntimeError, match="engine bug"):
            compiled.run(_image(net), fused=False)


class TestStreamedImages:
    """A persistent fused runner streams several images through one
    machine; each must come out exactly as a fresh legacy run did."""

    def test_stream_outputs_match_legacy_per_image(self, case):
        got = [_sha256(out) for out, _ in case.streamed]
        assert got == list(case.legacy_digests), case.name

    def test_stream_adds_one_image_of_work_per_call(self, case):
        """Runner reports are cumulative over the persistent machine:
        each image adds exactly one legacy image's instructions and
        busy cycles."""
        single = case.legacy_report
        for i, (_, report) in enumerate(case.streamed, start=1):
            assert report.instructions == i * single.instructions
            assert report.busy_cycles == i * single.busy_cycles


class TestFaultInteraction:
    def test_dma_flip_stream_identical_fast_vs_legacy(self):
        """The per-instruction path draws DMA fault flips from the same
        RNG stream in the same order as the legacy interpreter did, so
        a faulty run reproduces its recorded report, flips and output."""
        net = tiny_cnn(num_classes=4, in_size=8)
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        machine = compiled.build_machine()
        compiled.load_image(machine, _image(net))
        faults = types.SimpleNamespace(
            dma_flip_rate=0.5, spec=types.SimpleNamespace(seed=7)
        )
        engine = Engine(machine, faults=faults)
        report = engine.run()
        got = (
            report, engine.dma_flips,
            _sha256(compiled.read_output(machine)),
        )
        assert got == LEGACY_DMA_FLIP


INDIRECT_DMA = """
LDRI rd=2, value=10
DMALOAD src_addr=r2, src_port=0, dst_addr=0, dst_port=1, size=2, is_accum=0
HALT
"""


class TestRegisterIndirectFallback:
    def test_decodes_at_issue(self, monkeypatch):
        """A register-indirect data op stays out of the op table; when
        it issues, its registers' values are substituted and the result
        runs through the same decode as an immediate instruction."""
        from repro.telemetry import capture

        m = Machine(conv_chip(), 3, 1)
        m.mem_tile(0).write(10, np.array([7.0, 8.0], np.float32), False)
        m.load_program(assemble(INDIRECT_DMA, tile="t"))
        decoded = []
        decode_data = Engine._decode_data

        def spy(self, instr, tile_id):
            decoded.append(str(instr))
            return decode_data(self, instr, tile_id)

        monkeypatch.setattr(Engine, "_decode_data", spy)
        with capture() as tel:
            engine = Engine(m)
            report = engine.run()
        assert m.mem_tile(1).read(0, 2).tolist() == [7.0, 8.0]
        assert decoded == [
            "DMALOAD src_addr=10, src_port=0, dst_addr=0, dst_port=1, "
            "size=2, is_accum=0"
        ]
        fallbacks = tel.counters.group("engine.fallback")
        assert fallbacks.get("DMALOAD:register-indirect") == 1
        # LDRI and HALT cost one cycle each; the DMA its decoded cost.
        assert report.instructions == 3
        assert report.busy_cycles == 2 + engine._dma_cycles(2, 0, 1)


class TestSpeedup:
    def test_fused_path_beats_unfused(self):
        """The superop claim, smoke-tested conservatively: the fused
        run beats the per-instruction run per image (full measurement
        lives in `repro validate`).  No margin: the ratio swings widely
        on a loaded host."""
        from repro.sim.validation import measure_speedup

        result = measure_speedup(lenet5(), repeats=3)
        assert result.unfused_seconds > result.fused_seconds, (
            result.describe()
        )
        assert result.describe().startswith("LeNet-5")
