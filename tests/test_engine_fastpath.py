"""Fast-path equivalence: the pre-decoded engine vs the legacy interpreter.

The fast path decodes each tile's program once into a flat op table; it
must be observationally identical to the legacy per-round interpreter —
same outputs (bit for bit), same RunReport, same fault behaviour — and
so must a persistent runner streaming several images.  These tests pin
that contract per small zoo network.
"""

import types

import numpy as np
import pytest

from repro.arch.presets import conv_chip
from repro.compiler.codegen_dag import compile_dag_forward
from repro.dnn.zoo import lenet5, tiny_cnn, tiny_mlp
from repro.functional.reference import ReferenceModel
from repro.isa import assemble
from repro.sim.engine import Engine
from repro.sim.machine import Machine

NETS = {
    "TinyMLP": lambda: tiny_mlp(num_classes=4, in_features=8, hidden=12),
    "TinyCNN-8": lambda: tiny_cnn(num_classes=4, in_size=8),
    "TinyCNN-16": lambda: tiny_cnn(num_classes=4, in_size=16),
    "LeNet-5": lenet5,
}

BATCH = 3


def _image(net, seed=0):
    s = net.input.output_shape
    return np.random.default_rng(seed).normal(
        0, 1, (s.count, s.height, s.width)
    ).astype(np.float32)


@pytest.fixture(scope="module", params=sorted(NETS))
def case(request):
    """One compiled network with legacy, fast, fused and streamed runs."""
    net = NETS[request.param]()
    model = ReferenceModel(net, seed=0)
    compiled = compile_dag_forward(net, model, rows=2)
    image = _image(net)
    slow_out, slow_report = compiled.run(image, fast=False)
    fast_out, fast_report = compiled.run(image, fast=True, fused=False)
    fused_out, fused_report = compiled.run(image, fast=True, fused=True)
    images = [_image(net, seed=i) for i in range(BATCH)]
    runner = compiled.runner()
    streamed = [runner(img) for img in images]
    per_image = [compiled.run(img, fast=False) for img in images]
    return types.SimpleNamespace(
        name=request.param, net=net, compiled=compiled,
        slow_out=slow_out, slow_report=slow_report,
        fast_out=fast_out, fast_report=fast_report,
        fused_out=fused_out, fused_report=fused_report,
        streamed=streamed, per_image=per_image,
    )


class TestFastPathEquivalence:
    def test_outputs_bit_identical(self, case):
        """The fast closures replay the legacy numpy calls exactly, so
        single-image outputs match bit for bit — not just approximately."""
        assert np.array_equal(case.fast_out, case.slow_out), case.name

    def test_reports_identical(self, case):
        assert case.fast_report == case.slow_report, case.name

    def test_report_is_nontrivial(self, case):
        assert case.fast_report.instructions > 0
        assert case.fast_report.cycles > 0
        assert case.fast_report.rounds > 0


class TestSuperopFusion:
    """Fused (superop) execution vs the per-instruction fast path.

    The contract: outputs, instruction counts and busy cycles (the sum
    of decoded per-instruction costs) are bit-identical; only the
    makespan-side stats (cycles/rounds/blocked counts) may shrink, as
    superops compress tracker-stall rounds away.
    """

    def test_fused_outputs_bit_identical(self, case):
        assert np.array_equal(case.fused_out, case.fast_out), case.name

    def test_fused_report_reconciles(self, case):
        assert case.fused_report.instructions == (
            case.fast_report.instructions
        ), case.name
        assert case.fused_report.busy_cycles == (
            case.fast_report.busy_cycles
        ), case.name

    def test_fused_makespan_no_worse(self, case):
        assert case.fused_report.cycles <= case.fast_report.cycles
        assert case.fused_report.rounds <= case.fast_report.rounds

    def test_programs_carry_superops(self, case):
        assert any(p.superops for p in case.compiled.programs), case.name

    def test_cached_codegen_is_fused(self):
        """Fusion is unconditional at compile time: both cached codegen
        entry points hand out programs carrying superop plans (the
        engine's ``fused`` flag alone selects per-instruction runs)."""
        from repro.sweep.cache import (
            CompileCache, cached_dag_forward_codegen, cached_forward_codegen,
        )

        net = NETS["TinyCNN-8"]()
        cache = CompileCache()
        for compiled in (
            cached_dag_forward_codegen(net, cache=cache),
            cached_forward_codegen(net, cache=cache),
        ):
            assert any(p.superops for p in compiled.programs)
        assert len(cache) == 2

    def test_fallback_counters_name_opcode_and_reason(self):
        """Instructions the decoder refuses are counted per opcode with
        the refusal reason (satellite: no more silent bare-except)."""
        from repro.telemetry import capture

        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        with capture() as tel:
            compiled.run(_image(net), fast=True, fused=False)
        fallbacks = tel.counters.group("engine.fallback")
        assert fallbacks, "expected at least the HALT scalar fallbacks"
        assert all(":" in key for key in fallbacks)
        assert any(key.endswith(":scalar-control") for key in fallbacks)

    def test_unexpected_decode_error_surfaces(self, monkeypatch):
        """Only the legacy interpreter's own error types may fall back;
        an unexpected exception is an engine bug and must propagate
        (the old bare ``except Exception`` swallowed it)."""
        net = NETS["TinyCNN-8"]()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))

        def boom(self, instr, tile_id):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(Engine, "_decode_data", boom)
        with pytest.raises(RuntimeError, match="engine bug"):
            compiled.run(_image(net), fast=True, fused=False)


class TestStreamedImages:
    """A persistent fused runner streams several images through one
    machine; each must come out exactly as a fresh legacy run."""

    def test_stream_outputs_match_legacy_per_image(self, case):
        for i, ((got, _), (want, _)) in enumerate(
            zip(case.streamed, case.per_image)
        ):
            assert np.array_equal(got, want), f"{case.name} image {i}"

    def test_stream_adds_one_image_of_work_per_call(self, case):
        """Runner reports are cumulative over the persistent machine:
        each image adds exactly one image's instructions and busy
        cycles."""
        single = case.per_image[0][1]
        for i, (_, report) in enumerate(case.streamed, start=1):
            assert report.instructions == i * single.instructions
            assert report.busy_cycles == i * single.busy_cycles


def _faults(rate=0.5, seed=7):
    return types.SimpleNamespace(
        dma_flip_rate=rate, spec=types.SimpleNamespace(seed=seed)
    )


def _run_with_faults(compiled, image, fast):
    """CompiledForward.run, but with a fault-injecting engine."""
    machine = compiled.build_machine()
    compiled.load_image(machine, image)
    engine = Engine(machine, faults=_faults(), fast=fast)
    report = engine.run()
    return compiled.read_output(machine), report, engine.dma_flips


class TestFaultInteraction:
    def test_dma_flip_stream_identical_fast_vs_legacy(self):
        """The fast path draws DMA fault flips from the same RNG stream
        in the same order, so a faulty run is bit-identical either way."""
        net = tiny_cnn(num_classes=4, in_size=8)
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        image = _image(net)
        slow_out, slow_report, slow_flips = _run_with_faults(
            compiled, image, fast=False
        )
        fast_out, fast_report, fast_flips = _run_with_faults(
            compiled, image, fast=True
        )
        assert slow_flips == fast_flips > 0
        assert fast_report == slow_report
        assert np.array_equal(fast_out, slow_out)


INDIRECT_DMA = """
LDRI rd=2, value=10
DMALOAD src_addr=r2, src_port=0, dst_addr=0, dst_port=1, size=2, is_accum=0
HALT
"""


class TestRegisterIndirectFallback:
    def _machine(self):
        m = Machine(conv_chip(), 3, 1)
        m.mem_tile(0).write(
            10, np.array([7.0, 8.0], np.float32), False
        )
        m.load_program(assemble(INDIRECT_DMA, tile="t"))
        return m

    def test_fast_mode_falls_back(self):
        """Register-indirect data ops run through the legacy interpreter
        inside a fast-mode run and still produce the right answer."""
        m = self._machine()
        Engine(m, fast=True).run()
        assert m.mem_tile(1).read(0, 2).tolist() == [7.0, 8.0]


class TestSpeedup:
    def test_fused_path_beats_legacy(self):
        """The headline claim, smoke-tested conservatively: the fused
        fast path runs well under the legacy per-image cost (full
        measurement lives in `repro validate`)."""
        from repro.sim.validation import measure_speedup

        result = measure_speedup(lenet5(), repeats=2)
        assert result.legacy_seconds > 2.0 * result.fused_seconds, (
            result.describe()
        )
        assert result.describe().startswith("LeNet-5")
