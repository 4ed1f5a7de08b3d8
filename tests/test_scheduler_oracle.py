"""Differential tests: the queued-waiter scheduler against per-round retries.

A tile the tracker gate refuses sleeps on the queues of the tracker
files its entry touches, and when a change wakes it the rounds it
skipped are charged in one step.  :class:`RetryingEngine` is the
scheduler this replaced: every blocked tile retries every round.  On
compiled engine proxies (fused and per-instruction, fresh machines and a
persistent runner), on TinyCNN training (paused runs, the host's
injected gradient, ``only_tiles``/``exclude_tiles``), on a deadlock and
on a ``max_rounds`` timeout, both must agree on every ``RunReport``
field, each tile's cycles, stalled cycles, instructions, blocked
retries, pc and blocked flag, each mem tile's blocked counts, every
scratchpad word, the deadlock text and the timeout snapshot — and under
telemetry on every event, counter and metric as multisets.  No tile may
be left on a queue after any run.  A persistent runner's streamed
images must also match fresh machines' runs of the same images.

The gate consumes only the first tracker an access overlaps, while the
calibration counts the access against every armed range it covers; the
last class pins that no compiled access covers two.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.arch.presets import conv_chip
from repro.compiler.codegen_dag import compile_dag_forward
from repro.compiler.codegen_training import compile_training
from repro.compiler.trackers import AccessTable
from repro.dnn.zoo import lenet5, tiny_cnn
from repro.dnn.zoo.engine_proxies import engine_proxy
from repro.errors import SimulationError, SimulationTimeout
from repro.functional.reference import ReferenceModel
from repro.isa import Opcode, Program, make
from repro.sim.engine import Engine
from repro.sim.machine import Machine, reg_operand
from repro.telemetry import capture
from tests.round_robin_oracle import RetryingEngine

ENGINES = (Engine, RetryingEngine)


def image(net, seed):
    s = net.input.output_shape
    return np.random.default_rng(seed).normal(
        0, 1, (s.count, s.height, s.width)
    ).astype(np.float32)


def state(engine):
    """Everything the two schedulers must agree on after a run."""
    machine = engine.machine
    return {
        "rounds": engine.rounds,
        "tiles": {
            t.tile_id: (
                t.cycles, t.stalled_cycles, t.instructions_executed,
                t.blocked_retries, t.pc, t.blocked, t.halted,
            )
            for t in machine.comp_tiles.values()
        },
        "mems": [
            (
                mem.trackers.blocked_reads, mem.trackers.blocked_writes,
                hashlib.sha256(mem.words).hexdigest(),
            )
            for mem in machine.mem_tiles
        ],
        "queued": sum(len(mem.trackers.waiters) for mem in machine.mem_tiles),
    }


def telemetry(tel):
    """A capture as multisets: the queued scheduler emits a sleeping
    tile's ``blocked.*`` instants when it wakes, not round by round."""
    events = Counter(
        (e.name, e.category, e.track, e.ts, e.dur, e.phase,
         repr(sorted(e.args.items())))
        for e in tel.events
    )
    samples = Counter(
        (s.group, s.name, s.ts, s.value) for s in tel.counter_samples
    )
    return (
        events, samples, tel.counters.rows(),
        tel.metrics.to_dict(),
    )


def forward(compiled, engine_cls, img, fused):
    machine = compiled.build_machine()
    compiled.load_image(machine, img)
    engine = engine_cls(machine, fused=fused)
    report = engine.run()
    return report, compiled.read_output(machine).tobytes(), state(engine)


@pytest.fixture(scope="module", params=["AlexNet", "GoogLeNet", "ResNet18"])
def proxy(request):
    net = engine_proxy(request.param)
    return net, compile_dag_forward(net, ReferenceModel(net, seed=0))


class TestEngineProxies:
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_forward_matches(self, proxy, fused):
        net, compiled = proxy
        got, want = (
            forward(compiled, cls, image(net, 0), fused) for cls in ENGINES
        )
        assert got == want
        assert got[0].blocked_reads + got[0].blocked_writes > 0
        assert got[2]["queued"] == 0

    def test_stream_matches(self, proxy):
        """Two images through one persistent fused runner."""
        net, compiled = proxy
        results = []
        for cls in ENGINES:
            runner = compiled.runner()
            runner.engine = cls(runner.machine, fused=True)
            images = []
            for seed in (0, 1):
                out, report = runner(image(net, seed))
                images.append((report, out.tobytes(), state(runner.engine)))
            results.append(images)
        assert results[0] == results[1]

    def test_stream_matches_fresh_runs(self, proxy):
        """Three images through one persistent fused runner each come
        out as a fresh machine's fused run of that image, byte for
        byte: a superop's scratch buffers carry nothing from its
        previous call into the next."""
        net, compiled = proxy
        runner = compiled.runner()
        for seed in (0, 1, 2):
            got, _ = runner(image(net, seed))
            want, _ = compiled.run(image(net, seed))
            assert got.tobytes() == want.tobytes(), seed


class TestTraining:
    @pytest.mark.parametrize("minibatch", [1, 2])
    def test_training_matches(self, minibatch):
        net = tiny_cnn(num_classes=4, in_size=8)
        results = []
        for cls in ENGINES:
            training = compile_training(
                net, ReferenceModel(net, seed=0), minibatch=minibatch
            )
            training._ensure_machine()
            training._engine = cls(training._machine)
            steps = []
            for step in range(2):
                images = [image(net, 2 * step + k) for k in range(minibatch)]
                labels = [(step + k) % 4 for k in range(minibatch)]
                if minibatch == 1:
                    out, loss, report = training.train_step(
                        images[0], labels[0]
                    )
                    steps.append((out.tobytes(), loss, report))
                else:
                    steps.append(
                        training.train_minibatch(np.stack(images), labels)
                    )
                steps.append(state(training._engine))
            steps.append(training.read_weights("conv1").tobytes())
            results.append(steps)
        assert results[0] == results[1]
        assert results[0][1]["queued"] == 0


def _waiting_pair(fault: bool = False) -> Machine:
    """Tiles ``a`` and ``b`` each read a range nobody ever writes, while
    ``c`` makes progress for a few rounds: a deadlock once ``c`` halts.
    With ``fault``, ``c`` ends in a DMA past its scratchpad instead, and
    a tile ``d`` after it waits like ``a`` and ``b``."""
    machine = Machine(conv_chip(), 3, 1)
    words = machine.mem_tile(2).capacity_words

    def waiter(tile, port):
        prog = Program(tile=tile)
        prog.append(make(
            Opcode.MEMTRACK, addr=0, port=port, size=4, num_updates=1,
            num_reads=1,
        ))
        prog.append(make(
            Opcode.DMALOAD, src_addr=0, src_port=port, dst_addr=8,
            dst_port=2, size=4, is_accum=0,
        ))
        prog.append(make(Opcode.HALT))
        machine.load_program(prog)

    waiter("a", 0)
    waiter("b", 1)
    busy = Program(tile="c")
    for value in range(6):
        busy.append(make(Opcode.LDRI, rd=1, value=value))
    if fault:
        busy.append(make(
            Opcode.DMALOAD, src_addr=100, src_port=2, dst_addr=words - 2,
            dst_port=2, size=4, is_accum=0,
        ))
    busy.append(make(Opcode.HALT))
    machine.load_program(busy)
    if fault:
        waiter("d", 2)
    return machine


class TestStops:
    def test_deadlock_text_matches(self):
        results = []
        for cls in ENGINES:
            engine = cls(_waiting_pair())
            with pytest.raises(SimulationError, match="deadlock") as exc:
                engine.run()
            results.append((str(exc.value), state(engine)))
        assert results[0] == results[1]
        assert "after 7 retries" in results[0][0]
        assert results[0][1]["queued"] == 0

    def test_error_mid_round_matches(self):
        """A tile's issue raises mid-round: the sleeping tiles before it
        were due this round, the one after it only up to the last."""
        results = []
        for cls in ENGINES:
            engine = cls(_waiting_pair(fault=True))
            with pytest.raises(SimulationError, match="out of bounds"):
                engine.run()
            results.append(state(engine))
        assert results[0] == results[1]
        tiles = results[0]["tiles"]
        assert tiles["a"][3] == tiles["d"][3] + 1 == 6  # blocked retries
        assert results[0]["queued"] == 0

    def test_paused_run_resumes_identically(self):
        """A run that pauses with tiles blocked, then runs again: the
        second run restarts its rounds and charges no earlier sleep."""
        results = []
        for cls in ENGINES:
            engine = cls(_waiting_pair())
            first = engine.run(raise_on_deadlock=False)
            engine.inject(0, 0, np.ones(4, np.float32))
            second = engine.run(raise_on_deadlock=False)
            results.append((first, second, state(engine)))
        assert results[0] == results[1]
        assert results[0][1].instructions > results[0][0].instructions

    def test_timeout_snapshot_matches(self):
        net = lenet5()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        results = []
        for cls in ENGINES:
            machine = compiled.build_machine()
            compiled.load_image(machine, image(net, 0))
            engine = cls(machine, max_rounds=60)
            with pytest.raises(SimulationTimeout) as exc:
                engine.run()
            results.append(
                (str(exc.value), exc.value.snapshot, state(engine))
            )
        assert results[0] == results[1]
        assert any(row["blocked"] for row in results[0][1])
        assert results[0][2]["queued"] == 0


class TestIssueTimeDecode:
    def test_register_operand_entry_sleeps_and_wakes(self):
        """An entry decoded when it issues (a register operand) queues
        like a decoded one and wakes when the writer lands."""
        results = []
        for cls in ENGINES:
            machine = Machine(conv_chip(), 3, 1)
            reader = Program(tile="reader")
            reader.append(make(
                Opcode.MEMTRACK, addr=0, port=0, size=4, num_updates=1,
                num_reads=1,
            ))
            reader.append(make(Opcode.LDRI, rd=1, value=0))
            reader.append(make(
                Opcode.DMALOAD, src_addr=reg_operand(1), src_port=0,
                dst_addr=0, dst_port=1, size=4, is_accum=0,
            ))
            reader.append(make(Opcode.HALT))
            writer = Program(tile="writer")
            for value in range(4):
                writer.append(make(Opcode.LDRI, rd=1, value=value))
            writer.append(make(
                Opcode.DMALOAD, src_addr=16, src_port=2, dst_addr=0,
                dst_port=0, size=4, is_accum=0,
            ))
            writer.append(make(Opcode.HALT))
            machine.load_program(reader)
            machine.load_program(writer)
            machine.mem_tile(2).words[16:20] = [1, 2, 3, 4]
            engine = cls(machine)
            results.append((engine.run(), state(engine)))
        assert results[0] == results[1]
        assert results[0][1]["tiles"]["reader"][1] > 0  # it stalled
        assert results[0][1]["queued"] == 0


class TestTelemetry:
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_capture_matches(self, fused):
        net = lenet5()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        results = []
        for cls in ENGINES:
            with capture() as tel:
                report = forward(compiled, cls, image(net, 0), fused)[0]
            results.append(telemetry(tel))
            instants = tel.events_in("engine.block")
            assert len(instants) == report.blocked_reads + report.blocked_writes
            assert instants
        assert results[0] == results[1]


def _most_arms_covered(programs) -> int:
    """The most armed ranges one access of ``programs`` covers."""
    table = AccessTable(programs)
    table.resolve_coverage()
    return max(
        len(table.arms_of(code))
        for code in (*table.read_arms.tolist(), *table.write_arms.tolist())
    )


class TestOneTrackerPerAccess:
    def test_engine_proxies(self, proxy):
        assert _most_arms_covered(proxy[1].programs) == 1

    @pytest.mark.parametrize("minibatch", [1, 2])
    def test_training(self, minibatch):
        net = tiny_cnn(num_classes=4, in_size=8)
        training = compile_training(
            net, ReferenceModel(net, seed=0), minibatch=minibatch
        )
        assert _most_arms_covered(training.forward.programs) == 1
