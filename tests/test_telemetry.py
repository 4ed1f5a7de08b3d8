"""Tests for the telemetry subsystem: capture, export, CLI, overhead.

Covers the PR's acceptance criteria: a traced engine run produces valid
Chrome trace JSON, per-tile counters reconcile with the engine's
reported cycles, and the disabled path leaves results bit-identical.
"""

import argparse
import json
from collections import defaultdict

import numpy as np
import pytest

from repro.bench import runner as bench_runner
from repro.cli import build_parser, main
from repro.compiler.codegen_dag import compile_dag_forward
from repro.dnn.zoo import lenet5, tiny_cnn
from repro.errors import SimulationError
from repro.functional import ReferenceModel
from repro.isa import assemble
from repro.sim.engine import Engine
from repro.telemetry import (
    NULL_TELEMETRY,
    CounterRegistry,
    Telemetry,
    analytical_tile_profile,
    capture,
    chrome_trace,
    counters_csv,
    engine_tile_profile,
    get_telemetry,
    set_telemetry,
    summarize,
    write_chrome_trace,
)
from tests.test_codegen_dag import mini_inception, mini_resnet
from tests.test_machine_engine import machine as small_machine


def tiny_compiled(seed=0):
    net = tiny_cnn(num_classes=5, in_size=12)
    model = ReferenceModel(net, seed=seed)
    return net, compile_dag_forward(net, model, rows=2)


def tiny_image(net, seed=0):
    shape = net.input.output_shape
    rng = np.random.default_rng(seed)
    return rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)


class TestCore:
    def test_counter_registry(self):
        reg = CounterRegistry()
        reg.add("a", "x", 2)
        reg.add("a", "x", 3)
        reg.add("b", "x", 10)
        reg.record("b", "y", 7)
        reg.record("b", "y", 4)  # record snapshots, not accumulates
        assert reg.get("a", "x") == 5
        assert reg.get("b", "y") == 4
        assert reg.total("x") == 15
        assert reg.rows() == [("a", "x", 5.0), ("b", "x", 10.0),
                              ("b", "y", 4.0)]
        assert len(reg) == 3

    def test_null_handle_is_default_and_inert(self):
        tel = get_telemetry()
        assert tel is NULL_TELEMETRY
        assert not tel.enabled
        # Every operation is a silent no-op.
        tel.span("s", "c", ("p", "l"), 0, 1)
        tel.instant("i", "c", ("p", "l"), 0)
        tel.count("g", "n")
        tel.record("g", "n", 1)
        assert tel.events == ()

    def test_capture_installs_and_restores(self):
        before = get_telemetry()
        with capture() as tel:
            assert get_telemetry() is tel
            assert tel.enabled
            tel.span("work", "cat", ("p", "l"), 10, 5, detail=1)
        assert get_telemetry() is before
        (event,) = tel.events
        assert event.name == "work"
        assert event.end == 15

    def test_set_telemetry_none_restores_null(self):
        previous = set_telemetry(Telemetry())
        try:
            assert get_telemetry().enabled
        finally:
            set_telemetry(None)
            assert get_telemetry() is NULL_TELEMETRY
            set_telemetry(previous)


class TestEngineCapture:
    def test_chrome_trace_roundtrip_schema(self, tmp_path):
        """A traced engine run on the tiny network exports Chrome trace
        JSON whose events carry the ph/ts/dur/pid/tid fields."""
        net, compiled = tiny_compiled()
        with capture() as tel:
            compiled.run(tiny_image(net))
        path = tmp_path / "trace.json"
        write_chrome_trace(tel, str(path))

        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        for record in events:
            assert record["ph"] in {"X", "i", "C", "M"}
            assert isinstance(record["pid"], int)
            assert isinstance(record["tid"], int)
            assert isinstance(record["name"], str)
            if record["ph"] == "X":
                assert isinstance(record["ts"], (int, float))
                assert record["dur"] >= 0
            if record["ph"] == "i":
                assert isinstance(record["ts"], (int, float))
        # Span events cover the instruction stream.
        spans = [r for r in events if r["ph"] == "X"]
        assert {r["cat"] for r in spans} == {"engine.instr"}
        # Metadata names every process and thread used by events.
        named_pids = {
            r["pid"] for r in events
            if r["ph"] == "M" and r["name"] == "process_name"
        }
        assert {r["pid"] for r in spans} <= named_pids

    def test_counters_reconcile_with_report(self):
        net, compiled = tiny_compiled()
        machine = compiled.build_machine()
        compiled.load_image(machine, tiny_image(net))
        with capture() as tel:
            report = Engine(machine).run()

        # busy + stalled == total per tile; the slowest tile is the
        # engine's reported makespan.
        totals = []
        for tile in machine.comp_tiles.values():
            group = f"tile/{tile.tile_id}"
            busy = tel.counters.get(group, "busy_cycles")
            stalled = tel.counters.get(group, "stalled_cycles")
            total = tel.counters.get(group, "total_cycles")
            assert busy + stalled == total == tile.cycles
            totals.append(total)
        assert max(totals) == report.cycles
        assert tel.counters.get("engine", "total_cycles") == report.cycles
        assert (
            tel.counters.get("engine", "total_instructions")
            == report.instructions
        )
        # Tracker NACK counters mirror the report's blocked accesses.
        assert tel.counters.total("blocked_reads") == report.blocked_reads
        assert tel.counters.total("blocked_writes") == report.blocked_writes

        rows = engine_tile_profile(tel)
        assert rows and all(0 <= r.utilization <= 1 for r in rows)

    def test_tracker_events_carry_address_ranges(self):
        net, compiled = tiny_compiled()
        with capture() as tel:
            compiled.run(tiny_image(net))
        tracker_events = tel.events_in("engine.tracker")
        assert tracker_events
        kinds = {e.name for e in tracker_events}
        assert "tracker.arm" in kinds
        assert "tracker.expire" in kinds
        for event in tracker_events:
            start, end = event.args["addr_range"]
            assert 0 <= start < end
        block_events = tel.events_in("engine.block")
        assert block_events  # the tiny pipeline always blocks somewhere
        assert all("phase" in e.args for e in block_events)

    def test_disabled_path_is_bit_identical(self):
        """Without telemetry the engine's numerics and statistics match a
        traced run exactly."""
        net, compiled = tiny_compiled()
        image = tiny_image(net)
        out_plain, report_plain = compiled.run(image)
        with capture():
            out_traced, report_traced = compiled.run(image)
        assert np.array_equal(out_plain, out_traced)
        assert report_plain == report_traced


#: Spans whose cycles the engine attributes to DMA (``dma_cycles``).
DMA_SPANS = ("DMALOAD", "DMASTORE", "PREFETCH", "superop.load_run[")


class TestSpanLedger:
    """The engine's per-tile spans reconcile with its counters, for
    single instructions and superops alike."""

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize(
        "build", [lenet5, mini_inception, mini_resnet],
        ids=["LeNet-5", "MiniInception", "MiniResNet"],
    )
    def test_spans_sum_to_tile_counters(self, build, fused):
        net = build()
        compiled = compile_dag_forward(net, ReferenceModel(net, seed=0))
        with capture() as tel:
            compiled.run(tiny_image(net), fused=fused)
        busy = defaultdict(float)
        instructions = defaultdict(int)
        dma = defaultdict(float)
        spans = tel.events_in("engine.instr")
        for span in spans:
            group = "tile/" + span.track[1].removeprefix("tile ")
            busy[group] += span.dur
            instructions[group] += span.args.get("instructions", 1)
            if span.name.startswith(DMA_SPANS):
                dma[group] += span.dur
        assert any("instructions" in s.args for s in spans) == fused
        groups = [g for g in tel.counters.groups() if g.startswith("tile/")]
        assert groups and set(busy) == set(groups)
        for group in groups:
            counters = tel.counters.group(group)
            assert busy[group] == counters["busy_cycles"], group
            assert instructions[group] == counters["instructions"], group
            assert dma[group] == counters.get("dma_cycles", 0.0), group


class TestDeadlockDiagnostics:
    def test_deadlock_names_phase_and_range(self):
        m = small_machine()
        prog = assemble(
            """
            MEMTRACK addr=32, port=0, size=4, num_updates=1, num_reads=1
            DMALOAD src_addr=32, src_port=0, dst_addr=0, dst_port=1, size=4, is_accum=0
            HALT
            """,
            tile="stuck",
        )
        m.load_program(prog)
        with pytest.raises(SimulationError) as excinfo:
            Engine(m).run()
        message = str(excinfo.value)
        assert "deadlock" in message
        assert "stuck" in message
        assert "[32, 36)" in message  # the offending address range
        assert "updating" in message  # the tracker phase it waits on
        assert "read" in message


class TestAnalyticalProfile:
    def test_tile_groups_sum_to_the_beat(self):
        from repro.arch import single_precision_node
        from repro.dnn import zoo
        from repro.sim import simulate

        result = simulate(zoo.load("AlexNet"), single_precision_node())
        rows = analytical_tile_profile(result)
        assert rows
        pipeline = result.training_pipeline
        beat = pipeline.beat
        for row in rows:
            assert row.total_cycles == pytest.approx(beat)
            assert 0 <= row.utilization <= 1
        # The bottleneck group never stalls against its own beat; on
        # hub-bound AlexNet that is an FcLayer hub.
        b = result.bottleneck
        (top,) = [r for r in rows if r.group == f"{b.unit}/{b.step.value}"]
        assert top.chip == "FcLayer"
        assert top.stalled_cycles == 0.0
        # The beat sets the training rate: every copy emits one image
        # per beat, less one pipeline drain per minibatch.
        node = result.mapping.node
        steady = result.mapping.copies * node.frequency_hz / beat
        drain = 1.0 + len(pipeline.stages) / result.minibatch
        assert result.training_images_per_s == pytest.approx(
            steady / drain, rel=1e-12
        )

    def test_simulate_emits_stage_spans_and_counters(self):
        from repro.arch import single_precision_node
        from repro.dnn import zoo
        from repro.sim import simulate

        with capture() as tel:
            result = simulate(zoo.load("AlexNet"), single_precision_node())
        spans = tel.events_in("perf.stage")
        assert len(spans) == len(result.stages)
        b = result.bottleneck
        (span,) = [s for s in spans if s.name == f"{b.unit}/{b.step.value}"]
        assert span.dur == b.cycles
        group = "perf/AlexNet"
        assert tel.counters.get(group, "train_images_per_s") == (
            pytest.approx(result.training_images_per_s)
        )
        assert tel.counters.get(group, "bottleneck_cycles") == (
            result.training_pipeline.beat
        )
        # The bottleneck is the stage that limits the training rate: on
        # hub-bound AlexNet, an FcLayer hub's stage.
        node = result.mapping.node
        rate = node.cluster_count * node.frequency_hz / b.cycles
        drain = 1.0 + len(result.training_pipeline.stages) / result.minibatch
        assert b.chip == "FcLayer"
        assert result.training_images_per_s == rate / drain

    def test_mapping_and_sync_events(self):
        from repro.arch import single_precision_node
        from repro.compiler import map_network
        from repro.dnn import zoo
        from repro.sim.allreduce import minibatch_sync

        with capture() as tel:
            mapping = map_network(zoo.load("AlexNet"),
                                  single_precision_node())
            sync = minibatch_sync(mapping, minibatch=256)
        compiler_events = tel.events_in("compiler")
        names = {e.name for e in compiler_events}
        assert "step1.partition" in names
        assert "step3a.min_columns" in names
        assert "step6.weight_placement" in names
        sync_spans = tel.events_in("sync")
        assert {e.name for e in sync_spans} == {"sync.wheel", "sync.ring"}
        wheel = next(e for e in sync_spans if e.name == "sync.wheel")
        assert wheel.dur == pytest.approx(sync.wheel_cycles)


class TestExporters:
    def test_counters_csv(self):
        tel = Telemetry()
        tel.count("tile/a", "busy_cycles", 10)
        tel.record("tile/a", "dma_bytes", 256)
        text = counters_csv(tel)
        lines = text.strip().splitlines()
        assert lines[0] == "group,counter,value"
        assert "tile/a,busy_cycles,10" in lines
        assert "tile/a,dma_bytes,256" in lines

    def test_chrome_trace_of_empty_capture(self):
        doc = chrome_trace(Telemetry())
        assert doc["traceEvents"] == []

    def test_summarize(self):
        tel = Telemetry()
        tel.span("s", "cat", ("p", "l"), 0, 1)
        tel.instant("i", "cat", ("p", "l"), 0)
        text = summarize(tel)
        assert "2 events" in text and "1 spans" in text


class TestCli:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_network_exits_2_with_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "nonesuch"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "nonesuch" in err
        assert "AlexNet" in err  # the hint lists valid choices

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_verb_set_is_pinned(self):
        """A new verb must replace an old one: this set changes only
        together with the verb a new one supersedes."""
        (verbs,) = [
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(verbs) == {
            "list", "analyze", "map", "lower", "simulate", "energy",
            "compare-gpu", "stages", "report", "stats", "sweep",
            "validate", "faults", "serve", "export",
        }

    @pytest.mark.parametrize("verb", ["chaos", "profile", "trace"])
    def test_folded_verbs_are_unknown(self, verb):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "lenet5"])
        assert excinfo.value.code == 2

    def test_trace_cli_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.json"
        assert main(["stats", "tiny", "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert any(
            r["ph"] == "X" and r["cat"] == "engine.instr" for r in events
        )
        assert all(
            isinstance(r["pid"], int) and isinstance(r["tid"], int)
            for r in events
        )
        printed = capsys.readouterr().out
        assert "functional engine" in printed
        assert f"wrote Chrome trace to {out}" in printed

    def test_profile_cli_prints_tile_counters(self, tmp_path, capsys):
        out = tmp_path / "missing" / "c.csv"
        assert main(["stats", "tiny", "--csv", str(out)]) == 0
        printed = capsys.readouterr().out
        for column in ("busy", "blocked", "stalled", "util"):
            assert column in printed
        assert "Per-tile-group cycles of TinyCNN" in printed
        assert "Engine per-tile cycles" in printed
        rows = out.read_text().splitlines()
        assert rows[0] == "group,counter,value"
        assert any(row.split(",")[1] == "busy_cycles" for row in rows)

    def test_zoo_aliases(self):
        from repro.dnn import zoo

        assert zoo.resolve("alexnet") == "AlexNet"
        assert zoo.resolve("tiny") == "TinyCNN"
        assert zoo.resolve("vgg-a") == "VGG-A"
        with pytest.raises(KeyError):
            zoo.resolve("nonesuch")


class TestBenchCaches:
    def test_clear_caches_empties_the_compile_cache(self):
        from repro.sweep import get_cache

        bench_runner.cached_mapping("TinyCNN")
        assert len(get_cache()) > 0
        bench_runner.clear_caches()
        assert len(get_cache()) == 0
