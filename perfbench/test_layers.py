"""Layer coverage of the benchmark's span wrappers, on small traced runs.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs set-up and one traced pass on a reduced item list.
The test checks that every wrapped function records spans where the
layer table in README.md says it works, and records none where the table
says it does not; a wrapper installed on the wrong module (one whose
callers bound the function with ``from ... import``) fails here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import worker
import workloads
from tracer import TARGETS, Tracer

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

COMPILER = {
    "compiler.compile", "compiler.calibrate", "compiler.ir_verify",
    "compiler.program_verify",
    *(f"compiler.pass.{p}" for p in (
        "legalize", "place-check", "tracker-assign", "schedule", "lower",
        "fuse",
    )),
}
ANALYTICAL = {"mapping.compile", "perf.simulate"}
SERVE = {"serve.simulate", "serve.generate", "serve.place",
         "serve.lifecycle_init", "serve.rebuild"}

#: Spans the timed pass must record, and span-name prefixes it must not.
TIMED = {
    "zoo-validate": (
        COMPILER | {"engine.build_machine", "engine.forward",
                    "engine.fused.run", "engine.unfused.run",
                    "reference.init", "reference.forward",
                    "analytical.forward_cycles"},
        ("engine.stream", "mapping.", "perf.", "serve."),
    ),
    "engine-stream": (
        {"engine.stream", "engine.fused.run"},
        ("compiler.", "reference.", "engine.unfused", "engine.build_machine",
         "engine.forward", "analytical.", "mapping.", "perf.", "serve."),
    ),
    "serve-chaos": (
        SERVE | ANALYTICAL,
        ("engine.", "compiler.", "reference.", "analytical."),
    ),
}

SMALL = {
    "zoo-validate": lambda: workloads.ZooValidate(0, ["TinyCNN-8", "AlexNet"]),
    "engine-stream": lambda: workloads.EngineStream(0, ["AlexNet"]),
    "serve-chaos": lambda: workloads.ServeChaos(0, root_requests=4000),
}


@pytest.fixture(scope="module")
def runs():
    """Per workload: the tracer, the checked passes and the layer
    metrics of its run."""
    out = {}
    for name, build in SMALL.items():
        workload = build()
        tracer = Tracer().install()
        try:
            worker.set_up(workload, 0, tracer)
            untraced = worker.timed_passes(workload, count=1)
            traced = worker.traced_passes(workload, tracer)
        finally:
            tracer.uninstall()
        checked = worker.check_passes(workload, untraced + traced)
        out[name] = (
            tracer, checked, worker.layer_metrics(tracer, traced, untraced)
        )
    return out


@pytest.mark.parametrize("name", sorted(TIMED))
def test_timed_spans_match_layer_table(runs, name):
    tracer = runs[name][0]
    expected, forbidden = TIMED[name]
    seen = tracer.names("timed")
    assert expected <= seen, f"no spans for {sorted(expected - seen)}"
    stray = sorted(s for s in seen if s.startswith(forbidden))
    assert not stray, f"unexpected spans in the timed pass: {stray}"


def test_every_wrapper_records_spans(runs):
    seen = set().union(*(t.names("setup") | t.names("timed")
                         for t, _, _ in runs.values()))
    wrapped = {name for name, _, _ in TARGETS} - {"engine.run"}
    wrapped |= {"engine.fused.run", "engine.unfused.run"}
    assert wrapped <= seen, f"never recorded: {sorted(wrapped - seen)}"


@pytest.mark.parametrize("name", sorted(TIMED))
def test_outputs_correct_and_counts_repeat(runs, name):
    checked = runs[name][1]
    assert checked["failed"] == 0
    assert checked["notes"] == []  # every pass repeats the first's counts
    assert checked["counts"]


@pytest.mark.parametrize("name", sorted(TIMED))
def test_every_per_layer_metric_reported(runs, name):
    metrics = runs[name][2]
    names = [m["name"] for m in SPEC["per_layer"]]
    times = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"]
    # Counts of layers a workload does not run are absent (reported 0);
    # times include the set-up warm-up, which runs every layer.
    assert set(times) <= set(metrics)
    assert all(metrics[t] > 0 for t in times)
    assert set(metrics) - set(names) <= {"compiler.fused_instructions"}
