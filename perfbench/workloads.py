"""The benchmark's workloads: fixed item lists, seeded inputs, checks.

Each workload does a fixed amount of work per pass (its item list) and
checks every pass's outputs after the timed loop.  ``run_pass`` is the
only timed call.  The program is reached through module attributes
(``validation.validate_zoo``, not a name bound at import), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.presets import single_precision_node
from repro.compiler import codegen_dag
from repro.dnn import zoo
from repro.dnn.zoo.engine_proxies import engine_proxy
from repro.functional.reference import ReferenceModel
from repro.serve import failures, placement, simulator
from repro.serve.batcher import BatchPolicy
from repro.sim import validation

#: Counts stored per network (zoo-validate, engine-stream) or tenant
#: (serve-chaos); every pass and every run at one seed must repeat them.
Counts = Dict[str, List[float]]


class PassCheck:
    """What the after-loop check found in one pass."""

    def __init__(self, items: int, failed: int, counts: Counts) -> None:
        self.items = items
        self.failed = failed
        self.counts = counts


def _row_ok(row, report) -> bool:
    return (
        row.status == "ok"
        and row.band.contains(row.ratio)
        and row.max_abs_error <= report.max_output_error
        and row.fused_identical
    )


class ZooValidate:
    """Complete ``validate_zoo(speedup=False)`` passes over the default
    18-row set: the 11 Fig 15 engine proxies, the zoo extras and the
    validation variants (what ``repro validate --no-speedup`` runs).
    An item is one network validated."""

    name = "zoo-validate"
    traced_passes = 1

    def __init__(self, seed: int, names: Optional[Sequence[str]] = None):
        self.seed = seed
        self.names = names  # None: the default set (tests pass a subset)

    def setup(self) -> None:
        pass

    def run_pass(self):
        return validation.validate_zoo(
            self.names, speedup=False, seed=self.seed
        )

    def check(self, report) -> PassCheck:
        failed = sum(not _row_ok(row, report) for row in report.rows)
        if not report.passed and not failed:
            failed = len(report.rows)  # a report-level gate (rank) failed
        counts = {
            row.network: [row.instructions, row.engine_cycles,
                          row.fused_cycles]
            for row in report.rows
        }
        return PassCheck(len(report.rows), failed, counts)


class EngineStream:
    """Seeded images streamed round-robin through one persistent fused
    ``ForwardRunner`` per engine proxy, compiled in set-up.  An item is
    one image streamed."""

    name = "engine-stream"
    traced_passes = 10
    NETWORKS = ("AlexNet", "GoogLeNet", "ResNet18")
    IMAGES_PER_NETWORK = 2

    def __init__(self, seed: int, networks: Sequence[str] = NETWORKS):
        self.seed = seed
        self.networks = tuple(networks)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.streams = []
        for name in self.networks:
            net = engine_proxy(name)
            model = ReferenceModel(net, seed=self.seed)
            runner = codegen_dag.compile_dag_forward(net, model).runner()
            shape = net.input.output_shape
            images = [
                rng.normal(0.0, 1.0, (shape.count, shape.height,
                                      shape.width)).astype(np.float32)
                for _ in range(self.IMAGES_PER_NETWORK)
            ]
            # The first image decodes the programs; steady state starts
            # after it, so it belongs to set-up.
            _, report = runner(images[0])
            self.streams.append(_Stream(name, model, runner, images, report))

    def run_pass(self):
        return [
            (stream, i, *stream.runner(stream.images[i]))
            for i in range(self.IMAGES_PER_NETWORK)
            for stream in self.streams
        ]

    def check(self, outputs) -> PassCheck:
        failed = 0
        counts: Counts = {}
        for stream, i, out, report in outputs:
            # RunReport holds the machine's running totals (only the
            # program counters rewind between images), so one image's
            # work is the difference from the previous report.
            prev, stream.last = stream.last, report
            counts[f"{stream.name}#{i}"] = [
                report.instructions - prev.instructions,
                report.cycles - prev.cycles,
                report.busy_cycles - prev.busy_cycles,
                report.rounds,
                report.blocked_reads + report.blocked_writes
                - prev.blocked_reads - prev.blocked_writes,
            ]
            expected = stream.expected(i)
            if out.shape != expected.shape or not (
                np.abs(out - expected).max() <= validation.MAX_OUTPUT_ERROR
            ):
                failed += 1
        return PassCheck(len(outputs), failed, counts)


class _Stream:
    def __init__(self, name, model, runner, images, last) -> None:
        self.name = name
        self.model = model
        self.runner = runner
        self.images = images
        self.last = last
        self._expected: Dict[int, np.ndarray] = {}

    def expected(self, i: int) -> np.ndarray:
        if i not in self._expected:
            self._expected[i] = self.model.forward(self.images[i]).reshape(-1)
        return self._expected[i]


class ServeChaos:
    """One long chaos serving run per pass: the three networks as
    tenants, Poisson arrivals at a fixed fraction of the healthy
    placement's saturation rate split by tenant capacity, greedy
    batching, a seeded MTBF/MTTR lifecycle over every chaos fault kind,
    and timeouts, retries and hedging.  An item is one root request
    resolved."""

    name = "serve-chaos"
    traced_passes = 2
    NETWORKS = ("AlexNet", "GoogLeNet", "ResNet18")
    LOAD_FRACTION = 0.8
    ROOT_REQUESTS = 190_000  # below DEFAULT_MAX_REQUESTS, so never capped
    MAX_BATCH = 8
    #: Fault arrivals expected per run at the MTBF (duration / 8), and
    #: the cap on faults drawn: the cap binds on almost every seed, so
    #: each pass pays about the same number of rebuilds and they stay a
    #: minority of its time.  Each repair takes MTTR = duration / 24.
    FAULT_ARRIVALS = 8
    MAX_FAULTS = 3
    MTTR_SHARE = 1 / 24

    def __init__(self, seed: int, root_requests: int = ROOT_REQUESTS):
        self.seed = seed
        self.root_requests = root_requests
        self._first_json: Optional[str] = None

    def setup(self) -> None:
        self.node = single_precision_node()
        self.nets = [zoo.load(name) for name in self.NETWORKS]
        healthy = placement.place_networks(self.nets, self.node)
        qps = self.LOAD_FRACTION * healthy.saturation_qps(self.MAX_BATCH)
        duration = self.root_requests / qps
        self.config = simulator.ServeConfig(
            qps=qps,
            duration_s=duration,
            seed=self.seed,
            policy=BatchPolicy(kind="greedy", max_batch=self.MAX_BATCH),
            weights=tuple(
                healthy.tenant(net.name).saturation_qps(self.MAX_BATCH)
                for net in self.nets
            ),
            timeout_s=0.04,
            retries=2,
            backoff_s=0.002,
            hedge_s=0.01,
            failures=failures.FailureConfig(
                mtbf_s=duration / self.FAULT_ARRIVALS,
                mttr_s=duration * self.MTTR_SHARE,
                kinds=failures.CHAOS_KINDS,
                seed=self.seed,
                max_faults=self.MAX_FAULTS,
            ),
        )

    def run_pass(self):
        # No prebuilt lifecycle, as `repro chaos` runs it: each pass
        # builds its own, with an empty cache of rebuilt services.
        return simulator.simulate_serving(self.nets, self.node, self.config)

    def check(self, report) -> PassCheck:
        failed = 0
        counts: Counts = {}
        for t in report.tenants:
            if t.offered != t.completed + t.shed + t.timed_out + t.failed:
                failed += t.offered
            counts[t.network] = [
                t.offered, t.completed, t.shed, t.timed_out, t.failed,
                t.retries, t.hedges, t.batches,
                t.latency_percentile_ms(99),
            ]
        snapshot = json.dumps(report.to_dict(), sort_keys=True)
        if self._first_json is None:
            self._first_json = snapshot
        elif snapshot != self._first_json:
            failed = report.offered
        return PassCheck(report.offered, failed, counts)


WORKLOADS = {w.name: w for w in (ZooValidate, EngineStream, ServeChaos)}


def warm_up(seed: int) -> None:
    """The untimed warm-up every workload runs in set-up: one small
    network through each layer (engine compile, fused and unfused runs,
    a streaming runner, the numpy reference, the analytical model and a
    short chaos serving run)."""
    validation.validate_zoo(["TinyCNN-8"], speedup=False, seed=seed)
    net = validation.VALIDATION_VARIANTS["TinyCNN-8"]()
    model = ReferenceModel(net, seed=seed)
    runner = codegen_dag.compile_dag_forward(net, model).runner()
    shape = net.input.output_shape
    runner(np.zeros((shape.count, shape.height, shape.width), np.float32))
    node = single_precision_node()
    nets = [zoo.load("LeNet-5"), zoo.load("TinyCNN")]
    simulator.simulate_serving(nets, node, simulator.ServeConfig(
        qps=20_000.0, duration_s=0.02, seed=seed,
        policy=BatchPolicy(kind="greedy"), timeout_s=0.01,
        failures=failures.FailureConfig(
            mtbf_s=0.005, mttr_s=0.002, kinds=failures.CHAOS_KINDS,
            seed=seed,
        ),
    ))
