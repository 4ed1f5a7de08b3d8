"""Differential tests: the lazy-heap serving loop against the full heap.

``simulate_serving`` keeps only pending events on its heap (the next
generated arrival, the head of the hedge-timer queue, departures, wait
timers, retry and hedge copies, fault transitions).
``tests/serve_heap_oracle.py`` is the loop it replaced: every arrival
heapified up front, every hedge timer on the heap.  Both must produce
byte-identical report JSON on a fixed spread
of configurations (both batch policies, both arrival processes,
weights, a microsecond deadline, retries against shallow queues with
and without backoff, zero and short hedges, a lifecycle over every
chaos kind, a tenant taken down by its faults, a binding request cap, a
latency curve under faults) and on hypothesis-drawn ones.

``TestRequestStream`` checks the lazily built request stream against
the oracle's copy of the generator that built every request up front.

The comparison is against the oracle rather than recorded digests: a
float sum's last bits depend on the interpreter (Python 3.12's ``sum``
is compensated), so a digest recorded on one version need not hold on
another, while both loops always run on the same one.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import single_precision_node
from repro.dnn import zoo
from repro.faults import FaultKind
from repro.serve import (
    CHAOS_KINDS,
    DEFAULT_MAX_REQUESTS,
    BatchPolicy,
    FailureConfig,
    FailureLifecycle,
    ServeConfig,
    curve,
    generate_requests,
    run_curve,
    simulate_serving,
)
from repro.serve.failures import RebuiltService
from tests import serve_heap_oracle

NODE = single_precision_node()
NETS = {name: zoo.load(name) for name in ("LeNet-5", "AlexNet", "OF-Acc")}
BOTH = ("LeNet-5", "AlexNet")
GREEDY = BatchPolicy(kind="greedy")
CHAOS = FailureConfig(
    mtbf_s=0.004, mttr_s=0.002, kinds=CHAOS_KINDS, seed=5, max_faults=4,
)


def _dump(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _assert_same(names, config, lifecycle=None):
    nets = [NETS[name] for name in names]
    new = simulate_serving(nets, NODE, config, lifecycle=lifecycle)
    old = serve_heap_oracle.simulate_serving(
        nets, NODE, config, lifecycle=lifecycle
    )
    assert _dump(new) == _dump(old)
    for t in new.tenants:  # outages are clipped at the horizon
        assert t.down_s <= new.horizon_s, t.network
    return new


class _DownWhileFaulted:
    """A lifecycle whose every fault also takes ``victim`` down until
    repair.  Sampled faults take a tenant down only once many overlap
    (``test_sampled_faults_take_tenants_down``); this reaches the down
    path (queue flush, arrivals failing, hedges skipped) in a short run
    with timeouts, retries and hedges on."""

    def __init__(self, lifecycle: FailureLifecycle, victim: str):
        self.events = lifecycle.events
        self.placement = lifecycle.placement
        self._lifecycle = lifecycle
        self._victim = victim

    def rebuild(self, active_ids):
        service = self._lifecycle.rebuild(active_ids)
        if not active_ids:
            return service
        return RebuiltService(
            service.placement, service.down | {self._victim}
        )


def _down_case():
    # Repairs shorter than the hedge delay: a timer armed before a
    # tenant went down can fire after its repair, and must.
    failures = FailureConfig(
        mtbf_s=0.004, mttr_s=5e-4, kinds=CHAOS_KINDS, seed=11,
        max_faults=4,
    )
    names, config = BOTH, ServeConfig(
        qps=40_000.0, duration_s=0.02, seed=12, policy=GREEDY,
        timeout_s=0.005, retries=2, backoff_s=5e-4, hedge_s=1e-3,
        failures=failures,
    )
    lifecycle = FailureLifecycle(
        failures, [NETS[name] for name in names], NODE,
        duration_s=config.duration_s,
    )
    return names, config, _DownWhileFaulted(lifecycle, "AlexNet")


SPREAD = {
    "wait-poisson": (BOTH, ServeConfig(qps=20_000.0, duration_s=0.02,
                                       seed=7)),
    "greedy-uniform-weighted": (BOTH, ServeConfig(
        qps=40_000.0, duration_s=0.01, arrivals="uniform",
        weights=(0.2, 0.8), policy=GREEDY,
    )),
    "wait-poisson-weighted": (BOTH, ServeConfig(
        qps=30_000.0, duration_s=0.01, seed=3, weights=(3.0, 1.0),
        policy=BatchPolicy(max_batch=4, max_wait_s=1e-4),
    )),
    "microsecond-deadline": (("AlexNet",), ServeConfig(
        qps=20_000.0, duration_s=0.01, seed=1, timeout_s=1e-6,
        retries=2, backoff_s=1e-7,
    )),
    "retries-depth-2": (("AlexNet",), ServeConfig(
        qps=60_000.0, duration_s=0.01, seed=2, retries=3,
        backoff_s=1e-4, timeout_s=0.002,
        policy=BatchPolicy(kind="greedy", queue_depth=2),
    )),
    "retries-depth-3-no-backoff": (("AlexNet",), ServeConfig(
        qps=60_000.0, duration_s=0.01, seed=4, retries=2, backoff_s=0.0,
        timeout_s=0.003, policy=BatchPolicy(queue_depth=3),
    )),
    "retries-depth-4-hedged": (BOTH, ServeConfig(
        qps=80_000.0, duration_s=0.005, seed=6, retries=1,
        backoff_s=2e-4, hedge_s=1e-4,
        policy=BatchPolicy(kind="greedy", queue_depth=4),
    )),
    "hedge-zero": (BOTH, ServeConfig(
        qps=30_000.0, duration_s=0.01, seed=8, hedge_s=0.0,
        timeout_s=0.005,
    )),
    "hedge-short": (("AlexNet",), ServeConfig(
        qps=30_000.0, duration_s=0.01, seed=9, hedge_s=1e-4,
        policy=GREEDY,
    )),
    "chaos-all-kinds": (BOTH, ServeConfig(
        qps=30_000.0, duration_s=0.02, seed=5, policy=GREEDY,
        timeout_s=0.004, retries=2, backoff_s=5e-4, hedge_s=1e-3,
        failures=CHAOS,
    )),
    "capped": (BOTH, ServeConfig(
        qps=400_000.0, duration_s=1.0, seed=11, max_requests=500,
        hedge_s=1e-4, failures=CHAOS,
    )),
}


class TestFixedSpread:
    @pytest.mark.parametrize("case", sorted(SPREAD))
    def test_report_json_is_byte_equal(self, case):
        names, config = SPREAD[case]
        report = _assert_same(names, config)
        assert report.offered > 0

    def test_tenant_down_while_faulted(self):
        report = _assert_same(*_down_case())
        assert report.tenant("AlexNet").failed > 0
        assert report.tenant("AlexNet").down_s > 0

    def test_sampled_faults_take_tenants_down(self):
        # `serve of-acc,lenet5 --qps 20000 --duration 0.05 --mtbf 0.001
        # --mttr 1 --fault-kind tile-dead --fault-seed 5 --seed 7
        # --policy greedy`: OF-Acc goes down once 14 tile-dead faults
        # overlap, LeNet-5 at 29, and both stay down until repairs that
        # land past the horizon, so each outage is clipped there.
        failures = FailureConfig(
            mtbf_s=0.001, mttr_s=1.0, kinds=(FaultKind.TILE_DEAD,), seed=5,
        )
        report = _assert_same(("OF-Acc", "LeNet-5"), ServeConfig(
            qps=20_000.0, duration_s=0.05, seed=7, policy=GREEDY,
            failures=failures,
        ))
        for t in report.tenants:
            assert t.failed > 0, t.network
            assert t.down_s > 0, t.network
            assert t.offered == (
                t.completed + t.shed + t.timed_out + t.failed
            ), t.network

    def test_spread_exercises_every_path(self):
        # A spread that never retried, hedged, shed or timed out would
        # compare two loops on their easy path only.
        reports = {
            case: simulate_serving(
                [NETS[name] for name in names], NODE, config
            )
            for case, (names, config) in SPREAD.items()
        }
        total = lambda key: sum(  # noqa: E731
            getattr(t, key) for r in reports.values() for t in r.tenants
        )
        for key in ("retries", "hedges", "shed", "timed_out"):
            assert total(key) > 0, key
        assert reports["microsecond-deadline"].timed_out > 0
        assert reports["chaos-all-kinds"].fault_events
        capped = reports["capped"]
        assert capped.offered == SPREAD["capped"][1].max_requests
        assert capped.horizon_s < SPREAD["capped"][1].duration_s

    def test_curve_under_faults(self, monkeypatch):
        config = ServeConfig(
            duration_s=0.01, seed=3, policy=GREEDY, timeout_s=0.002,
            retries=1, hedge_s=5e-4, failures=CHAOS,
        )
        args = (["alexnet"], NODE, config)
        kwargs = dict(fractions=(0.5, 1.0, 1.25), workers=1)
        new = run_curve(*args, **kwargs)
        monkeypatch.setattr(
            curve, "simulate_serving", serve_heap_oracle.simulate_serving
        )
        old = run_curve(*args, **kwargs)
        assert len(new.points) == 3
        assert json.dumps(new.to_dict(), sort_keys=True) == json.dumps(
            old.to_dict(), sort_keys=True
        )


class TestRequestStream:
    @pytest.mark.parametrize("arrivals", ("poisson", "uniform"))
    @pytest.mark.parametrize("weights", (None, (0.2, 0.0, 0.8)))
    # One request, a cap that binds (of about 300), and the default.
    @pytest.mark.parametrize("max_requests", (1, 150, DEFAULT_MAX_REQUESTS))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_stream_equals_the_oracle_tuple(
        self, arrivals, weights, max_requests, seed
    ):
        args = (("A", "B", "C"), 30_000.0, 0.01, arrivals, seed, weights,
                max_requests)
        stream = generate_requests(*args)
        requests = serve_heap_oracle.generate_requests(*args)
        assert len(stream) == len(requests)
        if max_requests < DEFAULT_MAX_REQUESTS:  # the cap binds
            assert len(stream) == max_requests
        assert stream[-1] == requests[-1]
        assert list(stream) == list(requests)
        assert [stream[i] for i in range(len(stream))] == list(requests)
        assert stream == requests
        for i in (len(stream), -len(stream) - 1):
            with pytest.raises(IndexError):
                stream[i]


POLICIES = st.builds(
    BatchPolicy,
    kind=st.sampled_from(("wait", "greedy")),
    max_batch=st.integers(1, 8),
    max_wait_s=st.sampled_from((0.0, 1e-4, 1e-3)),
    queue_depth=st.integers(2, 8),
)
FAILURES = st.one_of(st.none(), st.builds(
    FailureConfig,
    mtbf_s=st.sampled_from((0.001, 0.003, 0.01)),
    mttr_s=st.sampled_from((0.0005, 0.002)),
    kinds=st.sampled_from((CHAOS_KINDS, CHAOS_KINDS[:1], CHAOS_KINDS[1:2],
                           CHAOS_KINDS[2:])),
    seed=st.integers(0, 3),
    max_faults=st.integers(1, 4),
))


@st.composite
def serve_cases(draw):
    names = draw(st.sampled_from((("LeNet-5",), ("AlexNet",), BOTH)))
    weights = draw(st.one_of(st.none(), st.tuples(
        *[st.sampled_from((0.0, 1.0, 2.5))] * len(names)
    ).filter(lambda w: sum(w) > 0)))
    config = ServeConfig(
        qps=draw(st.sampled_from((5_000.0, 30_000.0, 100_000.0))),
        duration_s=draw(st.sampled_from((0.002, 0.005))),
        arrivals=draw(st.sampled_from(("poisson", "uniform"))),
        seed=draw(st.integers(0, 5)),
        policy=draw(POLICIES),
        weights=weights,
        max_requests=draw(st.sampled_from((60, 1_000))),
        timeout_s=draw(st.sampled_from((None, 1e-6, 5e-4, 0.002))),
        retries=draw(st.integers(0, 3)),
        backoff_s=draw(st.sampled_from((0.0, 1e-4, 5e-4))),
        hedge_s=draw(st.sampled_from((None, 0.0, 1e-4, 1e-3))),
        failures=draw(FAILURES),
    )
    return names, config


class TestDrawn:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(serve_cases())
    def test_report_json_is_byte_equal(self, case):
        _assert_same(*case)
