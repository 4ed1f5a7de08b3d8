"""The serving loop before its event heap went lazy, kept as a test oracle.

Until the heap held only pending events, ``simulate_serving`` heapified
every generated arrival up front and pushed every hedge timer onto the
heap, where a timer whose request had already resolved still fired and
did nothing.  :func:`simulate_serving` below is that loop verbatim,
with verbatim copies of the request generator it called (every
:class:`Request` built up front into a tuple) and of the timeline it
built from per-request samples (one scalar ``observe`` each), so the
oracle keeps neither the lazy request stream nor the bulk histogram
fill of the code under test.  Its telemetry (the outcome and fault
counters, the end-of-run gauges and histograms) is dropped, as the loop
under test dropped it; nothing else is edited.  Everything else
(config, per-request and per-tenant state, batcher, placement,
lifecycle, report) is imported from the package.  ``tests/test_serve_oracle.py`` checks that both
loops produce byte-identical report JSON and that both generators yield
the same requests.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.node import NodeConfig
from repro.dnn.network import Network
from repro.errors import ConfigError
from repro.serve.failures import DegradedInterval, FailureLifecycle
from repro.serve.placement import NodePlacement, place_networks
from repro.serve.report import ServeReport, TenantServeStats
from repro.serve.request import (
    ARRIVAL_KINDS,
    DEFAULT_MAX_REQUESTS,
    Request,
    _normalized_weights,
)
from repro.serve.simulator import (
    _ARRIVAL,
    _DEPART,
    _FAULT,
    _TIMER,
    TIMELINE_BINS,
    ServeConfig,
    _Root,
    _TenantState,
)
from repro.telemetry.metrics import Histogram


def generate_requests(
    networks: Sequence[str],
    qps: float,
    duration_s: float,
    arrivals: str = "poisson",
    seed: int = 0,
    weights: Optional[Sequence[float]] = None,
    max_requests: int = DEFAULT_MAX_REQUESTS,
) -> Tuple[Request, ...]:
    """The deterministic request stream for one serving run.

    ``qps`` is the aggregate offered rate across every network;
    ``weights`` splits it (default: equally).  Generation stops at
    ``duration_s`` simulated seconds or ``max_requests`` requests,
    whichever comes first.
    """
    if not networks:
        raise ConfigError("at least one network is required to serve")
    if qps <= 0:
        raise ConfigError(f"offered qps must be > 0, got {qps}")
    if duration_s <= 0:
        raise ConfigError(f"duration must be > 0, got {duration_s}")
    if max_requests < 1:
        raise ConfigError(
            f"max_requests must be >= 1, got {max_requests}"
        )
    if arrivals not in ARRIVAL_KINDS:
        raise ConfigError(
            f"unknown arrival process {arrivals!r} "
            f"(choose from: {', '.join(ARRIVAL_KINDS)})"
        )
    shares = _normalized_weights(networks, weights)

    requests: List[Request] = []
    if arrivals == "poisson":
        rng = random.Random(seed)
        cumulative: List[float] = []
        running = 0.0
        for share in shares:
            running += share
            cumulative.append(running)
        cumulative[-1] = 1.0  # guard float residue on the last slot
        now = 0.0
        while len(requests) < max_requests:
            now += rng.expovariate(qps)
            if now >= duration_s:
                break
            draw = rng.random()
            for name, edge in zip(networks, cumulative):
                if draw < edge:
                    network = name
                    break
            else:  # pragma: no cover - cumulative[-1] == 1.0
                network = networks[-1]
            requests.append(Request(len(requests), network, now))
    else:  # uniform closed trace
        interval = 1.0 / qps
        credits = [0.0] * len(networks)
        index = 0
        while len(requests) < max_requests:
            now = (index + 1) * interval
            if now >= duration_s:
                break
            # Largest-remainder weighted round-robin: every arrival
            # credits each network its share, the most-owed network
            # (first wins ties) takes the slot.
            best = 0
            for i, share in enumerate(shares):
                credits[i] += share
                if credits[i] > credits[best]:
                    best = i
            credits[best] -= 1.0
            requests.append(Request(index, networks[best], now))
            index += 1
    return tuple(requests)


def _timeline(
    completions: Sequence[Tuple[float, float, bool]],
    failures: Sequence[Tuple[float, str]],
    horizon_s: float,
) -> Tuple[Dict[str, float], ...]:
    """Bucket per-request samples into the dashboard's time axis."""
    if not completions and not failures:
        return ()
    width = horizon_s / TIMELINE_BINS
    hists = [Histogram() for _ in range(TIMELINE_BINS)]
    degraded = [0] * TIMELINE_BINS
    failed = [0] * TIMELINE_BINS

    def bucket(t: float) -> int:
        return min(int(t / width), TIMELINE_BINS - 1)

    for t, latency_ms, was_degraded in completions:
        hists[bucket(t)].observe(latency_ms)
        if was_degraded:
            degraded[bucket(t)] += 1
    for t, _reason in failures:
        failed[bucket(t)] += 1
    bins: List[Dict[str, float]] = []
    for i, hist in enumerate(hists):
        bins.append({
            "start_s": i * width,
            "end_s": (i + 1) * width,
            "completed": float(hist.count),
            "degraded": float(degraded[i]),
            "failed": float(failed[i]),
            "p99_ms": hist.percentile(99) if hist.count else 0.0,
            "mean_ms": hist.mean if hist.count else 0.0,
        })
    return tuple(bins)


def simulate_serving(
    networks: Sequence[Network],
    node: NodeConfig,
    config: ServeConfig,
    placement: Optional[NodePlacement] = None,
    lifecycle: Optional[FailureLifecycle] = None,
) -> ServeReport:
    """Run one open-loop serving simulation and report it.

    ``placement`` short-circuits the multi-tenant placer for callers
    sweeping offered load over a fixed placement (the latency curve) or
    serving a statically degraded one (``serve --faults``).
    ``lifecycle`` short-circuits rebuilding the fault lifecycle when
    ``config.failures`` is set and the caller already built one.

    When ``config.max_requests`` cuts the arrivals short of
    ``config.duration_s``, the run's window ends at the last arrival:
    rates divide by it, and the fault lifecycle draws faults within it.
    """
    names = [net.name for net in networks]
    requests = generate_requests(
        names,
        qps=config.qps,
        duration_s=config.duration_s,
        arrivals=config.arrivals,
        seed=config.seed,
        weights=config.weights,
        max_requests=config.max_requests,
    )
    window_s = (
        requests[-1].arrival_s if len(requests) >= config.max_requests
        else config.duration_s
    )
    if lifecycle is None and config.failures is not None:
        lifecycle = FailureLifecycle(
            config.failures, networks, node,
            minibatch=config.minibatch, duration_s=window_s,
        )
    if placement is None:
        placement = (
            lifecycle.placement if lifecycle is not None
            else place_networks(networks, node, minibatch=config.minibatch)
        )

    states: Dict[str, _TenantState] = {
        name: _TenantState(placement.tenant(name), config.policy)
        for name in names
    }
    roots: Dict[int, _Root] = {}
    timeout_s = config.timeout_s
    robust = (
        timeout_s is not None
        or config.hedge_s is not None
        or lifecycle is not None
    )

    # (time, kind, sequence, payload): payload is a request for
    # arrivals, a (tenant, batch) pair for departures, a ("wait",
    # tenant, deadline) or ("hedge", request) tuple for timers, and a
    # FailureEvent for fault transitions.  The sequence keeps heap
    # comparisons off payloads.
    heap: List[Tuple[float, int, int, object]] = [
        (req.arrival_s, _ARRIVAL, req.index, req) for req in requests
    ]
    if lifecycle is not None:
        heap.extend(
            (event.time_s, _FAULT, -len(lifecycle.events) + i, event)
            for i, event in enumerate(lifecycle.events)
        )
    heapq.heapify(heap)
    sequence = len(requests)
    copy_index = len(requests)  # distinct indices for retry/hedge copies
    last_completion_s = 0.0

    # Fault-lifecycle state: the ids of currently-active faults, plus
    # accounting for contiguous degraded windows.
    active_faults: Dict[int, str] = {}  # fault_id -> site
    intervals: List[DegradedInterval] = []
    interval_start = 0.0
    interval_sites: List[str] = []
    interval_peak = 0
    # (time, latency_ms, degraded) samples for the report timeline.
    completions: List[Tuple[float, float, bool]] = []
    failure_samples: List[Tuple[float, str]] = []  # non-completed roots

    def push(time_s: float, kind: int, payload: object) -> None:
        nonlocal sequence
        heapq.heappush(heap, (time_s, kind, sequence, payload))
        sequence += 1

    def finalize(root: _Root, reason: str, now_s: float) -> None:
        """Resolve a root into its failure outcome."""
        root.resolved = True
        state = states[root.network]
        if reason == "shed":
            state.shed += 1
        elif reason == "timed_out":
            state.timed_out += 1
        else:
            state.failed += 1
        failure_samples.append((now_s, reason))

    def copy_death(root: _Root, reason: str, now_s: float) -> None:
        """One copy died (shed / expired / tenant down).  The root
        retries, waits on a surviving copy, or finalises."""
        root.failure = reason
        if root.resolved or root.live > 0:
            return
        if root.attempts < config.retries:
            delay = config.backoff_s * (2.0 ** root.attempts)
            at = now_s + delay
            if root.deadline is None or at < root.deadline:
                root.attempts += 1
                root.live += 1
                state = states[root.network]
                state.retries += 1
                nonlocal copy_index
                push(at, _ARRIVAL, Request(
                    index=copy_index, network=root.network,
                    arrival_s=at, rid=root.rid,
                    submitted_s=root.submitted_s,
                    attempt=root.attempts,
                ))
                copy_index += 1
                return
            reason = "timed_out"  # the backoff itself blows the budget
        finalize(root, reason, now_s)

    def expired(req: Request) -> bool:
        root = roots[req.rid]
        return root.resolved or (
            root.deadline is not None and root.deadline <= now_s
        )

    def queue_drop(req: Request) -> None:
        root = roots[req.rid]
        root.live -= 1
        if not root.resolved:
            copy_death(root, "timed_out", now_s)

    def try_dispatch(name: str, now_s: float) -> None:
        state = states[name]
        if state.busy or state.down:
            return
        batch = (
            state.batcher.take(now_s, drop=expired, on_drop=queue_drop)
            if robust else state.batcher.take(now_s)
        )
        if batch:
            state.busy = True
            state.batches += 1
            state.batch_sizes.observe(float(len(batch)))
            latency = state.tenant.batch_latency_s(len(batch))
            push(now_s + latency, _DEPART, (name, batch))
            return
        deadline = state.batcher.deadline()
        if deadline is not None and deadline != state.armed_deadline:
            # Queue head changed since the last timer: arm its expiry.
            # (``take`` dispatches at ``now_s >= deadline``, so an
            # unarmed deadline is always in the future here.)
            state.armed_deadline = deadline
            push(deadline, _TIMER, ("wait", name, deadline))

    def apply_transition(now_s: float) -> None:
        """Swap every tenant onto the rebuilt (degraded) service."""
        service = lifecycle.rebuild(frozenset(active_faults))
        for name in names:
            state = states[name]
            tenant = service.tenant(name)
            if tenant is None:
                if not state.down:
                    state.down = True
                    state.down_since = now_s
                    state.armed_deadline = None
                    # Queued copies cannot be served until repair:
                    # flush them as failures (their roots may retry).
                    for req in state.batcher.drain():
                        root = roots[req.rid]
                        root.live -= 1
                        if not root.resolved:
                            copy_death(root, "failed", now_s)
                continue
            if state.down:
                state.down = False
                state.down_spans.append((state.down_since, now_s))
            if state.tenant is not tenant:
                # In-flight batches keep the rate they dispatched at
                # (their departures are already on the heap); the next
                # dispatch pays this one.
                state.tenant = tenant
            try_dispatch(name, now_s)

    while heap:
        now_s, kind, _, payload = heapq.heappop(heap)
        if kind == _ARRIVAL:
            request: Request = payload  # type: ignore[assignment]
            state = states[request.network]
            root = roots.get(request.rid)
            if root is None:
                root = _Root(
                    request.rid, request.network, request.submitted_s,
                    request.deadline_s(timeout_s),
                )
                roots[request.rid] = root
                root.live = 1
                state.offered += 1
            if root.resolved:
                root.live -= 1  # cancelled copy (sibling already won)
                continue
            if root.deadline is not None and root.deadline <= now_s:
                root.live -= 1
                copy_death(root, "timed_out", now_s)
                continue
            if state.down:
                root.live -= 1
                copy_death(root, "failed", now_s)
                continue
            if state.batcher.offer(request):
                if (
                    config.hedge_s is not None
                    and not request.hedge
                    and not root.hedged
                ):
                    root.hedged = True
                    push(
                        now_s + config.hedge_s, _TIMER,
                        ("hedge", request),
                    )
                try_dispatch(request.network, now_s)
            else:
                root.live -= 1
                if not root.resolved:
                    copy_death(root, "shed", now_s)
        elif kind == _DEPART:
            name, batch = payload  # type: ignore[misc]
            state = states[name]
            for request in batch:
                root = roots[request.rid]
                root.live -= 1
                if root.resolved:
                    continue  # hedge loser: sibling already completed
                if root.deadline is not None and root.deadline <= now_s:
                    copy_death(root, "timed_out", now_s)
                    continue
                root.resolved = True
                latency_ms = (now_s - root.submitted_s) * 1e3
                state.latency_ms.observe(latency_ms)
                degraded = bool(active_faults)
                (state.degraded_ms if degraded
                 else state.healthy_ms).observe(latency_ms)
                state.completed += 1
                completions.append((now_s, latency_ms, degraded))
            last_completion_s = max(last_completion_s, now_s)
            state.busy = False
            try_dispatch(name, now_s)
        elif kind == _TIMER:
            tag = payload[0]  # type: ignore[index]
            if tag == "wait":
                _, name, deadline = payload  # type: ignore[misc]
                state = states[name]
                if state.armed_deadline == deadline:
                    # This timer is current: clear so a future head at
                    # the same instant (retry re-arrival) can re-arm.
                    state.armed_deadline = None
                try_dispatch(name, now_s)
            else:  # "hedge"
                request = payload[1]  # type: ignore[index]
                root = roots[request.rid]
                state = states[request.network]
                if root.resolved or root.live < 1 or state.down:
                    continue
                root.live += 1
                state.hedges += 1
                push(now_s, _ARRIVAL, Request(
                    index=copy_index, network=request.network,
                    arrival_s=now_s, rid=request.rid,
                    submitted_s=root.submitted_s,
                    attempt=root.attempts, hedge=True,
                ))
                copy_index += 1
        else:  # _FAULT
            event = payload  # type: ignore[assignment]
            if event.action == "fault":
                if not active_faults:
                    interval_start = now_s
                    interval_sites = []
                    interval_peak = 0
                active_faults[event.fault.fault_id] = event.fault.site
                interval_sites.append(event.fault.site)
                interval_peak = max(interval_peak, len(active_faults))
            else:
                active_faults.pop(event.fault.fault_id, None)
                if not active_faults:
                    intervals.append(DegradedInterval(
                        interval_start, now_s, interval_peak,
                        tuple(interval_sites),
                    ))
            apply_transition(now_s)

    # The sustained rate divides by the full horizon: the arrival
    # window stretched to the last completion, so a backlogged run
    # cannot report more than the node actually kept up with.  Degraded
    # time past the horizon (a repair after the last completion) is
    # outside the measured run.
    horizon_s = max(window_s, last_completion_s, 1e-12)
    if active_faults:  # never repaired within the drained heap
        intervals.append(DegradedInterval(
            interval_start, horizon_s, interval_peak,
            tuple(interval_sites),
        ))
    intervals = [
        replace(i, end_s=min(i.end_s, horizon_s)) for i in intervals
    ]
    for state in states.values():
        if state.down:  # close out open down-time at the horizon
            state.down_spans.append((state.down_since, horizon_s))
            state.down = False

    tenants = tuple(
        TenantServeStats(
            network=name,
            share=states[name].tenant.share,
            offered=states[name].offered,
            admitted=states[name].batcher.admitted,
            shed=states[name].shed,
            completed=states[name].completed,
            batches=states[name].batches,
            offered_qps=states[name].offered / horizon_s,
            sustained_qps=states[name].completed / horizon_s,
            latency_ms=states[name].latency_ms,
            batch_sizes=states[name].batch_sizes,
            timed_out=states[name].timed_out,
            failed=states[name].failed,
            retries=states[name].retries,
            hedges=states[name].hedges,
            shed_copies=states[name].batcher.shed,
            down_s=states[name].down_s(horizon_s),
            healthy_ms=states[name].healthy_ms,
            degraded_ms=states[name].degraded_ms,
        )
        for name in names
    )
    return ServeReport(
        node=node.name,
        policy=config.policy,
        arrivals=config.arrivals,
        seed=config.seed,
        offered_qps=config.qps,
        duration_s=config.duration_s,
        horizon_s=horizon_s,
        placement=placement,
        tenants=tenants,
        timeout_s=config.timeout_s,
        retries=config.retries,
        backoff_s=config.backoff_s,
        hedge_s=config.hedge_s,
        failures=config.failures,
        slo=config.slo,
        fault_events=(
            lifecycle.events if lifecycle is not None else ()
        ),
        degraded_intervals=tuple(intervals),
        timeline=_timeline(completions, failure_samples, horizon_s),
    )
