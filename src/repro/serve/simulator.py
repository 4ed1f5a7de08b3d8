"""The deterministic discrete-event serving loop for one node.

One run: a seeded open-loop request stream
(:mod:`repro.serve.request`) drives per-tenant dynamic batchers
(:mod:`repro.serve.batcher`) over a multi-tenant placement
(:mod:`repro.serve.placement`).  Each tenant's slice of the node acts
as a single batch server: when it is idle and its batcher releases a
batch, the batch occupies the server for the analytical batch latency
(:meth:`repro.serve.placement.Tenant.batch_latency_s`: one copy's
evaluation pipeline fill plus a beat per further image on each copy)
and every member request completes when the batch does.

Layered on top is the request-robustness machinery that
``repro serve --mtbf/--mttr`` exercises.  Every generated request is a
**root**; retries and hedged duplicates are *copies* that share the
root's id and submit time.  A root resolves exactly once, into one of
four outcomes:

* ``completed`` — a copy's batch departed before the root's deadline;
* ``shed`` — the last live copy was refused admission (queue full);
* ``timed-out`` — the end-to-end deadline passed (purged from a queue,
  or the batch departed too late);
* ``failed`` — the last live copy arrived while its tenant was down
  (fault-degraded capacity could not host it).

A copy death only finalises the root once no other copy is live and
the retry budget is spent; otherwise a retry re-enters the stream as a
future arrival after deterministic exponential backoff.  Hedges arm a
timer at admission: if the root is still unresolved when it fires, a
duplicate copy is enqueued and the first copy to complete wins (losers
are lazily cancelled when the batcher next touches them).

When a :class:`~repro.serve.failures.FailureConfig` is set, the
sampled fault/repair lifecycle rides the same heap as ``_FAULT``
events: each transition swaps in the rebuilt (degraded) service model,
so in-flight batches finish at the rate they started with and the next
dispatch pays the degraded one; a tenant whose degraded capacity
cannot host it goes down — its queue flushes as ``failed`` and new
arrivals fail until repair.

The event heap orders by ``(time, kind, sequence)`` with departures
before arrivals before wait-timers before fault transitions at equal
timestamps, so simultaneous events resolve identically on every run —
together with the seeded generator and pure float arithmetic this
makes reruns bit-identical, which the serve/chaos CI smokes pin with a
byte compare.

The heap holds only pending events: the next generated arrival (the
stream is sorted, so each is pushed when its predecessor pops), the
first live hedge timer (timers are armed at ``now + hedge_s``, so they
queue in firing order and a timer whose root has resolved is dropped
unfired), and every departure, wait timer, retry or hedge copy and
fault transition.  That is a few entries per tenant plus the pending
retries and the fault schedule, so an event costs the log of that, not
of the request count, and a run costs O(requests) events, not
O(cycles): the SCALE-Sim trade of event fidelity for request-level
analytical speed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.arch.node import NodeConfig
from repro.dnn.network import Network
from repro.errors import ConfigError
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.failures import (
    DegradedInterval,
    FailureConfig,
    FailureLifecycle,
    SLOPolicy,
)
from repro.serve.placement import NodePlacement, Tenant, place_networks
from repro.serve.report import ServeReport, TenantServeStats
from repro.serve.request import (
    ARRIVAL_KINDS,
    DEFAULT_MAX_REQUESTS,
    Request,
    generate_requests,
)
from repro.sim.perf import DEFAULT_MINIBATCH
from repro.telemetry.core import get_telemetry
from repro.telemetry.metrics import Histogram

#: Event kinds in tie-break order: free the server, then admit new
#: work, then fire wait-expiry/hedge timers, then fault transitions.
_DEPART, _ARRIVAL, _TIMER, _FAULT = 0, 1, 2, 3

#: Final request outcomes, in report order.
OUTCOMES = ("completed", "shed", "timed_out", "failed")


@dataclass(frozen=True)
class ServeConfig:
    """Everything one serving run depends on (all deterministic).

    The robustness knobs default off, reproducing the plain PR-7 run:
    no deadline (``timeout_s``), no retries, no hedging
    (``hedge_s``), a permanently healthy node (``failures``) and no
    objectives (``slo``).
    """

    qps: float = 2_000.0
    duration_s: float = 0.25
    arrivals: str = "poisson"
    seed: int = 0
    policy: BatchPolicy = field(default_factory=BatchPolicy)
    weights: Optional[Tuple[float, ...]] = None
    max_requests: int = DEFAULT_MAX_REQUESTS
    minibatch: int = DEFAULT_MINIBATCH
    timeout_s: Optional[float] = None  # end-to-end request deadline
    retries: int = 0  # extra attempts after the first
    backoff_s: float = 0.005  # retry n re-arrives after backoff*2^(n-1)
    hedge_s: Optional[float] = None  # duplicate after this queue wait
    failures: Optional[FailureConfig] = None
    slo: Optional[SLOPolicy] = None

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ConfigError(f"offered qps must be > 0, got {self.qps}")
        if self.duration_s <= 0:
            raise ConfigError(
                f"duration must be > 0, got {self.duration_s}"
            )
        if self.arrivals not in ARRIVAL_KINDS:
            raise ConfigError(
                f"unknown arrival process {self.arrivals!r} "
                f"(choose from: {', '.join(ARRIVAL_KINDS)})"
            )
        if self.weights is not None and (
            any(w < 0 for w in self.weights) or sum(self.weights) <= 0
        ):
            raise ConfigError(
                "request weights must be >= 0 and sum > 0, got "
                f"{self.weights}"
            )
        if self.max_requests < 1:
            raise ConfigError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if self.minibatch < 1:
            raise ConfigError(
                f"minibatch must be >= 1, got {self.minibatch}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(
                f"timeout must be > 0 s, got {self.timeout_s}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ConfigError(
                f"backoff must be >= 0 s, got {self.backoff_s}"
            )
        if self.hedge_s is not None and self.hedge_s < 0:
            raise ConfigError(
                f"hedge delay must be >= 0 s, got {self.hedge_s}"
            )

    def with_qps(self, qps: float) -> "ServeConfig":
        return replace(self, qps=qps)


class _Root:
    """One logical request's resolution state, shared by every copy."""

    __slots__ = ("rid", "network", "submitted_s", "deadline", "live",
                 "attempts", "resolved", "hedged", "failure")

    def __init__(
        self, rid: int, network: str, submitted_s: float,
        deadline: Optional[float],
    ) -> None:
        self.rid = rid
        self.network = network
        self.submitted_s = submitted_s
        self.deadline = deadline  # absolute, None = never times out
        self.live = 0  # copies queued, scheduled or in flight
        self.attempts = 0  # retries consumed
        self.resolved = False
        self.hedged = False  # a hedge timer has been armed
        self.failure = "failed"  # last copy-death reason


class _TenantState:
    """Mutable per-tenant simulation state."""

    __slots__ = ("tenant", "batcher", "busy", "armed_deadline",
                 "latency_ms", "healthy_ms", "degraded_ms",
                 "batch_sizes", "offered", "completed", "shed",
                 "timed_out", "failed", "retries", "hedges", "batches",
                 "down", "down_since", "down_s")

    def __init__(self, tenant: Tenant, policy: BatchPolicy) -> None:
        self.tenant = tenant
        self.batcher = DynamicBatcher(policy)
        self.busy = False
        self.armed_deadline: Optional[float] = None
        self.latency_ms = Histogram()
        self.healthy_ms = Histogram()  # completions, no fault active
        self.degraded_ms = Histogram()  # completions under >= 1 fault
        self.batch_sizes = Histogram()
        self.offered = 0  # roots only (copies are not new demand)
        self.completed = 0
        self.shed = 0  # roots finalised as shed (vs batcher.shed, which
        # counts every refused admission, hedge/retry copies included)
        self.timed_out = 0
        self.failed = 0
        self.retries = 0  # retry copies scheduled
        self.hedges = 0  # hedge copies spawned
        self.batches = 0
        self.down = False
        self.down_since = 0.0
        self.down_s = 0.0


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
    tel = get_telemetry()
    timeout_s = config.timeout_s
    robust = (
        timeout_s is not None
        or config.hedge_s is not None
        or lifecycle is not None
    )

    # (time, kind, sequence, payload): payload is a request for
    # arrivals, a (tenant, batch) pair for departures, a ("wait",
    # tenant, deadline) or ("hedge", root) tuple for timers, and a
    # FailureEvent for fault transitions.  The sequence keeps heap
    # comparisons off payloads; a generated arrival's is its index, so
    # below ``generated``.
    generated = len(requests)
    arrivals = iter(requests)
    heap: List[Tuple[float, int, int, object]] = []
    if lifecycle is not None:
        heap.extend(
            (event.time_s, _FAULT, -len(lifecycle.events) + i, event)
            for i, event in enumerate(lifecycle.events)
        )
        heapq.heapify(heap)
    # Armed hedge timers in firing order; the head rides the heap.
    hedges: Deque[Tuple[float, int, int, object]] = deque()
    sequence = generated
    copy_index = generated  # distinct indices for retry/hedge copies
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

    def next_arrival() -> None:
        request = next(arrivals, None)
        if request is not None:
            heapq.heappush(heap, (
                request.arrival_s, _ARRIVAL, request.index, request,
            ))

    def arm_hedge(root: _Root, at: float) -> None:
        nonlocal sequence
        entry = (at, _TIMER, sequence, ("hedge", root))
        sequence += 1
        if not hedges:
            heapq.heappush(heap, entry)
        hedges.append(entry)

    def next_hedge() -> None:
        """Put the first queued hedge timer whose root is unresolved on
        the heap.  Resolution is final, so the timers skipped would do
        nothing when they fired."""
        while hedges:
            _, _, _, (_, root) = hedges[0]  # type: ignore[misc]
            if not root.resolved:
                heapq.heappush(heap, hedges[0])
                return
            hedges.popleft()

    def outcome(state: _TenantState, name: str, now_s: float) -> None:
        if tel.enabled:
            tel.count(
                f"serve/{state.tenant.network}", name, 1.0,
                ts=now_s * 1e6,
            )

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
        outcome(state, f"outcome_{reason}", now_s)

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
                outcome(state, "retry", now_s)
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
                state.down_s += now_s - state.down_since
            if state.tenant is not tenant:
                # In-flight batches keep the rate they dispatched at
                # (their departures are already on the heap); the next
                # dispatch pays this one.
                state.tenant = tenant
            try_dispatch(name, now_s)

    next_arrival()
    while heap:
        now_s, kind, seq, payload = heapq.heappop(heap)
        if kind == _ARRIVAL:
            if seq < generated:
                next_arrival()
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
                    arm_hedge(root, now_s + config.hedge_s)
                try_dispatch(request.network, now_s)
            else:
                root.live -= 1
                outcome(state, "shed", now_s)
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
                outcome(state, "completed", now_s)
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
            else:  # "hedge": the queue's head
                hedges.popleft()
                next_hedge()
                root = payload[1]  # type: ignore[index]
                state = states[root.network]
                if root.resolved or state.down:
                    continue
                root.live += 1
                state.hedges += 1
                outcome(state, "hedge", now_s)
                push(now_s, _ARRIVAL, Request(
                    index=copy_index, network=root.network,
                    arrival_s=now_s, rid=root.rid,
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
                if tel.enabled:
                    tel.count(
                        "serve/faults", "fault", 1.0, ts=now_s * 1e6
                    )
            else:
                active_faults.pop(event.fault.fault_id, None)
                if not active_faults:
                    intervals.append(DegradedInterval(
                        interval_start, now_s, interval_peak,
                        tuple(interval_sites),
                    ))
                if tel.enabled:
                    tel.count(
                        "serve/faults", "repair", 1.0, ts=now_s * 1e6
                    )
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
            state.down_s += max(0.0, horizon_s - state.down_since)
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
            down_s=states[name].down_s,
            healthy_ms=states[name].healthy_ms,
            degraded_ms=states[name].degraded_ms,
        )
        for name in names
    )
    report = ServeReport(
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

    if tel.enabled:
        for stats in tenants:
            group = f"serve/{stats.network}"
            tel.count(group, "offered", stats.offered)
            # "completed"/"shed" accumulated in-loop as timestamped
            # samples (Chrome-trace counter series), not re-added here.
            tel.gauge(group, "sustained_qps", stats.sustained_qps)
            tel.gauge(group, "p99_ms", stats.latency_percentile_ms(99))
            tel.gauge(group, "availability", stats.availability)
            tel.metrics.adopt(
                "serve.latency_ms", stats.network, stats.latency_ms
            )
            tel.metrics.adopt(
                "serve.batch_size", stats.network, stats.batch_sizes
            )
    return report


#: Buckets in the report timeline (coarse by design: it feeds one SVG).
TIMELINE_BINS = 40


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
