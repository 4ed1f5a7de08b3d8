"""Open-loop request generation for the serving simulator.

A request stream is generated up front, deterministically, from a seed:
the generator never observes simulator state (open-loop — offered load
does not slow down when the node saturates, which is exactly what makes
tail latency blow up past the knee, TPU-paper style).  Two arrival
processes are supported:

* ``poisson`` — memoryless arrivals at an offered aggregate rate
  (inter-arrival times drawn from ``Exp(qps)`` with a seeded
  ``random.Random``), each request routed to a network by a weighted
  seeded draw;
* ``uniform`` — a closed trace of evenly spaced arrivals at exactly
  ``1/qps`` spacing, networks interleaved by deterministic
  largest-remainder weighted round-robin (no RNG at all).

Both are plain float arithmetic over a seeded PRNG, so the same
(networks, qps, duration, seed) produce a bit-identical stream on every
run — the property the serve determinism gate pins.  The stream is
drawn into two columns (arrival time, network index) and each
:class:`Request` object is built only when the serving loop reads it.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.errors import ConfigError

#: Supported arrival processes.
ARRIVAL_KINDS = ("poisson", "uniform")

#: Hard cap on generated requests per run: an open-loop generator at a
#: "millions of users" rate must not materialise an unbounded stream.
DEFAULT_MAX_REQUESTS = 200_000


@dataclass(slots=True)
class Request:
    """One inference request: global arrival order, target network,
    arrival timestamp (seconds from the start of the run).

    The robustness fields default to the plain open-loop case — a fresh
    root request whose submit time is its arrival time.  Retries and
    hedged duplicates are *copies* that share the root's ``rid`` and
    ``submitted_s`` (end-to-end latency and the request deadline are
    measured from submission, not re-arrival) but re-enter the queue at
    a later ``arrival_s``.
    """

    index: int
    network: str
    arrival_s: float
    rid: int = -1  # root request id (-1: this request is its own root)
    submitted_s: float = -1.0  # original submit time (-1: arrival_s)
    attempt: int = 0  # 0 = first try, n = nth retry
    hedge: bool = False  # True for a hedged duplicate

    def __post_init__(self) -> None:
        if self.rid < 0:
            self.rid = self.index
        if self.submitted_s < 0:
            self.submitted_s = self.arrival_s

    def deadline_s(self, timeout_s: Optional[float]) -> Optional[float]:
        """The absolute wall deadline under ``timeout_s`` (end-to-end
        from submission, shared by every retry/hedge copy), or ``None``
        when requests never time out."""
        if timeout_s is None:
            return None
        return self.submitted_s + timeout_s


class RequestStream(Sequence[Request]):
    """A generated request stream held as two columns, arrival times
    and network indices; the :class:`Request` at position ``i`` (its
    ``index``) is built when it is read, so a run holds only the
    requests it has pulled and not yet released, never the stream as
    objects.  It equals any sequence of the same requests."""

    __slots__ = ("networks", "arrival_s", "network_index")

    def __init__(self, networks: Sequence[str]) -> None:
        self.networks = tuple(networks)
        self.arrival_s = array("d")
        self.network_index = array("H")

    def __len__(self) -> int:
        return len(self.arrival_s)

    def __getitem__(self, i: int) -> Request:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("request stream index out of range")
        return Request(
            i, self.networks[self.network_index[i]], self.arrival_s[i]
        )

    def __iter__(self) -> Iterator[Request]:
        networks = self.networks
        for i, (target, arrival_s) in enumerate(
            zip(self.network_index, self.arrival_s)
        ):
            yield Request(i, networks[target], arrival_s)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


def _normalized_weights(
    networks: Sequence[str], weights: Optional[Sequence[float]]
) -> List[float]:
    if weights is None:
        weights = [1.0] * len(networks)
    if len(weights) != len(networks):
        raise ConfigError(
            f"{len(networks)} network(s) but {len(weights)} weight(s)"
        )
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ConfigError(f"request weights must be >= 0 and sum > 0")
    total = float(sum(weights))
    return [float(w) / total for w in weights]


def generate_requests(
    networks: Sequence[str],
    qps: float,
    duration_s: float,
    arrivals: str = "poisson",
    seed: int = 0,
    weights: Optional[Sequence[float]] = None,
    max_requests: int = DEFAULT_MAX_REQUESTS,
) -> RequestStream:
    """The deterministic request stream for one serving run, as a
    :class:`RequestStream`: every arrival is drawn here, and each
    :class:`Request` is built when the stream is read.

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

    stream = RequestStream(networks)
    times, targets = stream.arrival_s, stream.network_index
    if arrivals == "poisson":
        rng = random.Random(seed)
        cumulative: List[float] = []
        running = 0.0
        for share in shares:
            running += share
            cumulative.append(running)
        cumulative[-1] = 1.0  # guard float residue on the last slot
        now = 0.0
        while len(times) < max_requests:
            now += rng.expovariate(qps)
            if now >= duration_s:
                break
            draw = rng.random()
            for target, edge in enumerate(cumulative):
                if draw < edge:
                    break
            else:  # pragma: no cover - cumulative[-1] == 1.0
                target = len(cumulative) - 1
            times.append(now)
            targets.append(target)
    else:  # uniform closed trace
        interval = 1.0 / qps
        credits = [0.0] * len(networks)
        while len(times) < max_requests:
            now = (len(times) + 1) * interval
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
            times.append(now)
            targets.append(best)
    return stream
