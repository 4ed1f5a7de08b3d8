"""The tracker gate before it worked per run, kept as a test oracle.

Until the gate took runs of consecutive same-file accesses, it looked
up every access quad's tracker on its own and counted one access per
quad.  :func:`gate` below is that function verbatim: it takes flat
``(tracker file, port, addr, word count)`` quads, reads before writes,
and drives the same :class:`~repro.sim.tracker.TrackerFile` and
:class:`~repro.sim.tracker.RangeTracker` internals.
``tests/test_tracker.py::TestGateAgainstOracle`` checks that both gates
return the same verdict and leave the same counts, phases, queues and
events.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.sim.tracker import (
    _EXPIRED,
    _READABLE,
    _UPDATING,
    Quad,
    RangeTracker,
)


def gate(
    reads: Sequence[Quad], writes: Sequence[Quad]
) -> Optional[Tuple[str, Quad, RangeTracker]]:
    """Gate one instruction's accesses atomically.

    Each quad's tracker is the first armed tracker of its file that
    overlaps it, found once.  A read is refused while that tracker is
    updating, a write while it is readable; a quad no tracker covers, or
    whose tracker expired, passes.  The first refused quad, reads before
    writes, counts one blocked read or write on its file, and the gate
    returns ``(kind, quad, tracker)`` having consumed nothing: a blocked
    companion access must not advance tracker counts.  Otherwise every
    found tracker is consumed, reads first, and the gate returns None.
    """
    hits = []
    for quad in reads:
        trackers = quad[0]
        tracker = trackers._matching(quad[2], quad[3])
        if tracker is not None:
            if tracker.state == _UPDATING:
                trackers.blocked_reads += 1
                return "read", quad, tracker
            hits.append((trackers, tracker, True))
    for quad in writes:
        trackers = quad[0]
        tracker = trackers._matching(quad[2], quad[3])
        if tracker is not None:
            if tracker.state == _READABLE:
                trackers.blocked_writes += 1
                return "write", quad, tracker
            hits.append((trackers, tracker, False))
    for trackers, tracker, read in hits:
        changed = tracker._take(read)
        if changed is None:
            raise AssertionError(
                f"{'read' if read else 'write'} of [{tracker.start}, "
                f"{tracker.end}) refused after the gate allowed it"
            )
        if changed:  # its updates or reads completed
            trackers._wake()
        if trackers.emit is not None and tracker.state == _EXPIRED:
            trackers._emit_expire(tracker)
    return None
