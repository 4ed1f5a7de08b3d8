"""Data-flow trackers: the MEMTRACK synchronization primitive (Sec 3.2.4).

ScaleDeep has no caches, coherence or locks.  Synchronization relies on
two insights: the access sequence to every location is known at compile
time, and accumulation is commutative.  Software arms a tracker on an
address range with ``MEMTRACK(AddRange, NumUpdates, NumReads)``; the
MemHeavy tile then enforces that the range receives exactly
``NumUpdates`` writes before it may be read, and ``NumReads`` reads
before it may be overwritten.  Early requests queue (or NACK on a full
queue); satisfied trackers expire.

:func:`gate` checks all of one instruction's accesses at once, one run
of consecutive accesses to one tracker file at a time (:func:`runs`):
a file's armed ranges are disjoint, so a run whose address hull lies
inside one tracker needs one lookup and one count.  A requester it
refuses waits on the queues of the tracker files it touched
(:class:`Waiter`) until one of them changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SynchronizationError

#: Tracker event hook: ``(event, start, size, phase)`` where ``event``
#: is "arm" / "block_read" / "block_write" / "expire".  Installed by the
#: engine when telemetry is enabled; ``None`` costs one identity check.
TrackerEmit = Callable[[str, int, int, str], None]


class TrackerPhase(enum.Enum):
    """Lifecycle of an armed tracker."""

    UPDATING = "updating"  # accepting writes, blocking reads
    READABLE = "readable"  # accepting reads, blocking writes
    EXPIRED = "expired"  # all reads consumed; range is free


#: Integer phase codes: :attr:`RangeTracker.state` indexes ``_PHASES``.
_UPDATING, _READABLE, _EXPIRED = 0, 1, 2
_PHASES = (TrackerPhase.UPDATING, TrackerPhase.READABLE, TrackerPhase.EXPIRED)


class AccessVerdict(enum.Enum):
    """Outcome of attempting an access against a tracker."""

    ALLOW = "allow"
    BLOCK = "block"


@dataclass
class RangeTracker:
    """One armed MEMTRACK range."""

    start: int
    size: int
    num_updates: int
    num_reads: int
    updates_seen: int = 0
    reads_seen: int = 0
    expire_emitted: bool = False  # telemetry: expire reported once
    #: ``start + size``, and the phase as an integer code that
    #: :meth:`_count` keeps current: the gate tests these fields.
    end: int = field(init=False, repr=False)
    state: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SynchronizationError("tracked range must be non-empty")
        if self.num_updates < 0 or self.num_reads < 0:
            raise SynchronizationError(
                "update/read counts must be non-negative"
            )
        self.end = self.start + self.size
        self.state = -1
        self._count(self.updates_seen, self.reads_seen)

    @property
    def phase(self) -> TrackerPhase:
        return _PHASES[self.state]

    def overlaps(self, start: int, size: int) -> bool:
        return start < self.end and self.start < start + size

    def _count(self, updates_seen: int, reads_seen: int) -> bool:
        """Set the access counts and re-derive the phase: the one place
        the phase rules live.  Returns whether the phase changed."""
        self.updates_seen = updates_seen
        self.reads_seen = reads_seen
        if updates_seen < self.num_updates:
            state = _UPDATING
        elif reads_seen < self.num_reads:
            state = _READABLE
        else:
            state = _EXPIRED
        changed = state != self.state
        self.state = state
        return changed

    def _take(self, read: bool, n: int = 1) -> Optional[bool]:
        """Count ``n`` reads or writes against this range, exactly as
        ``n`` single accesses would count.  Returns None when the phase
        refuses them — a read while updating, a write while readable,
        writes past ``num_updates`` that leave the range readable — and
        otherwise whether they changed the phase.  Accesses past the
        range's expiry are free."""
        state = self.state
        if state == _EXPIRED:
            return False  # the range is free again
        if read:
            if state == _UPDATING:
                return None
            return self._count(
                self.updates_seen, min(self.reads_seen + n, self.num_reads)
            )
        if state == _READABLE:
            return None
        updates = self.updates_seen + n
        if updates > self.num_updates:
            if self.reads_seen < self.num_reads:
                return None  # the last writes find the range readable
            updates = self.num_updates
        return self._count(updates, self.reads_seen)

    def try_write(self) -> AccessVerdict:
        """A write against this range: allowed only while updating."""
        if self._take(False) is None:
            return AccessVerdict.BLOCK
        return AccessVerdict.ALLOW

    def try_read(self) -> AccessVerdict:
        """A read against this range: allowed only once updates are in."""
        if self._take(True) is None:
            return AccessVerdict.BLOCK
        return AccessVerdict.ALLOW


class Waiter:
    """A requester :func:`gate` refused, queued on the tracker files its
    accesses touch until one of them changes: the MemHeavy tile holds an
    early request until the range's updates land, instead of the
    requester retrying."""

    __slots__ = ("asleep", "files")

    def __init__(self) -> None:
        self.asleep = False
        self.files: Tuple["TrackerFile", ...] = ()

    def wait(self, files: Tuple["TrackerFile", ...]) -> None:
        """Queue on every file of ``files`` (each once)."""
        self.asleep = True
        self.files = files
        for trackers in files:
            trackers.waiters.append(self)

    def cancel(self) -> None:
        """Leave every queue without being woken."""
        for trackers in self.files:
            trackers.waiters.remove(self)
        self.files = ()
        self.asleep = False


class TrackerFile:
    """The set of trackers armed on one MemHeavy tile.

    ``capacity`` models the hardware counter budget; arming beyond it
    raises (the compiler must serialise reuse).
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise SynchronizationError("tracker capacity must be >= 1")
        self.capacity = capacity
        self._trackers: List[RangeTracker] = []
        self.blocked_reads = 0  # statistics
        self.blocked_writes = 0
        self.emit: Optional[TrackerEmit] = None  # telemetry hook
        #: Requesters waiting for this file to change (:class:`Waiter`).
        self.waiters: List[Waiter] = []

    def __len__(self) -> int:
        self._reap()
        return len(self._trackers)

    def _wake(self) -> None:
        """The tracker list or a phase changed: release every queued
        requester, unlinking it from the other files it waits on."""
        waiters = self.waiters
        if waiters:
            self.waiters = []
            for waiter in waiters:
                for other in waiter.files:
                    if other is not self:
                        other.waiters.remove(waiter)
                waiter.files = ()
                waiter.asleep = False

    def _reap(self) -> None:
        live = [t for t in self._trackers if t.state != _EXPIRED]
        if len(live) == len(self._trackers):
            return
        if self.emit is not None:
            for t in self._trackers:
                if t.state == _EXPIRED:
                    self._emit_expire(t)
        self._trackers = live
        self._wake()

    def _emit_expire(self, tracker: RangeTracker) -> None:
        if not tracker.expire_emitted:
            tracker.expire_emitted = True
            self.emit(
                "expire", tracker.start, tracker.size,
                TrackerPhase.EXPIRED.value,
            )

    def arm(
        self, start: int, size: int, num_updates: int, num_reads: int
    ) -> RangeTracker:
        """Arm a tracker (the MEMTRACK instruction)."""
        self._reap()
        for existing in self._trackers:
            if existing.overlaps(start, size):
                raise SynchronizationError(
                    f"tracker overlap: [{start}, {start + size}) vs "
                    f"[{existing.start}, {existing.end})"
                )
        if len(self._trackers) >= self.capacity:
            raise SynchronizationError(
                f"tracker file full ({self.capacity} ranges)"
            )
        tracker = RangeTracker(start, size, num_updates, num_reads)
        self._trackers.append(tracker)
        if self.emit is not None:
            self.emit("arm", start, size, tracker.phase.value)
        self._wake()
        return tracker

    def _matching(self, start: int, size: int) -> Optional[RangeTracker]:
        """The first armed tracker overlapping [start, start+size)."""
        end = start + size
        for tracker in self._trackers:
            if start < tracker.end and tracker.start < end:
                return tracker
        return None

    def _check(self, read: bool, start: int, size: int) -> AccessVerdict:
        run = runs(((self, None, start, size),))
        blocked = gate(run, ()) if read else gate((), run)
        if blocked is None:
            return AccessVerdict.ALLOW
        if self.emit is not None:
            _, _, tracker = blocked
            self.emit(
                "block_read" if read else "block_write", tracker.start,
                tracker.size, tracker.phase.value,
            )
        return AccessVerdict.BLOCK

    def check_write(self, start: int, size: int) -> AccessVerdict:
        """Gate a write to [start, start+size)."""
        return self._check(False, start, size)

    def check_read(self, start: int, size: int) -> AccessVerdict:
        """Gate a read of [start, start+size)."""
        return self._check(True, start, size)

    def expire(self, start: int, size: int) -> None:
        """Force-expire every tracker overlapping [start, start+size).

        The fused-superop fast path uses this for ranges it proved are
        *internal* to one fused instruction run: instead of consuming
        the tracker update/read counts one instruction at a time, the
        superop jumps the tracker straight to its end-of-run state —
        EXPIRED, exactly where the per-instruction path leaves it — so a
        persistent machine (the streaming ForwardRunner) can re-arm the
        same range on the next image."""
        for tracker in self._trackers:
            if tracker.overlaps(start, size):
                tracker._count(tracker.num_updates, tracker.num_reads)
        self._reap()


#: One gated access: ``(tracker file, port, addr, word count)``.
Quad = Tuple[TrackerFile, int, int, int]

#: Consecutive quads on one tracker file with their address hull:
#: ``(tracker file, lo, hi, quads)`` (:func:`runs`).
Run = Tuple[TrackerFile, int, int, Tuple[Quad, ...]]


def runs(quads: Sequence[Quad]) -> Tuple[Run, ...]:
    """``quads`` in order, grouped into runs of consecutive quads on one
    tracker file, each with the hull ``[lo, hi)`` of its addresses.  A
    quad of fewer than one word overlaps only a tracker that strictly
    contains its address, so a hull inside a tracker does not prove it
    overlaps that tracker: such a quad is a run of its own."""
    if not quads:
        return ()
    if len(quads) == 1:
        quad = quads[0]
        return ((quad[0], quad[2], quad[2] + quad[3], tuple(quads)),)
    grouped = []
    last = None  # the open run: [trackers, lo, hi, quads], if joinable
    for quad in quads:
        trackers, _, addr, count = quad
        if last is not None and last[0] is trackers and count > 0:
            last[1] = min(last[1], addr)
            last[2] = max(last[2], addr + count)
            last[3].append(quad)
            continue
        run = [trackers, addr, addr + count, [quad]]
        grouped.append(run)
        last = run if count > 0 else None
    return tuple(
        (trackers, lo, hi, tuple(members))
        for trackers, lo, hi, members in grouped
    )


def _resolve(
    side: Sequence[Run], read: bool, hits: list
) -> Optional[Tuple[Quad, RangeTracker]]:
    """Find the tracker of every quad of ``side``, the reads or the
    writes (see :func:`gate`), appending ``(file, tracker, read,
    accesses)`` to ``hits``.  Returns the first quad whose tracker
    refuses it, with that tracker, or None."""
    refuse = _UPDATING if read else _READABLE
    for trackers, lo, hi, quads in side:
        first = quads[0]
        tracker = trackers._matching(first[2], first[3])
        if tracker is not None and tracker.start <= lo and hi <= tracker.end:
            if tracker.state == refuse:
                return first, tracker
            hits.append((trackers, tracker, read, len(quads)))
            continue
        for quad in quads:
            if quad is not first:
                tracker = trackers._matching(quad[2], quad[3])
            if tracker is not None:
                if tracker.state == refuse:
                    return quad, tracker
                hits.append((trackers, tracker, read, 1))
    return None


def gate(
    reads: Sequence[Run], writes: Sequence[Run]
) -> Optional[Tuple[str, Quad, RangeTracker]]:
    """Gate one instruction's accesses, as :func:`runs`, atomically.

    Each quad's tracker is the first armed tracker of its file that
    overlaps it.  A read is refused while that tracker is updating, a
    write while it is readable; a quad no tracker covers, or whose
    tracker expired, passes.  The first refused quad, reads before
    writes, counts one blocked read or write on its file, and the gate
    returns ``(kind, quad, tracker)`` having consumed nothing: a blocked
    companion access must not advance tracker counts.  Otherwise every
    found tracker is consumed, one access per quad, reads first, and the
    gate returns None.

    The gate consumes only the first tracker a quad overlaps, while
    :func:`repro.compiler.trackers.calibrate_trackers` counts an access
    against every armed range it covers.  The two agree because no
    compiled access covers two armed ranges, an invariant
    ``tests/test_scheduler_oracle.py::TestOneTrackerPerAccess`` pins.

    **Why a run needs one lookup.**  A file's armed trackers are
    disjoint: :meth:`TrackerFile.arm` reaps expired trackers, then
    refuses any overlap.  So when the tracker a run's first quad finds
    contains the run's hull, it is the one tracker every quad of the run
    overlaps, and the run is checked once and counted in one step, as
    many accesses as it has quads.  A refused run reports its first
    quad, as the quad-by-quad check would.  Any other run is resolved
    quad by quad.

    **Why a refused requester may sleep.**  The verdict, and which quad
    is refused first, depend only on each touched file's tracker list
    (its order and ranges) and on those trackers' phases: count changes
    within a phase change neither.  The list and the phases change only
    when a tracker is armed, when expired trackers are reaped, when one
    is force-expired and when a consume completes a tracker's updates or
    reads — and each of these wakes the file's queue.  So a requester
    queued on the files it touched would be refused, on the same quad,
    by every gate it skips until it is woken.
    """
    hits = []
    refused = _resolve(reads, True, hits)
    if refused is not None:
        quad, tracker = refused
        quad[0].blocked_reads += 1
        return "read", quad, tracker
    refused = _resolve(writes, False, hits)
    if refused is not None:
        quad, tracker = refused
        quad[0].blocked_writes += 1
        return "write", quad, tracker
    for trackers, tracker, read, n in hits:
        changed = tracker._take(read, n)
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
