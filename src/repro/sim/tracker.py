"""Data-flow trackers: the MEMTRACK synchronization primitive (Sec 3.2.4).

ScaleDeep has no caches, coherence or locks.  Synchronization relies on
two insights: the access sequence to every location is known at compile
time, and accumulation is commutative.  Software arms a tracker on an
address range with ``MEMTRACK(AddRange, NumUpdates, NumReads)``; the
MemHeavy tile then enforces that the range receives exactly
``NumUpdates`` writes before it may be read, and ``NumReads`` reads
before it may be overwritten.  Early requests queue (or NACK on a full
queue); satisfied trackers expire.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SynchronizationError("tracked range must be non-empty")
        if self.num_updates < 0 or self.num_reads < 0:
            raise SynchronizationError(
                "update/read counts must be non-negative"
            )

    @property
    def end(self) -> int:
        return self.start + self.size

    @property
    def phase(self) -> TrackerPhase:
        if self.updates_seen < self.num_updates:
            return TrackerPhase.UPDATING
        if self.reads_seen < self.num_reads:
            return TrackerPhase.READABLE
        return TrackerPhase.EXPIRED

    def overlaps(self, start: int, size: int) -> bool:
        return start < self.end and self.start < start + size

    # ------------------------------------------------------------------
    def try_write(self) -> AccessVerdict:
        """A write against this range: allowed only while updating."""
        if self.phase is TrackerPhase.UPDATING:
            self.updates_seen += 1
            return AccessVerdict.ALLOW
        if self.phase is TrackerPhase.READABLE:
            return AccessVerdict.BLOCK
        return AccessVerdict.ALLOW  # expired: range is free again

    def try_read(self) -> AccessVerdict:
        """A read against this range: allowed only once updates are in."""
        if self.phase is TrackerPhase.UPDATING:
            return AccessVerdict.BLOCK
        if self.phase is TrackerPhase.READABLE:
            self.reads_seen += 1
            return AccessVerdict.ALLOW
        return AccessVerdict.ALLOW


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

    def __len__(self) -> int:
        self._reap()
        return len(self._trackers)

    def _reap(self) -> None:
        if self.emit is not None:
            for t in self._trackers:
                if t.phase is TrackerPhase.EXPIRED:
                    self._emit_expire(t)
        self._trackers = [
            t for t in self._trackers if t.phase is not TrackerPhase.EXPIRED
        ]

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
        return tracker

    def _matching(self, start: int, size: int) -> Optional[RangeTracker]:
        for tracker in self._trackers:
            if tracker.overlaps(start, size):
                return tracker
        return None

    def read_blocked(self, start: int, size: int) -> bool:
        """Peek: would a read of [start, start+size) block right now?

        Counts a blocked read when it would — the engine's gate peeks
        every access of an instruction before consuming any, so a
        blocked companion access must not advance tracker counts."""
        tracker = self._matching(start, size)
        if tracker is not None and tracker.phase is TrackerPhase.UPDATING:
            self.blocked_reads += 1
            return True
        return False

    def write_blocked(self, start: int, size: int) -> bool:
        """Peek: would a write to [start, start+size) block right now?
        Counts a blocked write when it would (see :meth:`read_blocked`)."""
        tracker = self._matching(start, size)
        if tracker is not None and tracker.phase is TrackerPhase.READABLE:
            self.blocked_writes += 1
            return True
        return False

    def check_write(self, start: int, size: int) -> AccessVerdict:
        """Gate a write to [start, start+size)."""
        tracker = self._matching(start, size)
        if tracker is None:
            return AccessVerdict.ALLOW
        verdict = tracker.try_write()
        if verdict is AccessVerdict.BLOCK:
            self.blocked_writes += 1
            if self.emit is not None:
                self.emit(
                    "block_write", tracker.start, tracker.size,
                    tracker.phase.value,
                )
        elif self.emit is not None and (
            tracker.phase is TrackerPhase.EXPIRED
        ):
            self._emit_expire(tracker)
        return verdict

    def check_read(self, start: int, size: int) -> AccessVerdict:
        """Gate a read of [start, start+size)."""
        tracker = self._matching(start, size)
        if tracker is None:
            return AccessVerdict.ALLOW
        verdict = tracker.try_read()
        if verdict is AccessVerdict.BLOCK:
            self.blocked_reads += 1
            if self.emit is not None:
                self.emit(
                    "block_read", tracker.start, tracker.size,
                    tracker.phase.value,
                )
        elif self.emit is not None and (
            tracker.phase is TrackerPhase.EXPIRED
        ):
            self._emit_expire(tracker)
        return verdict

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
                tracker.updates_seen = tracker.num_updates
                tracker.reads_seen = tracker.num_reads
        self._reap()
