"""Tests for the MEMTRACK data-flow tracker semantics (Sec 3.2.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SynchronizationError
from repro.sim.tracker import (
    AccessVerdict,
    RangeTracker,
    TrackerFile,
    TrackerPhase,
)


class TestRangeTracker:
    def test_lifecycle(self):
        t = RangeTracker(0, 16, num_updates=2, num_reads=3)
        assert t.phase is TrackerPhase.UPDATING
        assert t.try_read() is AccessVerdict.BLOCK
        assert t.try_write() is AccessVerdict.ALLOW
        assert t.try_write() is AccessVerdict.ALLOW
        assert t.phase is TrackerPhase.READABLE
        assert t.try_write() is AccessVerdict.BLOCK
        for _ in range(3):
            assert t.try_read() is AccessVerdict.ALLOW
        assert t.phase is TrackerPhase.EXPIRED
        # Expired: the range is free again.
        assert t.try_write() is AccessVerdict.ALLOW
        assert t.try_read() is AccessVerdict.ALLOW

    def test_zero_updates_immediately_readable(self):
        t = RangeTracker(0, 4, num_updates=0, num_reads=1)
        assert t.phase is TrackerPhase.READABLE
        assert t.try_read() is AccessVerdict.ALLOW
        assert t.phase is TrackerPhase.EXPIRED

    def test_overlap(self):
        t = RangeTracker(10, 10, 1, 1)
        assert t.overlaps(15, 2)
        assert t.overlaps(5, 6)
        assert not t.overlaps(20, 4)
        assert not t.overlaps(0, 10)

    def test_validation(self):
        with pytest.raises(SynchronizationError):
            RangeTracker(0, 0, 1, 1)
        with pytest.raises(SynchronizationError):
            RangeTracker(0, 4, -1, 1)


class TestTrackerFile:
    def test_arm_and_gate(self):
        f = TrackerFile()
        f.arm(0, 8, num_updates=1, num_reads=1)
        assert f.check_read(0, 8) is AccessVerdict.BLOCK
        assert f.blocked_reads == 1
        assert f.check_write(0, 8) is AccessVerdict.ALLOW
        assert f.check_read(2, 2) is AccessVerdict.ALLOW  # subrange hits

    def test_untracked_ranges_free(self):
        f = TrackerFile()
        assert f.check_read(100, 4) is AccessVerdict.ALLOW
        assert f.check_write(100, 4) is AccessVerdict.ALLOW

    def test_overlapping_arm_rejected(self):
        f = TrackerFile()
        f.arm(0, 8, 1, 1)
        with pytest.raises(SynchronizationError):
            f.arm(4, 8, 1, 1)

    def test_expired_trackers_reaped(self):
        f = TrackerFile()
        f.arm(0, 8, 1, 1)
        f.check_write(0, 8)
        f.check_read(0, 8)
        assert len(f) == 0
        # The freed range can be re-armed.
        f.arm(0, 8, 2, 2)
        assert len(f) == 1

    def test_capacity_enforced(self):
        f = TrackerFile(capacity=2)
        f.arm(0, 4, 1, 1)
        f.arm(8, 4, 1, 1)
        with pytest.raises(SynchronizationError):
            f.arm(16, 4, 1, 1)

    def test_capacity_validation(self):
        with pytest.raises(SynchronizationError):
            TrackerFile(capacity=0)


class TestTrackerProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        num_updates=st.integers(0, 8),
        num_reads=st.integers(0, 8),
        ops=st.lists(st.sampled_from(["r", "w"]), max_size=40),
    )
    def test_invariant_reads_after_updates(self, num_updates, num_reads, ops):
        """Whatever the access order, no read succeeds before all
        updates arrive, and no post-update write succeeds before all
        reads drain — the MEMTRACK contract."""
        t = RangeTracker(0, 4, num_updates, num_reads)
        writes_seen = reads_seen = 0
        for op in ops:
            phase_before = t.phase
            if op == "r":
                verdict = t.try_read()
                if verdict is AccessVerdict.ALLOW and (
                    phase_before is not TrackerPhase.EXPIRED
                ):
                    reads_seen += 1
                    assert writes_seen == num_updates
            else:
                verdict = t.try_write()
                if verdict is AccessVerdict.ALLOW and (
                    phase_before is not TrackerPhase.EXPIRED
                ):
                    writes_seen += 1
                    assert writes_seen <= num_updates
        assert reads_seen <= num_reads
