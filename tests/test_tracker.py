"""Tests for the MEMTRACK data-flow tracker semantics (Sec 3.2.4)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SynchronizationError
from repro.sim.tracker import (
    AccessVerdict,
    RangeTracker,
    TrackerFile,
    TrackerPhase,
    Waiter,
    gate,
    runs,
)
from tests import tracker_gate_oracle


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


class TestBulkTake:
    @settings(max_examples=300, deadline=None)
    @given(
        num_updates=st.integers(0, 5),
        num_reads=st.integers(0, 5),
        updates_seen=st.integers(0, 5),
        reads_seen=st.integers(0, 5),
        read=st.booleans(),
        n=st.integers(1, 12),
    )
    def test_n_accesses_count_as_n_single_takes(
        self, num_updates, num_reads, updates_seen, reads_seen, read, n
    ):
        """``_take(read, n)`` leaves the counts and phase ``n`` single
        takes leave and reports whether any changed the phase; where a
        single take would be refused part-way (writes past
        ``num_updates`` into a readable range), it refuses the lot."""
        updates_seen = min(updates_seen, num_updates)
        reads_seen = min(reads_seen, num_reads)
        if updates_seen < num_updates:
            reads_seen = 0
        bulk = RangeTracker(0, 4, num_updates, num_reads, updates_seen,
                            reads_seen)
        single = RangeTracker(0, 4, num_updates, num_reads, updates_seen,
                              reads_seen)
        changed = False
        for _ in range(n):
            one = single._take(read)
            if one is None:
                changed = None
                break
            changed = changed or one
        before = (bulk.updates_seen, bulk.reads_seen, bulk.phase)
        assert bulk._take(read, n) == changed
        if changed is None:
            assert (bulk.updates_seen, bulk.reads_seen, bulk.phase) == before
        else:
            assert (bulk.updates_seen, bulk.reads_seen, bulk.phase) == (
                single.updates_seen, single.reads_seen, single.phase
            )


#: Address space of a drawn tracker file: armed ranges, and the quads
#: gated against them, fall in [0, _SPACE).
_SPACE = 40


@st.composite
def _gate_case(draw):
    """One drawn gate call: tracker files with disjoint armed ranges in
    any arming order (some partly consumed, some expired but not yet
    reaped), queued waiters, and the read and write quads of one
    instruction as ``(file, addr, words)``."""
    n_files = draw(st.integers(1, 3))
    files = []
    for _ in range(n_files):
        ranges, at = [], draw(st.integers(0, 3))
        for _ in range(draw(st.integers(0, 4))):
            size = draw(st.integers(1, 8))
            if at + size > _SPACE:
                break
            num_updates = draw(st.integers(0, 3))
            num_reads = draw(st.integers(0, 3))
            updates_seen, reads_seen = num_updates, num_reads  # expired
            phase = draw(st.sampled_from(TrackerPhase))
            if phase is TrackerPhase.UPDATING and num_updates:
                updates_seen = draw(st.integers(0, num_updates - 1))
                reads_seen = 0
            elif phase is TrackerPhase.READABLE and num_reads:
                reads_seen = draw(st.integers(0, num_reads - 1))
            ranges.append((at, size, num_updates, num_reads, updates_seen,
                           reads_seen))
            at += size + draw(st.integers(0, 3))
        files.append(draw(st.permutations(ranges)))
    waiters = draw(st.lists(
        st.lists(st.integers(0, n_files - 1), min_size=1, max_size=n_files,
                 unique=True),
        max_size=3,
    ))

    def run():  # one to five consecutive quads on one file
        f = draw(st.integers(0, n_files - 1))
        armed = files[f]
        inside = armed and draw(st.booleans())
        if inside:  # in one armed range
            start, size = draw(st.sampled_from(armed))[:2]
        quads = []
        for _ in range(draw(st.integers(1, 5))):
            if not inside:  # anywhere: across ranges and gaps, or uncovered
                addr = draw(st.integers(0, _SPACE - 1))
                quads.append((f, addr, draw(st.integers(1, 12))))
            elif draw(st.integers(0, 7)):
                addr = draw(st.integers(start, start + size - 1))
                words = draw(st.integers(1, start + size - addr))
                quads.append((f, addr, words))
            else:  # degenerate at the range's edge: it overlaps nothing
                addr, words = draw(st.sampled_from(
                    [(start, 0), (start + size, 0), (start + 1, -1)]
                ))
                quads.append((f, addr, words))
        return quads

    reads = [q for _ in range(draw(st.integers(0, 4))) for q in run()]
    writes = [q for _ in range(draw(st.integers(0, 4))) for q in run()]
    return files, waiters, reads, writes


def _build(files, waiters):
    """Fresh tracker files and queued waiters for a :func:`_gate_case`,
    every file's events recorded in one list."""
    events = []
    built = []
    for f, armed in enumerate(files):
        trackers = TrackerFile()
        trackers.emit = (
            lambda event, start, size, phase, f=f:
            events.append((f, event, start, size, phase))
        )
        for start, size, num_updates, num_reads, updates, reads in armed:
            trackers.arm(start, size, num_updates, num_reads)._count(
                updates, reads
            )
        built.append(trackers)
    queued = []
    for touched in waiters:
        waiter = Waiter()
        waiter.wait(tuple(built[f] for f in touched))
        queued.append(waiter)
    events.clear()  # the arms
    return built, queued, events


def _state(built, queued, events):
    def index(trackers):
        return built.index(trackers)

    return (
        [
            (
                trackers.blocked_reads, trackers.blocked_writes,
                [
                    (t.start, t.size, t.num_updates, t.num_reads,
                     t.updates_seen, t.reads_seen, t.phase,
                     t.expire_emitted)
                    for t in trackers._trackers
                ],
                [queued.index(w) for w in trackers.waiters],
            )
            for trackers in built
        ],
        [(w.asleep, [index(f) for f in w.files]) for w in queued],
        list(events),
    )


def _outcome(gate_fn, built, reads, writes):
    """The gate's verdict in file-independent terms: None, ``(kind,
    (file, port, addr, words), tracker position)`` or the
    AssertionError an over-consumed range raises."""
    try:
        refused = gate_fn(reads, writes)
    except AssertionError as exc:
        return ("raised", str(exc))
    if refused is None:
        return None
    kind, (trackers, port, addr, words), tracker = refused
    f = built.index(trackers)
    return kind, (f, port, addr, words), trackers._trackers.index(tracker)


class TestGateAgainstOracle:
    """The run gate against the quad-by-quad gate it replaced
    (``tests/tracker_gate_oracle.py``): the same verdict, refused quad
    and tracker, blocked counters, tracker counts and phases, released
    waiters and events, in order."""

    @settings(max_examples=200, deadline=None)
    @given(case=_gate_case())
    # (file, addr, words) quads against armed ranges (start, size,
    # num_updates, num_reads, updates_seen, reads_seen), one per case:
    # a write run past a read range's updates; a read run past its
    # reads; a write run spanning two ranges; a run ending in a
    # zero-word quad at its range's first word.
    @example(case=([[(0, 8, 2, 1, 0, 0)]], [[0]], [],
                   [(0, 0, 2), (0, 2, 2), (0, 4, 2)]))
    @example(case=([[(0, 8, 0, 2, 0, 0)]], [[0]], [(0, 0, 2)] * 3, []))
    @example(case=([[(4, 4, 1, 1, 0, 0), (0, 4, 1, 1, 0, 0)]], [], [],
                   [(0, 0, 2), (0, 4, 2)]))
    @example(case=([[(4, 8, 3, 1, 0, 0)]], [], [],
                   [(0, 6, 2), (0, 4, 0)]))
    def test_same_verdict_counts_wakes_and_events(self, case):
        files, waiters, reads, writes = case
        old = _build(files, waiters)
        new = _build(files, waiters)

        def quads(built, accesses):
            return [(built[f], f, addr, words) for f, addr, words in accesses]

        want = _outcome(
            tracker_gate_oracle.gate, old[0],
            quads(old[0], reads), quads(old[0], writes),
        )
        got = _outcome(
            gate, new[0],
            runs(quads(new[0], reads)), runs(quads(new[0], writes)),
        )
        assert got == want
        if want is None or want[0] != "raised":
            assert _state(*new) == _state(*old)

    def test_a_refused_run_reports_its_first_quad_once(self):
        trackers = TrackerFile()
        trackers.arm(0, 16, num_updates=1, num_reads=1)
        quads = [(trackers, 0, 4, 2), (trackers, 0, 0, 4), (trackers, 0, 8, 8)]
        grouped = runs(quads)
        assert grouped == ((trackers, 0, 16, tuple(quads)),)
        assert gate(grouped, ()) == ("read", quads[0], trackers._trackers[0])
        assert trackers.blocked_reads == 1

    def test_a_run_counts_one_access_per_quad(self):
        trackers = TrackerFile()
        tracker = trackers.arm(0, 16, num_updates=3, num_reads=2)
        writes = runs([(trackers, 0, addr, 4) for addr in (0, 4, 8)])
        assert gate((), writes) is None
        assert tracker.updates_seen == 3
        assert tracker.phase is TrackerPhase.READABLE
        # Three reads of a range read twice: the third is free.
        assert gate(runs([(trackers, 0, 0, 4)] * 3), ()) is None
        assert tracker.reads_seen == 2
        assert tracker.phase is TrackerPhase.EXPIRED

    def test_writes_past_the_updates_of_a_read_range_raise(self):
        trackers = TrackerFile()
        trackers.arm(0, 16, num_updates=2, num_reads=1)
        with pytest.raises(AssertionError, match="refused after the gate"):
            gate((), runs([(trackers, 0, 0, 4)] * 3))

    def test_degenerate_quads_run_alone(self):
        """A zero-word quad at a tracker's first word overlaps nothing,
        though the hull of its neighbours lies inside the tracker."""
        trackers = TrackerFile()
        quads = [(trackers, 0, 4, 4), (trackers, 0, 0, 0), (trackers, 0, 2, 2)]
        assert [len(run[3]) for run in runs(quads)] == [1, 1, 1]
