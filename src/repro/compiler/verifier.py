"""Static verification of compiled program sets and compiler IR.

`Program.validate` checks one program's structural well-formedness;
this verifier checks whole compiled *sets* against a machine shape, and
— since the pass pipeline landed — :func:`verify_ir` checks a
:class:`~repro.compiler.ir.MappingIR` between passes:

* every address range a data instruction touches fits inside its
  tile's scratchpad;
* every port names a tile that exists (or external memory);
* every read of a scratchpad range is preceded — somewhere in the set —
  by a write or a machine-build preload covering it (no reads of
  never-written memory);
* every tracker arms a range inside an existing tile's scratchpad
  (never external memory);
* armed trackers fit the MemHeavy tracker-file capacity per tile.

Program-set checks read the compile's
:class:`~repro.compiler.trackers.AccessTable`, and record written
memory as merged intervals per tile, so a read costs one bisect.

The code generators run it as a back-end gate: a program set that
passes cannot fault the engine on addressing, and cannot silently read
uninitialised scratchpad.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.compiler.trackers import AccessTable
from repro.errors import IRVerificationError, ProgramError
from repro.isa.program import Program
from repro.sim.engine import EXTERNAL_PORT
from repro.sim.machine import is_reg_operand


@dataclass(frozen=True)
class Issue:
    """One verification finding."""

    program: str
    pc: int
    message: str

    def __str__(self) -> str:
        return f"{self.program}@{self.pc}: {self.message}"


@dataclass(frozen=True)
class MachineShape:
    """The addressing envelope programs must respect."""

    mem_tiles: int
    words_per_tile: int
    trackers_per_tile: int = 32

    def valid_port(self, port: int) -> bool:
        return port == EXTERNAL_PORT or 0 <= port < self.mem_tiles


def _located(table: AccessTable, reads: bool) -> Iterator[
    Tuple[str, int, int, int, int]
]:
    """Every (program, pc, port, addr, words) read, or every write."""
    which = 1 if reads else 2
    for program, rows in zip(table.programs, table.accesses):
        for row in rows:
            for port, addr, count in row[which]:
                yield program.tile, row[0], port, addr, count


def _merged(
    regions: Iterable[Tuple[int, int, int]],
) -> Dict[int, Tuple[List[int], List[int]]]:
    """Per port, the written words as sorted, disjoint, non-adjacent
    intervals: their starts and their ends."""
    spans: Dict[int, List[Tuple[int, int]]] = {}
    for port, addr, count in regions:
        if count > 0:
            spans.setdefault(port, []).append((addr, addr + count))
    merged: Dict[int, Tuple[List[int], List[int]]] = {}
    for port, intervals in spans.items():
        intervals.sort()
        starts, ends = [intervals[0][0]], [intervals[0][1]]
        for start, end in intervals[1:]:
            if start <= ends[-1]:
                ends[-1] = max(ends[-1], end)
            else:
                starts.append(start)
                ends.append(end)
        merged[port] = (starts, ends)
    return merged


def _unwritten(
    starts: List[int], ends: List[int], addr: int, count: int
) -> Tuple[int, int]:
    """(how many words of ``[addr, addr + count)`` no interval covers,
    the first of them)."""
    end = addr + count
    i = bisect_right(ends, addr)
    missing, first, pos = 0, addr, addr
    while pos < end:
        if i < len(starts) and starts[i] <= pos:
            pos = ends[i]
            i += 1
            continue
        gap_end = min(end, starts[i]) if i < len(starts) else end
        if not missing:
            first = pos
        missing += gap_end - pos
        pos = gap_end
    return missing, first


def verify_programs(
    programs: Sequence[Program],
    shape: MachineShape,
    preloaded: Sequence[Tuple[int, int, int]] = (),
    host_writes: Sequence[Tuple[int, int, int]] = (),
    table: Optional[AccessTable] = None,
) -> List[Issue]:
    """Check a program set; returns the list of findings (empty = ok).

    ``preloaded`` lists (port, addr, words) regions written at machine
    build (weights, biases, the input image's home blocks);
    ``host_writes`` lists regions the host injects between phases.
    ``table`` is the :class:`AccessTable` of ``programs`` when the
    caller already built one; otherwise one is built here.
    """
    if table is None:
        table = AccessTable(programs)
    issues: List[Issue] = []

    # 1. Addressing envelope.  Register-indirect instructions are not in
    # the table: they are checked at execution.
    for tile, pc, port, addr, count in chain(
        _located(table, reads=True), _located(table, reads=False)
    ):
        if not shape.valid_port(port):
            issues.append(Issue(tile, pc, f"port {port} does not exist"))
            continue
        if port == EXTERNAL_PORT:
            continue
        if addr < 0 or addr + count > shape.words_per_tile:
            issues.append(Issue(
                tile, pc,
                f"range [{addr}, {addr + count}) exceeds the "
                f"{shape.words_per_tile}-word scratchpad of tile {port}",
            ))

    # 2. No reads of never-written scratchpad.
    written = _merged(chain(
        preloaded, host_writes,
        (
            (port, addr, count)
            for _, _, port, addr, count in _located(table, reads=False)
            if port != EXTERNAL_PORT
        ),
    ))
    for tile, pc, port, addr, count in _located(table, reads=True):
        if port == EXTERNAL_PORT:
            continue
        missing, first = _unwritten(*written.get(port, ([], [])),
                                    addr, count)
        if missing:
            issues.append(Issue(
                tile, pc,
                f"reads {missing} never-written word(s) of tile "
                f"{port} starting at {first}",
            ))

    # 3. Every arm names a scratchpad range the engine can track.  A
    # negative immediate carries the register flag but is no register.
    for prog, pc, port, addr, size in table.arms:
        if any(v >= 0 and is_reg_operand(v) for v in (port, addr, size)):
            continue  # register-indirect: checked at execution
        tile = table.programs[prog].tile
        if port == EXTERNAL_PORT:
            issues.append(Issue(
                tile, pc, "arms a tracker on external memory"
            ))
        elif not shape.valid_port(port):
            issues.append(Issue(
                tile, pc, f"tracker port {port} does not exist"
            ))
        elif addr < 0 or addr + size > shape.words_per_tile:
            issues.append(Issue(
                tile, pc,
                f"tracked range [{addr}, {addr + size}) exceeds the "
                f"{shape.words_per_tile}-word scratchpad of tile {port}",
            ))

    # 4. Tracker-file capacity per tile.
    armed: Dict[int, int] = {}
    for arm in table.arms:
        armed[arm.port] = armed.get(arm.port, 0) + 1
    for port, count in armed.items():
        if count > shape.trackers_per_tile:
            issues.append(Issue(
                "<set>", -1,
                f"tile {port} arms {count} trackers; the tracker file "
                f"holds {shape.trackers_per_tile}",
            ))
    return issues


# ---------------------------------------------------------------------------
# IR verification (runs between compiler passes)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IRIssue:
    """One IR verification finding, anchored to an op (or the IR)."""

    op: str
    message: str

    def __str__(self) -> str:
        return f"{self.op}: {self.message}"


def verify_ir(ir, shape: Optional[MachineShape] = None) -> List[IRIssue]:
    """Check a :class:`~repro.compiler.ir.MappingIR`; returns findings.

    Structural checks apply to both levels (unique ops, resolvable edge
    endpoints, positive edge words, a schedule that references real ops
    exactly once).  At tile level a ``shape`` additionally bounds the
    placements: home blocks must fit the scratchpad and no two FP ops
    may claim overlapping home words of the same tile.
    """
    from repro.compiler.ir import Phase  # local: avoid import cycle

    issues: List[IRIssue] = []
    names: Set[str] = set()
    for op in ir.ops:
        if op.name in names:
            issues.append(IRIssue(op.name, "duplicate op name"))
        names.add(op.name)
        if op.column < 0 and ir.level == "tile":
            issues.append(IRIssue(
                op.name, f"tile-level op has no column ({op.column})"
            ))
    for edge in ir.edges:
        for end in (edge.src, edge.dst):
            if end not in names:
                issues.append(IRIssue(
                    end, f"edge {edge.src} -> {edge.dst} references an "
                    "op that does not exist",
                ))
        if edge.words <= 0:
            issues.append(IRIssue(
                edge.src,
                f"edge {edge.src} -> {edge.dst} moves {edge.words} words",
            ))
        if edge.src == edge.dst:
            issues.append(IRIssue(
                edge.src, "self-edge (an op cannot feed itself)"
            ))
    seen_sched: Set[str] = set()
    for name in ir.schedule:
        if name not in names:
            issues.append(IRIssue(
                name, "schedule references an op that does not exist"
            ))
        elif name in seen_sched:
            issues.append(IRIssue(name, "op scheduled twice"))
        seen_sched.add(name)

    if ir.level == "tile" and shape is not None:
        claimed: Dict[Tuple[int, int], List[Tuple[int, int, str]]] = {}
        for op in ir.ops:
            if op.phase is not Phase.FP:
                continue
            attrs = op.attrs
            if "address" not in attrs:
                continue
            words = attrs["feature_count"] * attrs["feature_words"]
            addr = attrs["address"]
            if addr < 0 or addr + words > shape.words_per_tile:
                issues.append(IRIssue(
                    op.name,
                    f"home block [{addr}, {addr + words}) exceeds the "
                    f"{shape.words_per_tile}-word scratchpad",
                ))
            if op.row < 0 or op.column < 0:
                issues.append(IRIssue(
                    op.name, f"unplaced op (c{op.column} r{op.row})"
                ))
                continue
            for lo, hi, other in claimed.get((op.column, op.row), []):
                if addr < hi and lo < addr + words:
                    issues.append(IRIssue(
                        op.name,
                        f"home block overlaps {other} on tile "
                        f"c{op.column} r{op.row}",
                    ))
            claimed.setdefault((op.column, op.row), []).append(
                (addr, addr + words, op.name)
            )
    return issues


def assert_ir_verified(ir, shape: Optional[MachineShape] = None) -> None:
    """Raise :class:`IRVerificationError` listing every finding."""
    issues = verify_ir(ir, shape)
    if issues:
        summary = "; ".join(str(i) for i in issues[:5])
        more = f" (+{len(issues) - 5} more)" if len(issues) > 5 else ""
        raise IRVerificationError(
            f"IR verification failed for {ir.network}: {summary}{more}",
            issues=issues,
        )


def assert_verified(
    programs: Sequence[Program],
    shape: MachineShape,
    preloaded: Sequence[Tuple[int, int, int]] = (),
    host_writes: Sequence[Tuple[int, int, int]] = (),
    table: Optional[AccessTable] = None,
) -> None:
    """Raise :class:`ProgramError` listing every finding, if any."""
    issues = verify_programs(programs, shape, preloaded, host_writes, table)
    if issues:
        summary = "; ".join(str(i) for i in issues[:5])
        more = f" (+{len(issues) - 5} more)" if len(issues) > 5 else ""
        raise ProgramError(f"program verification failed: {summary}{more}")
