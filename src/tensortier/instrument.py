"""Instruction stream emission.

Flattens a migration plan onto the kernel sequence as a text program: one
KERNEL line per kernel plus G10 directives (alloc, free, pre_evict,
prefetch) placed in the gaps between kernels. Allocations sit before the
kernel that writes the tensor, frees after the kernel that last uses it,
pre-evictions after the last kernel to finish before the transfer starts,
and prefetches before the kernel that needs the tensor back. Issue tags
(@t) carry the planned start times, folded into one iteration.

Sizes in the text are the raw tensor sizes; page rounding is an engine
concern.

program_skeleton is what no plan changes: the kernels and each gap's
sorted allocs and frees. A simulate.ReplayContext builds it once per trace
and device, and emit_program adds a plan's directives to the context's
copy, sorting only the gaps a directive joins. A program emitted from a
context (its origin) replays from the context's alloc/free stream, exact
for every plan: the gap sort key (issue time, op precedence, tensor id)
orders allocs and frees alike whatever directives join them.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from tensortier.config import Destination
from tensortier.vitality import VitalityAnalysis


class InconsistentPlanError(ValueError):
    """Plan references times or tensors the trace cannot anchor."""


class ProgramParseError(ValueError):
    pass


class Op(enum.Enum):
    ALLOC = "alloc"
    FREE = "free"
    PREFETCH = "prefetch"
    PRE_EVICT = "pre_evict"


# tie order for instructions sharing an issue time in one gap
_PRECEDENCE = {Op.FREE: 0, Op.PRE_EVICT: 1, Op.ALLOC: 2, Op.PREFETCH: 3}


class MigrationInstruction(NamedTuple):
    op: Op
    tensor_id: int
    size_bytes: int
    issue_us: int
    dest: Destination | None = None   # pre_evict only

    def line(self) -> str:
        if self.op is Op.PRE_EVICT:
            return (f"G10 {self.op.value} {self.tensor_id} {self.size_bytes} "
                    f"{self.dest.value} @{self.issue_us}")
        return (f"G10 {self.op.value} {self.tensor_id} {self.size_bytes} "
                f"@{self.issue_us}")


class ProgramKernel(NamedTuple):
    index: int
    name: str
    duration_us: int

    def line(self) -> str:
        return f"KERNEL {self.index} {self.name} {self.duration_us}"


@dataclass(frozen=True)
class Program:
    """n kernels and n+1 gaps; gap k precedes kernel k. origin is the
    ReplayContext emit_program built it from, if any."""

    kernels: tuple[ProgramKernel, ...]
    gaps: tuple[tuple[MigrationInstruction, ...], ...]
    origin: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.gaps) != len(self.kernels) + 1:
            raise InconsistentPlanError("gap count must be kernel count + 1")

    def instructions(self):
        for gap in self.gaps:
            yield from gap

    def validate_alternation(self) -> None:
        """Each tensor's pre_evict and prefetch directives must alternate
        when the program is read as one turn of a repeating loop. A prefetch
        may precede its pre_evict in stream order: that is a transfer folded
        across the iteration boundary."""
        ops: dict[int, list[Op]] = {}
        for ins in self.instructions():
            if ins.op in (Op.PRE_EVICT, Op.PREFETCH):
                ops.setdefault(ins.tensor_id, []).append(ins.op)
        for tid, seq in ops.items():
            if Op.PRE_EVICT not in seq:
                raise InconsistentPlanError(
                    f"tensor {tid}: prefetch without pre_evict")
            first = seq.index(Op.PRE_EVICT)
            rotated = seq[first:] + seq[:first]
            for pos, op in enumerate(rotated):
                want = Op.PRE_EVICT if pos % 2 == 0 else Op.PREFETCH
                if op is not want:
                    raise InconsistentPlanError(
                        f"tensor {tid}: out-of-order migration directives")
            if len(rotated) % 2:
                raise InconsistentPlanError(
                    f"tensor {tid}: pre_evict without matching prefetch")


def _sorted_gap(instructions) -> tuple[MigrationInstruction, ...]:
    return tuple(sorted(instructions,
                        key=lambda i: (i.issue_us, _PRECEDENCE[i.op],
                                       i.tensor_id)))


def program_skeleton(analysis: VitalityAnalysis):
    """(kernels, gaps) of the skeleton (module docstring). A gap's entries
    share its boundary's time, so it sorts as frees, then allocs, by id."""
    trace, timeline = analysis.trace, analysis.timeline
    alloc, free = Op.ALLOC, Op.FREE
    frees = [[] for _ in range(len(trace.kernels) + 1)]
    allocs = [[] for _ in frees]
    for tid, life in sorted(analysis.lifetimes.items()):
        size = trace.tensors[tid].size_bytes
        if life.is_global:
            allocs[0].append(MigrationInstruction(alloc, tid, size, 0))
            continue
        k = life.birth_kernel
        allocs[k].append(MigrationInstruction(
            alloc, tid, size, timeline.starts[k]))
        k = life.death_kernel
        frees[k + 1].append(MigrationInstruction(
            free, tid, size, timeline.ends[k]))
    return (tuple(ProgramKernel(k.index, k.name, k.duration_us)
                  for k in trace.kernels),
            tuple(tuple(f + a) for f, a in zip(frees, allocs)))


def emit_program(context, plan) -> Program:
    """The program of plan (an eviction.MigrationPlan) over the skeleton of
    context (a simulate.ReplayContext), which it names as its origin."""
    trace = context.trace
    timeline = context.analysis.timeline
    total = timeline.total_us
    if plan.total_us != total:
        raise InconsistentPlanError("plan and trace disagree on iteration length")
    gaps = list(context.skeleton.gaps)
    start_index = {timeline.starts[k]: k for k in range(len(trace.kernels))}

    for item in plan.items:
        if item.tensor_id not in trace.tensors:
            raise InconsistentPlanError(f"plan tensor {item.tensor_id} not in trace")
        size = trace.tensors[item.tensor_id].size_bytes
        # after the last kernel already finished when the eviction starts
        k = bisect.bisect_right(timeline.ends, item.evict_start)
        if k == 0:
            raise InconsistentPlanError(
                f"eviction at {item.evict_start} precedes every kernel end")
        gaps[k] += (MigrationInstruction(
            Op.PRE_EVICT, item.tensor_id, size, item.evict_start,
            dest=item.dest),)

        consumer_start = item.period_end - total if item.wraps else item.period_end
        consumer = start_index.get(consumer_start)
        if consumer is None:
            raise InconsistentPlanError(
                f"no kernel starts at {consumer_start} for tensor {item.tensor_id}")
        issue = item.scheduled_us
        if issue is None:
            raise InconsistentPlanError("plan item missing a scheduled time")
        if issue >= total:
            issue -= total
        gaps[consumer] += (MigrationInstruction(
            Op.PREFETCH, item.tensor_id, size, issue),)

    return Program(context.skeleton.kernels,
                   tuple(g if g is s else _sorted_gap(g)
                         for g, s in zip(gaps, context.skeleton.gaps)),
                   context)


def serialize_program(program: Program) -> str:
    lines = []
    for k, kernel in enumerate(program.kernels):
        lines.extend(ins.line() for ins in program.gaps[k])
        lines.append(kernel.line())
    lines.extend(ins.line() for ins in program.gaps[-1])
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ProgramParseError(f"bad {what}: {token!r}") from None


def parse_program(raw: str | bytes) -> Program:
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProgramParseError(f"not valid UTF-8: {exc}") from None
    kernels: list[ProgramKernel] = []
    gaps: list[list[MigrationInstruction]] = [[]]
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "KERNEL":
            if len(parts) < 4:
                raise ProgramParseError(f"line {lineno}: short KERNEL line")
            index = _parse_int(parts[1], "kernel index")
            if index != len(kernels):
                raise ProgramParseError(
                    f"line {lineno}: kernel index {index}, expected {len(kernels)}")
            duration = _parse_int(parts[-1], "duration")
            kernels.append(ProgramKernel(index, " ".join(parts[2:-1]), duration))
            gaps.append([])
        elif parts[0] == "G10":
            if len(parts) < 5 or not parts[-1].startswith("@"):
                raise ProgramParseError(f"line {lineno}: malformed directive")
            try:
                op = Op(parts[1])
            except ValueError:
                raise ProgramParseError(
                    f"line {lineno}: unknown op {parts[1]!r}") from None
            dest = None
            if op is Op.PRE_EVICT:
                if len(parts) != 6:
                    raise ProgramParseError(f"line {lineno}: pre_evict needs a target")
                try:
                    dest = Destination(parts[4])
                except ValueError:
                    raise ProgramParseError(
                        f"line {lineno}: unknown target {parts[4]!r}") from None
            elif len(parts) != 5:
                raise ProgramParseError(f"line {lineno}: malformed directive")
            gaps[-1].append(MigrationInstruction(
                op, _parse_int(parts[2], "tensor id"),
                _parse_int(parts[3], "size"),
                _parse_int(parts[-1][1:], "issue time"), dest=dest))
        else:
            raise ProgramParseError(f"line {lineno}: unknown record {parts[0]!r}")
    return Program(tuple(kernels), tuple(tuple(g) for g in gaps))
